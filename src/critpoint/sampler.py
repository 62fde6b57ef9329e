"""Base measures and seed-deterministic i.i.d. sampling.

The single-realization experiments (one sequence Z_1, Z_2, ... examined at
growing n) need *prefix stability*: asking for more samples must never
change the ones already drawn.  Sampling is therefore keyed by a
counter-based generator (Philox) keyed by (master_seed, stream_id), and
every sample consumes exactly two uniforms, so sample k is a pure function
of (measure, seed, k).

Stream ids of derived streams come from a splitmix64 fold over
(stream_id, purpose, index), one numpy pass for any number of indexes
(`SeedSpec.substreams`).  `sample` draws one path, or with `streams` one
row per stream id: each row's uniforms come from one reused Philox reset
to that stream's key at counter 0, in the calling thread, and the measure
transform then runs over row blocks on every CPU (`logderiv._blocked`),
written over the uniforms' buffer.  Every row is bit for bit the path of
its stream drawn alone.

The key rule (`_philox_keys`) is the one numpy applies to the list
[master_seed, stream_id]: where exactly one word is >= 2**63 that list goes
through float64, so both words are rounded to 53 significant bits.  Under
a master seed below 2**63, stream ids at or above 2**63 that round to the
same double (2048 apart there) share a key, and so their samples.  Mending
that would move half of all derived streams, so the rule is kept; a word
that rounds to 2**64 has no key and raises ParameterError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .errors import ParameterError, as_complex, as_count, as_int, as_list, as_positive
from .logderiv import _blocked

_KINDS = ("FiniteSupport", "UniformCircle", "UniformDisk", "ComplexGaussian", "ComplexCauchy")

#: (location, scale) parameter names of the continuous kinds
_LOC_SCALE = {"UniformCircle": ("center", "radius"), "UniformDisk": ("center", "radius"),
              "ComplexGaussian": ("mean", "scale"), "ComplexCauchy": ("location", "scale")}

_MASK64 = (1 << 64) - 1

#: points per block of the measure transform in `sample`.  Its expression
#: allocates its own temporaries in whichever thread runs the block: 8192
#: points (128 kB per complex temporary) keep them in cache, and keep the
#: memory a worker thread's malloc arena holds on to small
TRANSFORM_BLOCK = 8192


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of each entry of a uint64 array (wrapping)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _mix64(*words):
    """splitmix64 folded over the words (ints in [0, 2**64) or arrays of
    them, broadcast together): a uint64 scalar, or array if any word is."""
    acc = np.uint64(0)
    with np.errstate(over="ignore"):  # arrays wrap silently, numpy scalars warn
        for w in words:
            acc = _splitmix64(acc ^ np.asarray(w, dtype=np.uint64))
    return acc


def _philox_keys(master_seed: int, stream_ids) -> np.ndarray:
    """The (len(stream_ids), 2) uint64 Philox keys of the streams, the key
    numpy makes of the list [master_seed, stream_id]: it reads a word below
    2**63 as int64 and one at or above as uint64, and a list of both kinds
    as float64, which rounds both words to the nearest double.
    ParameterError where a word would round to 2**64, whose conversion to
    uint64 numpy leaves to the platform."""
    ids = np.asarray(stream_ids, dtype=np.uint64).reshape(-1)
    keys = np.empty((len(ids), 2), np.uint64)
    keys[:, 0], keys[:, 1] = master_seed, ids
    wide = (ids >= np.uint64(1 << 63)) != (master_seed >= 1 << 63)
    if wide.any():
        rounded = keys[wide].astype(float)
        if (rounded >= 2.0 ** 64).any():
            raise ParameterError("a seed word within 1024 of 2**64 has no Philox key")
        keys[wide] = rounded.astype(np.uint64)
    return keys


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one reproducible random stream.

    Its Philox key is (master_seed, stream_id) by `_philox_keys`: distinct
    keys, and statistically independent streams, for distinct stream_ids
    on the same side of 2**63 as master_seed.  Where one word is below
    2**63 and the other is not, both are rounded to doubles, so stream ids
    that round alike share a stream.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = as_int(getattr(self, name), name)
            if not 0 <= v <= _MASK64:
                raise ParameterError(f"{name} must fit in 64 bits, got {v}")

    def generator(self) -> Generator:
        return Generator(Philox(key=_philox_keys(self.master_seed, self.stream_id)[0]))

    def substream(self, purpose: int, index: int = 0) -> "SeedSpec":
        """Derive an independent stream for a named purpose.

        The derivation hashes (stream_id, purpose, index), so adjacent user
        stream ids never collide with internally derived ones.
        """
        return SeedSpec(self.master_seed, int(self.substreams(purpose, index)))

    def substreams(self, purpose: int, indexes) -> np.ndarray:
        """The stream ids of substream(purpose, i) for every i of indexes, as
        a uint64 array, in one pass.  ParameterError unless purpose is an
        integer and indexes an integer or an array of an integer dtype, all
        in [0, 2**64)."""
        purpose, idx = np.asarray(purpose), np.asarray(indexes)
        if (purpose.ndim or purpose.dtype.kind not in "iu" or idx.dtype.kind not in "iu"
                or purpose < 0 or (idx < 0).any()):
            raise ParameterError("substream purposes and indexes must be integers in [0, 2**64)")
        return _mix64(self.stream_id, purpose, idx)

    def to_json(self) -> dict:
        return {"master_seed": self.master_seed, "stream_id": self.stream_id}

    @classmethod
    def from_json(cls, obj) -> "SeedSpec":
        if isinstance(obj, int):
            return cls(obj, 0)
        if isinstance(obj, dict):
            extra = set(obj) - {"master_seed", "stream_id"}
            if extra:
                raise ParameterError(f"unknown seed fields: {sorted(extra)}")
            if "master_seed" not in obj:
                raise ParameterError("seed object requires 'master_seed'")
            return cls(obj["master_seed"], obj.get("stream_id", 0))
        raise ParameterError("seed must be an integer or {master_seed, stream_id}")


@dataclass(frozen=True)
class BaseMeasure:
    """The common distribution mu of the i.i.d. roots.

    `params` layout depends on `kind`: "atoms" and "weights" for
    FiniteSupport, a location and a scale (`_LOC_SCALE`) for the others.
    Construction parses them, numbers or [re, im] pairs, into complex and
    float values and rejects any other name.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown measure kind {self.kind!r}; expected one of {_KINDS}")
        p = self.params
        if not isinstance(p, dict):
            raise ParameterError("measure params must be a mapping")
        names = ("atoms", "weights") if self.kind == "FiniteSupport" else _LOC_SCALE[self.kind]
        unknown = set(p) - set(names)
        if unknown:
            raise ParameterError(f"unknown {self.kind} params: {sorted(unknown)}")
        if self.kind == "FiniteSupport":
            atoms = np.array(as_list(p.get("atoms", ()), as_complex, "atoms"), dtype=complex)
            weights = np.array(as_list(p.get("weights", ()), as_positive, "weights"), dtype=float)
            if atoms.size == 0:
                raise ParameterError("FiniteSupport needs a nonempty atom list")
            if weights.shape != atoms.shape:
                raise ParameterError("atoms and weights must have equal length")
            if abs(weights.sum() - 1.0) > 1e-12:
                raise ParameterError(f"weights must sum to 1 within 1e-12, got {weights.sum()!r}")
            if len(np.unique(atoms)) != atoms.size:
                raise ParameterError("FiniteSupport atoms must be pairwise distinct")
            parsed = {"atoms": atoms, "weights": weights}
        else:
            loc, scale = names
            parsed = {loc: as_complex(p.get(loc, 0), f"{self.kind} {loc}"),
                      scale: as_positive(p.get(scale, 0), f"{self.kind} {scale}")}
        object.__setattr__(self, "params", parsed)

    # ---- constructors -------------------------------------------------

    @classmethod
    def finite_support(cls, atoms, weights) -> "BaseMeasure":
        return cls("FiniteSupport", {"atoms": atoms, "weights": weights})

    @classmethod
    def uniform_circle(cls, center=0j, radius=1.0) -> "BaseMeasure":
        return cls("UniformCircle", {"center": center, "radius": radius})

    @classmethod
    def uniform_disk(cls, center=0j, radius=1.0) -> "BaseMeasure":
        return cls("UniformDisk", {"center": center, "radius": radius})

    @classmethod
    def complex_gaussian(cls, mean=0j, scale=1.0) -> "BaseMeasure":
        return cls("ComplexGaussian", {"mean": mean, "scale": scale})

    @classmethod
    def complex_cauchy(cls, location=0j, scale=1.0) -> "BaseMeasure":
        return cls("ComplexCauchy", {"location": location, "scale": scale})

    # ---- helpers -------------------------------------------------------

    @property
    def has_finite_support(self) -> bool:
        return self.kind == "FiniteSupport"

    def atoms_and_weights(self):
        if not self.has_finite_support:
            raise ParameterError(f"{self.kind} has no atom list")
        return self.params["atoms"], self.params["weights"]

    # ---- JSON ----------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "FiniteSupport":
            atoms, weights = self.atoms_and_weights()
            params = {"atoms": [[z.real, z.imag] for z in atoms],
                      "weights": [float(w) for w in weights]}
        else:
            loc, scale = _LOC_SCALE[self.kind]
            c = self.params[loc]
            params = {loc: [c.real, c.imag], scale: self.params[scale]}
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_json(cls, obj: dict) -> "BaseMeasure":
        if not isinstance(obj, dict):
            raise ParameterError("measure must be a JSON object")
        extra = set(obj) - {"kind", "params"}
        if extra:
            raise ParameterError(f"unknown measure fields: {sorted(extra)}")
        return cls(obj.get("kind"), obj.get("params", {}))


@dataclass(frozen=True)
class Trajectory:
    """What `sample` drew: one prefix Z_1..Z_n of a sample path, or, from
    `sample(..., streams)`, one such prefix per row; a read-only array."""

    samples: np.ndarray


def _uniform_pairs(keys: np.ndarray, count: int) -> np.ndarray:
    """(len(keys), count, 2) uniforms, row i from Philox(key=keys[i]) at
    counter 0.  The row-major fill makes pair k of a row depend only on
    (key, k): prefix stable."""
    u = np.empty((len(keys), count, 2))
    bits = Philox(key=0)
    draw, state = Generator(bits).random, bits.state  # state: counter 0, empty buffer
    for row, key in zip(u, keys):
        state["state"]["key"] = key
        bits.state = state
        draw(out=row)
    return u


def _points(measure: BaseMeasure, u: np.ndarray) -> np.ndarray:
    """The samples of measure from the uniform pairs u[..., 0], u[..., 1]."""
    kind, p = measure.kind, measure.params
    if kind == "FiniteSupport":
        atoms, weights = measure.atoms_and_weights()
        idx = np.searchsorted(np.cumsum(weights), u[..., 0], side="right")
        return atoms[np.minimum(idx, len(atoms) - 1)]
    if kind == "UniformCircle":
        return p["center"] + p["radius"] * np.exp(2j * np.pi * u[..., 0])
    if kind == "UniformDisk":
        return p["center"] + p["radius"] * np.sqrt(u[..., 0]) * np.exp(2j * np.pi * u[..., 1])
    if kind == "ComplexGaussian":
        return p["mean"] + p["scale"] * (ndtri(u[..., 0]) + 1j * ndtri(u[..., 1]))
    # ComplexCauchy: no finite moments by design
    return p["location"] + p["scale"] * (np.tan(np.pi * (u[..., 0] - 0.5))
                                         + 1j * np.tan(np.pi * (u[..., 1] - 0.5)))


def _stream_ids(streams) -> np.ndarray:
    """streams as a 1-d uint64 array; ParameterError unless it is a list
    or 1-d array of integers in [0, 2**64)."""
    if isinstance(streams, np.ndarray) and streams.dtype == np.uint64 and streams.ndim == 1:
        return streams
    words = as_list(streams, as_int, "streams")
    if not all(0 <= w <= _MASK64 for w in words):
        raise ParameterError("stream ids must fit in 64 bits")
    return np.array(words, dtype=np.uint64)


def sample(measure: BaseMeasure, seed: SeedSpec, count: int, streams=None) -> Trajectory:
    """Draw count i.i.d. samples from measure on the stream named by seed,
    the read-only `samples` of a Trajectory.

    With `streams`, a sequence of stream ids under seed.master_seed, the
    samples are one row per stream id, row i bit for bit
    sample(measure, SeedSpec(seed.master_seed, streams[i]), count).samples.
    The uniforms are drawn in the calling thread; the transform runs over
    blocks of TRANSFORM_BLOCK // count rows (`_blocked`, on every CPU) and
    writes each row's points over its uniforms.
    """
    count = as_count(count)
    ids = seed.stream_id if streams is None else _stream_ids(streams)
    u = _uniform_pairs(_philox_keys(seed.master_seed, ids), count)
    z = u.view(complex)[..., 0]

    def block(a, b, work):
        z[a:b] = _points(measure, u[a:b])

    _blocked(len(z), count, 0, block, max(1, TRANSFORM_BLOCK // count))
    z.setflags(write=False)
    return Trajectory(z[0] if streams is None else z)
