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
row per stream id, over row blocks on every CPU (`logderiv._blocked`): in
the thread that runs a block, each of its rows' uniforms come from one
reused Philox reset to that stream's key at counter 0, and the measure
transform then writes the block's points over its uniforms.  Every row is
bit for bit the path of its stream drawn alone.

The measure transforms need numpy alone.  The Gaussian one is the normal
quantile of each uniform, `_ndtri`: a numpy port of the Cephes `ndtri` that
scipy.special runs, bit for bit its values, so that sampling does not load
scipy.  Its logarithms are math.log, the C library's log, because numpy's
own log rounds some values differently.

The key rule (`_philox_keys`) is the one numpy applies to the list
[master_seed, stream_id]: where exactly one word is >= 2**63 that list goes
through float64, so both words are rounded to 53 significant bits.  Under
a master seed below 2**63, stream ids at or above 2**63 that round to the
same double (2048 apart there) share a key, and so their samples.  Mending
that would move half of all derived streams, so the rule is kept; a word
that rounds to 2**64 has no key and raises ParameterError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import ParameterError, as_complex, as_count, as_int, as_list, as_positive
from .logderiv import _blocked

_KINDS = ("FiniteSupport", "UniformCircle", "UniformDisk", "ComplexGaussian", "ComplexCauchy")

#: (location, scale) parameter names of the continuous kinds
_LOC_SCALE = {"UniformCircle": ("center", "radius"), "UniformDisk": ("center", "radius"),
              "ComplexGaussian": ("mean", "scale"), "ComplexCauchy": ("location", "scale")}

_MASK64 = (1 << 64) - 1

# Cephes ndtri (as scipy.special runs it): the split point e^-2, sqrt(2 pi),
# and the coefficients of its three rational approximations, highest power
# first; the Q polynomials are monic and their leading 1 is left out
_E2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
#: p in (e^-2, 1 - e^-2]
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
#: x = sqrt(-2 log y) in [2, 8)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
#: x in [8, 64)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)

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


def _uniform_pairs(keys: np.ndarray, u: np.ndarray) -> None:
    """Fill the (len(keys), count, 2) float array u with uniforms, row i
    from Philox(key=keys[i]) at counter 0.  The row-major fill makes pair k
    of a row depend only on (key, k): prefix stable."""
    bits = Philox(key=0)
    draw, state = Generator(bits).random, bits.state  # state: counter 0, empty buffer
    for row, key in zip(u, keys):
        state["state"]["key"] = key
        bits.state = state
        draw(out=row)


def _polevl(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    """Cephes polevl(x, coef), or p1evl(x, coef) when monic (coef without
    its leading 1): Horner's rule with one rounding per product and one
    per sum, as the compiled C runs it (no fused multiply-add)."""
    a = x + coef[0] if monic else x * coef[0] + coef[1]
    for c in coef[1 if monic else 2:]:
        a *= x
        a += c
    return a


def _rational(w: np.ndarray, P, Q) -> np.ndarray:
    """w P(w) / Q(w), rounded as Cephes rounds w * polevl(w, P) / p1evl(w, Q)."""
    r = _polevl(w, P)
    r *= w
    r /= _polevl(w, Q, monic=True)
    return r


def _log(x: np.ndarray) -> np.ndarray:
    """math.log (the C library's log) of each entry of the 1-d float array x."""
    return np.fromiter(map(math.log, memoryview(x)), float, len(x))


def _ndtri(p: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each entry of the float array p: bit
    for bit the Cephes `ndtri` that scipy.special runs, -inf at 0, inf at 1
    and NaN off [0, 1].

    Entries in (e^-2, 1 - e^-2] take the P0/Q0 approximation in
    (p - 1/2)^2.  The others take y = p, or 1 - p above 1 - e^-2, then
    x = sqrt(-2 log y) and x - log(x)/x less P1/Q1 (x < 8) or P2/Q2 (x >= 8)
    in 1/x, negated for the lower tail.  Each branch runs only on the
    entries in it, gathered by index, in the C code's order of operations.
    The two logs are `_log`, the C library's log that the compiled code
    calls: numpy's vectorised log is not libm's and differs from it in the
    last bit on some inputs, so np.log would move samples.  Only the tails,
    about 27% of uniform draws, pay for the per-entry calls.
    """
    flat = np.ravel(p)
    out = np.empty_like(flat)
    mid = (flat > _E2) & (flat <= 1.0 - _E2)
    i = np.flatnonzero(mid)
    t = flat[i] - 0.5
    r = _rational(t * t, _P0, _Q0)
    r *= t
    r += t
    r *= _S2PI
    out[i] = r
    i = np.flatnonzero(~mid)
    q = flat[i]
    upper = q > 1.0 - _E2
    y = np.where(upper, 1.0 - q, q)
    live = ~(y <= 0.0)  # y = 0 (p is 0 or 1) or p off [0, 1] has no log; NaN runs as in C
    x = _log(y[live])
    x *= -2.0
    np.sqrt(x, out=x)
    x0 = x - _log(x) / x
    z = 1.0 / x
    near = x < 8.0
    for part, P, Q in ((near, _P1, _Q1), (~near, _P2, _Q2)):
        x0[part] -= _rational(z[part], P, Q)
    tails = np.where(y == 0.0, np.where(upper, np.inf, -np.inf), np.nan)
    tails[live] = np.where(upper[live], x0, -x0)
    out[i] = tails
    return out.reshape(p.shape)


def _points(measure: BaseMeasure, u: np.ndarray) -> np.ndarray:
    """The samples of measure from the uniform pairs u[..., 0], u[..., 1].

    A ComplexGaussian coordinate is `_ndtri` of its uniform: the in-repo
    Cephes ndtri, with libm's log (math.log), since np.log's SIMD loops
    round some logs differently and would move samples."""
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
        g = _ndtri(u)
        return p["mean"] + p["scale"] * (g[..., 0] + 1j * g[..., 1])
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
    The rows run in blocks of TRANSFORM_BLOCK // count rows (`_blocked`, on
    every CPU): the thread that runs a block draws its rows' uniforms and
    writes their points over them.
    """
    count = as_count(count)
    ids = seed.stream_id if streams is None else _stream_ids(streams)
    keys = _philox_keys(seed.master_seed, ids)
    u = np.empty((len(keys), count, 2))
    z = u.view(complex)[..., 0]

    def block(a, b, work):
        _uniform_pairs(keys[a:b], u[a:b])
        z[a:b] = _points(measure, u[a:b])

    _blocked(len(z), count, 0, block, max(1, TRANSFORM_BLOCK // count))
    z.setflags(write=False)
    return Trajectory(z[0] if streams is None else z)
