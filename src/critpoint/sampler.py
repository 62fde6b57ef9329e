"""Base measures and seed-deterministic i.i.d. sampling.

The single-realization experiments (one sequence Z_1, Z_2, ... examined at
growing n) need *prefix stability*: asking for more samples must never
change the ones already drawn.  Sampling is therefore keyed by a
counter-based generator (Philox) with key (master_seed, stream_id), and
every sample consumes exactly two uniforms, so sample k is a pure function
of (measure, seed, k).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .errors import ParameterError, as_complex, as_count, as_int, as_list, as_positive

_KINDS = ("FiniteSupport", "UniformCircle", "UniformDisk", "ComplexGaussian", "ComplexCauchy")

#: (location, scale) parameter names of the continuous kinds
_LOC_SCALE = {"UniformCircle": ("center", "radius"), "UniformDisk": ("center", "radius"),
              "ComplexGaussian": ("mean", "scale"), "ComplexCauchy": ("location", "scale")}

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix64(*values: int) -> int:
    acc = 0
    for v in values:
        acc = _splitmix64((acc ^ (v & _MASK64)) & _MASK64)
    return acc


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one reproducible random stream.

    Distinct stream_ids under the same master_seed give statistically
    independent streams (distinct Philox keys).
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = as_int(getattr(self, name), name)
            if not 0 <= v <= _MASK64:
                raise ParameterError(f"{name} must fit in 64 bits, got {v}")

    def generator(self) -> Generator:
        return Generator(Philox(key=[self.master_seed, self.stream_id]))

    def substream(self, purpose: int, index: int = 0) -> "SeedSpec":
        """Derive an independent stream for a named purpose.

        The derivation hashes (stream_id, purpose, index), so adjacent user
        stream ids never collide with internally derived ones.
        """
        return SeedSpec(self.master_seed, _mix64(self.stream_id, purpose, index))

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
    """One realized prefix Z_1..Z_n of a sample path, regenerable from its seed."""

    measure: BaseMeasure
    seed: SeedSpec
    samples: np.ndarray

    def __len__(self):
        return len(self.samples)


def _uniform_pairs(seed: SeedSpec, count: int) -> np.ndarray:
    # row-major fill makes row k depend only on (seed, k): prefix stable
    return seed.generator().random((count, 2))


def sample(measure: BaseMeasure, seed: SeedSpec, count: int) -> Trajectory:
    """Draw count i.i.d. samples from measure on the stream named by seed."""
    count = as_count(count)
    kind, p = measure.kind, measure.params
    u = _uniform_pairs(seed, count)
    if kind == "FiniteSupport":
        atoms, weights = measure.atoms_and_weights()
        idx = np.searchsorted(np.cumsum(weights), u[:, 0], side="right")
        z = atoms[np.minimum(idx, len(atoms) - 1)]
    elif kind == "UniformCircle":
        z = p["center"] + p["radius"] * np.exp(2j * np.pi * u[:, 0])
    elif kind == "UniformDisk":
        z = p["center"] + p["radius"] * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    elif kind == "ComplexGaussian":
        z = p["mean"] + p["scale"] * (ndtri(u[:, 0]) + 1j * ndtri(u[:, 1]))
    else:  # ComplexCauchy: no finite moments by design
        z = p["location"] + p["scale"] * (np.tan(np.pi * (u[:, 0] - 0.5))
                                          + 1j * np.tan(np.pi * (u[:, 1] - 0.5)))
    z = np.ascontiguousarray(z, dtype=complex)
    z.setflags(write=False)
    return Trajectory(measure, seed, z)
