"""Mobius transformations on the extended plane and unit-circle preimages.

A transform u(z) = (a z + b)/(c z + d) is kept as its four coefficients.
The point at infinity is represented by any complex with a non-finite
part; `INFINITY` is the canonical one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .sampler import SeedSpec, as_complex

INFINITY = complex(math.inf, 0.0)

#: construction guard: |det| >= DET_GUARD * max(|a|,|b|,|c|,|d|)^2
DET_GUARD = 1e-9

#: |a| and |c| closer than this (relative) makes the unit-circle preimage a line
_LINE_RTOL = 1e-12


def is_infinity(z: complex) -> bool:
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


@dataclass(frozen=True)
class MobiusTransform:
    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name,
                               as_complex(getattr(self, name), f"mobius coefficient {name}"))
        det = self.determinant
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if scale == 0 or abs(det) < DET_GUARD * scale * scale:
            raise ParameterError(
                f"determinant {det!r} too small relative to coefficients (guard {DET_GUARD})")

    @property
    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c

    def __call__(self, z):
        return apply(self, z)

    def to_json(self):
        return [[w.real, w.imag] for w in (self.a, self.b, self.c, self.d)]

    @classmethod
    def from_json(cls, obj) -> "MobiusTransform":
        if not (isinstance(obj, (list, tuple)) and len(obj) == 4):
            raise ParameterError("mobius JSON must be a list of four [re, im] pairs")
        return cls(*obj)


def identity() -> MobiusTransform:
    return MobiusTransform(1, 0, 0, 1)


def affine(alpha: complex, beta: complex) -> MobiusTransform:
    """z -> alpha z + beta."""
    return MobiusTransform(alpha, beta, 0, 1)


def apply(u: MobiusTransform, z: complex) -> complex:
    """u(z) on the extended plane: u(inf) = a/c, u(-d/c) = inf."""
    z = complex(z)
    if is_infinity(z):
        return u.a / u.c if u.c != 0 else INFINITY
    num = u.a * z + u.b
    den = u.c * z + u.d
    if den == 0:
        return INFINITY
    return num / den


def apply_array(u: MobiusTransform, zs) -> np.ndarray:
    """Vectorized apply for finite input points; poles map to INFINITY."""
    zs = np.asarray(zs, dtype=complex)
    num = u.a * zs + u.b
    den = u.c * zs + u.d
    at_pole = den == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(at_pole, INFINITY, num / np.where(at_pole, 1.0, den))
    return out


def inverse(u: MobiusTransform) -> MobiusTransform:
    return MobiusTransform(u.d, -u.b, -u.c, u.a)


def compose(u: MobiusTransform, v: MobiusTransform) -> MobiusTransform:
    """(u o v)(z) = u(v(z)); coefficient matrices multiply."""
    return MobiusTransform(
        u.a * v.a + u.b * v.c,
        u.a * v.b + u.b * v.d,
        u.c * v.a + u.d * v.c,
        u.c * v.b + u.d * v.d,
    )


@dataclass(frozen=True)
class GeneralizedCircle:
    """A circle (center, radius) or a line (point, unit direction)."""

    kind: str
    center: complex = 0j
    radius: float = 0.0
    point: complex = 0j
    direction: complex = 0j

    def __post_init__(self):
        if self.kind not in ("circle", "line"):
            raise ParameterError(f"kind must be 'circle' or 'line', got {self.kind!r}")
        if self.kind == "circle" and not self.radius > 0:
            raise ParameterError("circle radius must be positive")
        if self.kind == "line" and not math.isclose(abs(self.direction), 1.0, rel_tol=1e-9):
            raise ParameterError("line direction must be a unit complex")

    @property
    def is_circle(self) -> bool:
        return self.kind == "circle"

    def points(self, k: int) -> np.ndarray:
        """k sample points on the set (equispaced angles / tangent-spread abscissae)."""
        if self.is_circle:
            j = np.arange(k)
            return self.center + self.radius * np.exp(2j * np.pi * j / k)
        t = np.tan(np.pi * ((np.arange(k) + 0.5) / k - 0.5))
        return self.point + t * self.direction


def preimage_unit_circle(u: MobiusTransform) -> GeneralizedCircle:
    """u^{-1}(unit circle) = {z : |a z + b| = |c z + d|}.

    A circle when |a| != |c|; the degenerate |a| = |c| case is a line
    (the determinant guard rules out an empty or full-plane solution set).
    """
    a, b, c, d = u.a, u.b, u.c, u.d
    A = abs(a) ** 2 - abs(c) ** 2
    B = a * b.conjugate() - c * d.conjugate()
    C = abs(b) ** 2 - abs(d) ** 2
    if abs(abs(a) - abs(c)) <= _LINE_RTOL * max(abs(a), abs(c)):
        # 2 Re(B z) + C = 0; B != 0 whenever the determinant guard holds
        p0 = -C * B.conjugate() / (2 * abs(B) ** 2)
        direction = 1j * B.conjugate() / abs(B)
        return GeneralizedCircle("line", point=p0, direction=direction)
    center = -B.conjugate() / A
    r2 = abs(B) ** 2 / A ** 2 - C / A
    if r2 <= 0:
        # not reachable for an invertible transform; keep a hard failure
        raise ParameterError(f"degenerate preimage for {u!r}")
    return GeneralizedCircle("circle", center=center, radius=math.sqrt(r2))


def _draw(seed: SeedSpec, affine_only: bool) -> MobiusTransform:
    g = seed.generator()
    k = 2 if affine_only else 4
    for _ in range(1000):
        re = g.standard_normal(k)
        im = g.standard_normal(k)
        coeffs = [complex(x, y) for x, y in zip(re, im)]
        if affine_only:
            coeffs += [0j, 1 + 0j]
        try:
            return MobiusTransform(*coeffs)
        except ParameterError:
            pass
    raise ParameterError("could not draw a transform passing the determinant guard")


def sample_mobius(seed: SeedSpec) -> MobiusTransform:
    """Four i.i.d. standard complex Gaussian coefficients, guarded determinant.

    The law is mutually absolutely continuous with the coefficient Lebesgue
    measure away from the guard region, so full-measure statements transfer.
    """
    return _draw(seed, affine_only=False)


def sample_affine(seed: SeedSpec) -> MobiusTransform:
    """Gaussian alpha, beta with c = 0, d = 1."""
    return _draw(seed, affine_only=True)
