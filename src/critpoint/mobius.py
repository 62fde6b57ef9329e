"""Mobius transformations on the extended plane and unit-circle preimages.

A transform u(z) = (a z + b)/(c z + d) is kept as its four coefficients.
The point at infinity is represented by any complex with a non-finite
part; `INFINITY` is the canonical one.  The preimage of the unit circle is
a `logderiv.Circle`, or None when it is a line (|a| = |c|), since only a
compact contour carries a sup norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError
from .logderiv import Circle
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


def preimage_unit_circle(u: MobiusTransform) -> Optional[Circle]:
    """u^{-1}(unit circle) = {z : |a z + b| = |c z + d|}.

    A circle when |a| != |c|; None in the degenerate |a| = |c| case, where
    it is a line (the determinant guard rules out an empty or full-plane
    solution set).
    """
    a, b, c, d = u.a, u.b, u.c, u.d
    if abs(abs(a) - abs(c)) <= _LINE_RTOL * max(abs(a), abs(c)):
        return None
    A = abs(a) ** 2 - abs(c) ** 2
    B = a * b.conjugate() - c * d.conjugate()
    C = abs(b) ** 2 - abs(d) ** 2
    center = -B.conjugate() / A
    r2 = abs(B) ** 2 / A ** 2 - C / A
    if r2 <= 0:
        # not reachable for an invertible transform; keep a hard failure
        raise ParameterError(f"degenerate preimage for {u!r}")
    return Circle(center, math.sqrt(r2))


def sample_mobius(seed: SeedSpec) -> MobiusTransform:
    """Four i.i.d. standard complex Gaussian coefficients, guarded determinant.

    A draw is 4 real parts, then 4 imaginary parts, redrawn only when the
    determinant guard fails.  The law is mutually absolutely continuous
    with the coefficient Lebesgue measure away from the guard region, so
    full-measure statements transfer.
    """
    g = seed.generator()
    for _ in range(1000):
        re = g.standard_normal(4)
        im = g.standard_normal(4)
        try:
            return MobiusTransform(*(complex(x, y) for x, y in zip(re, im)))
        except ParameterError:
            pass
    raise ParameterError("could not draw a transform passing the determinant guard")
