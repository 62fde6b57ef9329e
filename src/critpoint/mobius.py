"""Mobius transformations of finite point sets and unit-circle preimages.

A transform u(z) = (a z + b)/(c z + d) is kept as its four coefficients.
`apply` maps finite points only; its output is infinite at the pole -d/c.
The preimage of the unit circle is a `logderiv.Circle`, or None when it is
a line (|a| = |c|), since only a compact contour carries a sup norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, as_complex
from .logderiv import Circle
from .sampler import SeedSpec

#: construction guard: |det| >= DET_GUARD * max(|a|,|b|,|c|,|d|)^2
DET_GUARD = 1e-9

#: |a| and |c| closer than this (relative) makes the unit-circle preimage a line
_LINE_RTOL = 1e-12


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

    def to_json(self):
        return [[w.real, w.imag] for w in (self.a, self.b, self.c, self.d)]

    @classmethod
    def from_json(cls, obj) -> "MobiusTransform":
        if not (isinstance(obj, (list, tuple)) and len(obj) == 4):
            raise ParameterError("mobius JSON must be a list of four [re, im] pairs")
        return cls(*obj)


def apply(u: MobiusTransform, zs) -> np.ndarray:
    """u at finite points (a scalar or an array) as an array; inf at the
    pole -d/c.  ParameterError for a non-finite or non-numeric point
    (booleans and strings included)."""
    zs = np.asarray(zs)
    if zs.dtype.kind not in "iufc" or not np.all(np.isfinite(zs)):
        raise ParameterError("a Mobius transform is applied to finite numbers only")
    zs = np.asarray(zs, dtype=complex)
    num = u.a * zs + u.b
    den = u.c * zs + u.d
    at_pole = den == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(at_pole, math.inf, num / np.where(at_pole, 1.0, den))


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
