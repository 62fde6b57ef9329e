"""Logarithmic derivative S(z) = sum_k 1/(z - Z_k) and circle sup norms.

Evaluation near the roots is dominated by cancellation, so sums are
pairwise (numpy's blocked pairwise reduction) over a canonical root order.
A circle is sampled on one grid, a + r e^{2 pi i j / m}: `circle_abs_S`
evaluates |S| there and owns the pole-on-contour test, and
`circle_sup_norm` is its maximum.  S' is only needed by the solver, which
computes it with S in `critical._field_sums`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, PoleOnContourError

#: relative pole-detection tolerance: z counts as a pole of S when
#: min_k |z - Z_k| <= POLE_RTOL * (1 + |z|)
POLE_RTOL = 1e-12


def pole_tolerance(z: complex) -> float:
    return POLE_RTOL * (1.0 + abs(z))


@dataclass(frozen=True)
class RootSet:
    """The multiset Z_1..Z_n defining P(X) = prod (X - Z_k); repetition = multiplicity."""

    roots: np.ndarray

    def __post_init__(self):
        r = np.ascontiguousarray(np.atleast_1d(np.asarray(self.roots, dtype=complex)))
        if r.ndim != 1 or r.size < 1:
            raise ParameterError("RootSet needs at least one root")
        if not np.all(np.isfinite(r)):
            raise ParameterError("roots must be finite")
        r.setflags(write=False)
        object.__setattr__(self, "roots", r)

    @property
    def n(self) -> int:
        return len(self.roots)


def as_roots(roots) -> RootSet:
    return roots if isinstance(roots, RootSet) else RootSet(np.asarray(roots, dtype=complex))


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ParameterError(f"circle radius must be finite and positive, got {self.radius}")
        if not cmath.isfinite(complex(self.center)):
            raise ParameterError(f"circle center must be finite, got {self.center}")

    def points(self, m: int) -> np.ndarray:
        j = np.arange(m)
        return self.center + self.radius * np.exp(2j * np.pi * j / m)


@dataclass(frozen=True)
class EvalResult:
    """Value of S at a point, or a pole marker carrying the root index."""

    value: complex
    pole_index: Optional[int] = None

    @property
    def is_pole(self) -> bool:
        return self.pole_index is not None

    @property
    def magnitude(self) -> float:
        # convention: |S(z)| = +inf at a pole
        return math.inf if self.is_pole else abs(self.value)


def _pole_check(rs: RootSet, z: complex) -> Optional[int]:
    d = np.abs(z - rs.roots)
    k = int(np.argmin(d))
    if d[k] <= pole_tolerance(z):
        return k
    return None


def eval_S(roots, z: complex) -> EvalResult:
    """S(z) = sum_k 1/(z - Z_k), pairwise-summed in sorted root order."""
    rs = as_roots(roots)
    k = _pole_check(rs, z)
    if k is not None:
        return EvalResult(complex(math.inf), pole_index=k)
    terms = 1.0 / (z - np.sort(rs.roots))
    return EvalResult(complex(np.sum(terms)))


def _abs_S_on_points(roots: np.ndarray, pts: np.ndarray, chunk_elems: int = 1 << 22) -> np.ndarray:
    """|S| on an array of points, chunked so temporaries stay modest."""
    out = np.empty(len(pts))
    rows = max(1, chunk_elems // max(1, len(roots)))
    for a in range(0, len(pts), rows):
        d = pts[a:a + rows, None] - roots[None, :]
        out[a:a + rows] = np.abs((1.0 / d).sum(axis=1))
    return out


def _contour_clearance(rs: RootSet, c: Circle) -> float:
    return float(np.min(np.abs(np.abs(rs.roots - c.center) - c.radius)))


def circle_abs_S(roots, c: Circle, m: int) -> np.ndarray:
    """|S| at the m grid points a + r e^{2 pi i j / m}, j = 0..m-1, which are
    bit for bit the even-indexed points of the 2m grid.  Raises
    PoleOnContourError when a root lies on the circle."""
    rs = as_roots(roots)
    if m < 1:
        raise ParameterError("m must be a positive integer")
    tau = POLE_RTOL * (1.0 + abs(c.center) + c.radius)
    if _contour_clearance(rs, c) <= tau:
        raise PoleOnContourError(
            f"a root lies within {tau:.3e} of the circle C({c.center}, {c.radius})")
    return _abs_S_on_points(rs.roots, c.points(int(m)))


def circle_sup_norm(roots, c: Circle, m: int) -> float:
    """max_j |S(a + r e^{2 pi i j / m})|, a lower bound for sup_{C(a,r)} |S|.

    Doubling m refines the same nested grid, so the value is nondecreasing
    in m along powers of two.
    """
    return float(np.max(circle_abs_S(roots, c, m)))


def log_plus(x):
    """log^+(x) = log(x) for x > 1, else 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ParameterError("log_plus requires nonnegative input")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(arr > 1.0, np.log(np.where(arr > 1.0, arr, 1.0)), 0.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def log_minus(x):
    """log^-(x) = -log(x) for x < 1, else 0; log^-(0) = +inf."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ParameterError("log_minus requires nonnegative input")
    with np.errstate(divide="ignore"):
        out = np.where(arr < 1.0, -np.log(np.where(arr < 1.0, arr, 1.0)), 0.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out
