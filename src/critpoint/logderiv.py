"""Logarithmic derivative S(z) = sum_k 1/(z - Z_k) and circle sup norms.

`cauchy_sums` is the one route for every Cauchy sum sum_k c_k/(x_i - y_k)
(S, S' and the repulsion in the solver, residual certificates, `eval_S`,
|S| on circle grids), with one block rule, BLOCK_ELEMS elements per block
through reused buffers, and one coincidence rule: a target on a source
gives an infinite term.  Sums near the roots cancel, so each row is summed
pairwise in source order, whatever its block.  `circle_abs_S` evaluates |S|
on the grid a + r e^{2 pi i j / m} and owns the pole-on-contour test;
`circle_sup_norm` is its maximum.
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

#: targets x sources elements per block of `cauchy_sums`: 2 MB per complex
#: buffer, so the allocator reuses freed buffers instead of mapping new pages
BLOCK_ELEMS = 1 << 17


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


def cauchy_sums(x, y, weights=(None,), squared=(), skip=None, nearest=False, rows=None):
    """[sum_k c_k/(x_i - y_k) for c in weights] + [sum_k c_k/(x_i - y_k)^2 for
    c in squared] + [min_k |x_i - y_k|, if nearest], where c = None is weight 1.

    Row i leaves out column skip[i]; a target on a source gives a non-finite
    sum and distance 0.  Blocks of `rows` targets (default BLOCK_ELEMS // len(y))
    reuse one difference buffer, divided in place, and leave each row's sum alone.
    """
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    step = max(1, min(len(x), rows or BLOCK_ELEMS // len(y)))
    # products never overwrite an operand: numpy rounds an in-place product
    # of one-element arrays differently from its vector loop
    buf, prod, sq = (np.empty((step, len(y)), complex) for _ in range(3))
    dist = np.empty((step, len(y)))
    out = [np.empty(len(x), complex) for _ in weights + squared] + [np.empty(len(x))] * nearest
    for a in range(0, len(x), step):
        nr = min(step, len(x) - a)
        D = np.subtract(x[a:a + nr, None], y, out=buf[:nr])
        if skip is not None:
            D[np.arange(nr), skip[a:a + nr]] = np.inf
        if nearest:
            out[-1][a:a + nr] = np.abs(D, out=dist[:nr]).min(axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            R = np.divide(1.0, D, out=D)
            for j, c in enumerate(weights + squared):
                cR = R if c is None else np.multiply(c, R, out=prod[:nr])
                if j >= len(weights):
                    cR = np.multiply(cR, R, out=sq[:nr])
                out[j][a:a + nr] = cR.sum(axis=1)
    return out


def eval_S(roots, z: complex) -> EvalResult:
    """S(z) = sum_k 1/(z - Z_k), pairwise-summed in sorted root order."""
    rs = as_roots(roots)
    d = np.abs(z - rs.roots)
    k = int(np.argmin(d))
    if d[k] <= pole_tolerance(z):
        return EvalResult(complex(math.inf), pole_index=k)
    (S,) = cauchy_sums([z], np.sort(rs.roots))
    return EvalResult(complex(S[0]))


def _abs_S_on_points(roots: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """|S| on an array of points."""
    return np.abs(cauchy_sums(pts, roots)[0])


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
