"""Logarithmic derivative S(z) = sum_k 1/(z - Z_k) and circle sup norms.

`cauchy_sums` is the one direct route for every Cauchy sum
sum_k c_k/(x_i - y_k) (S, S' and the repulsion in the solver, residual
certificates, `eval_S`, the near roots of a circle grid), with one block
rule, BLOCK_ELEMS elements per block through reused buffers, and one
coincidence rule: a target on a source gives an infinite term.  Sums near
the roots cancel, so each row is summed pairwise in source order, whatever
its block.  `circle_abs_S` evaluates |S| on the grid a + r e^{2 pi i j / m}
and owns the pole-on-contour test: roots far from the circle add a
truncated Laurent series in e^{2 pi i j / m}, summed by Horner's rule at
each grid point, and only the roots near the circle go through
`cauchy_sums`.  `circle_sup_norm` is the grid maximum.

Closeness has two length scales and no unit length: the roots' `spread`
about their centroid for tests against the roots (poles in `eval_S`,
duplicates in `critical`), and |a| + r for the pole-on-contour test.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, PoleOnContourError

#: relative pole-detection tolerance, against the roots' spread in `eval_S`
#: and against |a| + r in `circle_abs_S`
POLE_RTOL = 1e-12

#: elements per block of every blocked pass (targets x sources in
#: `cauchy_sums`, the metrics in `measures`): 2 MB per complex buffer, so the
#: allocator reuses freed buffers instead of mapping new pages
BLOCK_ELEMS = 1 << 17

_EPS = float(np.finfo(float).eps)


def spread(z: np.ndarray) -> float:
    """max_k |z_k - c| about the centroid c of the points z (0 for one point)."""
    return float(np.abs(z - z.mean()).max())


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
        return self.center + self.radius * _unit_grid(m)


def _unit_grid(m: int) -> np.ndarray:
    """t_j = e^{2 pi i j / m}, j = 0..m-1; t_j of the m grid is bit for bit
    t_{2j} of the 2m grid."""
    return np.exp(2j * np.pi * np.arange(m) / m)


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
    step = max(1, min(len(x), rows or BLOCK_ELEMS // max(1, len(y))))
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
    """S(z) = sum_k 1/(z - Z_k), pairwise-summed in sorted root order, or a
    pole marker when min_k |z - Z_k| <= POLE_RTOL * spread(roots)."""
    rs = as_roots(roots)
    if not cmath.isfinite(z):
        raise ParameterError(f"S is evaluated at finite points only, got {z!r}")
    d = np.abs(z - rs.roots)
    k = int(np.argmin(d))
    if d[k] <= POLE_RTOL * spread(rs.roots):
        return EvalResult(complex(math.inf), pole_index=k)
    (S,) = cauchy_sums([z], np.sort(rs.roots))
    return EvalResult(complex(S[0]))


def _abs_S_on_points(roots: np.ndarray, pts: np.ndarray, far=None) -> np.ndarray:
    """|S| on an array of points: the direct sum over `roots`, plus `far`
    (the other roots' values at the points), if given."""
    (S,) = cauchy_sums(pts, roots)
    if far is not None:
        S += far
    return np.abs(S)


def _grid_size(m) -> int:
    if (isinstance(m, (bool, np.bool_)) or not isinstance(m, (int, float, np.integer, np.floating))
            or not (m >= 1 and float(m).is_integer())):
        raise ParameterError(f"m must be a positive integer, got {m!r}")
    return int(m)


def _series_lengths(rho: np.ndarray) -> np.ndarray:
    """L_k, the smallest L >= 1 with rho_k^L <= eps (1 - rho_k)/(1 + rho_k),
    for 0 <= rho_k < 1 (as floats)."""
    bound = _EPS * (1.0 - rho) / (1.0 + rho)
    with np.errstate(divide="ignore"):
        L = np.maximum(1.0, np.ceil(np.log(bound) / np.log(rho)))
    # the logarithms round: step L to the exact smallest length
    L += rho ** L > bound
    L -= (L > 1) & (rho ** (L - 1) <= bound)
    return L


def _series_degree(L: np.ndarray) -> float:
    """Horner degree D of one side's series: its roots with L_k <= D are
    summed by the series and the rest directly.  D minimises the work per
    grid point, D Horner steps plus one direct term per root with L_k > D;
    D = 0 (no series) unless that saves work."""
    D = np.concatenate([[0.0], np.sort(L)])
    return float(D[np.argmin(D + np.arange(len(L), -1, -1))])


def _power_sums(s: np.ndarray, L: np.ndarray, e: int) -> np.ndarray:
    """c_l = sum of s_k^(l+e) over the k with L_k > l, l = 0..max L - 1.

    In order of decreasing L_k, the terms of power l are the first
    #(L_k > l) roots, so one running product over that shrinking prefix
    makes exactly the sum_k L_k powers needed.
    """
    order = np.argsort(-L, kind="stable")
    s, negL = s[order], -L[order]
    c = np.empty(int(-negL[0]), complex)
    p = s if e else np.ones_like(s)
    for l, k in enumerate(np.searchsorted(negL, -np.arange(len(c)))):
        p = p[:k]
        c[l] = p.sum()
        p = p * s[:k]
    return c


def _horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_l coef[l] x^l at every x.  Products never overwrite an operand
    (see `cauchy_sums`), so each value depends on its own x alone."""
    acc = np.full(len(x), coef[-1])
    tmp = np.empty_like(acc)
    for a in coef[-2::-1]:
        np.add(np.multiply(acc, x, out=tmp), a, out=acc)
    return acc


def circle_abs_S(roots, c: Circle, m: int) -> np.ndarray:
    """|S| at the m grid points x_j = a + r t_j, t_j = e^{2 pi i j / m},
    j = 0..m-1.  Raises PoleOnContourError when a root lies within
    POLE_RTOL (|a| + r) of the circle: the grid points are rounded at the
    scale |a| + r, not the roots' spread, so a root that near is on it.

    With w_k = (Z_k - a)/r and rho_k = min(|w_k|, 1/|w_k|) < 1, a root
    inside the circle adds (1/r) sum_{l >= 0} w_k^l t_j^{-(l+1)} and a root
    outside adds -(1/r) sum_{l >= 0} w_k^{-(l+1)} t_j^l.  Each series stops
    after L_k terms, the smallest L with rho_k^L <= eps (1 - rho_k)/(1 + rho_k),
    eps = 2^-52.  The dropped tail is then at most eps times the root's
    smallest term on the circle, so at every grid point the truncation
    error is at most eps * sum_k |1/(x_j - Z_k)|, the scale of the direct
    sum's own rounding.  On each side of the circle the series takes the
    roots with L_k <= D, where the Horner degree D minimises D plus the
    number of roots left to the direct sum; the power sums of the series
    are evaluated at each t_j by Horner's rule in t_j and conj(t_j), and
    the other ("near") roots through `cauchy_sums`.  When no root goes to a
    series, this is the direct sum over all roots.

    The split and the coefficients depend on the roots and the circle, not
    on m, and every grid value is computed from its own t_j, so the m grid
    is bit for bit the even-indexed half of the 2m grid.
    """
    rs = as_roots(roots)
    m = _grid_size(m)
    tau = POLE_RTOL * (abs(c.center) + c.radius)
    if np.min(np.abs(np.abs(rs.roots - c.center) - c.radius)) <= tau:
        raise PoleOnContourError(
            f"a root lies within {tau:.3e} of the circle C({c.center}, {c.radius})")
    w = (rs.roots - c.center) / c.radius
    aw = np.abs(w)
    inside = aw < 1.0
    with np.errstate(divide="ignore"):
        L = _series_lengths(np.minimum(aw, 1.0 / aw))
    series = L <= np.where(inside, _series_degree(L[inside]), _series_degree(L[~inside]))
    if not series.any():
        return _abs_S_on_points(rs.roots, c.points(m))
    t = _unit_grid(m)
    far = np.zeros(m, complex)
    s_in, s_out = series & inside, series & ~inside
    if s_in.any():
        u = np.conj(t)
        far += np.multiply(u, _horner(_power_sums(w[s_in], L[s_in], 0), u))
    if s_out.any():
        far -= _horner(_power_sums(1.0 / w[s_out], L[s_out], 1), t)
    far /= c.radius
    return _abs_S_on_points(rs.roots[~series], c.center + c.radius * t, far)


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
