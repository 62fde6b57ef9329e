"""Critical points of P(X) = prod (X - Z_k): the n-1 zeros of P'.

The production path runs a simultaneous Aberth-type iteration on the zeros
of S(z) = sum m_k/(z - z_k) using only product-form evaluations, so large
degrees never touch expanded coefficients.

Writing S = Q/R with R = prod (z - z_k) over distinct roots, the Newton
correction for Q expressed through S alone is

    1/corr_i = S'(w_i)/S(w_i) + sum_k 1/(w_i - z_k) - sum_{j != i} 1/(w_i - w_j),

i.e. Newton on the numerator with Aberth repulsion between iterates.  The
naive S/S' step is not used: S decays like n/z at infinity, so Newton on S
chases the spurious zero at infinity from any exterior start.

Closeness is relative to the spread s = max |z_k - c| of the distinct roots
about their centroid c: roots within DUPLICATE_RTOL * s are one multiple
root, and the iteration runs on (z - c)/s, so `tol` and its other tests
carry no unit length and the solve is affine-equivariant.

The independent route (`critical_points_oracle`) uses one identity instead:
for weights m_k > 0 and v_k = sqrt(m_k / sum m), the zeros of
sum m_k/(X - z_k) are the eigenvalues of diag(z) compressed to the
orthogonal complement of v (Pereira 2003; Malamud 2005).  It is a
single dense eigenvalue problem, shares no code with the iteration and
needs neither starting points nor a stopping rule, which is what makes it
a check on the Aberth solver rather than a second copy of it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .logderiv import as_roots, cauchy_sums, spread

_EPS = float(np.finfo(float).eps)

#: roots closer than this times their spread cluster, transitively, into one multiple root
DUPLICATE_RTOL = 1e-14

DEFAULT_TOL = 1e-10
DEFAULT_MAX_SWEEPS = 500

_GOLDEN_ANGLE = 2.0 * np.pi * 0.6180339887498949


@dataclass(frozen=True)
class CriticalSet:
    """The n-1 critical points (repetition = multiplicity) with certificates.

    residuals[i] is |S(W_i)| * min_k |W_i - Z_k| (zero for points placed at
    repeated roots, which `_cluster_roots` groups, not solved for).
    """

    points: np.ndarray
    residuals: np.ndarray
    method: str
    near_duplicate_clusters: int = 0

    def __post_init__(self):
        pts = np.ascontiguousarray(np.atleast_1d(np.asarray(self.points, dtype=complex)))
        res = np.ascontiguousarray(np.atleast_1d(np.asarray(self.residuals, dtype=float)))
        if pts.shape != res.shape:
            raise ParameterError("points and residuals must have equal length")
        pts.setflags(write=False)
        res.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "residuals", res)

    def __len__(self):
        return len(self.points)

    def to_json(self) -> dict:
        return {"points": [[w.real, w.imag] for w in self.points],
                "residuals": [float(r) for r in self.residuals],
                "method": self.method}


# ---------------------------------------------------------------------------
# root clustering


def _sweep(s, radius):
    """(k, |s[k:] - s[:-k]|), k = 1, 2, ..., while some real-part gap at offset k
    is within radius(); s is sorted by real part, so gaps bound distances and grow with k."""
    k = 1
    while k < len(s) and (s.real[k:] - s.real[:-k]).min() <= radius():
        yield k, np.abs(s[k:] - s[:-k])
        k += 1


def _cluster_roots(roots: np.ndarray):
    """(distinct values, integer multiplicities, #roots merged into another
    value): roots a, b group when |a - b| <= DUPLICATE_RTOL * spread of the
    distinct values, transitively, under the group's first value in sorted order."""
    u, counts = np.unique(roots, return_counts=True)
    tol = DUPLICATE_RTOL * spread(u)
    edges, label = np.empty((2, 0), int), np.arange(len(u))
    for k, d in _sweep(u, lambda: tol):
        a = np.flatnonzero(d <= tol)
        edges = np.hstack([edges, [a, a + k], [a + k, a]])
    while np.any(label[edges[0]] != label[edges[1]]):
        np.minimum.at(label, edges[1], label[edges[0]])
    rep = label == np.arange(len(u))
    return u[rep], np.bincount(label, counts, len(u))[rep], int(counts[~rep].sum())


# ---------------------------------------------------------------------------
# Aberth iteration


def _field_sums(w, z, m, chunk=None):
    """S, S', unweighted pole sum and nearest-root distance at the points w
    (`chunk` rows per block, by default the kernel's block rule).  m = None
    means unit multiplicities, where the pole sum is S itself."""
    if m is None:
        S, Sp, dmin = cauchy_sums(w, z, squared=(None,), nearest=True, rows=chunk)
        return S, -Sp, S, dmin
    S, U, Sp, dmin = cauchy_sums(w, z, weights=(m, None), squared=(m,), nearest=True, rows=chunk)
    return S, -Sp, U, dmin


def _initial_iterates(z, m, chunk=None):
    """First-order zero estimates: one candidate near each distinct root
    (displacement m_k/T_k capped at half the nearest-neighbour gap), then the
    two closest candidates merge into their midpoint, leaving q-1 points.
    m = None means unit multiplicities."""
    T, dnear = cauchy_sums(z, z, weights=(m,), skip=np.arange(len(z)), nearest=True, rows=chunk)
    with np.errstate(divide="ignore", invalid="ignore"):
        disp = np.where(T != 0, (1.0 if m is None else m) / np.where(T == 0, 1.0, T), dnear / 2)
    cap = dnear / 2
    mag = np.abs(disp)
    shrink = np.where(mag > cap, cap / np.where(mag == 0, 1.0, mag), 1.0)
    cand = z - disp * shrink
    i, j = _closest_pair(cand)
    return np.append(np.delete(cand, [i, j]), 0.5 * (cand[i] + cand[j]))


def _closest_pair(c):
    """(i, j) for the two closest of at least two points, as a scan over all
    pairs finds them: i is the lowest index whose nearest neighbour is
    closest, j the lowest index at that distance from i."""
    order = np.argsort(c.real)
    near = np.full(len(c), np.inf)
    for k, d in _sweep(c[order], near.min):
        np.minimum(near[k:], d, out=near[k:])
        np.minimum(near[:-k], d, out=near[:-k])
    i = int(order[near == near.min()].min())
    d = np.abs(c[i] - c)
    d[i] = np.inf
    return i, int(np.argmin(d))


def _aberth_zeros(z, m, tol, max_sweeps):
    """Zeros of S(w) = sum m_k/(w - z_k) for distinct z_k of spread 1 about 0,
    so |w| <= 1 at every zero (Gauss-Lucas); returns (w, residuals).

    Iterate i is frozen once its last Newton correction was small,
    |corr_i| / (1 + |w_i|) < tol, and its residual is certified,
    |S(w_i)| * dmin_i <= max(tol, floor_i) with floor_i = 8 eps (1+|w_i|)
    |S'(w_i)| dmin_i, the representable double-precision limit (an iterate
    cannot sit closer than eps(1+|w_i|) to the true zero, which bounds the
    attainable |S|).  S depends on the roots alone, so a frozen point's
    certificate stays valid while the others move.  Each sweep evaluates
    the field only at the active points; frozen points still repel them, so
    a sweep costs O(active * q).  The iteration returns when no point is
    active.
    """
    nz = len(z) - 1
    if nz == 0:
        return np.empty(0, complex), np.empty(0)
    if np.all(m == 1):
        m = None
    w = _initial_iterates(z, m)
    res = np.full(nz, np.inf)
    small = np.zeros(nz, bool)
    act = np.arange(nz)
    for sweep in range(max_sweeps):
        wa = w[act]
        S, Sp, U, dmin = _field_sums(wa, z, m)
        res[act] = np.where(S == 0, 0.0, np.abs(S) * dmin)
        floor = 8.0 * _EPS * (1.0 + np.abs(wa)) * np.abs(Sp) * dmin
        keep = ~(small[act] & (res[act] <= np.maximum(tol, floor)))
        act, wa, S, Sp, U = act[keep], wa[keep], S[keep], Sp[keep], U[keep]
        if len(act) == 0:
            return w, res
        (Rep,) = cauchy_sums(wa, w, skip=act)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = 1.0 / (Sp / S + U - Rep)
        corr[S == 0] = 0.0
        bad = ~np.isfinite(corr)
        if bad.any():
            # collided iterates or an iterate sitting on a pole: nudge apart
            corr[bad] = 0.0
            wa[bad] += (1.0 + np.abs(wa[bad])) * 1e-9 * np.exp(1j * _GOLDEN_ANGLE * (sweep + act[bad]))
        w[act] = wa - corr
        small[act] = np.abs(corr) / (1.0 + np.abs(w[act])) < tol
    raise ConvergenceError(
        f"Aberth iteration did not certify after {max_sweeps} sweeps "
        f"(worst residual {res.max():.3e})", worst_residual=float(res.max()))


def critical_points(roots, tol: float = DEFAULT_TOL,
                    max_sweeps: int = DEFAULT_MAX_SWEEPS) -> CriticalSet:
    """All n-1 critical points by the Aberth iteration on S.

    Roots within DUPLICATE_RTOL times the spread s of the roots about their
    centroid c are merged first and re-inserted, at their original values,
    as critical points of multiplicity m-1.  The iteration runs with integer
    weights on the distinct roots mapped to (z - c)/s, where `tol` bounds
    the dimensionless certificates |S(W)| * min_k |W - Z_k|.
    """
    rs = as_roots(roots)
    if rs.n < 2:
        raise ParameterError("critical points need at least two roots")
    if not 0 < tol < np.inf:
        raise ParameterError(f"tol must be finite and positive, got {tol}")
    if (isinstance(max_sweeps, bool) or not isinstance(max_sweeps, numbers.Integral)
            or max_sweeps < 1):
        raise ParameterError(f"max_sweeps must be a positive integer, got {max_sweeps!r}")
    z, mult, inexact = _cluster_roots(rs.roots)
    repeated = np.repeat(z, (mult - 1).astype(int))
    c, s = z.mean(), spread(z) or 1.0  # one distinct root: nothing to solve
    zeros, res = _aberth_zeros((z - c) / s, mult, tol, max_sweeps)
    points = np.concatenate([zeros * s + c, repeated])
    residuals = np.concatenate([res, np.zeros(len(repeated))])
    order = np.argsort(points)
    return CriticalSet(points[order], residuals[order], "aberth",
                       near_duplicate_clusters=inexact)


def _residuals_against(points: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """|S(W)| * min_k |W - Z_k| per point; zero where W sits on a root."""
    S, dmin = cauchy_sums(points, roots, nearest=True)
    return np.where(dmin == 0, 0.0, np.abs(S)) * dmin


# ---------------------------------------------------------------------------
# independent eigenvalue route


def _compressed_eigs(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The len(z)-1 zeros of sum_k m_k/(X - z_k) for weights m_k > 0, as the
    eigenvalues of diag(z) compressed to the complement of v, v_k = sqrt(m_k/sum m).

    The characteristic polynomial of the compression Q^T diag(z) Q, Q an
    orthonormal basis of v^perp, is prod_k (X - z_k) * sum_k v_k^2/(X - z_k)
    (Pereira 2003; Malamud 2005).  Q is the last n-1 columns of the
    Householder reflector H = I - 2 u u^T/(u^T u), u = v + e_1, which maps
    e_1 to -v; v_1 > 0 keeps u free of cancellation.
    """
    v = np.sqrt(m / m.sum())
    u = v.copy()
    u[0] += 1.0
    Q = np.eye(len(z))[:, 1:] - (2.0 / (u @ u)) * np.outer(u, u[1:])
    return np.linalg.eigvals(Q.T @ (z[:, None] * Q))


def critical_points_oracle(roots) -> CriticalSet:
    """All n-1 critical points by the eigenvalue route.

    Exact duplicates group into r distinct atoms z_i with counts N_i.  Each
    atom is a critical point of multiplicity N_i - 1 (residual 0); the other
    r-1 are the zeros of sum_i N_i/(X - z_i), found by `_compressed_eigs`.
    One dense LAPACK eigenvalue problem, O(r^3), with no iteration, starting
    points or stopping rule: independent of the Aberth solver.  Residuals are
    the certificates |S(W)| * min_k |W - Z_k| that critical_points reports.
    """
    rs = as_roots(roots)
    if rs.n < 2:
        raise ParameterError("critical points need at least two roots")
    atoms, counts = np.unique(rs.roots, return_counts=True)
    extra = _compressed_eigs(atoms, counts.astype(float))
    repeated = np.repeat(atoms, counts - 1)
    points = np.concatenate([extra, repeated])
    residuals = np.concatenate([_residuals_against(extra, rs.roots), np.zeros(len(repeated))])
    order = np.argsort(points)
    return CriticalSet(points[order], residuals[order], "eigen")
