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

The independent route (`critical_points_oracle`) uses one identity instead:
for weights m_k > 0 and v_k = sqrt(m_k / sum m), the zeros of
sum m_k/(X - z_k) are the eigenvalues of diag(z) compressed to the
orthogonal complement of v (Pereira 2003; Malamud 2005).  It is a
single dense eigenvalue problem, shares no code with the iteration and
needs neither starting points nor a stopping rule, which is what makes it
a check on the Aberth solver rather than a second copy of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConvergenceError, ParameterError
from .logderiv import as_roots, cauchy_sums

_EPS = float(np.finfo(float).eps)

#: roots closer than this (relative) are clustered into one multiple root
DUPLICATE_RTOL = 1e-14

DEFAULT_TOL = 1e-10
DEFAULT_MAX_SWEEPS = 500

_GOLDEN_ANGLE = 2.0 * np.pi * 0.6180339887498949


@dataclass(frozen=True)
class CriticalSet:
    """The n-1 critical points (repetition = multiplicity) with certificates.

    residuals[i] is |S(W_i)| * min_k |W_i - Z_k| (zero for points placed at
    repeated roots, which are detected exactly rather than solved for).
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


def _cluster_roots(roots: np.ndarray):
    """Group near-duplicate roots (within DUPLICATE_RTOL, relative) into
    (distinct values, integer multiplicities, #nontrivial-nonexact clusters)."""
    order = np.argsort(roots)
    sorted_roots = roots[order]
    reps = [sorted_roots[0]]
    mult = [1]
    inexact = 0
    for z in sorted_roots[1:]:
        rep = reps[-1]
        tol = DUPLICATE_RTOL * (1.0 + 0.5 * (abs(rep) + abs(z)))
        if abs(z - rep) <= tol:
            mult[-1] += 1
            if z != rep:
                inexact += 1
        else:
            reps.append(z)
            mult.append(1)
    return np.asarray(reps, dtype=complex), np.asarray(mult, dtype=float), inexact


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
    if m is None:
        m = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        disp = np.where(T != 0, m / np.where(T == 0, 1.0, T), dnear / 2)
    cap = dnear / 2
    mag = np.abs(disp)
    shrink = np.where(mag > cap, cap / np.where(mag == 0, 1.0, mag), 1.0)
    cand = z - disp * shrink
    i, j = _closest_pair(cand)
    merged = 0.5 * (cand[i] + cand[j])
    return np.append(np.delete(cand, [i, j]), merged)


def _closest_pair(c):
    """(i, j) for the two closest of at least two points: i is the lowest
    index whose nearest neighbour is closest, j the lowest index at that
    distance from i.  Distances are recomputed exactly, so ties resolve as
    in a scan over all pairs."""
    pts = np.column_stack([c.real, c.imag])
    _, nb = cKDTree(pts).query(pts, k=2)
    other = np.where(nb[:, 0] == np.arange(len(c)), nb[:, 1], nb[:, 0])
    i = int(np.argmin(np.abs(c - c[other])))
    d = np.abs(c[i] - c)
    d[i] = np.inf
    return i, int(np.argmin(d))


def _aberth_zeros(z, m, tol, max_sweeps):
    """Zeros of S(w) = sum m_k/(w - z_k) for distinct z_k; returns (w, residuals).

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
    q = len(z)
    nz = q - 1
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

    Exact (or near-exact) repeated roots are removed first and re-inserted
    as critical points of multiplicity m-1; the iteration then runs on the
    reduced simple-root set with integer weights.
    """
    rs = as_roots(roots)
    if rs.n < 2:
        raise ParameterError("critical points need at least two roots")
    if not 0 < tol < np.inf:
        raise ParameterError(f"tol must be finite and positive, got {tol}")
    z, mult, inexact = _cluster_roots(rs.roots)
    repeated = np.repeat(z, (mult - 1).astype(int))
    zeros, res = _aberth_zeros(z, mult, tol, max_sweeps)
    points = np.concatenate([zeros, repeated])
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
