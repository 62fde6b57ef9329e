"""Empirical measures, log^- integrals, and weak-convergence diagnostics.

Two diagnostics are provided because convergence in distribution fixes no
metric: sliced Wasserstein-1 (metrizes weak convergence on tight families)
and a scale-free quadrant discrepancy.  Neither forms atom pairs.
`sliced_w1_many` sorts a reference's projections once per direction and
measures each of several measures against them, in O(K log K + N log K)
per direction for K reference atoms and N atoms per measure; `sliced_w1` is
its one-measure case.  `quadrant_discrepancy` is an offline dominance count
in O(N^1.5) over the N atoms of both measures, with closed quadrants: an
atom tied with p in either coordinate, of either measure, counts as below
p.  Both sum weights by parts (`_split`), so their sums are within about
one rounding of the exact ones whatever N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mobius as mb
from .errors import ParameterError
from .logderiv import BLOCK_ELEMS, grid_size, log_minus
from .sampler import BaseMeasure, SeedSpec, as_complex, sample


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Finitely supported probability measure: finite atoms with positive
    weights summing to 1."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.ascontiguousarray(np.atleast_1d(np.asarray(self.atoms, dtype=complex)))
        weights = np.ascontiguousarray(np.atleast_1d(np.asarray(self.weights, dtype=float)))
        if atoms.size == 0:
            raise ParameterError("empirical measure needs at least one atom")
        if atoms.shape != weights.shape:
            raise ParameterError("atoms and weights must have equal length")
        if not np.all(np.isfinite(atoms)):
            raise ParameterError("atoms must be finite")
        if not np.all(weights > 0):  # false for NaN as well
            raise ParameterError("weights must be strictly positive")
        if not abs(weights.sum() - 1.0) <= 1e-12:  # false for an infinite weight
            raise ParameterError(f"weights must sum to 1 within 1e-12, got {weights.sum()!r}")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return len(self.atoms)

    def to_json(self) -> dict:
        return {"atoms": [[z.real, z.imag] for z in self.atoms],
                "weights": [float(w) for w in self.weights]}

    @classmethod
    def from_json(cls, obj: dict) -> "EmpiricalMeasure":
        return cls([as_complex(a, "atom") for a in obj["atoms"]], obj["weights"])


def from_points(points) -> EmpiricalMeasure:
    """Uniform measure on a finite multiset (1/N each, repetition allowed)."""
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    if pts.size == 0:
        raise ParameterError("cannot build an empirical measure from no points")
    return EmpiricalMeasure(pts, np.full(pts.size, 1.0 / pts.size))


def log_minus_integral(m: EmpiricalMeasure, u: mb.MobiusTransform) -> float:
    """sum_i w_i log^-|u(atom_i)|; +inf if an atom maps exactly to 0."""
    images = mb.apply_array(u, m.atoms)
    mags = np.abs(images)  # inf at poles of u; log^-(inf) = 0
    if np.any(mags == 0.0):
        return math.inf
    return float(np.dot(m.weights, log_minus(mags)))


def sliced_w1(m1: EmpiricalMeasure, m2: EmpiricalMeasure, directions: int = 64) -> float:
    """Average over theta_j = pi j / directions of the exact 1-d W1 distance
    between the pushforwards under z -> Re(e^{-i theta_j} z): the
    one-measure case of `sliced_w1_many`, with m2 as the reference."""
    return float(sliced_w1_many([m1], m2, directions)[0])


def sliced_w1_many(nus, ref: EmpiricalMeasure, directions: int = 64) -> np.ndarray:
    """sliced_w1(nu, ref, directions) for each nu in nus, sorting each
    direction's projection of ref once for all of them.

    Per direction, W1 = integral |F - G| dx for the distribution functions
    F of nu and G of ref.  From ref's sorted projections y, G and the prefix
    integral I(t) = integral_{-inf}^t G, each interval between consecutive
    sorted projections of nu, where F is constant, is integrated in closed
    form: by I at its ends and at the first y where G reaches F.  Per
    direction that is O(K log K) for ref's K atoms and O(N log K) for each
    nu of N atoms.  Directions are processed in blocks of at most
    BLOCK_ELEMS / 8 (direction, atom) elements, so only one direction's
    projection of a large ref is alive at a time.
    """
    directions = grid_size(directions, "directions")
    nus = list(nus)
    if not nus:
        return np.zeros(0)
    ref_parts, nu_parts = _split(ref.weights), [_split(nu.weights) for nu in nus]
    totals = np.zeros(len(nus))
    # the closed forms keep about 16 block-sized arrays alive
    block = max(1, BLOCK_ELEMS // (8 * max(len(m) for m in [ref, *nus])))
    for a in range(0, directions, block):
        theta = math.pi * np.arange(a, min(a + block, directions)) / directions
        cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
        y, G = _sorted_cdf(ref, ref_parts, cos, sin)
        I = np.zeros_like(y)
        np.cumsum(G[:, :-1] * np.diff(y, axis=1), axis=1, out=I[:, 1:])
        for i, (nu, parts) in enumerate(zip(nus, nu_parts)):
            totals[i] += _w1_sorted(*_sorted_cdf(nu, parts, cos, sin), y, G, I)
    # the closed forms cancel: identical measures can come out at -1 ulp
    return np.maximum(totals, 0.0) / directions


def _split(w: np.ndarray) -> np.ndarray:
    """Rows (w rounded to the 2^-31 grid, the rest) for |w| <= 1.  A sum of
    first parts below 2^22 in magnitude is exact, as every sum of a
    probability measure's weights is, so sums taken by parts are within
    about one rounding of the exact ones."""
    coarse = (w + 2.0 ** 22) - 2.0 ** 22
    return np.stack([coarse, w - coarse])


def _sorted_cdf(m: EmpiricalMeasure, parts, cos: np.ndarray, sin: np.ndarray):
    """Per row, the sorted projections Re(e^{-i theta} atom) and the
    distribution function at each: the cumulative weights in that order,
    summed by the parts of `_split`."""
    proj = cos * m.atoms.real + sin * m.atoms.imag
    order = np.argsort(proj, axis=1)
    cdf = np.cumsum(parts[0][order], axis=1) + np.cumsum(parts[1][order], axis=1)
    order += len(m) * np.arange(len(proj))[:, None]
    return np.take(proj, order), cdf


def _w1_sorted(x, F, y, G, I) -> float:
    """Sum over rows of integral |F - G| for step functions F (jumping to
    F[i] at sorted x[i]) and G (to G[j] at sorted y[j]), with
    I[j] = integral_{y[0]}^{y[j]} G."""
    rows, k_atoms = y.shape
    y, G, I = y.ravel(), G.ravel(), I.ravel()
    first = k_atoms * np.arange(rows)  # flat index of each row's y[0]
    # F = c[i] on [edge[i], edge[i+1]]: 0 before x[0], F[-1] after x[-1]
    edge = np.concatenate([np.minimum(x[:, :1], y[first, None]), x,
                           np.maximum(x[:, -1:], y[first + k_atoms - 1, None])], axis=1)
    c = np.concatenate([np.zeros((rows, 1)), F], axis=1)
    # G and integral_{-inf}^t G at each edge t, from the last y[j] <= t
    below = np.array([np.searchsorted(y[f:f + k_atoms], e, side="right")
                      for f, e in zip(first, edge)])
    j = first[:, None] + np.maximum(below - 1, 0)
    G_edge = np.where(below > 0, np.take(G, j), 0.0)
    I_edge = np.take(I, j) + G_edge * (edge - np.take(y, j))
    lo, hi, I_lo, I_hi = edge[:, :-1], edge[:, 1:], I_edge[:, :-1], I_edge[:, 1:]
    # G - c changes sign at s: lo where G >= c from lo on, hi where G < c up
    # to hi, and else the first y[k] in (lo, hi] with G[k] >= c
    late = G_edge[:, 1:] < c
    s, I_s = np.where(late, hi, lo), np.where(late, I_hi, I_lo)
    inner = np.flatnonzero((G_edge[:, :-1] < c) & ~late)
    cuts = np.searchsorted(inner, c.shape[1] * np.arange(rows + 1))
    k = np.concatenate([f + np.searchsorted(G[f:f + k_atoms], c.flat[inner[a:b]])
                        for f, a, b in zip(first, cuts[:-1], cuts[1:])])
    s.flat[inner], I_s.flat[inner] = y[k], I[k]
    return float(np.sum((c * (s - lo) - (I_s - I_lo)) + ((I_hi - I_s) - c * (hi - s))))


def quadrant_discrepancy(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> float:
    """max_p |m1(Q_p) - m2(Q_p)| over p in the atom union, for the closed
    quadrants Q_p = {z : Re z <= Re p, Im z <= Im p}; atoms tied with p in
    either coordinate, of either measure, are in Q_p.

    An offline dominance count in O(N^1.5) for the N atoms of the union:
    sorted by real part, Q_p is the prefix up to the last atom tied with p,
    cut at p's imaginary-part rank.  The prefix is summed in blocks of
    about sqrt(N) atoms: whole blocks from a running histogram of signed
    mass (+m1, -m2) over imaginary-part ranks, the last partial block
    directly.
    """
    pts = np.concatenate([m1.atoms, m2.atoms])
    order = np.argsort(pts.real, kind="stable")
    re = pts.real[order]
    levels, rank = np.unique(pts.imag[order], return_inverse=True)
    # signed mass by the parts of `_split`, summed separately
    mass = _split(np.concatenate([m1.weights, -m2.weights])[order]).T
    n = len(pts)
    # atoms [0, end[p]) of the sorted order have Re <= Re p
    end = np.searchsorted(re, re, side="right")
    size = max(1, math.isqrt(n))
    blocks = -(-n // size)
    # p is answered with the block holding atom end[p] - 1; end is sorted,
    # so each block answers a run of the sorted order
    bounds = np.searchsorted((end - 1) // size, np.arange(blocks + 1))
    chunk = max(1, BLOCK_ELEMS // size)
    hist = np.zeros((len(levels), 2))
    worst = 0.0
    for b in range(blocks):
        a, stop = b * size, min((b + 1) * size, n)
        prefix = np.cumsum(hist, axis=0)
        for q in range(bounds[b], bounds[b + 1], chunk):
            p = slice(q, min(q + chunk, bounds[b + 1]))
            inside = ((np.arange(a, stop) < end[p, None])
                      & (rank[a:stop] <= rank[p, None]))
            d = prefix[rank[p]] + inside @ mass[a:stop]
            worst = max(worst, float(np.max(np.abs(d[:, 0] + d[:, 1]))))
        for part in range(2):
            hist[:, part] += np.bincount(rank[a:stop], weights=mass[a:stop, part],
                                         minlength=len(levels))
    return worst


def reference_quantization(measure: BaseMeasure, k: int, seed: SeedSpec) -> EmpiricalMeasure:
    """Empirical measure of k fresh i.i.d. samples: a sqrt(k)-accurate finite
    proxy for the base measure in distance computations."""
    if k < 1:
        raise ParameterError("k must be a positive integer")
    return from_points(sample(measure, seed, int(k)).samples)
