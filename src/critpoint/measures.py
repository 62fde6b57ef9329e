"""Empirical measures, log^- integrals, and weak-convergence diagnostics.

A measure is the uniform measure on a finite multiset, given by its points:
a nonempty, finite, 1-d complex array (`from_points` checks one), with mass
1/N on each of its N entries, so a repeated point carries its multiplicity.
Masses are integer counts (of 1/NK in a coupling, of points in a quadrant)
divided once, so no sum of masses drifts or needs compensated summation.

Two diagnostics are provided because convergence in distribution fixes no
metric: sliced Wasserstein-1 (metrizes weak convergence on tight families)
and a scale-free quadrant discrepancy.  Neither forms point pairs.
`sliced_w1_many` sorts a reference's projections once per direction and
measures each of several point sets against them by the cost of the
monotone coupling of sorted values: O(K log K) per direction for K
reference points, plus O(K) per point set (and O(N log N) to sort its N
points); `sliced_w1` is its one-measure case.  `quadrant_discrepancy` is
an offline dominance count in O(N^1.5) over the N points of both sets,
with closed quadrants: a point tied with p in either coordinate, of either
set, counts as below p.
"""

from __future__ import annotations

import math

import numpy as np

from . import mobius as mb
from .logderiv import BLOCK_ELEMS, as_roots, log_minus
from .errors import as_count
from .sampler import BaseMeasure, SeedSpec, sample


def from_points(points) -> np.ndarray:
    """The uniform measure on a finite multiset (1/N each, repetition
    allowed): its points as a read-only 1-d complex array; ParameterError
    unless they are nonempty, 1-d and finite."""
    return as_roots(points, "points")


def log_minus_integral(points, u: mb.MobiusTransform) -> float:
    """(1/N) sum_i log^-|u(z_i)| over the N points; +inf if one maps exactly to 0."""
    # apply gives inf at the pole -d/c of u, and log^-(inf) = 0
    mags = np.abs(mb.apply(u, from_points(points)))
    if np.any(mags == 0.0):
        return math.inf
    return float(np.mean(log_minus(mags)))


def sliced_w1(m1, m2, directions: int = 64) -> float:
    """Average over theta_j = pi j / directions of the exact 1-d W1 distance
    between the pushforwards under z -> Re(e^{-i theta_j} z) of the uniform
    measures on the points m1 and m2, symmetric in them: the one-measure
    case of `sliced_w1_many`, with m2 as the reference."""
    return float(sliced_w1_many([m1], m2, directions)[0])


def sliced_w1_many(nus, ref, directions: int = 64) -> np.ndarray:
    """sliced_w1(nu, ref, directions) for each point set nu in nus, sorting
    each direction's projection of ref once for all of them.

    Per direction, W1 is the cost of the monotone coupling of the sorted
    projections.  The coupling depends only on the two sizes, so it is
    built once per nu, with the larger set as y.  That is O(K log K) per
    direction to sort ref's K projections, plus O(N log N + K) per nu of
    N points.  Directions go in blocks of at most BLOCK_ELEMS / 2
    (direction, point) elements, so only one direction's projection of a
    large ref is alive at a time.
    """
    directions = as_count(directions, "directions")
    ref, nus = from_points(ref), [from_points(nu) for nu in nus]
    if not nus:
        return np.zeros(0)
    couplings = [_monotone_coupling(*sorted((len(nu), len(ref)))) for nu in nus]
    totals = np.zeros(len(nus))
    # a block keeps about four block-sized float arrays alive (ref's sorted
    # projection, a nu's projection and its sort, the coupled distances),
    # as many bytes as one complex buffer of BLOCK_ELEMS
    block = max(1, BLOCK_ELEMS // (2 * max(len(m) for m in [ref, *nus])))
    for a in range(0, directions, block):
        theta = math.pi * np.arange(a, min(a + block, directions)) / directions
        cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
        y = np.sort(cos * ref.real + sin * ref.imag, axis=1)
        for i, (nu, coupling) in enumerate(zip(nus, couplings)):
            x = np.sort(cos * nu.real + sin * nu.imag, axis=1)
            totals[i] += _coupling_cost(*((x, y) if len(nu) <= len(ref) else (y, x)), coupling)
    return totals / directions


def _monotone_coupling(n: int, k: int):
    """The monotone coupling of N sorted values x with K >= N sorted values
    y: at mass K per x and N per y, x_i holds [iK, (i+1)K) and y_j holds
    [jN, (j+1)N), and each pair shares its overlap.  y_j meets x_i for
    i = jN // K, counts[i] of them for each i.  The boundary rK cuts y_j,
    j = rK // N, unless N divides it; that y_j also meets x_r for
    w = (j + 1)N - rK.  Returns (counts, cut, right, w): O(N) data."""
    i = np.arange(n + 1)
    counts = np.diff(-(-i * k // n))  # x_i is first met by y_j, j = ceil(iK/N)
    right = i[1:-1][i[1:-1] * k % n != 0]
    cut = right * k // n
    return counts, cut, right, (cut + 1) * n - right * k


def _coupling_cost(x, y, coupling) -> float:
    """Sum over rows of the W1 distance between the sorted rows x (N values)
    and y (K >= N values): (1/NK) sum of integer weight * |x - y| over the
    pairs of the monotone coupling, every term nonnegative."""
    counts, cut, right, w = coupling
    n, k = x.shape[1], y.shape[1]
    d = np.repeat(x, counts, axis=1)
    d -= y
    np.abs(d, out=d)
    # a cut y_j meets x_{right-1} for N - w and x_right for w
    split = (n - w) * d[:, cut] + w * np.abs(x[:, right] - y[:, cut])
    d[:, cut] = 0.0
    return (n * float(np.sum(d)) + float(np.sum(split))) / (n * k)


def quadrant_discrepancy(m1, m2) -> float:
    """max_p |m1(Q_p) - m2(Q_p)| over p in the union of the point sets m1
    and m2, for the closed quadrants Q_p = {z : Re z <= Re p, Im z <= Im p}
    and the uniform measures on m1 and m2; points tied with p in either
    coordinate, of either set, are in Q_p.

    An offline dominance count in O(N^1.5) for the N points of the union:
    sorted by real part, Q_p is the prefix up to the last point tied with p,
    cut at p's imaginary-part rank.  The prefix is counted in blocks of
    about sqrt(N) points: whole blocks from a running histogram of each
    set's points over imaginary-part ranks, the last partial block
    directly.  The counts are exact; each is divided by its set's size once.
    """
    m1, m2 = from_points(m1), from_points(m2)
    pts = np.concatenate([m1, m2])
    order = np.argsort(pts.real, kind="stable")
    re = pts.real[order]
    levels, rank = np.unique(pts.imag[order], return_inverse=True)
    # one column per set, 1.0 where the point belongs to it
    member = np.stack([order < len(m1), order >= len(m1)], axis=1).astype(float)
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
            d = prefix[rank[p]] + inside @ member[a:stop]
            worst = max(worst, float(np.max(np.abs(d[:, 0] / len(m1) - d[:, 1] / len(m2)))))
        for part in range(2):
            hist[:, part] += np.bincount(rank[a:stop], weights=member[a:stop, part],
                                         minlength=len(levels))
    return worst


def reference_quantization(measure: BaseMeasure, k: int, seed: SeedSpec) -> np.ndarray:
    """The points of k fresh i.i.d. samples, whose uniform measure is a
    sqrt(k)-accurate finite proxy for the base measure in distance
    computations."""
    return from_points(sample(measure, seed, as_count(k, "k")).samples)
