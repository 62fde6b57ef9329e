"""Empirical measures, log^- integrals, and weak-convergence diagnostics.

A measure is the uniform measure on a finite multiset, given by its points:
a nonempty, finite, 1-d complex array (`from_points` checks one), with mass
1/N on each of its N entries, so a repeated point carries its multiplicity.
The distribution function of N sorted values is k/N at the k-th, exact per
element, and the mass of a set is its count divided by N once, so no sum of
masses drifts and none needs compensated summation.

Two diagnostics are provided because convergence in distribution fixes no
metric: sliced Wasserstein-1 (metrizes weak convergence on tight families)
and a scale-free quadrant discrepancy.  Neither forms point pairs.
`sliced_w1_many` sorts a reference's projections once per direction and
measures each of several point sets against them, in O(K log K + N log K)
per direction for K reference points and N points per set; `sliced_w1` is
its one-measure case.  `quadrant_discrepancy` is an offline dominance count
in O(N^1.5) over the N points of both sets, with closed quadrants: a point
tied with p in either coordinate, of either set, counts as below p.
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
    measures on the points m1 and m2: the one-measure case of
    `sliced_w1_many`, with m2 as the reference."""
    return float(sliced_w1_many([m1], m2, directions)[0])


def sliced_w1_many(nus, ref, directions: int = 64) -> np.ndarray:
    """sliced_w1(nu, ref, directions) for each point set nu in nus, sorting
    each direction's projection of ref once for all of them.

    Per direction, W1 = integral |F - G| dx for the distribution functions
    F of nu and G of ref.  From ref's sorted projections y, G (j/K from the
    j-th on) and the prefix integral I(t) = integral_{-inf}^t G, each
    interval between consecutive sorted projections of nu, where F is
    constant, is integrated in closed form: by I at its ends and at the
    first y where G reaches F.  Per direction that is O(K log K) for ref's
    K points and O(N log K) for each nu of N points.  Directions are
    processed in blocks of at most BLOCK_ELEMS / 8 (direction, point)
    elements, so only one direction's projection of a large ref is alive
    at a time.
    """
    directions = as_count(directions, "directions")
    ref, nus = from_points(ref), [from_points(nu) for nu in nus]
    if not nus:
        return np.zeros(0)
    totals = np.zeros(len(nus))
    # the closed forms keep about 16 block-sized arrays alive
    block = max(1, BLOCK_ELEMS // (8 * max(len(m) for m in [ref, *nus])))
    G = np.arange(1, len(ref)) / len(ref)  # G on [y[j], y[j + 1])
    for a in range(0, directions, block):
        theta = math.pi * np.arange(a, min(a + block, directions)) / directions
        cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
        y = np.sort(cos * ref.real + sin * ref.imag, axis=1)
        I = np.zeros_like(y)
        np.cumsum(G * np.diff(y, axis=1), axis=1, out=I[:, 1:])
        for i, nu in enumerate(nus):
            totals[i] += _w1_sorted(np.sort(cos * nu.real + sin * nu.imag, axis=1), y, I)
    # the closed forms cancel: identical measures can come out at -1 ulp
    return np.maximum(totals, 0.0) / directions


def _w1_sorted(x, y, I) -> float:
    """Sum over rows of integral |F - G| for the distribution functions of
    the sorted rows x (N values, F = #(x <= t)/N) and y (K values,
    G = #(y <= t)/K), with I[j] = integral_{y[0]}^{y[j]} G."""
    n, k = x.shape[1], y.shape[1]
    # F = i/N on [edge[i], edge[i+1]]: 0 before x[0], 1 after x[-1]
    edge = np.concatenate([np.minimum(x[:, :1], y[:, :1]), x,
                           np.maximum(x[:, -1:], y[:, -1:])], axis=1)
    i = np.arange(n + 1)
    # K G at each edge t, and integral_{-inf}^t G from the last y[j] <= t
    below = np.array([np.searchsorted(row, e, side="right") for row, e in zip(y, edge)])
    j = np.maximum(below - 1, 0)
    I_edge = (np.take_along_axis(I, j, axis=1)
              + below / k * (edge - np.take_along_axis(y, j, axis=1)))
    lo, hi, I_lo, I_hi = edge[:, :-1], edge[:, 1:], I_edge[:, :-1], I_edge[:, 1:]
    # G - F changes sign at s: lo where G >= F from lo on, hi where G < F up
    # to hi, and else y[r] for the first r with (r + 1)/K >= i/N; G and F
    # are compared as the integers N K G and N K F
    late = below[:, 1:] * n < i * k
    s, I_s = np.where(late, hi, lo), np.where(late, I_hi, I_lo)
    row, col = np.nonzero((below[:, :-1] * n < i * k) & ~late)
    r = -(-col * k // n) - 1
    s[row, col], I_s[row, col] = y[row, r], I[row, r]
    c = i / n
    return float(np.sum((c * (s - lo) - (I_s - I_lo)) + ((I_hi - I_s) - c * (hi - s))))


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
