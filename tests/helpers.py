"""Shared test-side helpers: convex hulls for Gauss-Lucas checks, the
optimal-pairing distance between two point multisets, affine maps, and a
trial-by-trial oracle of the anti-concentration hits."""

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from critpoint.experiments import _P_ANTICONC
from critpoint.mobius import MobiusTransform
from critpoint.sampler import sample


def affine(alpha, beta=0):
    """The Mobius transform z -> alpha z + beta (alpha = 1, beta = 0 is the identity)."""
    return MobiusTransform(alpha, beta, 0, 1)


def projected_probe_sums(path, ns, probes, aproj, bproj) -> np.ndarray:
    """acc[k, i]: aproj Re S + bproj Im S at probes[i] of the first ns[k]
    points of one path, accumulated segment by segment, each segment's
    complex sum S taken pairwise in path order by numpy."""
    path, probes = np.asarray(path), np.asarray(probes)
    acc, run, prev = np.zeros((len(ns), len(probes))), np.zeros(len(probes)), 0
    for k, n in enumerate(ns):
        with np.errstate(divide="ignore", invalid="ignore"):
            S = (1.0 / (probes[:, None] - path[None, prev:n])).sum(axis=1)
        run += aproj * S.real + bproj * S.imag
        acc[k], prev = run, n
    return acc


def anticoncentration_hits(config) -> dict:
    """n -> hits of run_anticoncentration(config), one trial at a time: each
    of the trial's two paths from its own `sample` call and its own
    `projected_probe_sums`."""
    probes = np.asarray(config.probes, dtype=complex)
    r_ball = config.r_ball if config.r_ball is not None else math.sqrt(len(probes))
    ns = config.n_schedule
    hits = {n: 0 for n in ns}
    for t in range(config.trials):
        acc = [projected_probe_sums(
            sample(config.measure, config.seed.substream(_P_ANTICONC, 2 * t + half),
                   ns[-1]).samples, ns, probes, *config.projection) for half in range(2)]
        delta = acc[0] - acc[1]
        for n, norm in zip(ns, np.sqrt((delta * delta).sum(axis=1))):
            hits[n] += int(norm <= r_ball)
    return hits


def multiset_match_distance(a, b) -> float:
    """Largest pointwise distance under the optimal (Hungarian) pairing."""
    pa = np.atleast_1d(np.asarray(a, dtype=complex))
    pb = np.atleast_1d(np.asarray(b, dtype=complex))
    if pa.shape != pb.shape:
        raise ValueError(f"multisets differ in size: {pa.shape} vs {pb.shape}")
    if pa.size == 0:
        return 0.0
    C = np.abs(pa[:, None] - pb[None, :])
    rows, cols = linear_sum_assignment(C)
    return float(C[rows, cols].max())


def _convex_hull(pts):
    """Monotone-chain hull of 2-d points (counterclockwise); degenerate
    inputs (all collinear or coincident) come back as 1 or 2 points."""
    pts = sorted(set(map(tuple, pts)))
    if len(pts) <= 2:
        return [np.asarray(p) for p in pts]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # everything collinear
        return [np.asarray(pts[0]), np.asarray(pts[-1])]
    return [np.asarray(p) for p in hull]


def _point_segment_distance(q, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(q - a)))
    t = np.clip(float((q - a) @ ab) / denom, 0.0, 1.0)
    proj = a + t * ab
    return float(np.hypot(*(q - proj)))


def hull_distance(roots, points):
    """Max distance of any point outside the convex hull of the roots
    (0 for points inside).  Complex in, float out."""
    rpts = np.column_stack([np.real(roots), np.imag(roots)])
    hull = _convex_hull(rpts)
    worst = 0.0
    for w in np.atleast_1d(points):
        q = np.array([w.real, w.imag])
        if len(hull) == 1:
            d = float(np.hypot(*(q - hull[0])))
        elif len(hull) == 2:
            d = _point_segment_distance(q, hull[0], hull[1])
        else:
            inside = True
            for i in range(len(hull)):
                a, b = hull[i], hull[(i + 1) % len(hull)]
                crossv = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
                if crossv < 0:
                    inside = False
                    break
            if inside:
                d = 0.0
            else:
                d = min(_point_segment_distance(q, hull[i], hull[(i + 1) % len(hull)])
                        for i in range(len(hull)))
        worst = max(worst, d)
    return worst
