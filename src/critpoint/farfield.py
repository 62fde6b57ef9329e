"""The far route of `logderiv.cauchy_sums`: the near field of each
target's box summed directly, the far field by multipole and local
expansions on a uniform grid of boxes.  The route, its selection rule
(`logderiv._box_grid`) and its truncation bound are stated in the
`logderiv` module docstring.  `cauchy_sums` imports this module on the
first call that takes the route, so a run that never does compiles none
of it.
"""

from __future__ import annotations

import math

import numpy as np

from . import logderiv


class Grid:
    """Square boxes of side h over the targets and sources of a 1-d call:
    box (i, j) is [o.real + i h, o.real + (i + 1) h) x [o.imag + j h, ...),
    flat index i gy + j.  h has at most 9 significant bits and o is an
    integer multiple of h, so every box centre is a double and the centres
    of two boxes differ by exactly h (di + i dj).

    Targets and sources are sorted by box, stably: `t_order`, `s_order`,
    and `t_box`, `s_box` the box of each sorted point.  Box b's sorted
    targets are [t_start[b], t_start[b + 1]) (`s_start` for sources), and
    `runs[b]` the three ranges of sorted sources in the columns i - 1, i,
    i + 1 and the rows j - 1..j + 1 of box b: its near field, of `near[b]`
    sources."""

    def __init__(self, h, o, gx, gy, t_box, s_box):
        self.h, self.o, self.gx, self.gy = h, o, gx, gy
        nb = gx * gy
        self.t_order, self.t_box, self.t_start = _sort_boxes(t_box, nb)
        self.s_order, self.s_box, self.s_start = _sort_boxes(s_box, nb)
        i, j = np.divmod(np.arange(nb), gy)
        cols = i[:, None] + np.arange(-1, 2)
        rows = np.stack([np.maximum(j - 1, 0), np.minimum(j + 1, gy - 1) + 1], axis=-1)
        self.runs = self.s_start[np.clip(cols, 0, gx - 1)[..., None] * gy + rows[:, None, :]]
        self.runs[(cols < 0) | (cols >= gx)] = 0  # a column off the grid is empty
        self.near = (self.runs[..., 1] - self.runs[..., 0]).sum(axis=1)

    def offsets(self, p, box):
        """(p - c)/h for the points p in the boxes box, c the box centres."""
        i, j = np.divmod(box, self.gy)
        c = ((i + 0.5) * self.h + self.o.real) + 1j * ((j + 0.5) * self.h + self.o.imag)
        return (p - c) / self.h

    def near_column(self, k):
        """The column of source k[i] in the near field of the i-th sorted
        target, or -1 where it lies outside."""
        rank = np.empty(len(self.s_order), np.intp)
        rank[self.s_order] = np.arange(len(rank))
        k = rank[k]
        tb, sb = self.t_box, self.s_box[k]
        di, dj = sb // self.gy - tb // self.gy, sb % self.gy - tb % self.gy
        run = np.clip(di + 1, 0, 2)
        start = self.runs[tb, run, 0]
        length = self.runs[..., 1] - self.runs[..., 0]
        before = (np.cumsum(length, axis=1) - length)[tb, run]
        return np.where((abs(di) <= 1) & (abs(dj) <= 1), before + k - start, -1)


def _sort_boxes(box, nb):
    """(the stable order of the points by box, their boxes in that order,
    the start of each box's run in that order with the total last)."""
    order = np.argsort(box, kind="stable")
    box = box[order]
    return order, box, np.searchsorted(box, np.arange(nb + 1))


def _series_lengths_squared(rho: np.ndarray) -> np.ndarray:
    """The smallest L >= 1 with
    sum_{s >= L - 1} (s + 1) rho^s <= eps / (1 + rho)^2, for 0 <= rho < 1;
    the sum is rho^(L-1) (L - (L - 1) rho) / (1 - rho)^2."""
    L = logderiv._series_lengths(rho)
    while True:
        tail = rho ** (L - 1) * (L - (L - 1) * rho) * (1 + rho) ** 2
        short = tail > logderiv._EPS * (1 - rho) ** 2
        if not short.any():
            return L
        L += short


def _far_field(g, t, s, charges, slope):
    """[(F, F')] per charge vector c at the sorted targets, where
    F = h sum over the far sources (box distance >= 2) of c_k/(x - y_k) and
    F' is its derivative in t (only if slope), from the multipoles of the
    source boxes translated to local expansions of the target boxes
    (`logderiv`'s module docstring).  t and s are the sorted targets and sources
    relative to their box centres, in units of h."""
    gx, gy, nc = g.gx, g.gy, len(charges)
    dx = np.arange(1 - gx, gx)[:, None]
    dy = np.arange(1 - gy, gy)[None, :]
    far = np.maximum(abs(dx), abs(dy)) >= 2
    # r_A + r_B = sqrt 2 box sides, widened for points rounded across a box edge
    rho = math.sqrt(2.0) * (1 + 2.0 ** -30) / np.maximum(np.hypot(dx, dy), 2.0)
    order = (_series_lengths_squared if slope else logderiv._series_lengths)(rho).astype(int)
    P = int(order[far].max(initial=1))
    # multipoles a_l = sum_k c_k s_k^l of each source box, l < P
    M = np.zeros((nc, P, gx * gy), complex)
    full = np.flatnonzero(np.diff(g.s_start))
    power = np.array(charges, dtype=complex)
    for l in range(P):
        M[:, l, full] = np.add.reduceat(power, g.s_start[full], axis=1)
        power = power * s
    M = M.reshape(nc, P, gx, gy)
    # C[m, l] = (-1)^m binom(l + m, l), by rows of Pascal's triangle
    C = np.ones((P, P))
    for m in range(1, P):
        np.cumsum(C[m - 1], out=C[m])
    C[1::2] *= -1
    C = C.astype(complex)  # a product with a complex operand would cast it
    L = np.zeros_like(M)
    for a, b in zip(*np.nonzero(far)):
        ox, oy, p = int(a) + 1 - gx, int(b) + 1 - gy, int(order[a, b])
        # the local coefficients of a box whose centre is h (ox + i oy)
        # from the source box's: b_m = u^m sum_l C[m, l] u^(l+1) a_l,
        # u = 1/(ox + i oy), one product for all such pairs of boxes
        upow = np.cumprod(np.full(p, 1.0 / complex(ox, oy)))  # u^1 .. u^p
        tx, ty = slice(max(ox, 0), gx + min(ox, 0)), slice(max(oy, 0), gy + min(oy, 0))
        sx, sy = slice(max(-ox, 0), gx + min(-ox, 0)), slice(max(-oy, 0), gy + min(-oy, 0))
        for c in range(nc):
            local = C[:p, :p] @ (M[c, :p, sx, sy].reshape(p, -1) * upow[:, None])
            local[1:] *= upow[:-1, None]
            L[c, :p, tx, ty] += local.reshape(p, tx.stop - tx.start, ty.stop - ty.start)
    # the local series at each target, by Horner's rule in t
    L = L.reshape(nc, P, gx * gy)
    fields = []
    for Lc in L:
        F, dF = Lc[P - 1][g.t_box], np.zeros(len(t), complex)
        for m in range(P - 2, -1, -1):
            if slope:
                dF = dF * t + F
            F = F * t + Lc[m][g.t_box]
        fields.append((F, dF))
    return fields


def far_sums(g, x, y, weights, squared, skip, nearest, rows, tally):
    """`cauchy_sums` on the grid g: the near field of each target's box
    summed directly, box by box through `logderiv._blocked`, plus the far
    field of `_far_field`; the pairs of each go to `tally`, if given."""
    q, n, h = len(x), len(y), g.h
    to, so, tb = g.t_order, g.s_order, g.t_box
    xs, ys = x[to], y[so]
    entries = weights + squared
    cs = [None if c is None else np.asarray(c)[so] for c in entries]
    widths = logderiv._widths(weights, squared, nearest)
    out = [np.empty(q, complex) for _ in entries] + [np.empty(q)] * nearest
    sk = None if skip is None else np.asarray(skip)[to]
    col = None if skip is None else g.near_column(sk)

    def block(a, b, work):
        for box in range(tb[a], tb[b - 1] + 1):
            s, e = max(a, g.t_start[box]), min(b, g.t_start[box + 1])
            if s >= e:
                continue
            runs = [slice(r0, r1) for r0, r1 in g.runs[box]]
            D, *bufs = logderiv._carve(work, (e - s, g.near[box]), widths)
            at = 0
            for r in runs:
                np.subtract(xs[s:e, None], ys[r], out=D[:, at:at + r.stop - r.start])
                at += r.stop - r.start
            if col is not None:
                i = np.flatnonzero(col[s:e] >= 0)
                D[i, col[s:e][i]] = np.inf
            coefs = [None if c is None else np.concatenate([c[r] for r in runs]) for c in cs]
            logderiv._reduce(D, bufs, coefs[:len(weights)], coefs[len(weights):], out,
                             to[s:e], nearest)

    logderiv._blocked(q, int(g.near.max()), sum(widths), block, rows)

    # the far field, in the memory the near field's buffer left free: one
    # per distinct weight vector (by identity; None is unit weights)
    first = {}
    for j, c in enumerate(entries):
        first.setdefault(id(c), j)
    fields = dict(zip(first, _far_field(
        g, g.offsets(xs, tb), g.offsets(ys, g.s_box),
        [np.ones(n) if cs[j] is None else cs[j] for j in first.values()], bool(squared))))
    cut = None if col is None else np.flatnonzero(col < 0)
    for j, c in enumerate(entries):
        F, dF = fields[id(c)]
        far = F / h if j < len(weights) else dF / -(h * h)
        if cut is not None and len(cut):
            # a skipped source outside the near field is in the far sum: take it out
            v = 1.0 / (xs[cut] - y[sk[cut]])
            if j >= len(weights):
                v = v * v
            far[cut] -= v if c is None else np.asarray(c)[sk[cut]] * v
        out[j][to] += far
    if nearest:
        # a far source is at least a box side away: where the near field
        # holds no closer source, the nearest is found over all sources
        # (`_direct_sums` tallies those pairs)
        i = np.flatnonzero(~(out[-1] < h * (1 - 2.0 ** -30)))
        if len(i):
            (out[-1][i],) = logderiv._direct_sums(
                x[i], y, (), (), None if skip is None else np.asarray(skip)[i], True, rows)
    if tally is not None:
        near = int(np.diff(g.t_start) @ g.near)
        tally.direct += near
        tally.far += q * n - near
    return out
