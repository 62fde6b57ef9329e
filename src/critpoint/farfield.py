"""The solver's far route: `cauchy_sums`, a drop-in for
`logderiv.cauchy_sums` that sums a large call of spread points by the near
field of each target's box directly and the far field by multipole and
local expansions on a uniform grid of boxes (Greengard & Rokhlin 1987).
Only the solver's full passes call it (`critical`); every other Cauchy sum
is the direct kernel, since a value on the route depends on the whole call
(its bounding box sets the boxes).

The rule.  A call with 1-d targets x (q of them) and shared sources y (n),
of at least FAR_MIN_PAIRS = q n pairs (the measured crossover on 2 CPUs:
1.5k-2k uniform disk points), with unit charges only (every entry of
weights and squared None) and no skip or each target's own source skipped
(y[skip] == x, as the solver's self passes send), is binned on a grid of
square boxes of side h over the bounding box of x and y, about
FAR_BOX_SOURCES sources per box (`_box_grid`).  The near field of a target
is the 3 x 3 block of boxes around its own; the call takes the route when
the near fields hold at most FAR_NEAR_SHARE of the q n pairs, and the
kernel otherwise.  So the choice rests on counts the call observes: points
spread over an area take it, while a few boxes holding most points (heavy
tails such as Cauchy roots), the n <= 200 solves of Jensen, the row form,
weighted sums (roots with multiplicities) and any other skip keep the
direct sums.  A skipped own source lies in the target's own box, so the
near field leaves it out and the far field never holds it.

The route.  The near field is summed directly, box by box, with
`logderiv._blocked` and its buffer: skips, coincidences and the nearest
distance as in the kernel, each target's sum over its near sources in a
fixed order.  A target whose near field holds no source within h gets its
nearest distance from all sources by the kernel, since a source outside
the near field is at least h away; the distances are the kernel's bit for
bit.  The far field (`_far_field`) expands each source box's unit charges
in a multipole series about its centre, translates it once per offset
d = (c_A - c_B)/h (integers, a batched product) to a local series about
each target box's centre c_A, and sums that series at each target by
Horner's rule.  The far field does not depend on the worker count or
block rows, so neither does the result; its translation products are
numpy matrix products, which run in the BLAS library numpy was built with
(on its own threads), so the route's sums are bit for bit the same only
on the same BLAS build, where the kernel's depend on numpy alone.

The truncation bound.  In units of h write x = c_A + t, y = c_B + s and
v = (s - t)/d with |v| <= rho = (r_A + r_B)/|d|, r = sqrt(2)/2 the half
diagonal of a box (widened by 2^-30 for points that rounding puts a hair
past a box edge), so rho <= sqrt(2)/2 for |d| >= 2.  Then
1/(x - y) = (1/d) sum_{j >= 0} v^j, and its multipole coefficients
sum_k s_k^l and the local ones, (-1)^m binom(l + m, l) d^-(l+m+1) times
them, regroup the terms of degree j = l + m; an offset keeps l, m < p.
Every term left out has j >= p, and the sum of a degree's terms is at
most rho^j / |d| in size, so the tail is at most rho^p / ((1 - rho) |d|),
while |1/(x - y)| >= 1/((1 + rho) |d|).  The order p of an offset is
`logderiv._series_lengths` at rho, the smallest p with
rho^p <= eps (1 - rho)/(1 + rho), so each pair's truncation error is at
most eps |1/(x - y_k)|, and a target's at most eps sum_k |1/(x - y_k)|,
the scale of the direct sum's own rounding.  The squared sums are minus
the derivative of the local series in t:
1/(x - y)^2 = d^-2 sum_j (j + 1) v^j, the extra factor (j + 1) coming
from the derivative, and the terms left out have j >= p - 1, so with
|1/(x - y)|^2 >= 1/((1 + rho) |d|)^2 the order is the smallest p with
sum_{s >= p-1} (s + 1) rho^s <= eps / (1 + rho)^2
(`_series_lengths_squared`): each pair's error is at most
eps |1/(x - y_k)|^2.  The rest is rounding: every offset and term is
taken relative to exact box centres (h has 9 significant bits and the
grid's corner is a multiple of h), so a point's offset from its centre
rounds once, and the products sum terms bounded by the same series.
"""

from __future__ import annotations

import math

import numpy as np

from . import logderiv

#: a 1-d call of at least FAR_MIN_PAIRS pairs is binned into boxes of about
#: FAR_BOX_SOURCES sources each, and takes the route when the near field
#: holds at most FAR_NEAR_SHARE of its pairs (module docstring)
FAR_MIN_PAIRS = 1 << 21
FAR_BOX_SOURCES = 64
FAR_NEAR_SHARE = 0.25


def cauchy_sums(x, y, weights=(None,), squared=(), skip=None, nearest=False, rows=None):
    """`logderiv.cauchy_sums`, by the far route when every charge is unit
    and `_box_grid` bins the call, and by the kernel otherwise; the module
    docstring states when and how exact."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    unit = all(c is None for c in weights + squared)
    g = _box_grid(x, y, skip) if unit else None
    if g is None:
        return logderiv.cauchy_sums(x, y, weights, squared, skip, nearest, rows)
    return far_sums(g, x, y, weights, squared, skip, nearest, rows)


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
    sources.  `near` and `near_pairs`, the pairs in the near fields of all
    targets, are the counts `_box_grid` chose the route by."""

    def __init__(self, h, o, gx, gy, t_box, s_box, near, near_pairs):
        self.h, self.o, self.gx, self.gy = h, o, gx, gy
        self.near, self.near_pairs = near, near_pairs
        nb = gx * gy
        self.t_order, self.t_box, self.t_start = _sort_boxes(t_box, nb)
        self.s_order, self.s_box, self.s_start = _sort_boxes(s_box, nb)
        i, j = np.divmod(np.arange(nb), gy)
        cols = i[:, None] + np.arange(-1, 2)
        rows = np.stack([np.maximum(j - 1, 0), np.minimum(j + 1, gy - 1) + 1], axis=-1)
        self.runs = self.s_start[np.clip(cols, 0, gx - 1)[..., None] * gy + rows[:, None, :]]
        self.runs[(cols < 0) | (cols >= gx)] = 0  # a column off the grid is empty

    def offsets(self, p, box):
        """(p - c)/h for the points p in the boxes box, c the box centres."""
        i, j = np.divmod(box, self.gy)
        c = ((i + 0.5) * self.h + self.o.real) + 1j * ((j + 0.5) * self.h + self.o.imag)
        return (p - c) / self.h

    def near_column(self, k):
        """The column of source k[i] in the near field of the i-th sorted
        target, for a source in the target's own box: in the middle run."""
        rank = np.empty(len(self.s_order), np.intp)
        rank[self.s_order] = np.arange(len(rank))
        left, own = self.runs[self.t_box, 0], self.runs[self.t_box, 1]
        return left[:, 1] - left[:, 0] + rank[k] - own[:, 0]


def _box_grid(x, y, skip):
    """The far route's Grid for a call, or None for the kernel: when x or y
    is not 1-d, when q n is below FAR_MIN_PAIRS, when skip leaves out other
    than each target's own source, when the points are not finite or span
    no area, or when the near fields would hold more than FAR_NEAR_SHARE
    of the q n pairs (a few boxes hold most points).  The boxes hold about
    FAR_BOX_SOURCES sources each on average over the bounding box of
    targets and sources."""
    if x.ndim != 1 or y.ndim != 1:
        return None
    q, n = len(x), len(y)
    if q * n < FAR_MIN_PAIRS or not (skip is None or np.array_equal(y[skip], x)):
        return None
    lo = complex(min(x.real.min(), y.real.min()), min(x.imag.min(), y.imag.min()))
    hi = complex(max(x.real.max(), y.real.max()), max(x.imag.max(), y.imag.max()))
    w, t = hi.real - lo.real, hi.imag - lo.imag
    boxes = n / FAR_BOX_SOURCES
    side = max(math.sqrt(w * t / boxes), max(w, t) / boxes)
    if not (math.isfinite(side) and side > 0):
        return None
    frac, e = math.frexp(side)
    h = math.ldexp(math.ceil(math.ldexp(frac, 8)), e - 8)  # side rounded up to 9 bits
    corner = []
    for v in (lo.real, lo.imag):
        k = math.floor(v / h)
        if not abs(k) < 2.0 ** 40:  # the centres would not be doubles
            return None
        while k * h > v:
            k -= 1
        corner.append(k * h)
    o = complex(*corner)
    gx, gy = int((hi.real - o.real) // h) + 1, int((hi.imag - o.imag) // h) + 1

    def box(p):
        i = np.clip(np.floor((p.real - o.real) / h), 0, gx - 1).astype(np.intp)
        j = np.clip(np.floor((p.imag - o.imag) / h), 0, gy - 1).astype(np.intp)
        return i * gy + j

    # the near field's pairs from the box counts, before any sorting
    t_box, s_box = box(x), box(y)
    near = np.pad(np.bincount(s_box, minlength=gx * gy).reshape(gx, gy), 1)
    near = sum(near[a:a + gx, b:b + gy] for a in range(3) for b in range(3)).ravel()
    pairs = int(np.bincount(t_box, minlength=gx * gy) @ near)
    if pairs > FAR_NEAR_SHARE * q * n:
        return None
    return Grid(h, o, gx, gy, t_box, s_box, near, pairs)


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


def _far_field(g, t, s, slope):
    """(F, F') at the sorted targets, where F = h sum over the far sources
    (box distance >= 2) of 1/(x - y_k) and F' is its derivative in t (only
    if slope), from the multipoles of the source boxes translated to local
    expansions of the target boxes (module docstring).  t and s are the
    sorted targets and sources relative to their box centres, in units of
    h."""
    gx, gy = g.gx, g.gy
    dx = np.arange(1 - gx, gx)[:, None]
    dy = np.arange(1 - gy, gy)[None, :]
    far = np.maximum(abs(dx), abs(dy)) >= 2
    # r_A + r_B = sqrt 2 box sides, widened for points rounded across a box edge
    rho = math.sqrt(2.0) * (1 + 2.0 ** -30) / np.maximum(np.hypot(dx, dy), 2.0)
    order = (_series_lengths_squared if slope else logderiv._series_lengths)(rho).astype(int)
    P = int(order[far].max(initial=1))
    # multipoles a_l = sum_k s_k^l of each source box, l < P
    M = np.zeros((P, gx * gy), complex)
    full = np.flatnonzero(np.diff(g.s_start))
    power = np.ones(len(s), complex)
    for l in range(P):
        M[l, full] = np.add.reduceat(power, g.s_start[full])
        power = power * s
    M = M.reshape(P, gx, gy)
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
        local = C[:p, :p] @ (M[:p, sx, sy].reshape(p, -1) * upow[:, None])
        local[1:] *= upow[:-1, None]
        L[:p, tx, ty] += local.reshape(p, tx.stop - tx.start, ty.stop - ty.start)
    # the local series at each target, by Horner's rule in t
    L = L.reshape(P, gx * gy)
    F, dF = L[P - 1][g.t_box], np.zeros(len(t), complex)
    for m in range(P - 2, -1, -1):
        if slope:
            dF = dF * t + F
        F = F * t + L[m][g.t_box]
    return F, dF


def far_sums(g, x, y, weights, squared, skip, nearest, rows):
    """`cauchy_sums` on the grid g for unit charges (every entry of weights
    and squared None), skip None or each target's own source: the near
    field of each target's box summed directly, box by box through
    `logderiv._blocked`, plus the far field of `_far_field`; the near
    pairs that chose the route (`Grid.near_pairs`) and the rest go to the
    tally of `logderiv.counting_pairs`."""
    q, n, h = len(x), len(y), g.h
    to, so, tb = g.t_order, g.s_order, g.t_box
    xs, ys = x[to], y[so]
    widths = logderiv._widths(weights, squared, nearest)
    out = [np.empty(q, complex) for _ in weights + squared] + [np.empty(q)] * nearest
    col = None if skip is None else g.near_column(np.asarray(skip)[to])

    def block(a, b, work):
        for box in range(tb[a], tb[b - 1] + 1):
            s, e = max(a, g.t_start[box]), min(b, g.t_start[box + 1])
            if s >= e:
                continue
            D, *bufs = logderiv._carve(work, (e - s, g.near[box]), widths)
            at = 0
            for r0, r1 in g.runs[box]:
                np.subtract(xs[s:e, None], ys[r0:r1], out=D[:, at:at + r1 - r0])
                at += r1 - r0
            if col is not None:
                D[np.arange(e - s), col[s:e]] = np.inf
            logderiv._reduce(D, bufs, weights, squared, out, to[s:e], nearest)

    logderiv._blocked(q, int(g.near.max()), sum(widths), block, rows)

    # the far field, in the memory the near field's buffer left free
    F, dF = _far_field(g, g.offsets(xs, tb), g.offsets(ys, g.s_box), bool(squared))
    for j in range(len(weights + squared)):
        out[j][to] += F / h if j < len(weights) else dF / -(h * h)
    if nearest:
        # a far source is at least a box side away: where the near field
        # holds no closer source, the nearest is found over all sources
        # (the kernel tallies those pairs)
        i = np.flatnonzero(~(out[-1] < h * (1 - 2.0 ** -30)))
        if len(i):
            (out[-1][i],) = logderiv.cauchy_sums(
                x[i], y, (), (), None if skip is None else np.asarray(skip)[i], True, rows)
    tally = logderiv._TALLY.get()
    if tally is not None:
        tally.direct += g.near_pairs
        tally.far += q * n - g.near_pairs
    return out
