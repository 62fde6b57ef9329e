"""Logarithmic derivative S(z) = sum_k 1/(z - Z_k) and circle sup norms.

Every Cauchy sum sum_k c_k/(x_i - y_k) goes through one direct kernel,
`cauchy_sums`, with one coincidence rule: a target on a source gives an
infinite term.  Its rows are one target each against shared sources, or t
targets each against the row's own sources.
Sums near the roots cancel, so each target is summed pairwise in source
order, whatever its block.  It and the sup norm's bound pass (`_cover_sums`)
share one block rule, `_blocked`: a pass of rows x elements per row that
fits in BLOCK_ELEMS elements runs as one block in the calling thread; a
larger one is cut into one contiguous range of rows per CPU the process may
run on, each range a loop over blocks of BLOCK_ELEMS // workers elements,
the caller's range in the calling thread and the others in threads that end
with the call.  All ranges carve their buffers from one allocation, so a
call holds the same scratch memory at any worker count.  A pass started
inside a range (a block that makes a blocked pass of its own) is nested: it
starts no thread and runs in that range's thread, block by block, on a
scratch buffer the range's nested passes share.  So a pass over trials
whose blocks sample and sum their own rows keeps each CPU on its own range
and starts its threads once.  Every row depends on its own targets and
sources alone, so the sums are bit for bit the same however the rows are
split, into blocks or into calls, and whichever thread runs them.

Two routes evaluate |S| on the grid a + r e^{2 pi i j / m}, and both start
with one pole-on-contour test, `_check_contour`.  `circle_abs_S` and its
block form `_circle_field` (growth's grids of up to 16k roots, summed
along the trajectory: each n adds the roots new since the last) are the
only users of a truncated Laurent series: the power sums of the roots far
from the circle are the coefficients of one trigonometric polynomial,
evaluated on the whole grid by numpy's FFT (`_grid_dft`, so numpy.fft
loads on its first call only), and the roots near the circle, or too near
for the series' rounding bound, are summed directly.  `circle_sup_norm`
uses no series: it is the maximum of the direct sums over all roots on
the grid, found by a Lipschitz branch and bound over the grid (Piyavskii
1972, Shubert 1972).  An evaluated point rules out its neighbours when
|S| there plus a proven bound on how far the computed |S| can rise within
their arc, h sum_k (d_k - h)^-2 plus a rounding margin
2 gamma sum_k (d_k - h)^-1 (d_k the distance to root k, h the arc), stays
below the running maximum.  The proof of gamma and of
the margins is in `circle_sup_norm`'s docstring.

The roots are a plain multiset: every entry point checks them with
`as_roots`, which returns them as a read-only 1-d complex array, and
`eval_S` returns S(z) as a complex number, inf at a pole.

Closeness has two length scales and no unit length: the roots' `spread`
about their centroid for tests against the roots (poles in `eval_S`,
duplicates in `critical`), and |a| + r for the pole-on-contour test.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PoleOnContourError, as_complex, as_count, as_positive

#: relative pole-detection tolerance, against the roots' spread in `eval_S`
#: and against |a| + r in `_check_contour`
POLE_RTOL = 1e-12

#: elements per blocked pass at a time (targets x sources in `_blocked`,
#: the metrics in `measures`): 2 MB per complex buffer, so the allocator
#: reuses freed buffers instead of mapping new pages.  `_blocked` shares it
#: out: with w workers each range's blocks hold BLOCK_ELEMS // w elements,
#: and all ranges' buffers are slices of one allocation of the same total
BLOCK_ELEMS = 1 << 17

#: grid points of the first pass of `circle_sup_norm` (at least), and the
#: factor by which each later pass refines the spacing (even)
SUP_COARSE = 64
SUP_REFINE = 4

_EPS = float(np.finfo(float).eps)


def spread(z: np.ndarray) -> float:
    """max_k |z_k - c| about the centroid c of the points z (0 for one point)."""
    return float(np.abs(z - z.mean()).max())


def as_roots(points, what: str = "roots") -> np.ndarray:
    """The points as a read-only 1-d complex array (a scalar is one point);
    ParameterError unless they are nonempty, 1-d, finite numbers (booleans
    and strings are not).  The multiset Z_1..Z_n defining
    P(X) = prod (X - Z_k): repetition = multiplicity."""
    try:
        z = np.atleast_1d(np.asarray(points))
    except ValueError as exc:  # a ragged nesting
        raise ParameterError(f"{what} must be a nonempty 1-d list of points") from exc
    if z.dtype.kind not in "iufc":
        raise ParameterError(f"{what} must be numbers, got {z.dtype} entries")
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1 or z.size == 0:
        raise ParameterError(f"{what} must be a nonempty 1-d list of points")
    if not np.all(np.isfinite(z)):
        raise ParameterError(f"{what} must be finite")
    z = z.view()  # read-only without freezing the caller's array
    z.setflags(write=False)
    return z


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_complex(self.center, "circle center"))
        object.__setattr__(self, "radius", as_positive(self.radius, "circle radius"))

    def points(self, m: int, j=None) -> np.ndarray:
        """a + r e^{2 pi i j / m} at the indices j (default 0..m-1), bit for
        bit the full grid's points there (`_unit_grid`)."""
        return self.center + self.radius * _unit_grid(m, j)


def _unit_grid(m: int, j=None) -> np.ndarray:
    """t_j = e^{2 pi i j / m} at the indices j (default 0..m-1), each from
    its own j; t_j of the m grid is bit for bit t_{2j} of the 2m grid."""
    return np.exp(2j * np.pi * (np.arange(m) if j is None else j) / m)


def _workers() -> int:
    """The CPUs this process may run on (its affinity mask, or the machine's
    CPU count where there is no affinity call): the ranges of a split pass."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _carve(work: np.ndarray, shape: tuple, widths) -> list:
    """Consecutive views of the float buffer work, one per width: a complex
    array of `shape` for width 2, a float one for width 1, None for 0."""
    size, at, views = math.prod(shape), 0, []
    for w in widths:
        part = work[at:at + w * size]
        views.append((part.view(complex) if w == 2 else part).reshape(shape) if w else None)
        at += w * size
    return views


#: `held` is a list in a thread while it runs a range of a split pass (the
#: scratch buffers its nested passes take turns with), None or unset outside
_RANGE = threading.local()


def _run_range(block, lo: int, hi: int, step: int, work: np.ndarray) -> None:
    """The block loop: block(a, b, work) over rows [a, b) of lo..hi, step at a time."""
    for a in range(lo, hi, step):
        block(a, min(a + step, hi), work)


def _blocked(nx: int, ny: int, width: int, block, rows=None) -> None:
    """Run block(a, b, work) over row blocks [a, b) covering range(nx) of an
    nx-by-ny pass, work a float buffer of at least width (b - a) ny entries
    (width floats per element) that no other block uses at the same time.

    A pass of at most one block (`rows` rows, by default BLOCK_ELEMS // ny)
    runs inline.  A larger one is cut into w = min(_workers(), nx)
    contiguous ranges of rows; each range loops over blocks of `rows` rows
    (by default BLOCK_ELEMS // (w ny)) with its own slice of one buffer.
    The calling thread runs the first range and a short-lived thread each
    other one, under the caller's numpy error state; every thread is
    joined before the call returns, and the first exception of any range
    is raised in the caller.  numpy releases the GIL inside the ufunc
    loops, so the ranges run at once.

    A larger pass started while the calling thread runs a range of a split
    pass (`_RANGE`) is nested: it starts no thread, and its blocks, of the
    rows one of its ranges would take, run one after another in that
    thread.  Its buffer is the range's scratch, grown to the largest nested
    pass so far and freed when the range ends, so a range that makes a
    nested pass per block allocates no buffer per pass.
    """
    per_block = BLOCK_ELEMS // max(1, ny)
    if nx <= (rows or per_block):
        block(0, nx, np.empty(width * nx * ny))
        return
    workers = min(_workers(), nx)
    step = max(1, min(rows or per_block // workers, -(-nx // workers)))
    # every split pass of a width takes the same buffer, so the allocator
    # hands the last one's freed block to the next
    size = width * max(step * ny, BLOCK_ELEMS // workers)
    held = getattr(_RANGE, "held", None)
    if held is not None:
        # borrowed, so that a pass nested in this one takes a buffer of its own
        buf = held.pop() if held else np.empty(0)
        if len(buf) < size:
            buf = np.empty(size)
        try:
            _run_range(block, 0, nx, step, buf)
        finally:
            held.append(buf)
        return
    bounds = [r * nx // workers for r in range(workers + 1)]
    work = np.empty(workers * size)
    err, errors, threads = np.geterr(), [], []

    def run(r):
        _RANGE.held = []
        try:
            _run_range(block, bounds[r], bounds[r + 1], step, work[r * size:(r + 1) * size])
        finally:
            _RANGE.held = None

    def worker(r):
        try:
            with np.errstate(**err):  # numpy's error state is per thread
                run(r)
        except BaseException as exc:
            errors.append(exc)

    try:
        for r in range(1, workers):
            threads.append(threading.Thread(target=worker, args=(r,)))
            threads[-1].start()
        run(0)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


class PairTally:
    """Target-source pairs of Cauchy sum calls: summed directly (every pair
    of `cauchy_sums`), and summed by a caller's far-field expansions."""

    def __init__(self):
        self.direct = self.far = 0


#: the PairTally of the innermost `counting_pairs` block of this thread or task
_TALLY = contextvars.ContextVar("critpoint_pair_tally", default=None)


@contextlib.contextmanager
def counting_pairs():
    """Yield a PairTally of the pairs that the Cauchy sum calls made in
    this thread (or task) within the block sum; an enclosing block's tally
    gets them too when this one ends."""
    tally = PairTally()
    token = _TALLY.set(tally)
    try:
        yield tally
    finally:
        _TALLY.reset(token)
        outer = _TALLY.get()
        if outer is not None:
            outer.direct += tally.direct
            outer.far += tally.far


def cauchy_sums(x, y, weights=(None,), squared=(), skip=None, nearest=False, rows=None):
    """[sum_k c_k/(x_i - y_k) for c in weights] + [sum_k c_k/(x_i - y_k)^2 for
    c in squared] + [min_k |x_i - y_k|, if nearest], where c = None is weight 1.

    x of shape (q,) against shared sources y of shape (n,), or in the row
    form x of shape (R, t) against y of shape (R, n), row r's targets against
    row r's sources (weights None, no skip); results have x's shape.  Row i
    leaves out column skip[i]; a target on a source gives a non-finite sum
    and distance 0.  Row blocks (`_blocked`, `rows` rows per block) reuse one
    difference buffer, divided in place, and leave each target's sum alone.
    A call of more than one block runs its rows on every CPU in the process's
    affinity mask (`os.sched_getaffinity`), with the same result bit for bit;
    start the process under `taskset -c 0` to keep it on one core, in the
    calling thread alone.  The call's pairs go to the tally of
    `counting_pairs`.
    """
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    tally = _TALLY.get()
    if tally is not None:
        tally.direct += x.size * y.shape[-1]
    row = x.shape[1:] + y.shape[-1:]  # a row's pairs: (n,), or (t, n) in the row form
    # products never overwrite an operand: numpy rounds an in-place product
    # of one-element arrays differently from its vector loop.  The buffers
    # a call needs share one block: glibc gives back a freed heap top of
    # more than twice the largest block it last unmapped, so separate
    # buffers of a larger total would be faulted in again on every call
    widths = _widths(weights, squared, nearest)
    out = [np.empty(x.shape, complex) for _ in weights + squared] + [np.empty(x.shape)] * nearest

    def block(a, b, work):
        D, *bufs = _carve(work, (b - a,) + row, widths)
        np.subtract(x[a:b, ..., None], y if y.ndim == 1 else y[a:b, None], out=D)
        if skip is not None:
            D[np.arange(b - a), skip[a:b]] = np.inf
        _reduce(D, bufs, weights, squared, out, slice(a, b), nearest)

    _blocked(len(x), math.prod(row), sum(widths), block, rows)
    return out


def _widths(weights, squared, nearest) -> tuple:
    """Floats per pair of a block's buffers: the differences, the weighted
    and the squared terms, and the distances."""
    return (2, 2 * any(c is not None for c in weights + squared), 2 * bool(squared), nearest)


def _reduce(D, bufs, weights, squared, out, at, nearest) -> None:
    """The sums over D's last axis, the differences x_i - y_k with skipped
    pairs set to inf, into out[j][at]; D is divided in place."""
    prod, sq, dist = bufs
    if nearest:
        out[-1][at] = np.abs(D, out=dist).min(axis=-1, initial=np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        R = np.divide(1.0, D, out=D)
        for j, c in enumerate(weights + squared):
            cR = R if c is None else np.multiply(c, R, out=prod)
            if j >= len(weights):
                cR = np.multiply(cR, R, out=sq)
            out[j][at] = cR.sum(axis=-1)


def eval_S(roots, z: complex) -> complex:
    """S(z) = sum_k 1/(z - Z_k), pairwise-summed in sorted root order; inf
    (|S| = +inf, a pole) when min_k |z - Z_k| <= POLE_RTOL * spread(roots)."""
    roots = as_roots(roots)
    z = as_complex(z, "z")
    if np.min(np.abs(z - roots)) <= POLE_RTOL * spread(roots):
        return complex(math.inf)
    (S,) = cauchy_sums([z], np.sort(roots))
    return complex(S[0])


def _abs_S_on_points(roots: np.ndarray, pts: np.ndarray, far=None) -> np.ndarray:
    """|S| on an array of points: the direct sum over `roots`, plus `far`
    (the other roots' values at the points), if given, which then holds
    the whole sum S."""
    (S,) = cauchy_sums(pts, roots)
    if far is not None:
        far += S
        S = far
    return np.abs(S)


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


def _series_weights(rho: np.ndarray, n: int, kappa: float, N: int) -> np.ndarray:
    """W_k, the bound on the rounding that root k's series adds at a grid
    point, in units of u = 2^-53 times the root's term there, for series
    of at most n roots about a circle of kappa = (|a| + r)/r, evaluated by
    a DFT of padded length N (derived in `circle_abs_S`).  W_k grows with
    n and N, so it bounds any shorter series or DFT too."""
    return (32 * kappa + 16 + (1 + rho) * (math.log2(n) + 15 + 10 * math.log2(N))) / (1 - rho)


def _series_degree(L: np.ndarray) -> int:
    """Series length D of one side of the circle: its roots with L_k <= D
    are summed by the series and the rest directly.  D minimises the cost

        D/128 + (sum of the L_k <= D)/4096 + #(L_k > D) + 32 [D > 0]

    in units of one direct root on growth's finer grid (m = 8192).  Timed
    at growth-cauchy-16k's n = 16384 (2-vCPU Xeon, medians of 15 in-process
    calls): a direct root 45 us, the power sums 4.5 ns a term with their
    exponents' calls, and `_grid_dft` plus the set-up 0.2 ms, about 5 roots'
    worth.  The weights are from a slower DFT (1.1 ms), so 32 is high.  So
    D = 0 (no series) unless the series saves more than 32 direct roots,
    and small sets stay direct.  It leaves out m: a grid size changes the
    split only through the rounding weights' DFT length (`circle_abs_S`).
    """
    D = np.concatenate([[0.0], np.sort(L)])
    terms = np.concatenate([[0.0], np.cumsum(D[1:])])
    return int(D[np.argmin(D / 128 + terms / 4096 + np.arange(len(L), -1, -1)
                           + 32 * (D > 0))])


def _power_sums(s: np.ndarray, L: np.ndarray, e: int) -> np.ndarray:
    """c_l = sum of s_k^(l+e) over the k with L_k > l, l = 0..max L - 1.

    In order of decreasing L_k, the terms of power l are the first
    #(L_k > l) roots.  Each power is the previous one times s_k, and each
    c_l is a pairwise sum over its prefix.  The powers go in blocks of
    consecutive exponents over the prefix of the block's first one, at
    most BLOCK_ELEMS / 16 terms a block: one product per exponent over a
    long prefix, one running product per root over a short one, and one
    `reduceat` for the block's sums, so the long tail of a few roots with
    large L_k costs a few numpy calls per block, not per exponent.
    """
    order = np.argsort(-L, kind="stable")
    s, negL = s[order], -L[order]
    D = int(-negL[0])
    k = np.searchsorted(negL, -np.arange(D + 1))  # k[l] = #(L_k > l)
    c = np.empty(D, complex)
    p = s if e else np.ones_like(s)  # the powers of exponent l + e
    l = 0
    while l < D:
        width = k[l]
        rows = max(1, min(D - l, (BLOCK_ELEMS >> 4) // width))
        P = np.empty((rows + 1, width), complex)
        P[0] = p[:width]
        if width > rows:
            sw = s[:width]
            for i in range(rows):
                np.multiply(P[i], sw, out=P[i + 1])
        else:
            P[1:] = s[:width]
            np.multiply.accumulate(P, axis=0, out=P)
        # row i's prefix of k[l + i] terms, from its start in the flat block
        bounds = np.empty(2 * rows, np.intp)
        bounds[0::2] = np.arange(0, rows * width, width)
        bounds[1::2] = bounds[0::2] + k[l:l + rows]
        c[l:l + rows] = np.add.reduceat(P.ravel(), bounds)[0::2]
        p, l = P[rows], l + rows
    return c


def _grid_dft(coef: np.ndarray, m: int) -> np.ndarray:
    """sum_q coef[q] e^{-2 pi i j q/m} at j = 0..m-1: numpy's FFT of coef,
    padded with zeros to the smallest length N = m 2^k that holds it and
    folded onto m terms by halving (a[:h] + a[h:]).  Each output is within
    10 log2(N) u sum_q |coef_q| of the exact DFT (`circle_abs_S`)."""
    size = m
    while size < len(coef):
        size *= 2
    a = np.zeros(size, complex)
    a[:len(coef)] = coef
    while size > m:
        size //= 2
        a = a[:size] + a[size:]
    return np.fft.fft(a)


def _check_contour(roots: np.ndarray, c: Circle) -> None:
    """PoleOnContourError when a root lies within POLE_RTOL (|a| + r) of the
    circle: the grid points are rounded at the scale |a| + r, not the
    roots' spread, so a root that near is on it."""
    tau = POLE_RTOL * (abs(c.center) + c.radius)
    if np.min(np.abs(np.abs(roots - c.center) - c.radius)) <= tau:
        raise PoleOnContourError(
            f"a root lies within {tau:.3e} of the circle C({c.center}, {c.radius})")


def circle_abs_S(roots, c: Circle, m: int) -> np.ndarray:
    """|S| at the m grid points x_j = a + r t_j, t_j = e^{2 pi i j / m},
    j = 0..m-1.  Raises PoleOnContourError when a root lies within
    POLE_RTOL (|a| + r) of the circle (`_check_contour`).  It is the
    one-block case of `_circle_field`, which growth runs block by block
    along its trajectory.

    With w_k = (Z_k - a)/r and rho_k = min(|w_k|, 1/|w_k|) < 1, a root
    inside the circle adds (1/r) sum_{l >= 0} w_k^l t_j^{-(l+1)} and a root
    outside adds -(1/r) sum_{l >= 0} w_k^{-(l+1)} t_j^l.  Each series stops
    after L_k terms, the smallest L with rho_k^L <= eps (1 - rho_k)/(1 + rho_k),
    eps = 2^-52: the dropped tail is at most eps times the root's smallest
    term on the circle.  The power sums of the series roots (`_power_sums`)
    are the coefficients of one trigonometric polynomial in t_j, which
    `_grid_dft` evaluates on the whole grid at once, and the other ("near")
    roots are summed by `cauchy_sums`.  When no root goes to a series, this
    is the direct sum over all roots.

    The split.  A root may take the series only if its rounding weight W_k
    (`_series_weights`, below) is at most B = n + 8 + 2^12, so that the
    series adds at most B u A_j: gamma A_j, gamma = (n + 8) u the direct
    sum's own bound (`circle_sup_norm`), plus 2^12 u A_j (about
    4.5e-13 A_j), so that small sets can take a series too.  Of those,
    each side takes the roots with L_k <= D, D from the cost model
    `_series_degree`.  The DFT runs at N = m unless the two lengths need
    more terms (d_in + d_out >= m); then N doubles until they fit and the
    split is chosen again with the weights at that N.  A larger N only
    raises the weights, so the admitted roots and their lengths only
    shrink, the lengths still fit, and the weights bound the DFT that
    runs.  The split depends on the roots, the circle and N.

    Rounding.  Let u = 2^-53, A_j = sum_k |1/(x_j - Z_k)|, kappa =
    (|a| + r)/r, delta_k = 1 - rho_k and e = 0 inside, 1 outside.  Root k's
    term at x_j is at least rho_k^e / (r (1 + rho_k)) in size, and its
    series' error, relative to that term, is at most
    - 2u from the dropped tail, at most 2u / delta_k;
    - 32 kappa u / delta_k because the series is the sum at the exact
      point a + r e^{2 pi i j/m}, and x_j is within 32u (|a| + r) of it
      (`circle_sup_norm`);
    - 14u / delta_k from the powers: w_k (or 1/w_k) is within 8u of
      itself, relatively, and each power is the previous one times it,
      within 2 sqrt(2) u, which telescopes to the series of a perturbed
      root;
    - (1 + rho_k)(log2 n + 15 + 10 log2 N) u / delta_k from the
      coefficients: each c_l is a pairwise sum within (log2 n + 15) u of
      the sum of its terms' sizes, the DFT within 10 log2(N) u
      sum_l |c_l| (`_grid_dft`, N its padded length: each fold within u,
      numpy's FFT within 10 log2(m) u, as the tests check), and
      sum_l |c_l| <= sum_k rho_k^e / delta_k.
    Their sum is W_k at the call's N, so the series roots add at most
    B u A_j, and the computed |S| is within (B + n + 12) u A_j of |S| at
    x_j: gamma A_j for the direct sum, 4u A_j for dividing by r, adding
    the parts and |.|.  Summed in s blocks along a trajectory
    (`_circle_field`), each block after the first adds two roundings
    more, each within u A_j: (B + n + 10 + 2s) u A_j.
    """
    roots = as_roots(roots)
    m = as_count(m, "m")
    return _circle_field(roots, c, c.points(m), len(roots), np.zeros(m, complex))[0]


def _circle_field(roots: np.ndarray, c: Circle, x: np.ndarray, n: int, S: np.ndarray):
    """Add the sums of one block of roots at the grid points x = c.points(m)
    into the running sums S, in place, and return (|S|, the block's split:
    its roots summed directly and by each side's series, and each side's
    series length D).  Raises PoleOnContourError, before S changes, when a
    root of the block lies on the circle.

    The block is the newest of a prefix of n roots, and its split and
    weights are the prefix's (B = n + 8 + 2^12 and log2 n in W_k, see
    `circle_abs_S`).  So block b's series add at most B u A_j^b, A_j^b the
    sum of |1/(x_j - Z_k)| over its roots, and its direct sum gamma A_j^b:
    over the blocks of the prefix, at most B u A_j and gamma A_j.  Each
    block after the first adds two more roundings, each within u A_j, as
    its series and then its direct sum join the running sums.  So after s
    blocks the computed |S| is within (B + n + 10 + 2s) u A_j of |S| at
    x_j, (B + n + 12) u A_j for one block.
    """
    _check_contour(roots, c)
    m = len(x)
    w = (roots - c.center) / c.radius
    aw = np.abs(w)
    inside = aw < 1.0
    with np.errstate(divide="ignore"):
        rho = np.minimum(aw, 1.0 / aw)
    L = _series_lengths(rho)
    kappa = (abs(c.center) + c.radius) / c.radius
    N = m  # the DFT's padded length, m 2^k > d_in + d_out
    while True:
        able = _series_weights(rho, n, kappa, N) <= n + 8 + (1 << 12)
        d_in, d_out = (_series_degree(L[able & side]) for side in (inside, ~inside))
        if d_in + d_out < N:
            break
        while N <= d_in + d_out:
            N *= 2
    s_in = able & inside & (L <= d_in)
    s_out = able & ~inside & (L <= d_out)
    series = s_in | s_out
    if series.any():
        # inside c_l at index l + 1 and outside -c_l at -l (mod N), each
        # index one term
        a = np.zeros(N, complex)
        if d_in:
            a[1:d_in + 1] = _power_sums(w[s_in], L[s_in], 0)
        if d_out:
            c_out = _power_sums(1.0 / w[s_out], L[s_out], 1)
            a[0] = -c_out[0]
            a[N - d_out + 1:] = -c_out[:0:-1]
        far = _grid_dft(a, m)
        far /= c.radius
        S += far
    split = {"direct_roots": len(roots) - int(series.sum()),
             "series_roots_inside": int(s_in.sum()), "series_roots_outside": int(s_out.sum()),
             "series_length_inside": d_in, "series_length_outside": d_out}
    return _abs_S_on_points(roots[~series], x, S), split


def _cover_sums(x: np.ndarray, y: np.ndarray, h: float, scale: float):
    """(sum_k q_ik, sum_k q_ik^2) with q_ik = scale / (|x_i - y_k| - h),
    both inf where some |x_i - y_k| <= h; blocked by `_blocked`."""
    s1, s2 = np.empty(len(x)), np.empty(len(x))

    def block(a, b, work):
        diff, Q = _carve(work, (b - a, len(y)), (2, 1))
        Q = np.abs(np.subtract(x[a:b, None], y, out=diff), out=Q)
        Q -= h
        np.maximum(Q, 0.0, out=Q)
        with np.errstate(divide="ignore"):
            np.divide(scale, Q, out=Q)
        s1[a:b] = Q.sum(axis=1)
        s2[a:b] = np.square(Q, out=Q).sum(axis=1)

    _blocked(len(x), len(y), 3, block)
    return s1, s2


def circle_sup_norm(roots, c: Circle, m: int) -> float:
    """max_j |S(a + r e^{2 pi i j / m})|, a lower bound for sup_{C(a,r)} |S|:
    the maximum of the direct sums over all roots on the m grid,
    float(np.max(_abs_S_on_points(roots, c.points(m)))) bit for bit, from
    the grid points that a proven upper bound cannot rule out.  It takes no
    series, so it differs from the maximum of `circle_abs_S` only in
    rounding.  Raises PoleOnContourError as `circle_abs_S` does.

    Doubling m refines the same nested grid, so the value is nondecreasing
    in m along powers of two.

    Search.  A first pass evaluates every s-th grid point, s the largest
    power of SUP_REFINE with m/s >= SUP_COARSE, or 1 (every point), and
    keeps the running maximum M of the computed values.  Each evaluated
    point j covers the grid points within floor(s/2) steps of it
    (cyclically), so the covers hold every grid point.  A cover whose
    bound U_j (the right side below, with its rounding margin) is below M
    holds no value above M and is done; every other cover is evaluated at
    spacing s/SUP_REFINE, at the offsets k s/SUP_REFINE, |k| <=
    SUP_REFINE/2, whose covers together hold it, and so on down to
    spacing 1.  Once the kept covers hold as many points as are left to
    evaluate (len(kept) times the spacing), refining them would cost more
    than the rest of the grid, so every point not yet evaluated is
    evaluated in one call: with most roots on the contour, no cover is
    ever pruned.

    The bound.  Let u = 2^-53, X_j = a + r e^{2 pi i j/m} the exact grid
    point and v_j the computed |S| at j.  Every root's term of v_j is
    evaluated at the rounded grid point p_j = a + r t~_j, within
    g = 32 u (|a| + r) of X_j, with t~_j the rounded e^{2 pi i j/m} (its
    angle has 4 roundings, its cosine and sine one ulp each, so
    |t~_j - e^{2 pi i j/m}| <= 27 u).  Write A_j = sum_k 1/|p_j - Z_k|.  A
    difference and Smith's complex reciprocal cost at most 8 u of each
    term, and a sum of n terms in any order at most (n - 1) u of the sum
    of their sizes, so the rounding error of the computed S is at most
    gamma A_j, to first order in u, with

        gamma = (n + 8) u,

    n the number of roots.

    Let j' be a grid point in the cover of j, R steps away: p_j' lies
    within h = 2 pi r R/m + 2g of p_j, and
    |1/(p' - Z) - 1/(p - Z)| = |p' - p| / (|p' - Z| |p - Z|).  With d_jk
    the distance from p_j to root k, |p_j' - Z_k| >= d_jk - h.  With
    v_j' <= (1 + 2u) (|S(p_j')| + gamma A_j') and
    |S(p_j)| <= (1 + 2u) v_j + gamma A_j (|.| rounds within 2u),

        v_j' <= (1 + 5u) [v_j + h sum_k (d_jk - h)^-2
                          + 2 gamma sum_k (d_jk - h)^-1],

    and a cover meeting a root (d_jk <= h) is never done.  The sums take a
    blocked pass over the roots per point (`_cover_sums`).  The bound's own
    rounding: the computed distances are within 3u, which h (1 + 16 eps) in
    place of h absorbs, and each of the positive terms within 16 u, their
    sums within (n - 1) u; the computed U_j is the bracket times
    1 + (n + 64) eps, more than twice the total.  This assumes no
    intermediate leaves the normal range of floats; a bound that overflows
    is inf and prunes nothing.
    """
    roots = as_roots(roots)
    m = as_count(m, "m")
    _check_contour(roots, c)
    step = 1
    while step * SUP_REFINE * SUP_COARSE <= m:
        step *= SUP_REFINE
    j = np.arange(0, m, step)
    v = _abs_S_on_points(roots, c.points(m, j))
    M = float(np.max(v))
    if step == 1:
        return M
    r = c.radius
    g = 16 * _EPS * (abs(c.center) + r)
    gamma = (len(roots) + 8) * _EPS / 2
    grow = 1.0 + (len(roots) + 64) * _EPS
    evaluated = np.zeros(m, bool)
    evaluated[j] = True
    offsets = np.arange(-(SUP_REFINE // 2), SUP_REFINE // 2 + 1)
    while step > 1:
        h = (2 * math.pi * r * (step // 2) / m + 2 * g) * (1 + 16 * _EPS)
        s1, s2 = _cover_sums(c.points(m, j), roots, h, r)
        keep = (v + (h / r / r * s2 + 2 * gamma / r * s1)) * grow >= M
        j, v = j[keep], v[keep]
        if len(j) == 0:
            break
        rest = np.flatnonzero(~evaluated)
        if len(j) * step >= len(rest):
            return max(M, float(np.max(_abs_S_on_points(roots, c.points(m, rest)))))
        step //= SUP_REFINE
        new = np.unique((j[:, None] + step * offsets).ravel() % m)
        new = new[~evaluated[new]]
        if len(new):
            evaluated[new] = True
            vn = _abs_S_on_points(roots, c.points(m, new))
            M = max(M, float(np.max(vn)))
            j, v = np.concatenate([j, new]), np.concatenate([v, vn])
    return M


def _magnitudes(x, what: str) -> np.ndarray:
    """x as a float array; ParameterError for a negative or NaN entry and
    for a non-real input (booleans and strings included).  inf is allowed."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "iuf" or not np.all(arr >= 0):
        raise ParameterError(f"{what} requires nonnegative real input")
    return np.asarray(arr, dtype=float)


def log_plus(x):
    """log^+(x) = log(x) for x > 1, else 0."""
    arr = _magnitudes(x, "log_plus")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(arr > 1.0, np.log(np.where(arr > 1.0, arr, 1.0)), 0.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def log_minus(x):
    """log^-(x) = -log(x) for x < 1, else 0; log^-(0) = +inf."""
    arr = _magnitudes(x, "log_minus")
    with np.errstate(divide="ignore"):
        out = np.where(arr < 1.0, -np.log(np.where(arr < 1.0, arr, 1.0)), 0.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out
