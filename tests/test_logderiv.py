import cmath
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from critpoint import critical, experiments, farfield, logderiv
from critpoint.critical import critical_points_oracle
from critpoint.errors import ParameterError, PoleOnContourError
from critpoint.logderiv import (POLE_RTOL, Circle, as_roots, cauchy_sums, circle_abs_S,
                                circle_sup_norm, eval_S, log_minus, log_plus)
from critpoint.sampler import BaseMeasure, SeedSpec, sample

# sup |S| on C(0.5, 1) for roots {1, -1}: |S(z)| = 2|z| / (|z-1| |z+1|) peaks
# at z = 1.5, giving 3 / 1.25
JENSEN_EXAMPLE_SUP = 2.4

#: the direct kernel, as the module defines it (tests below wrap it)
_direct = logderiv._abs_S_on_points


def _grid_max(roots, c, m):
    """The maximum of the direct sums over all roots on the m grid of c."""
    return float(np.max(_direct(roots, c.points(m))))


def test_eval_S_values():
    assert eval_S([1, -1], 0j) == 0
    assert eval_S([0], 2.0) == 0.5
    r = eval_S([1, -1], 1.0)
    assert type(r) is complex and math.isinf(abs(r))


def _S_prime(roots, z):
    """S'(z) = -sum 1/(z - z_k)^2 and the nearest-root distance, as the
    Aberth sweep computes them next to S in `critical._field_sums`."""
    roots = np.asarray(roots, complex)
    _, Sp, _, dmin = critical._field_sums(np.atleast_1d(complex(z)), roots, np.ones(len(roots)))
    return Sp[0], dmin[0]


def test_eval_S_prime_values():
    assert _S_prime([0], 2.0)[0] == -0.25
    assert _S_prime([1, -1], 0j)[0] == -2.0
    Sp, dmin = _S_prime([1, -1], 1.0)
    assert dmin == 0 and not np.isfinite(Sp)


def test_eval_S_prime_central_difference():
    # independent check: (S(z+h) - S(z-h)) / 2h with S from eval_S
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(10):
        roots = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        z = complex(*rng.uniform(2.0, 3.0, 2))
        fd = (eval_S(roots, z + h) - eval_S(roots, z - h)) / (2 * h)
        scale = 1.0 + float(np.sum(1.0 / np.abs(z - roots) ** 2))
        assert abs(fd - _S_prime(roots, z)[0]) <= 10 * h * scale


def test_eval_S_permutation_bit_stable():
    rng = np.random.default_rng(3)
    roots = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    z = 3.5 + 0.25j
    base = eval_S(roots, z)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(40)
        assert eval_S(roots[perm], z) == base


def test_pole_dominance():
    # one root at distance delta, the others at least `spacing` away
    spacing = 1.0
    others = np.array([2.0, 2.0 + 1j, 3.0 - 1j, -2.0, -2.0 - 2j], dtype=complex)
    for delta in (1e-3, 1e-6, 1e-9):
        roots = np.concatenate([[0j], others])
        z = complex(delta, 0.0)
        got = eval_S(roots, z)
        n = len(roots)
        assert abs(got) >= 1 / delta - (n - 1) / spacing


@pytest.mark.parametrize("s", [1e-200, 1e-13, 1.0, 1e200])
def test_pole_tests_scale_with_the_roots(s):
    """eval_S's pole test is relative to the roots' spread and the contour
    test to |a| + r, so both read the same at every scale."""
    z = sample(BaseMeasure.uniform_disk(), SeedSpec(5), 50).samples
    got = eval_S(z * s, 0.5 * z[0] * s)
    assert cmath.isfinite(got)
    assert got * s == pytest.approx(eval_S(z, 0.5 * z[0]), rel=1e-12)
    assert cmath.isinf(eval_S(z * s, z[3] * s * (1 + 1e-14)))
    want = circle_abs_S(z, Circle(0j, 0.5), 64)
    assert np.allclose(circle_abs_S(z * s, Circle(0j, 0.5 * s), 64) * s, want, rtol=1e-12, atol=0)
    # one root has no spread: only an exact hit is a pole
    assert cmath.isfinite(eval_S([0j], 1e-300)) and cmath.isinf(eval_S([s], s))


def test_circle_sup_norm_single_root():
    c = Circle(0j, 2.0)
    for m in (3, 64, 4096):
        assert circle_sup_norm([0], c, m) == pytest.approx(0.5, abs=1e-12)


def test_circle_sup_norm_nested_grids_monotone():
    rng = np.random.default_rng(5)
    roots = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    c = Circle(0.1 + 0.1j, 4.0)
    prev = 0.0
    for m in (16, 32, 64, 128, 256):
        cur = circle_sup_norm(roots, c, m)
        assert cur >= prev
        prev = cur


def test_circle_grid_is_the_even_half_of_the_doubled_grid():
    rng = np.random.default_rng(8)
    roots = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    for c, m in ((Circle(0.05 + 0.03j, 0.7), 4096), (Circle(-3.0 + 1e3j, 1e-2), 96)):
        assert np.array_equal(c.points(2 * m)[::2], c.points(m))
        for j in (np.arange(0, m, 16), rng.permutation(m)[: m // 3], np.array([m - 1, 0, 5])):
            assert np.array_equal(c.points(m, j), c.points(m)[j])
        fine = circle_abs_S(roots, c, 2 * m)
        # the search sums every root directly, the grid takes the far ones
        # by their series: the two agree to the direct sum's rounding
        sup, direct = circle_sup_norm(roots, c, m), _direct(roots, c.points(m))
        assert sup == float(np.max(direct))
        x = c.points(m)[np.argmax(direct)]
        assert abs(sup - float(np.max(fine[::2]))) <= 1e-12 * np.sum(1 / np.abs(x - roots))


def test_circle_sup_norm_jensen_example():
    # the peak z = 1.5 is grid point j = 0 of C(0.5, 1) at every m
    value = circle_sup_norm([1, -1], Circle(0.5, 1.0), 8192)
    assert value == pytest.approx(JENSEN_EXAMPLE_SUP, rel=1e-9)


def test_pole_on_contour_detected():
    with pytest.raises(PoleOnContourError):
        circle_sup_norm([2.0], Circle(0j, 2.0), 64)
    # one root on the contour among many that the series would take
    far = 0.01 * np.exp(2j * np.pi * np.arange(500) / 500)
    for m in (64, 4096):
        with pytest.raises(PoleOnContourError):
            circle_abs_S(np.append(far, 2.0j), Circle(0j, 2.0), m)
        with pytest.raises(PoleOnContourError):
            circle_sup_norm(np.append(far, 2.0j), Circle(0j, 2.0), m)


@pytest.mark.parametrize("m", [2.5, True, np.bool_(True), float("nan"), float("inf"),
                               0, -3, 0.0, "8", None])
def test_grid_size_must_be_a_positive_integer(m):
    with pytest.raises(ParameterError):
        circle_abs_S([0.5], Circle(0j, 1.0), m)


def test_integral_grid_sizes_accepted():
    """m takes integer types only: an integral float or a boolean raises."""
    c = Circle(0j, 1.0)
    assert np.array_equal(circle_abs_S([0.5], c, np.int64(8)), circle_abs_S([0.5], c, 8))
    assert circle_sup_norm([0.5], c, np.int64(8)) == circle_sup_norm([0.5], c, 8)
    for m in (8.0, np.float32(8), True, np.True_):
        with pytest.raises(ParameterError):
            circle_abs_S([0.5], c, m)
        with pytest.raises(ParameterError):
            circle_sup_norm([0.5], c, m)


def test_log_plus_minus_values():
    assert log_minus(0.5) == pytest.approx(math.log(2), rel=1e-12)
    assert log_plus(1.0) == 0.0
    assert log_minus(1.0) == 0.0
    assert log_minus(2.0) == 0.0
    assert log_plus(math.e) == pytest.approx(1.0, rel=1e-12)
    assert log_minus(0.0) == math.inf
    assert log_plus(0.0) == 0.0
    with pytest.raises(ParameterError):
        log_minus(-1.0)
    with pytest.raises(ParameterError):
        log_plus(-0.5)


def test_log_identity_decomposition():
    xs = np.concatenate([np.geomspace(1e-8, 1.0, 50), np.geomspace(1.0, 1e8, 50)])
    for x in xs:
        assert math.log(x) == pytest.approx(log_plus(x) - log_minus(x), abs=1e-15)
    arr = np.array([0.25, 1.0, 4.0])
    assert np.allclose(log_plus(arr) - log_minus(arr), np.log(arr))


def test_rootset_validation():
    for bad in (np.array([], dtype=complex), np.zeros((2, 2)), [1.0, math.nan]):
        with pytest.raises(ParameterError):
            as_roots(bad)
    roots = as_roots(np.array([1j]))
    assert roots.shape == (1,) and roots.dtype == complex and not roots.flags.writeable


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: BaseMeasure.uniform_disk(complex(NAN, 0.0), 1.0),
    lambda: BaseMeasure.finite_support([NAN, 1.0], [0.5, 0.5]),
    lambda: BaseMeasure.finite_support([1.0, -1.0], [NAN, 0.5]),
    lambda: BaseMeasure.complex_gaussian(0j, INF),
    lambda: BaseMeasure.from_json({"kind": "UniformCircle",
                                   "params": {"center": [0, NAN], "radius": 1}}),
    lambda: eval_S([1.0, NAN], 0.5j),
    lambda: eval_S([1, 2, 3], NAN),
    lambda: eval_S([1, 2, 3], INF),
    lambda: circle_sup_norm([2.0, complex(0, INF)], Circle(0j, 1.0), 64),
    lambda: Circle(0j, INF),
    lambda: Circle(0j, 0.0),
    lambda: critical_points_oracle([1.0, NAN, 2j]),
], ids=["disk-centre", "atoms", "weights", "gauss-scale", "json-pair", "eval_S",
        "eval_S-at-nan", "eval_S-at-inf", "sup-norm", "circle-radius", "circle-radius-zero",
        "oracle"])
def test_non_finite_input_rejected(make):
    with pytest.raises(ParameterError):
        make()


_points = st.lists(st.complex_numbers(max_magnitude=10.0), min_size=1, max_size=12)
_kernel_settings = settings(derandomize=True, deadline=None, database=None)


@st.composite
def _cauchy_case(draw):
    """Targets, sources, two weight vectors and an optional skip column per target."""
    x = np.array(draw(_points))
    y = np.array(draw(_points))
    weight = st.floats(0.25, 4.0)
    c1 = np.array(draw(st.lists(weight, min_size=len(y), max_size=len(y))))
    c2 = np.array(draw(st.lists(weight, min_size=len(y), max_size=len(y))))
    skip = None
    if draw(st.booleans()):
        skip = np.array(draw(st.lists(st.integers(0, len(y) - 1),
                                      min_size=len(x), max_size=len(x))))
    return x, y, c1, c2, skip


def _kept(skip, i, k):
    return skip is None or skip[i] != k


@_kernel_settings
@given(_cauchy_case())
def test_cauchy_sums_matches_pair_loop(case):
    x, y, c1, c2, skip = case
    assume(all(abs(x[i] - y[k]) > 1e-3 for i in range(len(x)) for k in range(len(y))
               if _kept(skip, i, k)))
    S1, S0, Q2, dmin = cauchy_sums(x, y, weights=(c1, None), squared=(c2,),
                                   skip=skip, nearest=True)
    for i in range(len(x)):
        ref = [0j, 0j, 0j]
        mag = [0.0, 0.0, 0.0]
        near = math.inf
        for k in range(len(y)):
            if not _kept(skip, i, k):
                continue
            d = complex(x[i] - y[k])
            for j, term in enumerate((c1[k] / d, 1 / d, c2[k] / d ** 2)):
                ref[j] += term
                mag[j] += abs(term)
            near = min(near, abs(d))
        for got, want, size in zip((S1[i], S0[i], Q2[i]), ref, mag):
            assert abs(got - want) <= 1e-12 * size
        assert dmin[i] == pytest.approx(near, rel=1e-12)


@_kernel_settings
@given(_cauchy_case(), st.data())
def test_cauchy_sums_independent_of_block_rows(case, data):
    """`cauchy_sums` and `_cover_sums` give the one-block result bit for bit
    at any worker count and block size, weights, squared terms, skips,
    nearest distances and a target on a source (a non-finite sum) included.
    In the row form every row is the shared-source call on that row."""
    x, y, c1, c2, skip = case
    if data.draw(st.booleans()):
        x[data.draw(st.integers(0, len(x) - 1))] = y[data.draw(st.integers(0, len(y) - 1))]
    h, scale = data.draw(st.floats(0.0, 3.0)), data.draw(st.floats(0.5, 2.0))
    # row form: the same targets in every row, each row's sources moved by its own offset
    R = data.draw(st.integers(1, 4))
    X, Y = np.tile(x, (R, 1)), y + np.arange(R)[:, None] * (0.75 - 0.5j)
    if data.draw(st.booleans()):
        r = data.draw(st.integers(0, len(X) - 1))
        X[r, data.draw(st.integers(0, len(x) - 1))] = Y[r, data.draw(st.integers(0, len(y) - 1))]

    def run(rows):
        return (cauchy_sums(x, y, weights=(c1, None), squared=(c2,), skip=skip,
                            nearest=True, rows=rows),
                cauchy_sums(x, y, squared=(None,), rows=rows),
                cauchy_sums(X, Y, squared=(None,), nearest=True, rows=rows),
                logderiv._cover_sums(x, y, h, scale))

    with np.errstate(divide="ignore", over="ignore"):  # q_ik^2 of a near pair
        want = run(None)
        for r in range(len(X)):
            for a, b in zip(want[2], cauchy_sums(X[r], Y[r], squared=(None,), nearest=True)):
                assert a.shape == X.shape and np.array_equal(a[r], b, equal_nan=True)
        on_source = (X[:, :, None] == Y[:, None, :]).any(axis=2)
        assert not np.isfinite(want[2][0][on_source]).any()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(logderiv, "BLOCK_ELEMS", data.draw(st.sampled_from([1, 5, 16])))
            for workers in (1, 2, 3, 5):
                mp.setattr(logderiv, "_workers", lambda: workers)
                for rows in (1, 3, None):
                    for got_call, want_call in zip(run(rows), want):
                        for a, b in zip(got_call, want_call):
                            assert np.array_equal(a, b, equal_nan=True)


def _split_case():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    return x, rng.standard_normal(30) + 1j * rng.standard_normal(30)


def test_split_pass_threads_end_with_the_call(monkeypatch):
    """A split call runs one range per worker, the caller's in the calling
    thread, and leaves no thread behind; with one worker it starts none."""
    x, y = _split_case()
    run_range = logderiv._run_range
    ran = []

    def recording(block, lo, hi, step, work):
        ran.append((lo, threading.current_thread()))
        run_range(block, lo, hi, step, work)

    monkeypatch.setattr(logderiv, "_run_range", recording)
    monkeypatch.setattr(logderiv, "BLOCK_ELEMS", 64)
    want = cauchy_sums(x, y, squared=(None,), nearest=True)
    for workers in (1, 3):
        monkeypatch.setattr(logderiv, "_workers", lambda: workers)
        before = threading.active_count()
        ran.clear()
        got = cauchy_sums(x, y, squared=(None,), nearest=True)
        assert threading.active_count() == before
        assert sorted(lo for lo, _ in ran) == [40 * r // workers for r in range(workers)]
        assert dict(ran)[0] is threading.current_thread()
        assert len({id(thread) for _, thread in ran}) == workers
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def _counting_thread_starts(monkeypatch) -> list:
    """A list that gains one entry per `threading.Thread.start` call."""
    started, start = [], threading.Thread.start

    def counting(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def test_nested_pass_runs_in_its_range_thread(monkeypatch):
    """A split pass started inside a range of another split pass starts no
    thread and sums bit for bit as a flat call; a pass nested in a nested
    pass takes a buffer of its own; after the call, passes split again."""
    x, y = _split_case()
    monkeypatch.setattr(logderiv, "BLOCK_ELEMS", 64)
    monkeypatch.setattr(logderiv, "_workers", lambda: 3)
    want = cauchy_sums(x, y, squared=(None,), nearest=True)
    want_cover = logderiv._cover_sums(x, y, 0.1, 1.0)
    started = _counting_thread_starts(monkeypatch)
    rows, got = [], []

    def inner(a, b, work):
        # a pass nested in this nested pass must not write over its buffer
        work[:] = a
        got.append((want, cauchy_sums(x, y, squared=(None,), nearest=True)))
        assert np.all(work == a)

    def outer(a, b, work):
        rows.extend(range(a, b))
        got.append((want, cauchy_sums(x, y, squared=(None,), nearest=True)))
        got.append((want_cover, logderiv._cover_sums(x, y, 0.1, 1.0)))
        logderiv._blocked(len(x), len(y), 1, inner)

    logderiv._blocked(9, 8, 1, outer)  # 3 ranges of blocks of 2 rows
    assert len(started) == 2
    assert sorted(rows) == list(range(9)) and len(got) > 3 * 6
    for expected, sums in got:
        for a, b in zip(sums, expected):
            assert np.array_equal(a, b)
    cauchy_sums(x, y)
    assert len(started) == 4


def test_split_pass_raises_a_worker_error_in_the_caller(monkeypatch):
    """An exception in a range run by another thread reaches the caller, and
    every thread is joined first."""
    x, y = _split_case()
    run_range = logderiv._run_range

    def failing(block, lo, hi, step, work):
        if lo > 0:
            raise ValueError(f"range from {lo}")
        run_range(block, lo, hi, step, work)

    monkeypatch.setattr(logderiv, "_run_range", failing)
    monkeypatch.setattr(logderiv, "BLOCK_ELEMS", 64)
    monkeypatch.setattr(logderiv, "_workers", lambda: 3)
    before = threading.active_count()
    with pytest.raises(ValueError, match="range from"):
        cauchy_sums(x, y)
    with pytest.raises(ValueError, match="range from"):
        logderiv._cover_sums(x, y, 0.1, 1.0)
    assert threading.active_count() == before


def test_split_pass_keeps_the_callers_error_state(monkeypatch):
    """Every range runs under the caller's numpy error state: an overflow
    in the last range is ignored, or raised, as the caller asked."""
    x, y = _split_case()
    x[-1] = 1e308
    y[0] = -1e308
    monkeypatch.setattr(logderiv, "BLOCK_ELEMS", 64)
    monkeypatch.setattr(logderiv, "_workers", lambda: 3)
    with np.errstate(over="ignore"):
        (S,) = cauchy_sums(x, y)
    assert np.all(np.isfinite(S))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        cauchy_sums(x, y)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_workers_follow_the_cpu_affinity():
    """The kernel's worker count is the process's CPU affinity: a process
    pinned to one CPU splits nothing."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(logderiv.__file__)))
    code = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from critpoint import logderiv; print(logderiv._workers())")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                       env=dict(os.environ, PYTHONPATH=src))
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "1"
    assert logderiv._workers() == len(os.sched_getaffinity(0))


@_kernel_settings
@given(_points, st.data())
def test_target_on_source(y, data):
    y = np.array(y)
    k = data.draw(st.integers(0, len(y) - 1))
    x = np.array([y[k], complex(20.0, 20.0)])
    S, Q, dmin = cauchy_sums(x, y, squared=(None,), nearest=True)
    assert not np.isfinite(S[0]) and not np.isfinite(Q[0]) and dmin[0] == 0
    assert np.isfinite(S[1]) and dmin[1] > 0
    res = critical._residuals_against(x, y)
    with np.errstate(invalid="ignore"):
        assert res[0] == 0 and res[1] == (np.abs(S) * dmin)[1]


@st.composite
def _circle_case(draw, max_n=2000, circle=None):
    """Roots about a circle (a, r) (drawn, unless given): |w| log-uniform
    from 1e-6 to 1e12 (w = (z - a)/r), optionally a root at the centre and
    roots a few pole tolerances from the contour, on each side."""
    if circle is None:
        circle = draw(st.complex_numbers(max_magnitude=5.0)), draw(st.floats(0.05, 20.0))
    a, r = circle
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mod = 10.0 ** rng.uniform(-6.0, 12.0, n)
    if draw(st.booleans()):
        # a band of roots near the circle on both sides
        k = draw(st.integers(1, n))
        mod[:k] = 1.0 + rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-3.0, -0.3, k)
    w = mod * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    roots = a + r * w
    tau = POLE_RTOL * (abs(a) + r)
    if draw(st.booleans()):
        roots[0] = a
    if n >= 3 and draw(st.booleans()):
        for i, side in ((1, -1.0), (2, 1.0)):
            roots[i] = a + (r + side * draw(st.integers(3, 10)) * tau) * np.exp(1j * rng.uniform(0, 7))
    m = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 41)))
    return roots, Circle(a, r), m


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_circle_case())
def test_circle_abs_S_matches_pair_loop(case):
    roots, c, m = case
    got = circle_abs_S(roots, c, m)
    for j, x in enumerate(c.points(m)):
        terms = [1 / complex(x - z) for z in roots]
        want = abs(math.fsum(t.real for t in terms) + 1j * math.fsum(t.imag for t in terms))
        assert abs(got[j] - want) <= 1e-12 * sum(abs(t) for t in terms)


def test_circle_abs_S_takes_the_series_for_far_roots(monkeypatch):
    """The direct kernel sees only the near roots (and all of them, with a
    zero far field, when no root is worth a series), and the far field
    makes up the rest."""
    direct = logderiv._abs_S_on_points
    seen = []

    def recording(roots, pts, far=None):
        seen.append((len(roots), bool(np.any(far))))
        return direct(roots, pts, far)

    monkeypatch.setattr(logderiv, "_abs_S_on_points", recording)
    rng = np.random.default_rng(12)
    c = Circle(0.1 - 0.2j, 1.5)
    small = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    assert np.array_equal(circle_abs_S(small, c, 64), direct(small, c.points(64)))
    assert seen == [(50, False)]
    many = rng.standard_cauchy(4000) + 1j * rng.standard_cauchy(4000)
    got = circle_abs_S(many, c, 512)
    near, has_far = seen[-1]
    assert 0 < near < 1000 and has_far
    want = direct(many, c.points(512))
    assert np.max(np.abs(got - want) / want) <= 1e-13
    centred = np.full(300, c.center)
    assert np.allclose(circle_abs_S(centred, c, 8), 300 / c.radius, rtol=1e-15, atol=0)
    assert seen[-1] == (0, True)


def test_series_weighed_at_the_dft_length_it_runs(monkeypatch):
    """The split weighs each series at the padded length N of the DFT that
    runs: N = m when the series lengths fit in m terms (m = 4096, 8192
    here).  When they do not (m = 64), N is the next m 2^k past a first
    split, the roots are weighed again at N, and the split is the N grid's.
    The grid is within the one-block bound (B + n + 12) u A_j plus gamma A_j."""
    dft, sizes = logderiv._grid_dft, []

    def recording(coef, m):
        sizes.append(len(coef))
        return dft(coef, m)

    monkeypatch.setattr(logderiv, "_grid_dft", recording)
    rng = np.random.default_rng(12)
    roots = rng.standard_cauchy(4000) + 1j * rng.standard_cauchy(4000)
    c, n, u = Circle(0.1 - 0.2j, 1.5), 4000, 2.0 ** -53
    splits = {}
    for m in (8192, 4096, 64):
        x = c.points(m)
        got, splits[m] = logderiv._circle_field(roots, c, x, n, np.zeros(m, complex))
        assert sizes[-1] == max(m, 4096)
        A, _ = logderiv._cover_sums(x, roots, 0.0, 1.0)
        bound = ((n + 8 + 4096) + n + 12 + (n + 8)) * u * A
        assert np.all(np.abs(got - _direct(roots, x)) <= bound)
    assert splits[64] == splits[4096] != splits[8192]


def _exact_dft(coef, m):
    """sum_q coef[q] e^{-2 pi i j q/m}, j = 0..m-1, each sum exact
    (`math.fsum`) over products rounded within u and twiddles from
    angles of at most pi, within 12u: within 13u sum_q |coef_q| in all."""
    out = []
    for j in range(m):
        re, im = [], []
        for q, x in enumerate(coef):
            k = j * q % m
            angle = 2 * math.pi * min(k, m - k) / m
            cos, sin = math.cos(angle), math.sin(angle)
            sin = sin if 2 * k > m else -sin  # e^{-i theta} = cos theta - i sin theta
            re += [x.real * cos, -x.imag * sin]
            im += [x.real * sin, x.imag * cos]
        out.append(complex(math.fsum(re), math.fsum(im)))
    return np.array(out)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 41, 64, 96, 256])
def test_grid_dft_matches_an_exact_dft(m):
    """`_grid_dft` is within its stated 10 log2(N) u sum_q |coef_q| of
    the DFT, N the padded length, at coefficient lengths below, at and
    above m; at m = 96 (mixed radix) and 256 (a power of two, as growth's
    grids are) at lengths m and 2m + 1 only."""
    rng = np.random.default_rng(m)
    u = 2.0 ** -53
    sizes = {m, 2 * m + 1} if m > 64 else {1, max(1, m - 1), m, m + 1, 2 * m + 1, 5 * m}
    for size in sorted(sizes):
        coef = ((rng.standard_normal(size) + 1j * rng.standard_normal(size))
                * 10.0 ** rng.uniform(-3, 3, size))
        got = logderiv._grid_dft(coef, m)
        N = m
        while N < size:
            N *= 2
        bound = (10 * math.log2(N) + 13) * u * np.abs(coef).sum()
        assert np.all(np.abs(got - _exact_dft(coef, m)) <= bound)


def test_growth_workload_grid_within_its_rounding_bound(monkeypatch):
    """Every n's grid of growth-cauchy-16k (seed 3, n = 1024, 4096, 16384,
    its generic circle, 2m = 8192), summed block by block along the
    trajectory, agrees with the direct sum over that prefix within the
    bound `_circle_field` states for s blocks, (B + n + 10 + 2s) u A_j,
    B = n + 8 + 2^12, plus the direct sum's own gamma A_j, and leaves few
    roots to the direct sum, so a regression of the split shows."""
    field, blocks = logderiv._circle_field, []

    def recording(roots, c, x, n, S):
        got, split = field(roots, c, x, n, S)
        blocks.append((roots, c, x, n, got.copy()))
        return got, split

    monkeypatch.setattr(experiments, "_circle_field", recording)
    rep = experiments.run_growth(experiments.GrowthConfig(
        measure=BaseMeasure.complex_cauchy(), n_schedule=(1024, 4096, 16384),
        seed=SeedSpec(3, 0)))
    assert [(n, len(x)) for _, _, x, n, _ in blocks] == [(1024, 8192), (4096, 8192),
                                                         (16384, 8192)]
    u = 2.0 ** -53
    for s, (_, c, x, n, got) in enumerate(blocks, 1):
        roots = np.concatenate([b[0] for b in blocks[:s]])
        assert len(roots) == n
        A, _ = logderiv._cover_sums(x, roots, 0.0, 1.0)  # sum_k 1/|x_j - Z_k|
        err = np.abs(got - _direct(roots, x))
        assert np.all(err <= ((n + 8 + 4096) + n + 10 + 2 * s + (n + 8)) * u * A)
        assert np.all(err <= 1e-14 * A)  # what the grid shows, far inside the bound
    # the three grids' direct sums take 364 roots in all (611 when each
    # n summed its whole prefix with weights for a 2^20-point DFT)
    assert rep.series["n=16384"]["direct_roots"] <= 380


@given(st.floats(0.0, 1.0, exclude_max=True))
@settings(derandomize=True, deadline=None, database=None, max_examples=300)
def test_series_length_is_the_smallest_meeting_the_bound(rho):
    eps = np.finfo(float).eps
    grid = np.concatenate([[rho, 0.0, 1e-300, 0.5, 0.9, 1 - 1e-12, 1 - eps],
                           np.linspace(0.01, 0.99, 99)])
    lengths = logderiv._series_lengths(grid)
    for p, L in zip(grid, lengths):
        bound = eps * (1 - p) / (1 + p)
        assert L >= 1 and L == int(L)
        assert p ** L <= bound
        # smallest, wherever L - 1 is distinct in floating point; the pole
        # test keeps every rho that circle_abs_S sees below 1 - 1e-12
        if p <= 1 - 1e-12:
            assert L == 1 or p ** (L - 1) > bound


@given(st.floats(0.0, 0.9))
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
def test_squared_series_length_is_the_smallest_meeting_its_bound(rho):
    """The far route's order for squared sums: the smallest L with
    sum_{s >= L - 1} (s + 1) rho^s <= eps / (1 + rho)^2, the tail summed in
    closed form in exact rationals."""
    eps = Fraction(np.finfo(float).eps)

    def tail(J, r):
        return r ** J * (J + 1 - J * r) / (1 - r) ** 2

    grid = np.concatenate([[rho, 0.0, 0.5, math.sqrt(2) / 2, 0.9], np.linspace(0.01, 0.89, 23)])
    for p, L in zip(grid, farfield._series_lengths_squared(grid)):
        r, L = Fraction(p), int(L)
        bound = eps / (1 + r) ** 2
        assert L >= 1 and L >= logderiv._series_lengths(np.array([p]))[0]
        assert tail(L - 1, r) <= bound * (1 + Fraction(1, 10 ** 9))
        assert L == 1 or tail(L - 2, r) > bound * (1 - Fraction(1, 10 ** 9))


@st.composite
def _sup_norm_case(draw):
    """A `_circle_case`, optionally on a small circle far from the origin, at
    one of a fixed set of grid sizes and a scale from 1e-200 to 1e200."""
    far = draw(st.booleans())
    roots, c, _ = draw(_circle_case(max_n=600, circle=(-3.0 + 1e3j, 1e-2) if far else None))
    s = 10.0 ** draw(st.integers(-200, 200))
    m = draw(st.sampled_from([4096, 1, 2, 3, 7, 41, 1000, 8192]))
    return roots * s, Circle(c.center * s, c.radius * s), m


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(_sup_norm_case())
def test_circle_sup_norm_is_the_grid_maximum(case):
    """The pruned search returns the full grid's maximum bit for bit."""
    roots, c, m = case
    assert circle_sup_norm(roots, c, m) == _grid_max(roots, c, m)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_circle_sup_norm_prunes_the_grid(monkeypatch, seed):
    """200 Gaussian roots about a unit circle: under a quarter of the 4096
    grid points reach the kernel."""
    seen = []

    def recording(roots, pts, far=None):
        seen.append(len(pts))
        return _direct(roots, pts, far)

    monkeypatch.setattr(logderiv, "_abs_S_on_points", recording)
    roots = sample(BaseMeasure.complex_gaussian(), SeedSpec(seed), 200).samples
    c, m = Circle(0.1 - 0.2j, 1.0), 4096
    got = circle_sup_norm(roots, c, m)
    assert 0 < sum(seen) < m // 4
    assert got == _grid_max(roots, c, m)


@pytest.mark.parametrize("lo, hi", [(-9.0, -1.0), (-9.0, -3.0)])
def test_circle_sup_norm_on_roots_hugging_the_contour(monkeypatch, lo, hi):
    """With most roots closer to the contour than the first pass's cover
    radius, no cover can be pruned: after the first pass the rest of the
    grid goes to the kernel in one call, so each grid point is evaluated
    once, and the value is still the grid maximum."""
    seen = []

    def recording(roots, pts, far=None):
        seen.append(len(pts))
        return _direct(roots, pts, far)

    rng = np.random.default_rng(int(-hi))
    n, c, m = 1000, Circle(0.1 - 0.2j, 1.0), 4096
    gap = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)
    roots = c.center + (1.0 + gap) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    want = _grid_max(roots, c, m)
    monkeypatch.setattr(logderiv, "_abs_S_on_points", recording)
    assert circle_sup_norm(roots, c, m) == want
    assert seen == [m // 64, m - m // 64]


@pytest.mark.parametrize("gap", [10 * POLE_RTOL, 1e-9, 1e-4, 0.02])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_circle_sup_norm_near_a_root_off_the_grid(gap, side):
    """A root closer to the contour than the first pass's cover radius
    (pi r 64/m, here 0.05), beyond the pole tolerance and between two grid
    points, sets the maximum, and the search finds it exactly."""
    roots = sample(BaseMeasure.complex_gaussian(), SeedSpec(4), 200).samples
    c, m = Circle(0.1 - 0.2j, 1.0), 4096
    for j in (1000.5, 32.25, 4095.5):
        z = c.center + (c.radius + side * gap) * np.exp(2j * np.pi * j / m)
        with_root = np.append(roots, z)
        assert circle_sup_norm(with_root, c, m) == _grid_max(with_root, c, m)


def test_circle_sup_norm_takes_no_series(monkeypatch):
    """On 4000 Cauchy roots, where `circle_abs_S` takes the series for the
    far roots, the search never builds or sums one and still returns the
    direct full-grid maximum bit for bit."""
    def no_series(*args):
        raise RuntimeError("a series was evaluated")

    rng = np.random.default_rng(12)
    rng.standard_normal(100)  # the draws of the series test before its 4000 roots
    roots = rng.standard_cauchy(4000) + 1j * rng.standard_cauchy(4000)
    c = Circle(0.1 - 0.2j, 1.5)
    monkeypatch.setattr(logderiv, "_power_sums", no_series)
    monkeypatch.setattr(logderiv, "_grid_dft", no_series)
    with pytest.raises(RuntimeError):
        circle_abs_S(roots, c, 512)
    for m in (512, 4096):
        assert circle_sup_norm(roots, c, m) == _grid_max(roots, c, m)


# ---------------------------------------------------------------------------
# the solver's far route, `farfield.cauchy_sums`


def _force_far(mp, box_sources=8):
    """Every 1-d call that `farfield.cauchy_sums` may bin takes the far
    route, on boxes of about box_sources sources (many boxes, so that most
    pairs are far)."""
    mp.setattr(farfield, "FAR_MIN_PAIRS", 0)
    mp.setattr(farfield, "FAR_NEAR_SHARE", 1.0)
    mp.setattr(farfield, "FAR_BOX_SOURCES", box_sources)


def _far_and_direct(*args, **kw):
    """The call by the far route and by the kernel, and the tally of the
    far call."""
    with pytest.MonkeyPatch.context() as mp:
        _force_far(mp)
        with logderiv.counting_pairs() as tally:
            got = farfield.cauchy_sums(*args, **kw)
    return got, logderiv.cauchy_sums(*args, **kw), tally


def _far_sets():
    """name -> (600 targets, 500 sources)."""
    rng = np.random.default_rng(31)

    def disk(k):
        return np.sqrt(rng.random(k)) * np.exp(2j * np.pi * rng.random(k))

    def gauss(k):
        return rng.standard_normal(k) + 1j * rng.standard_normal(k)

    sets = {"disk": (disk(600), disk(500)), "gauss": (gauss(600), gauss(500))}
    both = (3 * gauss(5))[rng.integers(0, 5, 1100)] + 0.05 * gauss(1100)
    sets["clustered"] = (both[:600], both[600:])
    y = disk(500)
    sets["near_duplicates"] = (y[rng.integers(0, 500, 600)] + 1e-12 * gauss(600), y)
    return sets


_FAR_CASES = [(name, shift, scale) for name in _far_sets()
              for shift, scale in ((0, 1.0), (1e6 * (1 + 1j), 1.0), (0, 1e8), (0, 1e-8))]


@pytest.mark.parametrize("name, shift, scale", _FAR_CASES)
def test_far_route_agrees_with_direct_sums(name, shift, scale):
    """S and the squared sums of the far route are the direct sums within
    16 eps sum_k |1/(x - y_k)| (|.|^2 for the squared ones): the truncation
    is at most eps times that, and the rest is rounding of both routes.
    The nearest distances are equal bit for bit, without skips and with
    each target's own source skipped, as the solver's passes do.  Near-duplicates moved by 1e6 round onto their
    sources: those targets' sums are not finite on both routes."""
    x, y = _far_sets()[name]
    x, y = x * scale + shift, y * scale + shift
    for x, skip in ((x, None), (y, np.arange(len(y)))):
        D = x[:, None] - y
        kept = np.ones(D.shape, bool)
        if skip is not None:
            kept[np.arange(len(x)), skip] = False
        on = (kept & (D == 0)).any(axis=1)
        size = np.where(kept & (D != 0), 1 / np.where(D == 0, 1.0, np.abs(D)), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            got, want, tally = _far_and_direct(x, y, weights=(None,), squared=(None,),
                                               skip=skip, nearest=True)
        assert tally.far > 0 and tally.direct + tally.far >= len(x) * len(y)
        bound = 16 * np.finfo(float).eps
        for j in range(2):
            mag = (size ** (1 + j)).sum(axis=1)
            assert np.all(np.abs(got[j][~on] - want[j][~on]) <= bound * mag[~on]), j
            assert not np.isfinite(got[j][on]).any() and not np.isfinite(want[j][on]).any()
        assert np.array_equal(got[-1], want[-1])


def test_far_route_takes_only_self_skips(monkeypatch):
    """A call the far route would take, but whose skip leaves out other
    than each target's own source, is the kernel's bit for bit and sums no
    far pairs: a skip at random, and the self-skip with one index moved
    (its target on a source it keeps: a non-finite sum)."""
    x, y = _far_sets()["disk"]
    moved = np.arange(len(y))
    moved[7] = 8
    _force_far(monkeypatch)
    for x, skip in ((x, np.random.default_rng(38).integers(0, len(y), len(x))), (y, moved)):
        with logderiv.counting_pairs() as tally, np.errstate(invalid="ignore"):
            got = farfield.cauchy_sums(x, y, weights=(None,), squared=(None,), skip=skip,
                                       nearest=True)
            want = logderiv.cauchy_sums(x, y, weights=(None,), squared=(None,), skip=skip,
                                        nearest=True)
        assert tally.far == 0 and tally.direct == 2 * len(x) * len(y)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)


def test_far_route_takes_only_unit_charges(monkeypatch):
    """A call the far route takes with unit charges, without a skip and
    with each target's own source skipped, is the kernel's bit for bit and
    sums no far pairs once a weight vector is among its weights or its
    squared sums (roots with multiplicities)."""
    x, y = _far_sets()["disk"]
    c = np.random.default_rng(37).random(len(y)) + 0.5j
    _force_far(monkeypatch)
    for x, skip in ((x, None), (y, np.arange(len(y)))):
        with logderiv.counting_pairs() as unit:
            farfield.cauchy_sums(x, y, weights=(None,), squared=(None,), skip=skip,
                                 nearest=True)
        assert unit.far > 0
        for weights, squared in (((None, c), (None,)), ((None,), (c,)), ((c,), ())):
            with logderiv.counting_pairs() as tally:
                got = farfield.cauchy_sums(x, y, weights, squared, skip=skip, nearest=True)
            want = logderiv.cauchy_sums(x, y, weights, squared, skip=skip, nearest=True)
            assert tally.far == 0 and tally.direct == len(x) * len(y)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


def test_far_route_nearest_beyond_the_near_field(monkeypatch):
    """A target whose box has no source nearby, or only sources farther
    than a box side, gets its nearest distance from all sources by the
    kernel: bit for bit the kernel's."""
    rng = np.random.default_rng(33)
    y = np.concatenate([rng.random(300) + 1j * rng.random(300), [6 + 6j, -5 + 0.5j]])
    x = np.concatenate([rng.random(400) + 1j * rng.random(400), [6.1 + 5.5j, 3 - 4j, -4j]])
    fallback = []
    kernel = logderiv.cauchy_sums

    def recording(x, *args, **kw):
        fallback.append(len(x))
        return kernel(x, *args, **kw)

    monkeypatch.setattr(logderiv, "cauchy_sums", recording)
    got, want, _ = _far_and_direct(x, y, squared=(None,), nearest=True)
    assert fallback[0] < len(x)  # the far call summed the fallback rows alone
    assert np.array_equal(got[-1], want[-1])
    assert np.array_equal(got[-1][-3:], np.abs(x[-3:, None] - y).min(axis=1))


def test_far_route_independent_of_workers_and_block_rows(monkeypatch):
    """The far route's sums are the same bit for bit at 1, 2 and 3 workers
    and at any block rows, self-skips, a target on a source (non-finite
    sums, distance 0) and the kernel's nearest fallback included; every
    call takes the route."""
    x, y = _far_sets()["gauss"]
    y = np.concatenate([y, y[:3], [40 + 40j]])
    x = np.concatenate([x, y[:3], [40 + 40j]])
    _force_far(monkeypatch)
    monkeypatch.setattr(logderiv, "BLOCK_ELEMS", 4096)

    def run(rows):
        with np.errstate(invalid="ignore"):
            with logderiv.counting_pairs() as self_pass:
                own = farfield.cauchy_sums(y, y, weights=(None,), squared=(None,),
                                           skip=np.arange(len(y)), nearest=True, rows=rows)
            with logderiv.counting_pairs() as field_pass:
                field = farfield.cauchy_sums(x, y, squared=(None,), nearest=True, rows=rows)
        assert self_pass.far > 0 and field_pass.far > 0
        return own, field

    monkeypatch.setattr(logderiv, "_workers", lambda: 1)
    want = own, field = run(None)
    for sums, on in ((own, slice(0, 3)), (own, slice(-4, -1)), (field, slice(-4, -1))):
        assert not np.isfinite(sums[0][on]).any() and np.all(sums[-1][on] == 0)
    for workers in (1, 2, 3):
        monkeypatch.setattr(logderiv, "_workers", lambda: workers)
        for rows in (1, 7, None):
            for got_call, want_call in zip(run(rows), want):
                for a, b in zip(got_call, want_call):
                    assert np.array_equal(a, b, equal_nan=True)


def test_far_route_taken_by_spread_sets_only():
    """At the default crossover, 4000 roots uniform on the disk take the far
    route in the solver's passes; 4000 Cauchy roots (heavy tails: a few
    boxes hold nearly every root), small calls and the row form do not."""
    rng = np.random.default_rng(35)
    disk = np.sqrt(rng.random(4000)) * np.exp(2j * np.pi * rng.random(4000))
    cauchy = rng.standard_cauchy(4000) + 1j * rng.standard_cauchy(4000)
    for z, far in ((disk, True), (cauchy, False), (disk[:1000], False)):
        with logderiv.counting_pairs() as tally:
            farfield.cauchy_sums(z, z, skip=np.arange(len(z)), nearest=True)
            farfield.cauchy_sums(z[1:], z, squared=(None,), nearest=True)
        assert (tally.far > 0) == far
    with logderiv.counting_pairs() as tally:
        farfield.cauchy_sums(np.tile(disk[:100], (40, 1)), np.tile(disk, (40, 1)))
    assert tally.far == 0 and tally.direct == 40 * 100 * 4000


def test_nothing_but_the_solver_takes_the_far_route(monkeypatch):
    """Where every call of `farfield.cauchy_sums` would take the far route,
    the solve does, and nothing else does: `eval_S`, the eigenvalue
    oracle's certificates, both circle routes' grid values and the probe
    sums of anticoncentration are their unforced values bit for bit and
    sum no far pairs."""
    rng = np.random.default_rng(36)
    roots = np.sqrt(rng.random(600)) * np.exp(2j * np.pi * rng.random(600))
    c = Circle(0.1j, 0.9)
    paths = np.stack([roots[:300], roots[300:]])
    probes = np.array([0.2 + 0.1j, -0.3j])

    def others():
        return (eval_S(roots, 0.3 - 0.2j), critical_points_oracle(roots[:200]).residuals,
                circle_abs_S(roots, c, 2048), circle_sup_norm(roots, c, 4096),
                experiments._probe_sums(paths, [100, 300], probes, 0.3, -1.7))

    want = others()
    _force_far(monkeypatch)
    with logderiv.counting_pairs() as tally:
        got = others()
    assert tally.far == 0 and tally.direct > 0
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert got[3] == _grid_max(roots, c, 4096)
    assert critical.critical_points(roots).far_pairs > 0


def test_counting_pairs_nests():
    """An inner block's pairs reach the enclosing block's tally too."""
    x = np.arange(3.0)
    with logderiv.counting_pairs() as outer:
        cauchy_sums(x, x + 0.5)
        with logderiv.counting_pairs() as inner:
            cauchy_sums(x, np.arange(5.0) + 0.5)
        assert (inner.direct, outer.direct) == (15, 24)
    assert (outer.direct, outer.far) == (24, 0)
    cauchy_sums(x, x + 0.5)
    assert outer.direct == 24
