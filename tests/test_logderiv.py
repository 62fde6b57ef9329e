import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from critpoint import critical, logderiv
from critpoint.critical import critical_points_oracle
from critpoint.errors import ParameterError, PoleOnContourError
from critpoint.logderiv import (POLE_RTOL, Circle, RootSet, cauchy_sums, circle_abs_S,
                                circle_sup_norm, eval_S, log_minus, log_plus)
from critpoint.sampler import BaseMeasure, SeedSpec, sample

# sup |S| on C(0.5, 1) for roots {1, -1}: |S(z)| = 2|z| / (|z-1| |z+1|) peaks
# at z = 1.5, giving 3 / 1.25
JENSEN_EXAMPLE_SUP = 2.4


def test_eval_S_values():
    assert eval_S([1, -1], 0j).value == 0
    assert eval_S([0], 2.0).value == 0.5
    r = eval_S([1, -1], 1.0)
    assert r.is_pole and r.pole_index == 0
    assert r.magnitude == math.inf


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
        fd = (eval_S(roots, z + h).value - eval_S(roots, z - h).value) / (2 * h)
        scale = 1.0 + float(np.sum(1.0 / np.abs(z - roots) ** 2))
        assert abs(fd - _S_prime(roots, z)[0]) <= 10 * h * scale


def test_eval_S_permutation_bit_stable():
    rng = np.random.default_rng(3)
    roots = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    z = 3.5 + 0.25j
    base = eval_S(roots, z).value
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(40)
        assert eval_S(roots[perm], z).value == base


def test_pole_dominance():
    # one root at distance delta, the others at least `spacing` away
    spacing = 1.0
    others = np.array([2.0, 2.0 + 1j, 3.0 - 1j, -2.0, -2.0 - 2j], dtype=complex)
    for delta in (1e-3, 1e-6, 1e-9):
        roots = np.concatenate([[0j], others])
        z = complex(delta, 0.0)
        got = eval_S(roots, z)
        n = len(roots)
        assert got.magnitude >= 1 / delta - (n - 1) / spacing


@pytest.mark.parametrize("s", [1e-200, 1e-13, 1.0, 1e200])
def test_pole_tests_scale_with_the_roots(s):
    """eval_S's pole test is relative to the roots' spread and the contour
    test to |a| + r, so both read the same at every scale."""
    z = sample(BaseMeasure.uniform_disk(), SeedSpec(5), 50).samples
    got = eval_S(z * s, 0.5 * z[0] * s)
    assert not got.is_pole
    assert got.value * s == pytest.approx(eval_S(z, 0.5 * z[0]).value, rel=1e-12)
    assert eval_S(z * s, z[3] * s * (1 + 1e-14)).pole_index == 3
    want = circle_abs_S(z, Circle(0j, 0.5), 64)
    assert np.allclose(circle_abs_S(z * s, Circle(0j, 0.5 * s), 64) * s, want, rtol=1e-12, atol=0)
    # one root has no spread: only an exact hit is a pole
    assert not eval_S([0j], 1e-300).is_pole and eval_S([s], s).is_pole


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
        fine = circle_abs_S(roots, c, 2 * m)
        assert np.array_equal(fine[::2], circle_abs_S(roots, c, m))
        assert float(np.max(fine[::2])) == circle_sup_norm(roots, c, m)


def test_circle_sup_norm_jensen_example():
    # the peak z = 1.5 is grid point j = 0 of C(0.5, 1) at every m
    value = circle_sup_norm([1, -1], Circle(0.5, 1.0), 8192)
    assert value == pytest.approx(JENSEN_EXAMPLE_SUP, rel=1e-9)


def test_pole_on_contour_detected():
    with pytest.raises(PoleOnContourError):
        circle_sup_norm([2.0], Circle(0j, 2.0), 64)
    # one root on the contour among many that the series would take
    far = 0.01 * np.exp(2j * np.pi * np.arange(500) / 500)
    with pytest.raises(PoleOnContourError):
        circle_abs_S(np.append(far, 2.0j), Circle(0j, 2.0), 64)


@pytest.mark.parametrize("m", [2.5, True, np.bool_(True), float("nan"), float("inf"),
                               0, -3, 0.0, "8", None])
def test_grid_size_must_be_a_positive_integer(m):
    with pytest.raises(ParameterError):
        circle_abs_S([0.5], Circle(0j, 1.0), m)


def test_integral_grid_sizes_accepted():
    want = circle_abs_S([0.5], Circle(0j, 1.0), 8)
    for m in (np.int64(8), 8.0, np.float32(8)):
        assert np.array_equal(circle_abs_S([0.5], Circle(0j, 1.0), m), want)


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
    with pytest.raises(ParameterError):
        RootSet(np.array([], dtype=complex))
    assert RootSet(np.array([1j])).n == 1


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
@given(_cauchy_case())
def test_cauchy_sums_independent_of_block_rows(case):
    x, y, c1, c2, skip = case
    runs = [cauchy_sums(x, y, weights=(c1, None), squared=(c2,), skip=skip,
                        nearest=True, rows=rows) for rows in (1, 3, None)]
    for other in runs[1:]:
        for a, b in zip(runs[0], other):
            assert np.array_equal(a, b, equal_nan=True)


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
def _circle_case(draw, max_n=2000):
    """Roots about a circle: |w| log-uniform from 1e-6 to 1e12 (w = (z - a)/r),
    optionally a root at the centre and roots a few pole tolerances from
    the contour, on each side."""
    a = draw(st.complex_numbers(max_magnitude=5.0))
    r = draw(st.floats(0.05, 20.0))
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
    """The direct kernel sees only the near roots (and all of them when no
    root is worth a series), and the far field makes up the rest."""
    direct = logderiv._abs_S_on_points
    seen = []

    def recording(roots, pts, far=None):
        seen.append((len(roots), far is None))
        return direct(roots, pts, far)

    monkeypatch.setattr(logderiv, "_abs_S_on_points", recording)
    rng = np.random.default_rng(12)
    c = Circle(0.1 - 0.2j, 1.5)
    small = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    assert np.array_equal(circle_abs_S(small, c, 64), direct(small, c.points(64)))
    assert seen == [(50, True)]
    many = rng.standard_cauchy(4000) + 1j * rng.standard_cauchy(4000)
    got = circle_abs_S(many, c, 512)
    near, no_far = seen[-1]
    assert 0 < near < 1000 and not no_far
    want = direct(many, c.points(512))
    assert np.max(np.abs(got - want) / want) <= 1e-13
    centred = np.full(300, c.center)
    assert np.allclose(circle_abs_S(centred, c, 8), 300 / c.radius, rtol=1e-15, atol=0)
    assert seen[-1] == (0, False)


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


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(_circle_case(max_n=600))
def test_circle_grid_nesting_property(case):
    roots, c, m = case
    assert np.array_equal(circle_abs_S(roots, c, 2 * m)[::2], circle_abs_S(roots, c, m))
