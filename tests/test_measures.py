import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment
from scipy.stats import wasserstein_distance

from critpoint import measures
from critpoint.errors import ParameterError
from critpoint.logderiv import BLOCK_ELEMS
from critpoint.measures import (from_points, log_minus_integral, quadrant_discrepancy,
                                reference_quantization, sliced_w1, sliced_w1_many)
from critpoint.sampler import BaseMeasure, SeedSpec, sample

from helpers import affine


def _random_measure(rng, n):
    return from_points(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def test_from_points_basics():
    d0 = from_points(0.0)
    assert d0.dtype == complex and d0.shape == (1,) and d0[0] == 0
    z = np.arange(10, dtype=complex)
    m = from_points(z)
    assert np.array_equal(m, z) and not m.flags.writeable
    assert z.flags.writeable  # the caller's array is not frozen
    assert np.array_equal(from_points([1.0, 1.0, -1j]), [1, 1, -1j])  # repetition kept
    with pytest.raises(ParameterError):
        from_points([])


def test_empirical_measure_validation():
    for bad in ([], np.zeros((2, 2)), np.zeros((0, 3))):
        with pytest.raises(ParameterError):
            from_points(bad)


def test_log_minus_integral_examples():
    assert log_minus_integral(from_points([0.5]), affine(1)) == pytest.approx(math.log(2))
    assert log_minus_integral(from_points([2.0, 3.0]), affine(1)) == 0.0
    a = 1.5 + 0.5j
    assert log_minus_integral(from_points([a]), affine(1, -a)) == math.inf


def test_sliced_w1_trivial():
    m = from_points([0.3 + 1j, -2.0])
    assert sliced_w1(m, m, 16) == 0.0
    d0, d1 = from_points([0.0]), from_points([1.0])
    assert sliced_w1(d0, d1, 2) == pytest.approx(0.5, abs=1e-15)
    # 2 into 3: the middle 0 of the three meets both 0 and 1 of the two
    assert sliced_w1([0, 1], [0, 0, 1], 1) == pytest.approx(1 / 6, abs=1e-15)


def _sliced_w1_oracle(m1, m2, directions):
    total = 0.0
    for j in range(directions):
        theta = math.pi * j / directions
        c, s = math.cos(theta), math.sin(theta)
        total += wasserstein_distance(c * m1.real + s * m1.imag, c * m2.real + s * m2.imag)
    return total / directions


def test_sliced_w1_matches_per_direction_oracle(monkeypatch):
    rng = np.random.default_rng(24)
    unequal = (_random_measure(rng, 37), _random_measure(rng, 250))
    # multisets: each point repeated 1 to 4 times
    z1, z2 = (rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (15, 40))
    repeated = (np.repeat(z1, rng.integers(1, 5, 15)), np.repeat(z2, rng.integers(1, 5, 40)))
    # 4 directions include theta = 0 and pi/2, where lattice points tie in
    # whole rows and columns, within and across the two sets
    grid = (np.arange(4)[:, None] + 1j * np.arange(4)[None, :]).ravel()
    lattice = (np.repeat(grid, rng.integers(1, 5, 16)), grid[::3] + 1)
    for m1, m2 in (unequal, repeated, lattice):
        for directions in (1, 4, 64):
            want = _sliced_w1_oracle(m1, m2, directions)
            assert sliced_w1(m1, m2, directions) == pytest.approx(want, abs=1e-12)
            # a small budget splits the directions into several blocks
            with monkeypatch.context() as mp:
                mp.setattr(measures, "BLOCK_ELEMS", 600)
                assert sliced_w1(m1, m2, directions) == pytest.approx(want, abs=1e-12)


def test_sliced_w1_two_atoms_dense_directions():
    # independent value: (1/pi) * integral_0^pi |cos t| dt = 2/pi by quadrature
    oracle, err = quad(lambda t: abs(math.cos(t)) / math.pi, 0.0, math.pi)
    assert err < 1e-9
    got = sliced_w1(from_points([0.0]), from_points([1.0]), 360)
    assert got == pytest.approx(oracle, abs=1e-3)


def test_sliced_w1_metric_properties():
    rng = np.random.default_rng(21)
    a, b, c = (_random_measure(rng, k) for k in (11, 7, 19))
    dab = sliced_w1(a, b, 32)
    assert sliced_w1(b, a, 32) == dab
    assert sliced_w1(a, a, 32) == 0.0
    assert dab <= sliced_w1(a, c, 32) + sliced_w1(c, b, 32) + 1e-12
    assert dab > 0


def test_sliced_w1_translation_and_scaling():
    rng = np.random.default_rng(22)
    a, b = _random_measure(rng, 9), _random_measure(rng, 14)
    shift = 2.0 - 3.0j
    at, bt = a + shift, b + shift
    assert sliced_w1(at, bt, 24) == pytest.approx(sliced_w1(a, b, 24), abs=1e-12)
    alpha = -2.5
    asc, bsc = alpha * a, alpha * b
    assert sliced_w1(asc, bsc, 24) == pytest.approx(abs(alpha) * sliced_w1(a, b, 24), rel=1e-12)


def test_sliced_w1_below_exact_transport():
    # every 1-d projection is a contraction, so sliced W1 <= true W1;
    # for equal-size uniform measures the exact W1 is an assignment problem
    rng = np.random.default_rng(23)
    for n in (8, 64, 256):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n) + 0.5
        C = np.abs(x[:, None] - y[None, :])
        rows, cols = linear_sum_assignment(C)
        w1_exact = C[rows, cols].mean()
        assert sliced_w1(from_points(x), from_points(y), 64) <= w1_exact + 1e-12


def test_quadrant_discrepancy_basics():
    m = from_points([1j, -1j, 2.0])
    assert quadrant_discrepancy(m, m) == 0.0
    assert quadrant_discrepancy(from_points([0.0]), from_points([1.0])) == 1.0


def test_quadrant_discrepancy_rotated_roots_of_unity():
    eps = 1e-3
    base = np.exp(2j * np.pi * np.arange(4) / 4)
    rotated = base * np.exp(2j * np.pi * eps)
    m1, m2 = from_points(base), from_points(rotated)
    got = quadrant_discrepancy(m1, m2)

    # direct enumeration over the union of atoms
    pts = np.concatenate([base, rotated])
    expected = 0.0
    for p in pts:
        q1 = np.mean((base.real <= p.real) & (base.imag <= p.imag))
        q2 = np.mean((rotated.real <= p.real) & (rotated.imag <= p.imag))
        expected = max(expected, abs(q1 - q2))
    assert got == pytest.approx(expected, abs=1e-15)
    assert got <= 0.5


def test_reference_quantization():
    atom = BaseMeasure.finite_support([1 + 1j], [1.0])
    ref = reference_quantization(atom, 10, SeedSpec(0, 0))
    assert np.allclose(ref, 1 + 1j)

    m = BaseMeasure.uniform_circle()
    s = SeedSpec(42, 9)
    same = reference_quantization(m, 500, s)
    assert np.array_equal(same, sample(m, s, 500).samples)


def test_reference_quantization_calibration():
    # two independent proxies are within the Monte Carlo envelope 5/sqrt(min k)
    m = BaseMeasure.uniform_circle()
    for k1, k2, s1, s2 in ((1000, 1000, 1, 2), (1000, 10000, 3, 4), (10000, 10000, 5, 6)):
        p1 = reference_quantization(m, k1, SeedSpec(7, s1))
        p2 = reference_quantization(m, k2, SeedSpec(7, s2))
        assert sliced_w1(p1, p2, 32) < 5 / math.sqrt(min(k1, k2))


def test_empirical_measure_rejects_non_finite_input():
    nan, inf = math.nan, math.inf
    good = [0j, 1.0]
    for points in ([nan, 1.0], [1.0, complex(inf, 0)], [complex(nan, nan)], [complex(0, inf), 1]):
        with pytest.raises(ParameterError):
            from_points(points)
        # every metric checks both of its point sets
        for metric in (sliced_w1, quadrant_discrepancy):
            with pytest.raises(ParameterError):
                metric(points, good)
            with pytest.raises(ParameterError):
                metric(good, points)
        with pytest.raises(ParameterError):
            sliced_w1_many([good, points], good)
        with pytest.raises(ParameterError):
            log_minus_integral(points, affine(1))


@pytest.mark.parametrize("directions", [True, np.bool_(True), 2.5, 0, -3, 0.0, math.nan,
                                        math.inf, "8", None])
def test_directions_must_be_a_positive_integer(directions):
    m = from_points([0.0, 1j])
    with pytest.raises(ParameterError):
        sliced_w1(m, m, directions)
    with pytest.raises(ParameterError):
        sliced_w1_many([m], m, directions)


def test_integral_directions_accepted():
    """directions takes integer types only: an integral float or a boolean raises."""
    a, b = from_points([0.0, 1j]), from_points([1.0])
    assert sliced_w1(a, b, np.int64(8)) == sliced_w1(a, b, 8)
    assert np.array_equal(sliced_w1_many([a], b, np.int64(8)), sliced_w1_many([a], b, 8))
    for directions in (8.0, np.float32(8), True, np.True_):
        with pytest.raises(ParameterError):
            sliced_w1(a, b, directions)
        with pytest.raises(ParameterError):
            sliced_w1_many([a], b, directions)


# The algorithms these metrics replaced, kept as independent oracles: one
# argsort of the merged projections per direction, and every (p, point) pair.

def _sliced_w1_merged(m1, m2, directions):
    atoms = np.concatenate([m1, m2])
    signed = np.concatenate([np.full(len(m1), 1 / len(m1)), np.full(len(m2), -1 / len(m2))])
    block = max(1, BLOCK_ELEMS // len(atoms))
    total = 0.0
    for a in range(0, directions, block):
        theta = math.pi * np.arange(a, min(a + block, directions)) / directions
        proj = np.cos(theta)[:, None] * atoms.real + np.sin(theta)[:, None] * atoms.imag
        order = np.argsort(proj, axis=1)
        x = np.take_along_axis(proj, order, axis=1)
        f_minus_g = np.cumsum(signed[order], axis=1)[:, :-1]
        total += float(np.sum(np.abs(f_minus_g) * np.diff(x, axis=1)))
    return total / directions


def _quadrant_pairs(m1, m2):
    pts = np.concatenate([m1, m2])
    worst = 0.0
    chunk = max(1, BLOCK_ELEMS // max(1, len(m1) + len(m2)))
    for a in range(0, len(pts), chunk):
        p = pts[a:a + chunk]
        in1 = (m1.real[None, :] <= p.real[:, None]) & (m1.imag[None, :] <= p.imag[:, None])
        in2 = (m2.real[None, :] <= p.real[:, None]) & (m2.imag[None, :] <= p.imag[:, None])
        diff = in1.sum(axis=1) / len(m1) - in2.sum(axis=1) / len(m2)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


@st.composite
def _measures(draw, count=2):
    """Point sets from one numpy stream, each of 1 to 3000 points.  Lattice
    points tie in whole rows and columns, within and across the sets; a
    small pool repeats points, and resampling with replacement gives
    uneven multiplicities (uneven masses on the distinct points)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lattice = draw(st.booleans())
    pool = draw(st.sampled_from([None, 1, 5]))
    out = []
    for _ in range(count):
        n = draw(st.one_of(st.just(1), st.integers(2, 40), st.integers(41, 3000), st.just(3000)))
        if lattice:
            z = rng.integers(-3, 4, n) + 1j * rng.integers(-3, 4, n)
        else:
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if pool is not None:
            z = z[rng.integers(0, min(pool, n), n)]
        if draw(st.booleans()):
            z = z[rng.integers(0, n, n)]
        out.append(z)
    return out


_metric_settings = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@_metric_settings
@given(_measures(), st.sampled_from([1, 2, 4, 7, 64]))
def test_sliced_w1_matches_merged_sort(pair, directions):
    m1, m2 = pair
    scale = max(1.0, float(np.abs(np.concatenate([m1, m2])).max()))
    want = _sliced_w1_merged(m1, m2, directions)
    assert abs(sliced_w1(m1, m2, directions) - want) <= 1e-12 * scale


@_metric_settings
@given(_measures(count=4), st.sampled_from([1, 4, 64]))
def test_sliced_w1_many_matches_pairwise(ms, directions):
    ref, nus = ms[0], ms[1:]
    got = sliced_w1_many(nus, ref, directions)
    assert got.shape == (len(nus),)
    for nu, value in zip(nus, got):
        assert abs(value - sliced_w1(nu, ref, directions)) <= 1e-12


def test_sliced_w1_many_of_no_measures():
    assert sliced_w1_many([], from_points([0.0]), 8).shape == (0,)


@_metric_settings
@given(_measures())
def test_quadrant_discrepancy_matches_pair_oracle(pair):
    m1, m2 = pair
    # both count exactly and divide each count by its set's size once
    assert quadrant_discrepancy(m1, m2) == _quadrant_pairs(m1, m2)


@_metric_settings
@given(_measures(), st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
def test_metrics_depend_only_on_the_measures(pair, k, seed):
    """Permuting either point set, or repeating each of its points k times
    (the same uniform measure), leaves every metric unchanged: exactly
    where the metric sorts or counts, to rounding where it sums."""
    m1, m2 = pair
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.abs(np.concatenate([m1, m2])).max()))
    u = affine(2.0, 0.5)
    w1, q = sliced_w1(m1, m2, 7), quadrant_discrepancy(m1, m2)
    lm1, lm2 = log_minus_integral(m1, u), log_minus_integral(m2, u)
    for a, b in ((rng.permutation(m1), m2), (m1, rng.permutation(m2))):
        assert sliced_w1(a, b, 7) == w1
        assert quadrant_discrepancy(a, b) == q
    for a, b in ((np.repeat(m1, k), m2), (m1, np.tile(m2, k))):
        assert abs(sliced_w1(a, b, 7) - w1) <= 1e-12 * scale
        assert quadrant_discrepancy(a, b) == q
    for m, lm in ((m1, lm1), (m2, lm2)):
        for same in (rng.permutation(m), np.repeat(m, k)):
            assert log_minus_integral(same, u) == pytest.approx(lm, rel=1e-12, abs=1e-300)


def test_metrics_sum_weights_to_about_one_rounding():
    # 1/K added K times in sequence drifts by ~K ulps; the metrics take the
    # distribution function as k/K and masses as counts over K, which do not
    K = 100_000
    line = from_points(np.arange(K, dtype=float))
    # in direction 0, W1 = sum_{j < K-1} (1 - (j+1)/K) = (K-1)/2
    assert sliced_w1([0.0], line, 1) == pytest.approx((K - 1) / 2, rel=1e-14)
    # the quadrant at the last diagonal point holds all K points of one set
    assert quadrant_discrepancy(np.arange(K) * (1 + 1j), [K * (1 + 1j)]) == 1.0
