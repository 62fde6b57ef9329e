import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import critpoint.critical as critical
from critpoint.critical import CriticalSet, critical_points, critical_points_oracle
from critpoint.errors import ConvergenceError, ParameterError
from critpoint.logderiv import spread
from critpoint.sampler import BaseMeasure, SeedSpec, sample

from helpers import hull_distance, multiset_match_distance


def _random_roots(kind, n, stream):
    m = BaseMeasure.uniform_disk() if kind == "disk" else BaseMeasure.complex_gaussian()
    return sample(m, SeedSpec(20_24, stream), n).samples


def test_two_roots():
    cs = critical_points([1.0, -1.0])
    assert len(cs) == 1
    assert abs(cs.points[0]) < 1e-12
    assert cs.residuals[0] <= 1e-10


def test_fourth_roots_of_unity_triple_zero():
    # P = X^4 - 1, P' = 4 X^3: a triple zero at 0.  In doubles a zero of
    # multiplicity 3 is localizable only to ~eps^(1/3) ~ 1e-5.
    roots = np.exp(2j * np.pi * np.arange(4) / 4)
    cs = critical_points(roots)
    assert len(cs) == 3
    assert np.max(np.abs(cs.points)) < 1e-5


def test_oracle_simple_cases():
    assert np.allclose(critical_points_oracle([1.0, -1.0]).points, [0.0])
    got = np.sort_complex(critical_points_oracle([0.0, 0.0, 3.0]).points)
    assert np.allclose(got, [0.0, 2.0], atol=1e-9)


def test_oracle_vieta():
    for stream in range(5):
        roots = _random_roots("disk", 40, stream)
        pts = critical_points_oracle(roots).points
        lhs = pts.sum()
        rhs = (1 - 1 / len(roots)) * roots.sum()
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_aberth_matches_oracle_eight_disk_roots():
    roots = _random_roots("disk", 8, 77)
    a = critical_points(roots).points
    b = critical_points_oracle(roots).points
    assert multiset_match_distance(a, b) < 1e-6


@pytest.mark.parametrize("n,kind", [(n, kind) for n in (4, 17, 64, 256)
                                    for kind in ("disk", "gauss")] + [(1000, "disk")])
def test_method_agreement(n, kind):
    stream = {"disk": 0, "gauss": 1000}[kind] + n
    roots = _random_roots(kind, n, stream)
    a = critical_points(roots).points
    b = critical_points_oracle(roots).points
    assert multiset_match_distance(a, b) < 1e-6


def test_finite_support_linear_Q():
    cs = critical_points_oracle(np.repeat([1.0, -1.0], [3, 5]))
    pts = np.sort_complex(cs.points)
    expected = np.sort_complex(np.array([1, 1, -1, -1, -1, -1, 0.25], dtype=complex))
    assert multiset_match_distance(pts, expected) < 1e-12


def test_finite_support_n2_and_r1():
    assert np.allclose(critical_points_oracle([1.0, -1.0]).points, [0.0])
    cs = critical_points_oracle(np.repeat([2.0 + 1j], [6]))
    assert len(cs) == 5
    assert np.allclose(cs.points, 2.0 + 1j)
    assert np.all(cs.residuals == 0.0)


def test_finite_support_agrees_with_general_solver():
    rng = np.random.default_rng(6)
    for _ in range(10):
        r = rng.integers(1, 6)
        atoms = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        counts = rng.integers(1, 8, size=r)
        if counts.sum() < 2:
            counts[0] += 2
        roots = np.repeat(atoms, counts)
        a = critical_points_oracle(roots).points
        b = critical_points(roots).points
        assert multiset_match_distance(a, b) < 1e-8


@pytest.mark.parametrize("r", [30, 40])
def test_finite_support_many_atoms_certified(r):
    for draw in range(5):
        rng = np.random.default_rng([draw, r])
        atoms = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        counts = rng.integers(1, 8, size=r)
        cs = critical_points_oracle(np.repeat(atoms, counts))
        assert len(cs) == counts.sum() - 1
        assert np.all(cs.residuals <= critical.DEFAULT_TOL)


def test_routes_need_no_mpmath(monkeypatch):
    monkeypatch.setitem(sys.modules, "mpmath", None)
    roots = _random_roots("gauss", 12, 5)
    cs = critical_points_oracle(roots)
    assert cs.method == "eigen"
    assert multiset_match_distance(cs.points, critical_points(roots).points) < 1e-6
    assert len(critical_points_oracle(np.repeat([1.0, -1.0, 2j], [2, 3, 1]))) == 5


@pytest.mark.parametrize("n", [2, 16, 128, 512])
def test_structure_count_vieta_hull(n):
    roots = _random_roots("disk", n, 500 + n)
    cs = critical_points(roots)
    assert len(cs) == n - 1
    rhs = (1 - 1 / n) * roots.sum()
    assert abs(cs.points.sum() - rhs) <= 1e-9 * max(1.0, abs(rhs))
    diam = np.max(np.abs(roots[:, None] - roots[None, :]))
    assert hull_distance(roots, cs.points) <= 1e-8 * max(diam, 1e-30)


def test_translation_scale_equivariance():
    roots = _random_roots("gauss", 24, 321)
    base = critical_points(roots).points
    alpha, beta = 0.5 - 2.0j, 3.0 + 1.0j
    moved = critical_points(alpha * roots + beta).points
    expected = alpha * base + beta
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert multiset_match_distance(moved, expected) <= 1e-9 * scale


def test_duplicate_roots_shortcut():
    # multiplicity m roots contribute m-1 exact copies
    cs = critical_points([2.0, 2.0, 2.0, -1.0])
    exact = cs.points[np.abs(cs.points - 2.0) == 0]
    assert len(exact) == 2
    assert len(cs) == 3


def test_near_duplicates_clustered():
    z = 1.0 + 1.0j
    cs = critical_points([z, z * (1 + 1e-15), -1.0, -2.0])
    assert cs.near_duplicate_clusters >= 1
    assert len(cs) == 3
    # z1 is 1 ulp right of z0, and z2 shares z0's real part, so it sorts
    # between the pair
    roots = sample(BaseMeasure.complex_gaussian(), SeedSpec(1), 30).samples.copy()
    x0, y0 = roots[0].real, roots[0].imag
    roots[1] = complex(np.nextafter(x0, np.inf), y0)
    roots[2] = complex(x0, y0 + 3)
    cs = critical_points(roots)
    assert cs.near_duplicate_clusters == 1
    assert len(cs) == 29
    assert np.all(cs.residuals <= critical.DEFAULT_TOL)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(0, 20))
def test_cluster_roots_groups_planted_duplicates(seed, groups, far):
    """Chains of roots, each within DUPLICATE_RTOL times the roots' spread of
    the next but not always of the one after, shuffled among far roots, some
    sharing a member's real part, cluster into one root per chain whatever
    the order."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 6.0)
    centres = scale * (rng.standard_normal(groups) + 1j * rng.standard_normal(groups))
    chains = [np.exp(2j * np.pi * rng.uniform()) * np.cumsum(rng.uniform(0.4, 0.7, k))
              for k in rng.integers(1, 5, groups)]
    pick = rng.integers(0, sum(map(len, chains)), far)
    free = scale * (rng.standard_normal(far) + 1j * rng.standard_normal(far))
    rise = scale * rng.uniform(0.5, 2.0, far)

    def plant(step):
        members = [c + step * o for c, o in zip(centres, chains)]
        lines = np.concatenate(members)[pick]
        return members, np.concatenate([free, lines.real + 1j * (lines.imag + rise)])

    # the chains move the spread by a few DUPLICATE_RTOL, relative: a second
    # planting at the first one's spread follows the rule to that accuracy
    members, others = plant(critical.DUPLICATE_RTOL * scale)
    u = np.unique(np.concatenate(members + [others]))
    members, others = plant(critical.DUPLICATE_RTOL * spread(u))
    reps = np.concatenate([[np.sort(g)[0] for g in members], others])
    mult = np.concatenate([[len(g) for g in members], np.ones(len(others))])
    order = np.argsort(reps)
    inexact = sum(int(np.sum(g != np.sort(g)[0])) for g in members)
    roots = np.concatenate(members + [others])
    for _ in range(2):
        z, m, merged = critical._cluster_roots(rng.permutation(roots))
        assert np.array_equal(z, reps[order])
        assert np.array_equal(m, mult[order])
        assert merged == inexact


@st.composite
def _root_sets(draw):
    """2 to 40 disk or Gaussian roots from a drawn stream."""
    kind = draw(st.sampled_from(["disk", "gauss"]))
    return _random_roots(kind, draw(st.integers(2, 40)), draw(st.integers(0, 2 ** 16)))


_offsets = st.builds(lambda a, e: a * 10.0 ** e,
                     st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0), st.floats(-3.0, 10.0))
_properties = settings(derandomize=True, deadline=None, database=None, max_examples=100)


@_properties
@given(_root_sets(), st.integers(-200, 200))
def test_scale_equivariance(roots, k):
    s = 10.0 ** k
    cs = critical_points(roots * s)
    assert cs.near_duplicate_clusters == 0
    base = critical_points(roots).points
    assert multiset_match_distance(cs.points / s, base) <= 1e-14 * spread(roots)


@_properties
@given(_root_sets(), _offsets)
def test_translation_equivariance(roots, t):
    moved = critical_points(roots + t).points - t
    base = critical_points(roots).points
    assert multiset_match_distance(moved, base) <= 1e-14 * spread(roots) + 4 * np.finfo(float).eps * abs(t)


@_properties
@given(_root_sets(), st.integers(0, 2 ** 32 - 1))
def test_permutation_invariance(roots, seed):
    perm = np.random.default_rng(seed).permutation(len(roots))
    a, b = critical_points(roots), critical_points(roots[perm])
    assert np.array_equal(a.points, b.points) and np.array_equal(a.residuals, b.residuals)


@_properties
@given(_root_sets(), st.integers(-200, 200), _offsets)
def test_vieta_and_gauss_lucas(roots, k, t):
    """sum W = (1 - 1/n) sum Z, and every W lies in the roots' convex hull,
    up to rounding at the scale of the roots' magnitude."""
    z = (roots + t) * 10.0 ** k
    n, c, s = len(z), z.mean(), spread(z)
    pts = critical_points(z).points
    assert abs(pts.sum() - (1 - 1 / n) * z.sum()) <= 1e-14 * n * (s + abs(c))
    # the hull of the normalised points: products of raw coordinates overflow at 1e200
    assert hull_distance((z - c) / s, (pts - c) / s) <= 1e-14 * (s + abs(c)) / s


@_properties
@given(_root_sets(), st.integers(-200, 200), _offsets)
def test_agrees_with_oracle_at_any_scale(roots, k, t):
    z = (roots + t) * 10.0 ** k
    got = critical_points(z).points
    want = critical_points_oracle(z).points
    assert multiset_match_distance(got, want) <= 1e-12 * (spread(z) + abs(z.mean()))


def test_nonconvergence_raises():
    roots = _random_roots("disk", 32, 9)
    with pytest.raises(ConvergenceError) as err:
        critical_points(roots, max_sweeps=1)
    assert err.value.worst_residual is not None


def test_residual_certificates_reported():
    roots = _random_roots("gauss", 50, 10)
    cs = critical_points(roots, tol=1e-10)
    assert np.all(cs.residuals <= 1e-10)
    assert cs.method == "aberth"


def test_active_set_shrinks_and_certifies(monkeypatch):
    roots = _random_roots("disk", 1000, 4242)
    field_sums = critical._field_sums
    rows = []

    def recording(w, z, m, chunk=None):
        rows.append(len(w))
        return field_sums(w, z, m, chunk)

    monkeypatch.setattr(critical, "_field_sums", recording)
    tol = critical.DEFAULT_TOL
    cs = critical_points(roots, tol=tol)
    assert rows[0] == len(roots) - 1
    assert all(b <= a for a, b in zip(rows, rows[1:]))
    assert rows[-1] < rows[0]
    # every point is certified on the solver's own rule, re-evaluated here
    _, Sp, _, dmin = field_sums(cs.points, roots, np.ones(len(roots)))
    eps = np.finfo(float).eps
    floor = 8 * eps * (1 + np.abs(cs.points)) * np.abs(Sp) * dmin
    assert np.all(cs.residuals <= np.maximum(tol, floor))
    n = len(roots)
    miss = abs(cs.points.sum() - (n - 1) / n * roots.sum())
    assert miss <= (n - 1) * tol * (1 + np.abs(roots).max())


def test_closest_pair_matches_scan():
    rng = np.random.default_rng(31)
    grid = (np.arange(5)[:, None] + 1j * np.arange(5)[None, :]).ravel()
    cases = [rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (2, 3, 50, 400)]
    cases += [grid, np.concatenate([grid, grid[[7, 3, 7]]]), np.exp(2j * np.pi * np.arange(64) / 64)]
    cases += [0.5 + 1j * rng.standard_normal(300), np.exp(2j * np.pi * np.arange(4000) / 4000)]
    for c in cases:
        best = (np.inf, 0, 1)
        for i in range(len(c) - 1):
            d = np.abs(c[i] - c[i + 1:])
            j = int(np.argmin(d))
            if d[j] < best[0]:
                best = (float(d[j]), i, i + 1 + j)
        assert critical._closest_pair(c) == best[1:]


def test_input_validation():
    with pytest.raises(ParameterError):
        critical_points([1.0])
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(ParameterError):
            critical_points([1.0, 2.0], tol=tol)
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError):
            critical_points([1.0, 2j, bad])
    for max_sweeps in (True, 0, -1, 1.5):
        with pytest.raises(ParameterError):
            critical_points([1.0, 2.0, 3.0], max_sweeps=max_sweeps)
    with pytest.raises(ParameterError):
        CriticalSet(np.array([0j]), np.array([0.0, 1.0]), "aberth")


def test_multiset_match_distance_basic():
    assert multiset_match_distance([1j, 2j], [2j, 1j]) == 0.0
    assert multiset_match_distance([0j], [1.0]) == 1.0


def test_critical_set_json():
    cs = critical_points([1.0, -1.0])
    doc = cs.to_json()
    assert doc["method"] == "aberth"
    assert doc["points"] == [[cs.points[0].real, cs.points[0].imag]]
    assert len(doc["residuals"]) == 1


def test_unit_weights_match_weighted_ones_bit_for_bit():
    for kind, n, stream in (("disk", 700, 51), ("gauss", 2, 52), ("gauss", 301, 53)):
        z = _random_roots(kind, n, stream)
        ones = np.ones(n)
        w = critical._initial_iterates(z, ones)
        assert np.array_equal(critical._initial_iterates(z, None), w)
        for chunk in (None, 7):
            unit = critical._field_sums(w, z, None, chunk)
            weighted = critical._field_sums(w, z, ones, chunk)
            for a, b in zip(unit, weighted):
                assert np.array_equal(a, b)
