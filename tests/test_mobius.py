import math

import numpy as np
import pytest

from critpoint import mobius as mb
from critpoint.critical import critical_points
from critpoint.errors import ParameterError
from critpoint.experiments import _valid_jensen_transform
from critpoint.logderiv import eval_S
from critpoint.sampler import SeedSpec

from helpers import affine


def test_apply_identity_and_inversion():
    assert mb.apply(affine(1), 5 + 2j) == 5 + 2j
    inv = mb.MobiusTransform(0, 1, 1, 0)  # z -> 1/z
    assert mb.apply(inv, 0j) == math.inf
    assert mb.apply(inv, 2j) == -0.5j


def test_apply_at_pole_and_infinity():
    u = mb.MobiusTransform(1, 0, 1, -2)  # z / (z - 2)
    assert mb.apply(u, 2.0) == math.inf
    assert np.array_equal(mb.apply(u, [4.0, 2.0, 0.0]), [2.0, math.inf, 0.0])
    # the point at infinity is not a point `apply` maps
    for z in (math.inf, complex(0.0, math.inf), [1.0, math.nan]):
        with pytest.raises(ParameterError):
            mb.apply(u, z)


def test_inverse_round_trip():
    # the adjugate matrix (d, -b, -c, a) is the inverse transform
    rng = np.random.default_rng(17)
    for k in range(20):
        u = mb.sample_mobius(SeedSpec(17, k))
        inv = mb.MobiusTransform(u.d, -u.b, -u.c, u.a)
        z = complex(*rng.standard_normal(2))
        back = mb.apply(u, mb.apply(inv, z))
        assert abs(back - z) <= 1e-10 * (1 + abs(z))


def test_inverse_examples():
    a = 2.5 - 1j
    assert mb.apply(affine(1, -a), a) == 0  # z - a
    cayleyish = mb.MobiusTransform(1, -1, 1, 1)  # (z-1)/(z+1)
    w = 0.25 + 0.1j
    assert mb.apply(cayleyish, (1 + w) / (1 - w)) == pytest.approx(w)
    assert mb.apply(cayleyish, 1.0) == 0


def test_jensen_point_is_minus_b_over_a():
    # Jensen's a = u^{-1}(0) is -b/a; a transform with u.a == 0 sends no
    # finite point to 0 and is skipped
    roots = np.array([1.0, -1.0, 0.5j, 2.0 - 1j])
    crit = critical_points(roots).points
    checked = 0
    for k in range(20):
        u = mb.sample_mobius(SeedSpec(29, k))
        got = _valid_jensen_transform(u, roots, crit, 64)
        if got is None:
            continue
        assert got[1] == eval_S(roots, -u.b / u.a)
        assert abs(mb.apply(u, -u.b / u.a)) <= 1e-12
        checked += 1
    assert checked >= 10
    u = mb.MobiusTransform(0, 1, 1, 3)  # 1/(z + 3): its unit-circle preimage is a circle
    assert mb.preimage_unit_circle(u) is not None
    assert _valid_jensen_transform(u, roots, crit, 64) is None


def test_determinant_guard():
    with pytest.raises(ParameterError):
        mb.MobiusTransform(1, 2, 2, 4)
    with pytest.raises(ParameterError):
        mb.MobiusTransform(0, 0, 0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan), "x", [1.0]])
def test_non_finite_or_malformed_coefficient_rejected(bad):
    with pytest.raises(ParameterError):
        mb.MobiusTransform(bad, 0, 0, 1)
    with pytest.raises(ParameterError):
        mb.MobiusTransform(1, 0, 0, bad)


def test_draws_are_the_first_passing_normals():
    # a draw is 8 standard normals (4 real parts, then 4 imaginary parts),
    # redrawn only when the determinant guard fails
    for k in range(20):
        g = SeedSpec(5, k).generator()
        re, im = g.standard_normal(4), g.standard_normal(4)
        assert mb.sample_mobius(SeedSpec(5, k)) == mb.MobiusTransform(*(re + 1j * im))


def test_preimage_identity_and_shift():
    pre = mb.preimage_unit_circle(affine(1))
    assert pre.center == 0 and pre.radius == pytest.approx(1.0)
    a = 0.7 - 0.2j
    pre = mb.preimage_unit_circle(affine(1, -a))
    assert pre.center == pytest.approx(a) and pre.radius == pytest.approx(1.0)


def test_preimage_line_case():
    # (z-1)/(z+1) maps the imaginary axis, a line, onto the unit circle
    assert mb.preimage_unit_circle(mb.MobiusTransform(1, -1, 1, 1)) is None


def test_preimage_maps_to_unit_circle():
    for k in range(30):
        u = mb.sample_mobius(SeedSpec(55, k))
        pre = mb.preimage_unit_circle(u)
        pts = pre.points(32)
        mags = np.abs(mb.apply(u, pts))
        assert np.max(np.abs(mags - 1.0)) <= 1e-9


def test_sample_mobius_guard_and_circle_fraction():
    lines = 0
    for k in range(10_000):
        u = mb.sample_mobius(SeedSpec(99, k))
        det = u.determinant
        scale = max(abs(u.a), abs(u.b), abs(u.c), abs(u.d))
        assert abs(det) >= mb.DET_GUARD * scale * scale
        if mb.preimage_unit_circle(u) is None:
            lines += 1
    assert lines <= 10  # |alpha| = |gamma| is a null set; 99.9% circles


def test_sample_mobius_alpha_mean():
    vals = np.array([mb.sample_mobius(SeedSpec(123, k)).a for k in range(100_000)])
    assert abs(vals.mean()) < 0.02


def test_preimage_of_affine_transforms():
    for k in range(200):
        g = SeedSpec(7, k).generator()
        u = affine(*(g.standard_normal(2) + 1j * g.standard_normal(2)))
        pre = mb.preimage_unit_circle(u)
        assert pre.radius == pytest.approx(1 / abs(u.a), rel=1e-12)
        assert pre.center == pytest.approx(-u.b / u.a, rel=1e-12)


def test_transform_json_roundtrip():
    u = mb.sample_mobius(SeedSpec(3, 3))
    v = mb.MobiusTransform.from_json(u.to_json())
    assert (v.a, v.b, v.c, v.d) == (u.a, u.b, u.c, u.d)
