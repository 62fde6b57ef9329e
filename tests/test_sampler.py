import numpy as np
import pytest

from critpoint.errors import ParameterError
from critpoint.sampler import (BaseMeasure, SeedSpec, as_complex, as_int,
                               as_real, sample)

ALL_MEASURES = [
    BaseMeasure.finite_support([1, -1, 2j], [0.2, 0.5, 0.3]),
    BaseMeasure.uniform_circle(0.5j, 2.0),
    BaseMeasure.uniform_disk(-1 + 0j, 1.5),
    BaseMeasure.complex_gaussian(1 + 1j, 0.7),
    BaseMeasure.complex_cauchy(0j, 1.0),
]


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: m.kind)
def test_prefix_stability_exact(measure):
    seed = SeedSpec(123, 7)
    full = sample(measure, seed, 200).samples
    for n in (1, 13, 100, 200):
        assert np.array_equal(sample(measure, seed, n).samples, full[:n])


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: m.kind)
def test_determinism_bit_for_bit(measure):
    seed = SeedSpec(99, 3)
    a = sample(measure, seed, 64).samples
    b = sample(measure, seed, 64).samples
    assert np.array_equal(a, b)


def test_single_atom_is_constant():
    m = BaseMeasure.finite_support([1.0], [1.0])
    t = sample(m, SeedSpec(0, 0), 5)
    assert np.array_equal(t.samples, np.ones(5, dtype=complex))


def test_uniform_circle_mean_small():
    # CLT scale 3/sqrt(1e5) < 0.01; sampled mean of a centered law
    m = BaseMeasure.uniform_circle(0j, 1.0)
    z = sample(m, SeedSpec(2024, 0), 100_000).samples
    assert abs(z.mean()) < 0.02
    assert np.allclose(np.abs(z), 1.0)


def test_uniform_disk_radius_law():
    m = BaseMeasure.uniform_disk(0j, 1.0)
    z = sample(m, SeedSpec(2024, 1), 100_000).samples
    r = np.abs(z)
    assert r.max() <= 1.0
    # E r = 2/3 for the unit disk
    assert abs(r.mean() - 2 / 3) < 0.01


def test_strong_law_eight_atoms():
    atoms = [complex(k, -k) for k in range(8)]
    m = BaseMeasure.finite_support(atoms, [1 / 8] * 8)
    z = sample(m, SeedSpec(11, 0), 10_000).samples
    counts = np.array([np.count_nonzero(z == a) for a in atoms])
    assert np.max(np.abs(counts / 10_000 - 1 / 8)) < 0.05


def test_distinct_streams_uncorrelated():
    m = BaseMeasure.uniform_disk()
    a = sample(m, SeedSpec(90, 0), 10_000).samples
    b = sample(m, SeedSpec(90, 1), 10_000).samples
    for x, y in ((a.real, b.real), (a.imag, b.imag), (a.real, b.imag)):
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 0.05


def test_substreams_are_distinct():
    s = SeedSpec(4, 4)
    ids = {s.substream(p, i).stream_id for p in range(6) for i in range(50)}
    assert len(ids) == 300


@pytest.mark.parametrize("bad", [
    lambda: BaseMeasure.finite_support([1, -1], [0.6, 0.6]),
    lambda: BaseMeasure.finite_support([1, 1], [0.5, 0.5]),
    lambda: BaseMeasure.finite_support([1, -1], [1.2, -0.2]),
    lambda: BaseMeasure.uniform_circle(0j, 0.0),
    lambda: BaseMeasure.uniform_disk(0j, -1.0),
    lambda: BaseMeasure.complex_gaussian(0j, 0.0),
    lambda: BaseMeasure.complex_cauchy(0j, -2.0),
    lambda: BaseMeasure("UniformDisk", {"radius": True}),
    lambda: BaseMeasure("UniformDisk", {"radius": 1, "bogus": 2}),
    lambda: BaseMeasure("UniformDisk", {"radius": "abc"}),
    lambda: BaseMeasure.uniform_circle("abc", 1.0),
    lambda: BaseMeasure("FiniteSupport", {"atoms": [1, 2j], "weights": [0.5, "0.5"]}),
    lambda: BaseMeasure("ComplexGaussian", None),
])
def test_invalid_measures_rejected(bad):
    with pytest.raises(ParameterError):
        bad()


def test_sample_count_validation():
    m = BaseMeasure.uniform_circle()
    with pytest.raises(ParameterError):
        sample(m, SeedSpec(0, 0), 0)


def test_measure_json_roundtrip():
    for m in ALL_MEASURES:
        back = BaseMeasure.from_json(m.to_json())
        assert back.kind == m.kind
        s = SeedSpec(8, 8)
        assert np.array_equal(sample(m, s, 16).samples, sample(back, s, 16).samples)
    with pytest.raises(ParameterError):
        BaseMeasure.from_json({"kind": "UniformCircle",
                               "params": {"center": [0, 0], "radius": 1, "bogus": 2}})


def test_cauchy_has_heavy_tails():
    # no-moments check: the empirical mean does not settle like the Gaussian one
    m = BaseMeasure.complex_cauchy(0j, 1.0)
    z = sample(m, SeedSpec(1234, 0), 100_000).samples
    assert np.max(np.abs(z)) > 1_000.0


def test_scalar_parsers():
    assert as_complex(1 - 2j) == 1 - 2j
    assert as_complex(np.complex128(3j)) == 3j
    assert as_complex([1, -2.5]) == 1 - 2.5j
    assert as_complex(4) == 4
    assert as_real(2) == 2.0 and type(as_real(np.float64(0.5))) is float
    assert as_int(np.int64(7)) == 7 and type(as_int(np.int64(7))) is int
    for parse, bad in [(as_real, "1"), (as_real, float("nan")), (as_real, float("-inf")),
                       (as_real, True), (as_real, None), (as_real, 1j),
                       (as_int, 2.0), (as_int, "3"), (as_int, False),
                       (as_complex, "1"), (as_complex, [1]), (as_complex, complex("nan")),
                       (as_complex, True), (as_complex, [True, 0]), (as_complex, [0, False])]:
        with pytest.raises(ParameterError):
            parse(bad)


def test_json_scalars_rejected():
    for bad in [{"kind": "UniformDisk", "params": {"radius": "abc"}},
                {"kind": "ComplexGaussian", "params": {"scale": [1, 0]}},
                {"kind": "FiniteSupport", "params": {"atoms": [[1, 0]], "weights": ["1"]}},
                {"kind": "FiniteSupport", "params": {"atoms": 5, "weights": [1.0]}},
                {"kind": "FiniteSupport", "params": {"atoms": [[1, 0]], "weights": 1.0}},
                {"kind": "UniformDisk", "params": {"center": [True, 0], "radius": 1}}]:
        with pytest.raises(ParameterError):
            BaseMeasure.from_json(bad)
    for bad in [{"master_seed": "abc"}, {"master_seed": 1.5}, {"master_seed": 1, "stream_id": "2"}]:
        with pytest.raises(ParameterError):
            SeedSpec.from_json(bad)
