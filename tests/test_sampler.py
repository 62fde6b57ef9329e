import warnings

import numpy as np
import pytest
import scipy.special
from numpy.random import Philox

from critpoint import logderiv
from critpoint.errors import ParameterError, as_complex, as_int, as_real
from critpoint.measures import reference_quantization
from critpoint.sampler import _E2, BaseMeasure, SeedSpec, _ndtri, _philox_keys, sample

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


#: (stream_id, purpose, index) -> SeedSpec(., stream_id).substream(purpose, index).stream_id
PINNED_SUBSTREAMS = {
    (0, 1, 0): 4964578127960768432,
    (0, 5, 0): 138435732662085109,
    (0, 5, 1): 16267658029545905998,
    (0, 5, 15999): 5671102723062785930,
    (0, 3, 199): 2046990460878057021,
    (0, 2, 0): 15415986080105920549,
    (12345, 4, 899): 16803385862620987373,
    (9, 6, 0): 10944706968659172507,
    (2**63, 1, 0): 17543915942424499765,
    (2**64 - 1, 7, 2**40): 6082143769122737660,
}


def test_substream_ids_are_pinned():
    # a refactor of the mixer must move no stream: these ids name every
    # experiment's samples, the references included
    for (stream, purpose, index), want in PINNED_SUBSTREAMS.items():
        for master in (0, 4, 2**64 - 1):  # the master seed is not mixed in
            got = SeedSpec(master, stream).substream(purpose, index)
            assert got == SeedSpec(master, want)
        assert int(SeedSpec(1, stream).substreams(purpose, [index])[0]) == want


def test_substreams_is_substream_for_every_index():
    s = SeedSpec(4, 0)
    idx = np.arange(5000)
    ids = s.substreams(5, idx)
    assert ids.dtype == np.uint64 and ids.shape == (5000,)
    assert [int(v) for v in ids] == [s.substream(5, int(i)).stream_id for i in idx]
    assert 2000 < np.count_nonzero(ids >= np.uint64(2**63)) < 3000


WORDS = [0, 1, 7, 2**53 + 1, 2**62 + 3, 2**63 - 1, 2**63, 2**63 + 7, 2**63 + 1024,
         2**63 + 1025, 2**63 + 3072, 2**64 - 2049, 2**64 - 1025]


def test_philox_key_is_numpys_key_of_the_seed_list():
    # the rule numpy applies to Philox(key=[master_seed, stream_id]), with
    # float64 rounding where one word is below 2**63 and one is not
    for master in WORDS:
        keys = _philox_keys(master, WORDS)
        for key, stream in zip(keys, WORDS):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                want = Philox(key=[master, stream]).state["state"]["key"]
            assert np.array_equal(key, want), (master, stream)
            assert np.array_equal(_philox_keys(master, stream)[0], want)


def test_philox_keys_alias_above_two_to_the_63():
    # kept bit for bit: ids that round to one double share one stream
    m = BaseMeasure.uniform_disk()
    a = sample(m, SeedSpec(1, 2**63 + 7), 8).samples
    assert np.array_equal(a, sample(m, SeedSpec(1, 2**63 + 8), 8).samples)
    assert not np.array_equal(a, sample(m, SeedSpec(1, 2**63 + 2048 + 7), 8).samples)
    assert not np.array_equal(sample(m, SeedSpec(1, 2**63 - 2), 8).samples,
                              sample(m, SeedSpec(1, 2**63 - 1), 8).samples)
    # both words at or above 2**63: exact
    assert not np.array_equal(sample(m, SeedSpec(2**63, 2**63 + 7), 8).samples,
                              sample(m, SeedSpec(2**63, 2**63 + 8), 8).samples)


@pytest.mark.parametrize("master, stream", [(1, 2**64 - 1024), (1, 2**64 - 1),
                                            (2**64 - 1, 0), (2**64 - 1000, 5)])
def test_seed_words_without_a_key_are_rejected(master, stream):
    # numpy would cast 2.0**64 to uint64: key 0, stream 0's samples, on this platform
    spec = SeedSpec(master, stream)
    with pytest.raises(ParameterError):
        spec.generator()
    with pytest.raises(ParameterError):
        sample(BaseMeasure.uniform_circle(), spec, 4)
    with pytest.raises(ParameterError):
        sample(BaseMeasure.uniform_circle(), SeedSpec(master, 0), 4, [5, stream])


@pytest.mark.parametrize("workers, block_elems", [(1, None), (3, 5), (2, 64)])
@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: m.kind)
def test_batched_draws_match_per_path_draws(measure, workers, block_elems, monkeypatch):
    monkeypatch.setattr(logderiv, "_workers", lambda: workers)
    if block_elems is not None:
        monkeypatch.setattr(logderiv, "BLOCK_ELEMS", block_elems)
    seed = SeedSpec(6, 11)
    derived = seed.substreams(5, np.arange(9))
    ids = np.concatenate([derived, np.array([0, 2**63 - 1, 2**63, 2**63 + 4097,
                                             2**64 - 1025], dtype=np.uint64)])
    for count in (1, 2, 7, 800, 801):
        t = sample(measure, seed, count, ids)
        assert t.samples.shape == (len(ids), count) and not t.samples.flags.writeable
        for i, row in enumerate(t.samples):
            one = (sample(measure, seed.substream(5, i), count) if i < len(derived)
                   else sample(measure, SeedSpec(seed.master_seed, int(ids[i])), count))
            assert np.array_equal(row, one.samples), (count, i)
        # a subset of the rows, in another order, as a list: the same rows
        sub = [int(ids[k]) for k in (12, 3, 4, 0)]
        assert np.array_equal(sample(measure, seed, count, sub).samples,
                              t.samples[[12, 3, 4, 0]])


def test_batched_draw_arguments():
    m, seed = BaseMeasure.uniform_circle(), SeedSpec(1, 2)
    assert sample(m, seed, 3, []).samples.shape == (0, 3)
    assert np.array_equal(sample(m, seed, 3, np.array([4, 5], dtype=np.uint64)).samples,
                          sample(m, seed, 3, [4, 5]).samples)
    for bad in ([-1], [1.5], [True], [2**64], "12", [[1, 2]], np.array([[1, 2]], np.uint64)):
        with pytest.raises(ParameterError):
            sample(m, seed, 3, bad)


def _ndtri_cases():
    rng = np.random.default_rng(20230117)
    walk = []  # 16 steps to either side of each split point
    for c in (_E2, 1 - _E2):
        for d in (0.0, 1.0):
            x = c
            for _ in range(16):
                walk.append(x := np.nextafter(x, d))
        walk.append(c)
    k = np.arange(1, 4097) * 2.0**-53
    u = rng.random((64, 257, 2))
    return {
        "uniforms": rng.random(10**6),
        "multiples of 2^-53": np.concatenate([k, 1 - k]),
        "exp(-36 U)": np.exp(-36 * rng.random(2 * 10**5)),
        "split neighbours": np.array(walk),
        "exact points": np.array([0.5, 1 - 2.0**-53, 2.0**-53, 0.0, 1.0]),
        "off [0, 1]": np.array([np.nan, -np.nan, -0.5, 1.5, np.inf, -np.inf, -0.0]),
        "rows x count x 2": u,
        "rows x count, strided": u[..., 0],
    }


NDTRI_CASES = _ndtri_cases()


@pytest.mark.parametrize("case", NDTRI_CASES)
def test_ndtri_is_scipys_bit_for_bit(case):
    p = NDTRI_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _ndtri(p)
    want = scipy.special.ndtri(p)
    assert got.shape == p.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_ndtri_reaches_every_branch_and_both_infinities():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _ndtri(np.array([0.0, 1.0, 0.5])).tolist() == [-np.inf, np.inf, 0.0]
    # y < e^-32 is sqrt(-2 log y) > 8, the P2/Q2 branch, in both tails
    y = NDTRI_CASES["multiples of 2^-53"][:4096]
    assert 0 < (y < np.exp(-32)).sum() < len(y)
    p = NDTRI_CASES["split neighbours"]
    for c in (_E2, 1 - _E2):
        assert (p < c).any() and (p == c).any() and (p > c).any()


def test_gaussian_rows_are_scipys_ndtri_of_the_philox_uniforms():
    m = BaseMeasure.complex_gaussian(0.25 - 1j, 1.75)
    seed, ids, count = SeedSpec(41, 0), [3, 2**63 + 9, 0, 77], 3000
    z = sample(m, seed, count, ids).samples
    for row, stream in zip(z, ids):
        u = SeedSpec(seed.master_seed, stream).generator().random((count, 2))
        want = (0.25 - 1j) + 1.75 * (scipy.special.ndtri(u[:, 0])
                                     + 1j * scipy.special.ndtri(u[:, 1]))
        assert np.array_equal(row.view(np.int64), want.view(np.int64))


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


@pytest.mark.parametrize("count", [True, False, np.bool_(True), 2.5, 3.0, np.float64(3.0),
                                   0, -1, "3", None])
def test_counts_must_be_positive_integers(count):
    # one rule for every count: no rounding, no booleans
    m = BaseMeasure.uniform_circle()
    with pytest.raises(ParameterError):
        sample(m, SeedSpec(0, 0), count)
    with pytest.raises(ParameterError):
        reference_quantization(m, count, SeedSpec(0, 0))


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
