import json
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from critpoint import mobius as mb
from critpoint.critical import DEFAULT_TOL, critical_points, critical_points_oracle
from critpoint import experiments
from critpoint.errors import (ConvergenceError, NonDegeneracyError, ParameterError,
                             PoleOnContourError)
from critpoint.experiments import (AnticoncentrationConfig, ConvergenceConfig,
                                   GrowthConfig, JensenConfig, LLNConfig,
                                   run_anticoncentration, run_convergence,
                                   run_experiment, run_growth, run_jensen,
                                   run_lln_logminus)
from critpoint import farfield, logderiv
from critpoint.logderiv import Circle, circle_sup_norm, eval_S
from critpoint.measures import from_points, log_minus_integral
from critpoint.sampler import BaseMeasure, SeedSpec, sample

from helpers import affine, anticoncentration_hits, projected_probe_sums


CIRCLE = BaseMeasure.uniform_circle()
#: the keys of each n's entry of report.json's solver section
_SOLVER_KEYS = {"solves", "near_duplicate_clusters", "points_above_tol", "sweeps", "active",
                "direct_pairs", "far_pairs", "nudges"}


def test_config_validation():
    with pytest.raises(ParameterError):
        ConvergenceConfig(measure=CIRCLE, n_schedule=(8, 8))
    with pytest.raises(ParameterError):
        ConvergenceConfig(measure=CIRCLE, n_schedule=())
    with pytest.raises(ParameterError):
        JensenConfig(measure=CIRCLE, n_schedule=(4,), trials=0)
    with pytest.raises(ParameterError):
        AnticoncentrationConfig(measure=CIRCLE, n_schedule=(4,), probes=(1j, 1j))
    # a config names its experiment; anything else names none
    for config in (None, "convergence", {"experiment": "convergence"}, CIRCLE,
                   experiments.BaseConfig(measure=CIRCLE, n_schedule=(4,))):
        with pytest.raises(ParameterError):
            run_experiment(config)


@pytest.mark.parametrize("make", [
    lambda: ConvergenceConfig(measure=CIRCLE, n_schedule=(8,), directions=1.5),
    lambda: ConvergenceConfig(measure=CIRCLE, n_schedule=(8,), k_reference="abc"),
    lambda: ConvergenceConfig(measure=CIRCLE, n_schedule=(8,), k_reference=None),
    lambda: ConvergenceConfig(measure=CIRCLE, n_schedule=(8,), improvement_factor=math.nan),
    lambda: ConvergenceConfig(measure=CIRCLE, n_schedule=(8,), quadrant_max="abc"),
    lambda: ConvergenceConfig(measure=CIRCLE, n_schedule=(8.7, 16)),
    lambda: ConvergenceConfig(measure="circle", n_schedule=(8,)),
    lambda: JensenConfig(measure=CIRCLE, n_schedule=(8,), trials=2.9),
    lambda: JensenConfig(measure=CIRCLE, n_schedule=(8,), jensen_slack=math.inf),
    lambda: AnticoncentrationConfig(measure=CIRCLE, n_schedule=(8,), projection=("a", 1)),
    lambda: AnticoncentrationConfig(measure=CIRCLE, n_schedule=(8,), projection=(1.0,)),
    lambda: AnticoncentrationConfig(measure=CIRCLE, n_schedule=(8,), probes=()),
    lambda: AnticoncentrationConfig(measure=CIRCLE, n_schedule=(8,), r_ball=-1.0),
    lambda: GrowthConfig(measure=CIRCLE, n_schedule=(8,), m_circle=2.5),
    lambda: GrowthConfig(measure=CIRCLE, n_schedule=(8,), circle_center=0j),
    lambda: GrowthConfig(measure=CIRCLE, n_schedule=(8,), circle_radius=1.0),
    lambda: LLNConfig(measure=CIRCLE, n_schedule=(8,), u_transform="identity"),
    lambda: LLNConfig(measure=CIRCLE, n_schedule=(8,), seed=-1),
    lambda: ConvergenceConfig(measure=CIRCLE, n_schedule=(1, 8)),
    lambda: JensenConfig(measure=CIRCLE, n_schedule=(1,)),
    lambda: GrowthConfig(measure=CIRCLE, n_schedule=(1, 4)),
])
def test_settings_checked_at_construction(make):
    with pytest.raises(ParameterError):
        make()


def test_settings_accept_json_forms_and_documented_nones():
    cfg = LLNConfig(measure=CIRCLE.to_json(), n_schedule=[8, 16], seed=3,
                    u_transform=affine(1).to_json())
    assert cfg == LLNConfig(measure=CIRCLE, n_schedule=(8, 16), seed=SeedSpec(3, 0),
                            u_transform=affine(1))
    ConvergenceConfig(measure=CIRCLE, n_schedule=(8,), improvement_factor=None,
                      quadrant_max=None)
    AnticoncentrationConfig(measure=CIRCLE, n_schedule=(8,), r_ball=None)
    assert GrowthConfig(measure=CIRCLE, n_schedule=(8,), circle_center=[1, 2],
                        circle_radius=3).circle_center == 1 + 2j


def test_convergence_finite_support_cross_method():
    # on a finite-support trajectory the general solver must agree with the
    # eigenvalue route at every n of the schedule
    m = BaseMeasure.finite_support([1.0, -1.0], [0.5, 0.5])
    seed = SeedSpec(3, 3)
    cfg = ConvergenceConfig(measure=m, n_schedule=(2, 4), seed=seed,
                            k_reference=64, improvement_factor=None, quadrant_max=None)
    rep = run_convergence(cfg)
    assert rep.stats("solver_failed") == {}
    from critpoint.experiments import _P_TRAJECTORY
    traj = sample(m, seed.substream(_P_TRAJECTORY), 4)
    for n in (2, 4):
        roots = traj.samples[:n]
        closed = critical_points_oracle(roots)
        solved = critical_points(roots)
        assert np.allclose(np.sort_complex(closed.points),
                           np.sort_complex(solved.points), atol=1e-8)


def test_convergence_single_atom_all_distances_zero():
    m = BaseMeasure.finite_support([0.5 + 0.5j], [1.0])
    cfg = ConvergenceConfig(measure=m, n_schedule=(2, 8, 32), seed=SeedSpec(1, 1),
                            k_reference=16)
    rep = run_convergence(cfg)
    for n in (2, 8, 32):
        assert rep.stat(n, "sliced_w1_nu_mu") == 0.0
        assert rep.stat(n, "sliced_w1_nu_ref") == 0.0
        # weights 1/(n-1) are not exactly representable, so quadrant masses
        # can differ from 1 by one ulp; "identically zero" up to that
        assert rep.stat(n, "quadrant_nu_mu") <= 1e-12
    assert rep.passed


def test_convergence_report_shape():
    cfg = ConvergenceConfig(measure=CIRCLE, n_schedule=(8, 16), seed=SeedSpec(9, 0),
                            k_reference=500, improvement_factor=None, quadrant_max=None)
    rep = run_convergence(cfg)
    for stat in ("sliced_w1_nu_mu", "sliced_w1_nu_ref", "quadrant_nu_mu",
                 "escaped_mass_nu", "escaped_mass_mu", "max_residual"):
        assert set(rep.stats(stat)) == {8, 16}
    assert any(v.name == "all_solves_converged" and v.passed for v in rep.verdicts)


def test_convergence_rows_in_schedule_order(monkeypatch):
    # series.csv lists each n's rows in schedule order, a failed solve's two
    # rows in its place; the reference distances are computed after all solves
    def solve(roots):
        if len(roots) == 16:
            raise ConvergenceError("planted", worst_residual=0.5)
        return critical_points(roots)

    monkeypatch.setattr(experiments, "critical_points", solve)
    cfg = ConvergenceConfig(measure=CIRCLE, n_schedule=(8, 16, 32), seed=SeedSpec(9, 0),
                            k_reference=500)
    rep = run_convergence(cfg)
    solved = ["sliced_w1_nu_mu", "sliced_w1_nu_ref", "quadrant_nu_mu",
              "escaped_mass_nu", "escaped_mass_mu", "max_residual"]
    assert [(n, stat) for n, stat, _ in rep.rows] == (
        [(8, stat) for stat in solved]
        + [(16, "solver_failed"), (16, "solver_worst_residual")]
        + [(32, stat) for stat in solved])
    assert rep.stat(16, "solver_worst_residual") == 0.5
    assert [v.name for v in rep.verdicts] == ["all_solves_converged"]
    assert not rep.passed


@pytest.mark.parametrize("make, run", [
    (lambda **kw: ConvergenceConfig(k_reference=500, improvement_factor=None,
                                    quadrant_max=None, **kw), run_convergence),
    (lambda **kw: JensenConfig(trials=5, m_circle=128, **kw), run_jensen)],
    ids=["convergence", "jensen"])
def test_solver_section_counts_merges_and_points_above_tol(make, run, monkeypatch):
    # each solve planted with 2 merged roots and 3 points above DEFAULT_TOL;
    # convergence reports its one solve per n, Jensen the sums over its trials
    cfg = make(measure=CIRCLE, n_schedule=(8, 16), seed=SeedSpec(9, 0))
    solves = 1 if run is run_convergence else cfg.trials
    clean = {f"n={n}": {"solves": solves, "near_duplicate_clusters": 0, "points_above_tol": 0}
             for n in cfg.n_schedule}

    def counts(rep):
        assert set(rep.solver) == set(clean)
        assert all(set(entry) == _SOLVER_KEYS for entry in rep.solver.values())
        return {k: {c: entry[c] for c in clean[k]} for k, entry in rep.solver.items()}

    rep = run(cfg)
    assert counts(rep) == clean
    solve = experiments.critical_points

    def planted(roots):
        cs = solve(roots)
        res = np.array(cs.residuals)
        res[:3] = 2 * DEFAULT_TOL
        return replace(cs, residuals=res, near_duplicate_clusters=2)

    monkeypatch.setattr(experiments, "critical_points", planted)
    got = run(cfg)
    assert counts(got) == {k: {"solves": solves, "near_duplicate_clusters": 2 * solves,
                               "points_above_tol": 3 * solves} for k in clean}
    assert got.to_json()["solver"] == got.solver
    assert [row[:2] for row in got.rows] == [row[:2] for row in rep.rows]


def test_jensen_trivial_roots_transform():
    # roots {1,-1} with u(z) = z - 0.5: zero left side, nonnegative right side
    roots = np.array([1.0, -1.0], dtype=complex)
    u = affine(1.0, -0.5)
    cs = critical_points(roots)
    from critpoint.logderiv import log_minus
    lhs = (float(np.sum(log_minus(np.abs(mb.apply(u, cs.points)))))
           - float(np.sum(log_minus(np.abs(mb.apply(u, roots))))))
    assert lhs == pytest.approx(0.0, abs=1e-12)
    s_a = eval_S(roots, 0.5)
    assert abs(s_a) == pytest.approx(4 / 3)
    sup = circle_sup_norm(roots, Circle(0.5, 1.0), 4096)
    rhs = math.log(sup) - math.log(abs(s_a))
    assert lhs <= rhs


def test_jensen_run_and_normalized_echo():
    cfg = JensenConfig(measure=BaseMeasure.uniform_disk(), n_schedule=(8,),
                       trials=50, seed=SeedSpec(21, 0), m_circle=512)
    rep = run_jensen(cfg)
    assert rep.stat(8, "trials_valid") >= 45
    assert rep.stat(8, "pass_rate") >= 0.98
    assert rep.stat(8, "normalized_pass_rate") == rep.stat(8, "pass_rate")
    assert rep.stat(8, "min_gap") > -cfg.jensen_slack


def test_normalized_pass_rate_is_pass_rate():
    # the normalized comparison is the Jensen inequality divided by n; a
    # negative slack makes some trials fail so the rates are not all 1
    cfg = JensenConfig(measure=BaseMeasure.complex_gaussian(), n_schedule=(3, 10, 30),
                       trials=40, seed=SeedSpec(4, 0), m_circle=256, jensen_slack=-0.5)
    rep = run_jensen(cfg)
    rates = rep.stats("pass_rate")
    assert rep.stats("normalized_pass_rate") == rates
    assert any(0 < r < 1 for r in rates.values())


def test_anticoncentration_degenerate_control():
    m = BaseMeasure.finite_support([1.0, -1.0], [0.5, 0.5])
    cfg = AnticoncentrationConfig(measure=m, n_schedule=(10, 20), trials=10,
                                  probes=(2 + 0j, 3j, -2 - 2j))
    with pytest.raises(NonDegeneracyError):
        run_anticoncentration(cfg)


def test_anticoncentration_probe_on_atom_rejected():
    m = BaseMeasure.finite_support([2.0, -1.0, 1j, -1j], [0.25] * 4)
    cfg = AnticoncentrationConfig(measure=m, n_schedule=(10,), trials=10,
                                  probes=(2 + 0j, 3j, -2 - 2j))
    with pytest.raises(ParameterError):
        run_anticoncentration(cfg)


def test_anticoncentration_finite_support_nondegenerate_runs():
    # four atoms vs three probes: rank can reach 4 = d + 1
    m = BaseMeasure.finite_support([1.0, -1.0, 1j, -1j], [0.25] * 4)
    cfg = AnticoncentrationConfig(measure=m, n_schedule=(10, 40), trials=200,
                                  seed=SeedSpec(10, 1), probes=(2 + 0j, 3j, -2 - 2j))
    rep = run_anticoncentration(cfg)
    assert set(rep.stats("phat")) == {10, 40}


def test_anticoncentration_small_run_decays():
    cfg = AnticoncentrationConfig(measure=CIRCLE, n_schedule=(50, 200, 800),
                                  trials=2000, seed=SeedSpec(5, 3))
    rep = run_anticoncentration(cfg)
    ph = rep.stats("phat")
    se = rep.stats("stderr")
    assert ph[200] <= ph[50] + 3 * (se[50] + se[200])
    assert ph[800] <= ph[200] + 3 * (se[200] + se[800])
    slope = rep.stat(0, "slope")
    assert -2.2 < slope < -0.8


def test_anticoncentration_inconclusive_verdict():
    cfg = AnticoncentrationConfig(measure=CIRCLE, n_schedule=(50, 100), trials=5,
                                  r_ball=1e-9, seed=SeedSpec(5, 4))
    rep = run_anticoncentration(cfg)
    assert not rep.passed
    assert any("inconclusive" in str(v.observed) for v in rep.verdicts)


@pytest.mark.parametrize("measure", [
    CIRCLE, BaseMeasure.finite_support([1, -1, 1j, -1j, 0.5 + 0.5j], [0.2] * 5)],
    ids=lambda m: m.kind)
def test_anticoncentration_independent_of_batching_and_workers(measure, monkeypatch):
    # 23 trials: batches of 3 or 2 trials leave a partial last batch, and
    # the blocks of 48 or 40 elements split each batch's rows over workers
    default = logderiv.BLOCK_ELEMS
    for seed in (SeedSpec(3, 0), SeedSpec(8, 2), SeedSpec(4, 0)):
        cfg = AnticoncentrationConfig(measure=measure, n_schedule=(4, 9, 16), trials=23,
                                      seed=seed)
        want = anticoncentration_hits(cfg)
        assert 0 < sum(want.values())
        csvs = set()
        for workers, block_elems in ((1, default), (2, 48), (3, 40), (1, 40)):
            monkeypatch.setattr(logderiv, "_workers", lambda: workers)
            monkeypatch.setattr(logderiv, "BLOCK_ELEMS", block_elems)
            rep = run_anticoncentration(cfg)
            assert rep.stats("hits") == want
            csvs.add(rep.series_csv())
        assert len(csvs) == 1


def test_anticoncentration_starts_one_thread_per_other_worker(monkeypatch):
    """The trials are one split pass: a run on 3 workers starts 2 threads,
    whatever the sampler's and the probe sums' passes within it split, and
    its 23 one-trial blocks, switched between often, write every hit."""
    started, start = [], threading.Thread.start

    def counting(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    monkeypatch.setattr(logderiv, "_workers", lambda: 3)
    monkeypatch.setattr(logderiv, "BLOCK_ELEMS", 40)
    cfg = AnticoncentrationConfig(measure=CIRCLE, n_schedule=(4, 9, 16), trials=23,
                                  seed=SeedSpec(3, 0))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for run in (1, 2):
            rep = run_anticoncentration(cfg)
            assert len(started) == 2 * run
    finally:
        sys.setswitchinterval(interval)
    assert rep.stats("hits") == anticoncentration_hits(cfg)


@pytest.mark.parametrize("workers, block_elems", [(1, None), (2, 300), (3, 64)])
def test_probe_sums_match_one_path_at_a_time(workers, block_elems, monkeypatch):
    # bit for bit, at any split of the rows; a root on a probe gives NaN
    monkeypatch.setattr(logderiv, "_workers", lambda: workers)
    if block_elems is not None:
        monkeypatch.setattr(logderiv, "BLOCK_ELEMS", block_elems)
    seed, ns = SeedSpec(5, 1), (3, 10, 40)
    paths = np.array(sample(BaseMeasure.complex_gaussian(), seed, ns[-1],
                            seed.substreams(5, np.arange(9))).samples)
    probes = np.array([0.5, 2j, -1 - 1j, paths[4, 7]])
    acc = experiments._probe_sums(paths, ns, probes, 0.3, -1.7)
    assert acc.shape == (len(ns), len(paths), len(probes))
    for r, path in enumerate(paths):
        want = projected_probe_sums(path, ns, probes, 0.3, -1.7)
        assert np.array_equal(acc[:, r], want, equal_nan=True), r
    assert np.isfinite(acc[0, 4, 3]) and np.isnan(acc[1:, 4, 3]).all()


def test_jensen_draws_every_trials_roots_by_batch(monkeypatch):
    # each trial's roots are bit for bit its own stream's, at any batch size
    cfg = JensenConfig(measure=BaseMeasure.complex_gaussian(), n_schedule=(5, 12), trials=7,
                       seed=SeedSpec(2, 0), m_circle=128)
    solved = []
    solve = experiments.critical_points
    monkeypatch.setattr(experiments, "critical_points",
                        lambda roots, **kw: solved.append(roots) or solve(roots, **kw))
    csvs = set()
    for points in (experiments.TRANSFORM_BLOCK, 24):  # 24: batches of 4 and 2 trials
        monkeypatch.setattr(experiments, "TRANSFORM_BLOCK", points)
        solved.clear()
        csvs.add(run_jensen(cfg).series_csv())
        want = [sample(cfg.measure, cfg.seed.substream(experiments._P_JENSEN_ROOTS, t),
                       n).samples for n in cfg.n_schedule for t in range(cfg.trials)]
        assert len(solved) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(solved, want))
    assert len(csvs) == 1


def test_growth_single_atom_ratio():
    # all roots at 0, circle C(0,2): |S_n| = n/2 everywhere on the contour
    m = BaseMeasure.finite_support([0.0], [1.0])
    cfg = GrowthConfig(measure=m, n_schedule=(4, 16, 64), seed=SeedSpec(2, 2),
                       circle_center=0j, circle_radius=2.0, m_circle=64)
    rep = run_growth(cfg)
    for n in (4, 16, 64):
        assert rep.stat(n, "sup_norm") == pytest.approx(n / 2, rel=1e-12)
        expected = math.log(n / 2) / math.log(n) if n > 2 else 0.0
        assert rep.stat(n, "ratio") == pytest.approx(expected, abs=1e-12)
    assert rep.passed


def _strict_json(path):
    """The JSON document at path; NaN and the infinities are refused."""
    def reject(name):
        raise ValueError(f"{path} holds {name}")

    return json.loads(path.read_text(), parse_constant=reject)


#: every root on C(0, 1): no n evaluates the circle
ROOTS_ON_CIRCLE = GrowthConfig(measure=BaseMeasure.finite_support([1, -1], [0.5, 0.5]),
                               n_schedule=(4, 8), circle_center=0j, circle_radius=1.0)
#: one atom: every distance is 0, at the first n as at the last
SINGLE_ATOM = ConvergenceConfig(measure=BaseMeasure.finite_support([0.0], [1.0]),
                                n_schedule=(4, 8), k_reference=50)


@pytest.mark.parametrize("config", [
    ConvergenceConfig(measure=CIRCLE, n_schedule=(8, 16), k_reference=500),
    SINGLE_ATOM,
    JensenConfig(measure=CIRCLE, n_schedule=(8,), trials=3, m_circle=128),
    AnticoncentrationConfig(measure=CIRCLE, n_schedule=(10, 20), trials=50),
    GrowthConfig(measure=CIRCLE, n_schedule=(8, 16), m_circle=64),
    ROOTS_ON_CIRCLE,
    LLNConfig(measure=CIRCLE, n_schedule=(10,), k_reference=1000),
], ids=["convergence", "convergence-single-atom", "jensen", "anticoncentration", "growth",
        "growth-roots-on-circle", "lln"])
def test_every_experiment_writes_strict_json(config, tmp_path):
    rep = run_experiment(config)
    rep.write(str(tmp_path))
    doc = _strict_json(tmp_path / "report.json")
    assert doc["config"] == config.to_json()
    assert doc["passed"] == rep.passed


def test_jensen_skips_a_transform_whose_contour_meets_a_root(monkeypatch, tmp_path):
    """A PoleOnContourError from the sup norm makes the transform invalid:
    with every contour refused, every trial is skipped, no gap is reported
    and the pass-rate verdict fails, in strict JSON."""
    def on_contour(*args):
        raise PoleOnContourError("a root lies on the contour")

    monkeypatch.setattr(experiments, "circle_sup_norm", on_contour)
    config = JensenConfig(measure=CIRCLE, n_schedule=(8,), trials=3, m_circle=128)
    rep = run_jensen(config)
    assert rep.stat(8, "trials_skipped") == config.trials
    assert rep.stat(8, "trials_valid") == 0
    assert {row[1] for row in rep.rows}.isdisjoint({"min_gap", "mean_gap"})
    assert [(v.name, v.passed) for v in rep.verdicts] == [("jensen_pass_rate_n8", False)]
    rep.write(str(tmp_path))
    assert _strict_json(tmp_path / "report.json")["passed"] is False


def test_convergence_zero_final_distance_observed_as_a_string():
    # d0 / d1 with d1 = 0 would be inf, which strict JSON cannot hold
    rep = run_convergence(SINGLE_ATOM)
    assert [(v.name, v.passed, v.observed) for v in rep.verdicts[1:3]] == [
        (f"{stat}_improves", True, "zero final distance")
        for stat in ("sliced_w1_nu_mu", "sliced_w1_nu_ref")]


def test_growth_with_every_root_on_the_circle_is_inconclusive(tmp_path):
    # no n evaluates a circle, so there is no ratio to report
    rep = run_growth(ROOTS_ON_CIRCLE)
    rep.write(str(tmp_path))
    doc = _strict_json(tmp_path / "report.json")
    assert [(v["name"], v["passed"], v["observed"]) for v in doc["verdicts"]] == [
        ("growth_ratio", False, "inconclusive")]
    assert rep.stats("pole_on_contour") == {4: 1.0, 8: 1.0}


def test_growth_records_time_and_series_split_per_n():
    """report.json has, per n of a growth run and outside its rows, the
    wall-clock time and how the 2m grid was summed (`circle_abs_S`): the
    roots summed directly and by each side's series, counted over the
    prefix, and each side's series length; an n whose circle meets a root
    has only its time."""
    cfg = GrowthConfig(measure=BaseMeasure.complex_cauchy(), n_schedule=(16, 2048),
                       seed=SeedSpec(3, 0), m_circle=256)
    rep = run_growth(cfg)
    assert set(rep.wall_clock) == {"n=16", "n=2048", "total"}
    assert set(rep.series) == {"n=16", "n=2048"}
    for n in cfg.n_schedule:
        split = rep.series[f"n={n}"]
        assert set(split) == {"direct_roots", "series_roots_inside", "series_roots_outside",
                              "series_length_inside", "series_length_outside"}
        assert split["direct_roots"] + split["series_roots_inside"] + split[
            "series_roots_outside"] == n
    assert rep.series["n=16"]["direct_roots"] == 16  # too few roots to pay for a series
    assert rep.series["n=2048"]["series_length_inside"] > 0
    assert rep.series["n=2048"]["series_length_outside"] > 0
    assert rep.to_json()["series"] == rep.series
    assert {f"n={n}" for n in (4, 8)} <= set(run_growth(ROOTS_ON_CIRCLE).wall_clock)
    assert run_growth(ROOTS_ON_CIRCLE).series == {}


def test_growth_sums_each_root_once(monkeypatch):
    """Each n adds only the roots new since the previous n: the blocks are
    consecutive slices of the trajectory, of n_1, n_2 - n_1 and n_3 - n_2
    roots, each weighed at its prefix length, and the series counts of
    each n add up to n."""
    field, blocks = experiments._circle_field, []

    def recording(roots, c, x, n, S):
        blocks.append((roots.copy(), n))
        return field(roots, c, x, n, S)

    monkeypatch.setattr(experiments, "_circle_field", recording)
    cfg = GrowthConfig(measure=BaseMeasure.complex_cauchy(), n_schedule=(16, 300, 2048),
                       seed=SeedSpec(3, 0), m_circle=256)
    rep = run_growth(cfg)
    assert [(len(roots), n) for roots, n in blocks] == [(16, 16), (284, 300), (1748, 2048)]
    traj = sample(cfg.measure, cfg.seed.substream(experiments._P_TRAJECTORY), 2048).samples
    assert np.array_equal(np.concatenate([roots for roots, _ in blocks]), traj)
    for n in cfg.n_schedule:
        split = rep.series[f"n={n}"]
        assert split["direct_roots"] + split["series_roots_inside"] + split[
            "series_roots_outside"] == n


def test_growth_pole_carries_forward_along_the_path():
    """A root on the circle that enters at the second n: the first n keeps
    its rows, and every later n reports only pole_on_contour and has no
    series record, though the third n's own block holds no root on the
    circle."""
    measure, seed, ns = BaseMeasure.complex_gaussian(), SeedSpec(5, 0), (16, 32, 64)
    traj = sample(measure, seed.substream(experiments._P_TRAJECTORY), ns[-1]).samples
    cfg = GrowthConfig(measure=measure, n_schedule=ns, seed=seed, m_circle=64,
                       circle_center=0j, circle_radius=float(abs(traj[20])))
    rep = run_growth(cfg)
    assert set(rep.series) == {"n=16"}
    assert {stat for n, stat, _ in rep.rows if n == 16} == {
        "sup_norm", "ratio", "ratio_refined", "refine_delta"}
    assert [(n, stat) for n, stat, _ in rep.rows if n > 16] == [
        (32, "pole_on_contour"), (64, "pole_on_contour")]
    assert {f"n={n}" for n in ns} <= set(rep.wall_clock)


def test_growth_refinement_stability():
    cfg = GrowthConfig(measure=CIRCLE, n_schedule=(64, 256, 1024),
                       seed=SeedSpec(4, 4), circle_center=0.1 + 0.2j,
                       circle_radius=1.7, m_circle=2048)
    rep = run_growth(cfg)
    for n in (64, 256, 1024):
        assert rep.stat(n, "refine_delta") < 0.01
        assert rep.stat(n, "ratio") <= 6.0


def test_growth_draws_generic_circle_when_unset():
    cfg = GrowthConfig(measure=CIRCLE, n_schedule=(8, 16), seed=SeedSpec(6, 6),
                       m_circle=256)
    rep = run_growth(cfg)
    assert len(rep.stats("ratio")) == 2


def test_lln_single_atom_exact():
    m = BaseMeasure.finite_support([0.5], [1.0])
    cfg = LLNConfig(measure=m, n_schedule=(10, 100), seed=SeedSpec(8, 8),
                    u_transform=affine(1), k_reference=1000)
    rep = run_lln_logminus(cfg)
    for n in (10, 100):
        assert rep.stat(n, "log_minus_mu_n") == pytest.approx(math.log(2), rel=1e-12)
    assert rep.stat(0, "reference_value") == pytest.approx(math.log(2), rel=1e-12)
    assert rep.passed


def test_lln_support_outside_disk_is_zero():
    m = BaseMeasure.uniform_circle(5.0 + 0j, 1.0)
    cfg = LLNConfig(measure=m, n_schedule=(50, 500), seed=SeedSpec(12, 0),
                    u_transform=affine(1), k_reference=1000)
    rep = run_lln_logminus(cfg)
    assert rep.stat(500, "log_minus_mu_n") == 0.0
    assert rep.stat(0, "reference_value") == 0.0
    assert rep.passed


def test_lln_uniform_disk_half():
    cfg = LLNConfig(measure=BaseMeasure.uniform_disk(), n_schedule=(20_000,),
                    seed=SeedSpec(13, 0), u_transform=affine(1),
                    k_reference=200_000)
    rep = run_lln_logminus(cfg)
    assert rep.stat(20_000, "log_minus_mu_n") == pytest.approx(0.5, abs=0.02)
    assert rep.passed


def test_reports_deterministic():
    cfg = ConvergenceConfig(measure=CIRCLE, n_schedule=(8, 16), seed=SeedSpec(31, 7),
                            k_reference=500, improvement_factor=None, quadrant_max=None)
    a = run_convergence(cfg)
    b = run_convergence(cfg)
    assert a.series_csv() == b.series_csv()
    ja, jb = a.to_json(), b.to_json()
    ja.pop("wall_clock"), jb.pop("wall_clock")
    assert ja == jb


@pytest.mark.parametrize("make, run", [
    (lambda **kw: ConvergenceConfig(k_reference=500, improvement_factor=None,
                                    quadrant_max=None, **kw), run_convergence),
    (lambda **kw: JensenConfig(trials=5, m_circle=128, **kw), run_jensen)],
    ids=["convergence", "jensen"])
def test_solver_work_section_sums_the_solves(make, run, monkeypatch):
    """report.json's solver section sums, per n, the sweeps, the active
    points sweep by sweep and the direct and far pairs of every solve."""
    solves = []
    solve = experiments.critical_points

    def recording(roots):
        solves.append((len(roots), solve(roots)))
        return solves[-1][1]

    monkeypatch.setattr(experiments, "critical_points", recording)
    cfg = make(measure=CIRCLE, n_schedule=(8, 16), seed=SeedSpec(9, 0))
    rep = run(cfg)
    assert set(rep.solver) == {"n=8", "n=16"}
    for n in cfg.n_schedule:
        sets = [cs for m, cs in solves if m == n]
        work = rep.solver[f"n={n}"]
        assert set(work) == _SOLVER_KEYS
        assert work["sweeps"] == sum(cs.sweeps for cs in sets) > 0
        assert work["direct_pairs"] == sum(cs.direct_pairs for cs in sets) > 0
        assert work["far_pairs"] == 0
        assert work["active"] == [sum(cs.active[s] for cs in sets if s < cs.sweeps)
                                  for s in range(max(cs.sweeps for cs in sets))]
    assert rep.to_json()["solver"] == rep.solver


def test_growth_grids_keep_the_direct_route(monkeypatch):
    """The growth workload's circle grids (ComplexCauchy roots up to
    n = 16384) and Jensen's small solves never take the far route."""
    def no_far(*args):
        raise AssertionError("the far route was taken")

    monkeypatch.setattr(farfield, "far_sums", no_far)
    cauchy = BaseMeasure.complex_cauchy()
    rep = run_growth(GrowthConfig(measure=cauchy, n_schedule=(1024, 4096, 16384),
                                  seed=SeedSpec(3, 0)))
    assert set(rep.stats("sup_norm")) == {1024, 4096, 16384}
    run_jensen(JensenConfig(measure=BaseMeasure.complex_gaussian(), n_schedule=(200,),
                            trials=2, seed=SeedSpec(2, 0)))
