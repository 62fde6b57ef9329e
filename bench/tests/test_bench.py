"""Self-tests of the benchmark's checks, span arithmetic and wrappers.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import os

import numpy as np
import pytest

import critpoint.cli as cli
import critpoint.critical as critical
import layers
import workloads
from metrics import END_TO_END, PER_LAYER
from spans import Span, Tracer, self_time

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _report_from_reference(name):
    ref = workloads.load_reference(name)
    return {
        "experiment": workloads.WORKLOADS[name][1]["experiment"],
        "rows": [{"n": n, "stat": s, "value": v} for n, s, v in ref["rows"]],
        "verdicts": [{"name": v, "passed": p} for v, p in ref["verdicts"]],
        "passed": all(p for _, p in ref["verdicts"]),
    }, ref


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_check_accepts_the_reference_and_rejects_changes(name):
    report, ref = _report_from_reference(name)
    rc = ref["exit_code"]
    assert workloads.invariant_problems(name, report, rc) == []
    assert workloads.reference_problems(name, report, rc, ref) == []

    trials = workloads.WORKLOADS[name][1].get("trials", 1)
    for i, row in enumerate(report["rows"]):
        rtol, atol = workloads.tolerance(row["stat"], row["n"], trials)
        perturbed = copy.deepcopy(report)
        perturbed["rows"][i]["value"] += 2 * (atol + rtol * abs(row["value"])) + 1e-9
        assert workloads.reference_problems(name, perturbed, rc, ref), row

    flipped = copy.deepcopy(report)
    flipped["verdicts"][-1]["passed"] = not flipped["verdicts"][-1]["passed"]
    assert workloads.reference_problems(name, flipped, rc, ref)

    dropped = copy.deepcopy(report)
    dropped["rows"].pop()
    assert workloads.reference_problems(name, dropped, rc, ref)


def test_missing_report_is_a_failure(tmp_path):
    ref = workloads.load_reference("growth-cauchy-16k")
    problems, csv = workloads.check_repeat("growth-cauchy-16k", str(tmp_path), 0, ref)
    assert csv is None and problems and "no readable report" in problems[0]
    problems, _ = workloads.check_repeat("growth-cauchy-16k", str(tmp_path), 2, ref)
    assert problems == ["exit code 2"]


def test_self_time_subtracts_the_union_of_children():
    parent = Span(0, None, "p", 0.0, 10.0)
    spans = [parent,
             Span(1, 0, "a", 1.0, 3.0),
             Span(2, 0, "b", 2.0, 5.0),     # overlaps a: union [1, 5]
             Span(3, 2, "c", 2.5, 4.0),     # grandchild: already inside b
             Span(4, 0, "d", 8.0, 12.0)]    # clipped to [8, 10]
    assert self_time(parent, spans) == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_time(spans[2], spans) == pytest.approx(3.0 - 1.5)
    assert self_time(spans[4], spans) == pytest.approx(4.0)


def test_tracer_nests_spans():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end


_TINY = {
    "convergence": {"experiment": "convergence",
                    "measure": {"kind": "UniformDisk", "params": {"center": [0, 0], "radius": 1}},
                    "n_schedule": [20, 40], "seed": 5,
                    "tolerances": {"k_reference": 2000, "directions": 8}},
    "jensen": {"experiment": "jensen",
               "measure": {"kind": "ComplexGaussian", "params": {"mean": [0, 0], "scale": 1}},
               "n_schedule": [10, 20], "trials": 3, "seed": 6,
               "tolerances": {"m_circle": 256}},
}

_WRAP_POINTS = [
    (cli, "run_experiment"), (critical, "critical_points"), (critical, "_field_sums"),
    (critical, "_initial_iterates"), (critical, "_cluster_roots"),
    (layers.experiments, "critical_points"), (layers.experiments, "circle_sup_norm"),
    (layers.experiments, "eval_S"), (layers.experiments, "sliced_w1"),
    (layers.experiments, "quadrant_discrepancy"), (layers.experiments, "log_minus_integral"),
    (layers.experiments, "reference_quantization"), (layers.experiments, "sample"),
    (layers.measures, "sample"), (layers.mobius, "sample_mobius"),
    (layers.logderiv, "_abs_S_on_points"), (layers.report.Report, "write"),
]


def _run(tmp_path, kind, tracer=None):
    cfg = tmp_path / f"{kind}.json"
    cfg.write_text(json.dumps(_TINY[kind]))
    out = tmp_path / ("traced" if tracer else "plain") / kind
    argv = ["run", "--config", str(cfg), "--out", str(out), "--quiet"]
    if tracer is None:
        rc = cli.main(argv)
    else:
        with tracer.span("cli.main"):
            rc = cli.main(argv)
    assert rc in (0, 1)
    return (out / "series.csv").read_bytes()


@pytest.mark.parametrize("kind", sorted(_TINY))
def test_traced_run_restores_wrappers_and_keeps_series_csv(tmp_path, kind):
    originals = [getattr(owner, attr) for owner, attr in _WRAP_POINTS]
    plain = _run(tmp_path, kind)
    tracer, problems = Tracer(), []
    layers.install(tracer, problems)
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(_WRAP_POINTS, originals))
        traced = _run(tmp_path, kind, tracer)
    finally:
        tracer.restore()
    assert all(getattr(o, a) is f for (o, a), f in zip(_WRAP_POINTS, originals))
    assert traced == plain
    assert problems == []
    root = tracer.spans[0]
    report = json.loads((tmp_path / "traced" / kind / "report.json").read_text())
    m = layers.layer_metrics(tracer.spans, root, report)
    assert m["critical.calls"] > 0 and m["critical.sweeps"] > 0
    assert set(m) | {"trace.overhead_frac"} <= set(PER_LAYER)


def test_critical_set_check_rejects_broken_sets():
    roots = np.array([1.0, -1.0, 2j, 0.5 - 0.5j])
    cs = critical.critical_points(roots)
    assert layers.critical_set_problems(roots, cs, 1e-10) == []
    short = critical.CriticalSet(cs.points[:-1], cs.residuals[:-1], "test")
    assert layers.critical_set_problems(roots, short, 1e-10)
    moved = critical.CriticalSet(cs.points + 1e-6, cs.residuals, "test")
    assert layers.critical_set_problems(roots, moved, 1e-10)
    bad = cs.points.copy()
    bad[0] = np.nan
    assert layers.critical_set_problems(roots, critical.CriticalSet(bad, cs.residuals, "t"), 1e-10)


def test_benchmark_json_names_every_metric_and_workload():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
