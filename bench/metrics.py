"""Name, unit and direction of every metric the benchmark reports.

Kept apart from layers.py so that bench/run.py can name the metrics
without importing critpoint.
"""

#: end-to-end metric -> (unit, better), from the untraced run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("fraction", "higher"),
}

#: per-layer metric -> (unit, better); the traced run reports every one
PER_LAYER = {
    "sampler.calls": ("count", "lower"),
    "sampler.draws": ("count", "lower"),
    "sampler.busy_s": ("s", "lower"),
    "sampler.draws_per_s": ("1/s", "higher"),
    "critical.calls": ("count", "lower"),
    "critical.busy_s": ("s", "lower"),
    "critical.call_p50_ms": ("ms", "lower"),
    "critical.call_p95_ms": ("ms", "lower"),
    "critical.failed": ("count", "lower"),
    "critical.sweeps": ("count", "lower"),
    "critical.field_pairs": ("count", "lower"),
    "critical.field_busy_s": ("s", "lower"),
    "critical.field_pairs_per_s": ("1/s", "higher"),
    "critical.field_bytes_computed": ("B", "lower"),
    "critical.init_busy_s": ("s", "lower"),
    "critical.cluster_busy_s": ("s", "lower"),
    "critical.self_s": ("s", "lower"),
    "logderiv.sup_norm_calls": ("count", "lower"),
    "logderiv.sup_norm_busy_s": ("s", "lower"),
    "logderiv.abs_S_pairs": ("count", "lower"),
    "logderiv.abs_S_pairs_per_s": ("1/s", "higher"),
    "logderiv.eval_S_calls": ("count", "lower"),
    "measures.sliced_w1_busy_s": ("s", "lower"),
    "measures.sliced_w1_sorted_atoms": ("count", "lower"),
    "measures.quadrant_busy_s": ("s", "lower"),
    "measures.quadrant_pairs": ("count", "lower"),
    "measures.reference_busy_s": ("s", "lower"),
    "measures.log_minus_integral_busy_s": ("s", "lower"),
    "mobius.sample_calls": ("count", "lower"),
    "mobius.busy_s": ("s", "lower"),
    "mobius.valid_frac": ("fraction", "higher"),
    "experiments.self_s": ("s", "lower"),
    "report.write_busy_s": ("s", "lower"),
    "cli.parse_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}

#: layer-scaling table (ROADMAP item 1 sizes), measured once per traced run
SCALE_CRITICAL_N = (500, 1000, 2000, 4000)
SCALE_FIELD_N = (1000, 4000)
SCALE_N = 4000
SCALE_M = 4096
SCALE_DRAWS = {"d1e5": 100_000, "d1e6": 1_000_000}

for _n in SCALE_CRITICAL_N:
    PER_LAYER[f"scale.critical_points.n{_n}.s"] = ("s", "lower")
    PER_LAYER[f"scale.critical_points.n{_n}.sweeps"] = ("count", "lower")
    PER_LAYER[f"scale.critical_points.n{_n}.field_pairs"] = ("count", "lower")
for _n in SCALE_FIELD_N:
    PER_LAYER[f"scale.field_sums.n{_n}.s"] = ("s", "lower")
PER_LAYER[f"scale.sup_norm.m{SCALE_M}.n{SCALE_N}.s"] = ("s", "lower")
PER_LAYER[f"scale.sliced_w1.N{SCALE_N}.s"] = ("s", "lower")
PER_LAYER[f"scale.quadrant.N{SCALE_N}.s"] = ("s", "lower")
for _label in SCALE_DRAWS:
    PER_LAYER[f"scale.sample.{_label}.s"] = ("s", "lower")
