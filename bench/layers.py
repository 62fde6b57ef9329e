"""Where the traced run wraps critpoint, and the per-layer metrics it reports.

Each wrap point is rebound on the module (or class) its caller looks it up
on, so critpoint itself is unchanged; `Tracer.restore` undoes all of it.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

import critpoint.cli as cli
import critpoint.critical as critical
import critpoint.experiments as experiments
import critpoint.logderiv as logderiv
import critpoint.measures as measures
import critpoint.mobius as mobius
import critpoint.report as report
from critpoint.logderiv import Circle
from critpoint.measures import from_points
from critpoint.sampler import BaseMeasure, SeedSpec, sample

from metrics import (SCALE_CRITICAL_N, SCALE_DRAWS, SCALE_FIELD_N, SCALE_M,
                     SCALE_N)
from spans import Span, self_time, within

#: bytes `_field_sums` reads and writes per (iterate, root) pair: its ten
#: elementwise passes over chunk-by-q complex128 temporaries (88 written,
#: 152 read).  Computed from the array sizes, so cache hits are ignored.
FIELD_BYTES_PER_PAIR = 240


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _pairs(args, kwargs):
    return {"pairs": len(args[0]) * len(args[1])}


def critical_set_problems(roots, cs, tol) -> list[str]:
    """n - 1 finite points whose sum is (n-1)/n sum(roots) (Vieta).

    Each certified point is within tol (1 + |w|) of a true zero and
    |w| <= max|z| (Gauss-Lucas), so the sum may miss by at most
    (n-1) tol (1 + max|z|).
    """
    z = np.asarray(getattr(roots, "roots", roots), dtype=complex)
    n = len(z)
    pts = np.asarray(cs.points)
    if len(pts) != n - 1:
        return [f"n={n}: {len(pts)} critical points"]
    if not np.all(np.isfinite(pts)):
        return [f"n={n}: non-finite critical points"]
    miss = abs(pts.sum() - (n - 1) / n * z.sum())
    bound = (n - 1) * tol * (1.0 + float(np.abs(z).max()))
    if not miss <= bound:
        return [f"n={n}: Vieta sum misses by {miss:.3e} > {bound:.3e}"]
    return []


def install(tracer, problems: list) -> None:
    """Wrap every layer entry point; CriticalSet violations go to problems."""

    def check(span, args, kwargs, cs):
        problems.extend(critical_set_problems(
            args[0], cs, _arg(args, kwargs, 1, "tol", critical.DEFAULT_TOL)))

    def draws(args, kwargs):
        return {"draws": int(_arg(args, kwargs, 2, "count"))}

    def sorted_atoms(args, kwargs):
        # wasserstein_distance sorts both projected atom sets per direction
        dirs = _arg(args, kwargs, 2, "directions", 64)
        return {"sorted_atoms": dirs * (len(args[0]) + len(args[1]))}

    def quadrant_pairs(args, kwargs):
        # every atom of the union is tested against every atom of the union
        return {"pairs": (len(args[0]) + len(args[1])) ** 2}

    w = tracer.wrap
    w(cli, "run_experiment", "experiments.run")
    w(experiments, "critical_points", "critical.critical_points", on_result=check)
    w(critical, "critical_points", "critical.critical_points", on_result=check)
    w(experiments, "circle_sup_norm", "logderiv.circle_sup_norm")
    w(experiments, "eval_S", "logderiv.eval_S")
    w(experiments, "sliced_w1", "measures.sliced_w1", on_call=sorted_atoms)
    w(experiments, "quadrant_discrepancy", "measures.quadrant_discrepancy",
      on_call=quadrant_pairs)
    w(experiments, "log_minus_integral", "measures.log_minus_integral")
    w(experiments, "reference_quantization", "measures.reference_quantization")
    w(experiments, "sample", "sampler.sample", on_call=draws)
    w(measures, "sample", "sampler.sample", on_call=draws)
    w(mobius, "sample_mobius", "mobius.sample_mobius")
    w(critical, "_field_sums", "critical._field_sums", on_call=_pairs)
    w(critical, "_initial_iterates", "critical._initial_iterates")
    w(critical, "_cluster_roots", "critical._cluster_roots")
    w(logderiv, "_abs_S_on_points", "logderiv._abs_S_on_points", on_call=_pairs)
    w(report.Report, "write", "report.write")


def _per_s(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], root: Span, report_json: dict) -> dict:
    """Per-layer metrics from the spans inside one traced `main` call."""
    inside = within(spans, root)
    by = defaultdict(list)
    for s in inside:
        by[s.name].append(s)

    def busy(name):
        return sum(s.duration for s in by[name])

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by[name])

    crit_ms = [1e3 * s.duration for s in by["critical.critical_points"]]
    valid = sum(r["value"] for r in report_json["rows"] if r["stat"] == "trials_valid")
    (run,) = by["experiments.run"]
    m = {
        "sampler.calls": len(by["sampler.sample"]),
        "sampler.draws": total("sampler.sample", "draws"),
        "sampler.busy_s": busy("sampler.sample"),
        "critical.calls": len(crit_ms),
        "critical.busy_s": busy("critical.critical_points"),
        "critical.call_p50_ms": float(np.percentile(crit_ms, 50)) if crit_ms else 0.0,
        "critical.call_p95_ms": float(np.percentile(crit_ms, 95)) if crit_ms else 0.0,
        "critical.failed": total("critical.critical_points", "raised"),
        "critical.sweeps": len(by["critical._field_sums"]),
        "critical.field_pairs": total("critical._field_sums", "pairs"),
        "critical.field_busy_s": busy("critical._field_sums"),
        "critical.init_busy_s": busy("critical._initial_iterates"),
        "critical.cluster_busy_s": busy("critical._cluster_roots"),
        "critical.self_s": sum(self_time(s, inside) for s in by["critical.critical_points"]),
        "logderiv.sup_norm_calls": len(by["logderiv.circle_sup_norm"]),
        "logderiv.sup_norm_busy_s": busy("logderiv.circle_sup_norm"),
        "logderiv.abs_S_pairs": total("logderiv._abs_S_on_points", "pairs"),
        "logderiv.eval_S_calls": len(by["logderiv.eval_S"]),
        "measures.sliced_w1_busy_s": busy("measures.sliced_w1"),
        "measures.sliced_w1_sorted_atoms": total("measures.sliced_w1", "sorted_atoms"),
        "measures.quadrant_busy_s": busy("measures.quadrant_discrepancy"),
        "measures.quadrant_pairs": total("measures.quadrant_discrepancy", "pairs"),
        "measures.reference_busy_s": busy("measures.reference_quantization"),
        "measures.log_minus_integral_busy_s": busy("measures.log_minus_integral"),
        "mobius.sample_calls": len(by["mobius.sample_mobius"]),
        "mobius.busy_s": busy("mobius.sample_mobius"),
        "experiments.self_s": self_time(run, inside),
        "report.write_busy_s": busy("report.write"),
        "cli.parse_s": run.start - root.start,
    }
    m["sampler.draws_per_s"] = _per_s(m["sampler.draws"], m["sampler.busy_s"])
    m["critical.field_pairs_per_s"] = _per_s(m["critical.field_pairs"],
                                             m["critical.field_busy_s"])
    m["critical.field_bytes_computed"] = FIELD_BYTES_PER_PAIR * m["critical.field_pairs"]
    m["logderiv.abs_S_pairs_per_s"] = _per_s(m["logderiv.abs_S_pairs"],
                                             busy("logderiv._abs_S_on_points"))
    m["mobius.valid_frac"] = valid / m["mobius.sample_calls"] if m["mobius.sample_calls"] else 0.0
    return m


def _seconds(fn, *args) -> float:
    t = time.monotonic()
    fn(*args)
    return time.monotonic() - t


def scaling_table(tracer, seed: int) -> dict:
    """One timing per layer at fixed sizes on UniformDisk(0, 1) samples.

    Calls go through the installed wrappers, so sweeps and field pairs of
    each solve are counted from its `_field_sums` spans.
    """
    disk = BaseMeasure.uniform_disk()
    z = sample(disk, SeedSpec(seed, 1), SCALE_N).samples
    z2 = sample(disk, SeedSpec(seed, 2), SCALE_N).samples
    out = {}
    for n in SCALE_CRITICAL_N:
        with tracer.span(f"scale.critical_points.n{n}") as sp:
            critical.critical_points(z[:n])
        fields = [s for s in within(tracer.spans, sp) if s.name == "critical._field_sums"]
        out[f"scale.critical_points.n{n}.s"] = sp.duration
        out[f"scale.critical_points.n{n}.sweeps"] = len(fields)
        out[f"scale.critical_points.n{n}.field_pairs"] = sum(s.attrs["pairs"] for s in fields)
    ones = np.ones(SCALE_N)
    for n in SCALE_FIELD_N:
        w = critical._initial_iterates(z[:n], ones[:n], 512)
        out[f"scale.field_sums.n{n}.s"] = _seconds(critical._field_sums, w, z[:n],
                                                   ones[:n], 512)
    out[f"scale.sup_norm.m{SCALE_M}.n{SCALE_N}.s"] = _seconds(
        logderiv.circle_sup_norm, z, Circle(0.05 + 0.03j, 0.7), SCALE_M)
    mu, nu = from_points(z), from_points(z2)
    out[f"scale.sliced_w1.N{SCALE_N}.s"] = _seconds(measures.sliced_w1, mu, nu)
    out[f"scale.quadrant.N{SCALE_N}.s"] = _seconds(measures.quadrant_discrepancy, mu, nu)
    for label, draws in SCALE_DRAWS.items():
        out[f"scale.sample.{label}.s"] = _seconds(sample, disk, SeedSpec(seed, 3), draws)
    return out
