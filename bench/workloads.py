"""The benchmark's workloads and the checks each repeat's report must pass.

Every workload is a `critpoint run` config whose master seed is the
benchmark's --seed.  At a workload's default seed the report is also
compared with the reference stored in bench/reference/<name>.json; at any
seed it must satisfy the experiment's invariants below.
"""

from __future__ import annotations

import copy
import json
import math
import os

_DISK = {"kind": "UniformDisk", "params": {"center": [0, 0], "radius": 1}}
_GAUSS = {"kind": "ComplexGaussian", "params": {"mean": [0, 0], "scale": 1}}
_CAUCHY = {"kind": "ComplexCauchy", "params": {"location": [0, 0], "scale": 1}}
_CIRCLE = {"kind": "UniformCircle", "params": {"center": [0, 0], "radius": 1}}

#: name -> (default seed, config without its seed).  Why each one exists is
#: stated in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "conv-disk-4k": (1, {"experiment": "convergence", "measure": _DISK,
                         "n_schedule": [250, 1000, 4000]}),
    "jensen-gauss-mc": (2, {"experiment": "jensen", "measure": _GAUSS,
                            "n_schedule": [50, 200], "trials": 200}),
    "growth-cauchy-16k": (3, {"experiment": "growth", "measure": _CAUCHY,
                              "n_schedule": [1024, 4096, 16384]}),
    "anticonc-circle-mc": (4, {"experiment": "anticoncentration", "measure": _CIRCLE,
                               "n_schedule": [50, 200, 800], "trials": 8000}),
}

#: the solver tolerance every workload runs with (critpoint's default)
TOL_SOLVER = 1e-10

_REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

#: stats that must match the reference exactly
EXACT = {"trials_valid", "trials_skipped", "hits", "fit_rows", "solver_failed",
         "escaped_mass_mu", "phat"}


def config(name: str, seed: int) -> dict:
    doc = copy.deepcopy(WORKLOADS[name][1])
    doc["seed"] = int(seed)
    return doc


def default_seed(name: str) -> int:
    return WORKLOADS[name][0]


def tolerance(stat: str, n: int, trials: int) -> tuple[float, float]:
    """(rtol, atol) for comparing one reference row: |got - ref| <= atol + rtol |ref|.

    A certified critical point w moves by at most TOL_SOLVER (1 + |w|)
    between two certified solves (the last Newton correction is below that),
    and every workload that solves has |w| <= 1 (UniformDisk, Gauss-Lucas)
    or n <= 200 with |w| of order one, so delta = 2 TOL_SOLVER per point.
    """
    delta = 2.0 * TOL_SOLVER
    if stat in EXACT:
        return 0.0, 0.0
    if stat in ("sliced_w1_nu_mu", "sliced_w1_nu_ref"):
        # W1 of each projection is 1-Lipschitz in the atoms; 1e-12 covers
        # the summation order of the 64-direction average
        return 1e-12, delta
    if stat in ("quadrant_nu_mu", "escaped_mass_nu"):
        # a point moved by delta changes these only by crossing a boundary,
        # which moves the value by one atom's mass 1/(n-1)
        return 0.0, 1.0 / (n - 1)
    if stat == "max_residual":
        # a certified residual is below max(TOL_SOLVER, rounding floor), and
        # the stored ones are far below TOL_SOLVER
        return 0.0, TOL_SOLVER
    if stat in ("pass_rate", "normalized_pass_rate"):
        # one trial whose gap sits within the lhs shift of the slack may flip
        return 0.0, 1.0 / trials
    if stat in ("min_gap", "mean_gap"):
        # lhs moves by at most (n-1) delta max|u'/u| over the critical
        # points; 1e-6 allows max|u'/u| up to 25 at n = 200
        return 0.0, 1e-6
    if stat in ("sup_norm", "stderr"):
        # root-only values: a reordered Cauchy sum keeps 9 digits
        return 1e-9, 0.0
    if stat in ("ratio", "ratio_refined", "refine_delta", "slope"):
        # logs of root-only values of order one
        return 0.0, 2e-9
    raise KeyError(f"no tolerance stated for stat {stat!r}")


def read_outputs(out_dir: str):
    """(report.json as a dict, series.csv bytes); raises OSError or ValueError."""
    with open(os.path.join(out_dir, "report.json")) as f:
        report = json.load(f)
    with open(os.path.join(out_dir, "series.csv"), "rb") as f:
        csv = f.read()
    return report, csv


def _rows(report: dict) -> dict:
    return {(r["n"], r["stat"]): r["value"] for r in report["rows"]}


def invariant_problems(name: str, report: dict, exit_code: int) -> list[str]:
    """Checks that hold at every seed."""
    doc = WORKLOADS[name][1]
    problems = []
    if report.get("experiment") != doc["experiment"]:
        problems.append(f"experiment is {report.get('experiment')!r}")
    if exit_code != (0 if report.get("passed") else 1):
        problems.append(f"exit code {exit_code} disagrees with passed={report.get('passed')}")
    rows = _rows(report)
    for (n, stat), v in rows.items():
        if not math.isfinite(v):
            problems.append(f"n={n} {stat} is {v}")
    per_n = {
        "convergence": ("sliced_w1_nu_mu", "sliced_w1_nu_ref", "quadrant_nu_mu",
                        "escaped_mass_nu", "escaped_mass_mu", "max_residual"),
        "jensen": ("trials_valid", "trials_skipped", "pass_rate", "normalized_pass_rate"),
        "growth": ("sup_norm", "ratio", "ratio_refined", "refine_delta"),
        "anticoncentration": ("phat", "hits", "stderr"),
    }[doc["experiment"]]
    for n in doc["n_schedule"]:
        for stat in per_n:
            if (n, stat) not in rows:
                problems.append(f"n={n} has no {stat} row")
    if problems:
        return problems
    trials = doc.get("trials", 1)
    verdicts = {v["name"]: v["passed"] for v in report["verdicts"]}
    for n in doc["n_schedule"]:
        if doc["experiment"] == "jensen":
            if rows[(n, "trials_valid")] + rows[(n, "trials_skipped")] != trials:
                problems.append(f"n={n} valid + skipped != {trials} trials")
        if doc["experiment"] == "growth" and rows[(n, "ratio_refined")] < rows[(n, "ratio")]:
            # the 2m grid contains the m grid, so its sup cannot be smaller
            problems.append(f"n={n} refined sup below the coarse one")
        if doc["experiment"] == "anticoncentration":
            if rows[(n, "phat")] != rows[(n, "hits")] / trials:
                problems.append(f"n={n} phat != hits / trials")
    if doc["experiment"] == "convergence" and not verdicts.get("all_solves_converged"):
        problems.append("a solve did not converge")
    return problems


def reference_path(name: str) -> str:
    return os.path.join(_REFERENCE_DIR, f"{name}.json")


def reference_from_report(name: str, report: dict, exit_code: int) -> dict:
    return {"workload": name, "seed": default_seed(name), "exit_code": exit_code,
            "rows": [[r["n"], r["stat"], r["value"]] for r in report["rows"]],
            "verdicts": [[v["name"], v["passed"]] for v in report["verdicts"]]}


def load_reference(name: str) -> dict:
    with open(reference_path(name)) as f:
        return json.load(f)


def reference_problems(name: str, report: dict, exit_code: int, ref: dict) -> list[str]:
    """Differences from the stored reference beyond each stat's tolerance."""
    problems = []
    if exit_code != ref["exit_code"]:
        problems.append(f"exit code {exit_code}, reference {ref['exit_code']}")
    got_v = [[v["name"], v["passed"]] for v in report["verdicts"]]
    if got_v != ref["verdicts"]:
        problems.append(f"verdicts {got_v}, reference {ref['verdicts']}")
    rows = _rows(report)
    want = {(n, stat): v for n, stat, v in ref["rows"]}
    if set(rows) != set(want):
        problems.append(f"row keys differ: extra {sorted(set(rows) - set(want))}, "
                        f"missing {sorted(set(want) - set(rows))}")
        return problems
    trials = WORKLOADS[name][1].get("trials", 1)
    for (n, stat), v in want.items():
        rtol, atol = tolerance(stat, n, trials)
        if not abs(rows[(n, stat)] - v) <= atol + rtol * abs(v):
            problems.append(f"n={n} {stat} = {rows[(n, stat)]!r}, reference {v!r} "
                            f"(rtol {rtol}, atol {atol})")
    return problems


def check_repeat(name: str, out_dir: str, exit_code: int, ref: dict | None):
    """(problems, series.csv bytes or None) for one finished repeat; ref is
    the stored reference when the repeat ran at the workload's default seed."""
    if exit_code not in (0, 1):
        return [f"exit code {exit_code}"], None
    try:
        report, csv = read_outputs(out_dir)
    except (OSError, ValueError) as exc:
        return [f"no readable report: {exc}"], None
    problems = invariant_problems(name, report, exit_code)
    if ref is not None:
        problems += reference_problems(name, report, exit_code, ref)
    return problems, csv
