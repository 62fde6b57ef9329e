"""Command-line front end: JSON config in, JSON/CSV reports out.

Exit codes: 0 all verdicts pass, 1 a verdict failed (or the solver could
not certify), 2 malformed configuration or I/O trouble.

A run config holds "experiment", "measure", "n_schedule", an optional "seed"
and "out_dir", and the experiment's settings below: "trials" at the top level,
the rest under "tolerances".  A key the experiment does not read is an error.
"n_schedule" increases, and starts at 2 or above for convergence, jensen and
growth.

    convergence        tol_solver, directions, R_infty, k_reference,
                       improvement_factor, quadrant_max
    jensen             trials, tol_solver, m_circle, jensen_pass_rate, jensen_slack
    anticoncentration  trials, probes, projection, r_ball, slope_min, slope_max, min_hits
    growth             m_circle, growth_ratio_max, circle_center + circle_radius (or neither)
    lln                k_reference, u_transform

report.json's "config" is the config as run, defaults filled in; it reads back as one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .critical import DUPLICATE_RTOL, critical_points
from .errors import ConvergenceError, CritpointError, ParameterError
from .experiments import EXPERIMENTS, run_experiment
from .sampler import SeedSpec, as_complex


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ParameterError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path} line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def parse_config(doc: dict, seed_override=None):
    """Validate a CLI config document into (experiment name, config, out_dir).

    Raises ParameterError, which the CLI maps to exit code 2.
    """
    if not isinstance(doc, dict):
        raise ParameterError("config must be a JSON object")
    doc = dict(doc)
    experiment = doc.pop("experiment", None)
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ParameterError(f"experiment must be one of {sorted(EXPERIMENTS)}, got {experiment!r}")
    out_dir = doc.pop("out_dir", ".")
    if not isinstance(out_dir, str) or not out_dir:
        raise ParameterError(f"out_dir must be a nonempty string, got {out_dir!r}")
    config = EXPERIMENTS[experiment][0].from_json(doc)
    if seed_override is not None:
        config = replace(config, seed=SeedSpec(seed_override, config.seed.stream_id))
    return experiment, config, out_dir


def _cmd_run(args) -> int:
    doc = _load_json(args.config)
    experiment, config, out_dir = parse_config(doc, args.seed)
    out_dir = args.out or out_dir
    try:
        report = run_experiment(experiment, config)
    except CritpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConvergenceError) else 2
    report.write(out_dir)
    if not args.quiet:
        for v in report.verdicts:
            mark = "PASS" if v.passed else "FAIL"
            print(f"{mark} {v.name}: observed {v.observed} vs threshold {v.threshold}"
                  + (f"  ({v.detail})" if v.detail else ""))
        print(f"report written to {os.path.join(out_dir, 'report.json')}")
    return 0 if report.passed else 1


def _cmd_critical(args) -> int:
    doc = _load_json(args.roots)
    if not isinstance(doc, list) or not doc:
        raise ParameterError(f"{args.roots}: expected a nonempty JSON array of [re, im] pairs")
    roots = np.array([as_complex(v, "root") for v in doc], dtype=complex)
    try:
        cs = critical_points(roots, tol=args.tol)
    except CritpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConvergenceError) else 2
    print(json.dumps([[w.real, w.imag] for w in cs.points]))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "critical.json"), "w") as f:
            json.dump(cs.to_json(), f, indent=2)
            f.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="critpoint",
        description="Critical points of random polynomials: experiments and one-shot solves.")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run an experiment from a JSON config")
    runp.add_argument("--config", required=True, help="path to the experiment config")
    runp.add_argument("--seed", type=int, default=None, help="override the master seed")
    runp.add_argument("--out", default=None, help="output directory (overrides config out_dir)")
    runp.add_argument("--quiet", action="store_true", help="suppress the verdict summary")

    critp = sub.add_parser("critical", help="critical points of an explicit root list")
    critp.add_argument("--roots", required=True, help="JSON array of [re, im] root pairs")
    critp.add_argument("--tol", type=float, default=1e-10,
                       help="solver tolerance, relative to the roots' spread about their "
                            "centroid: it bounds each dimensionless certificate "
                            "|S(w)| min_k |w - z_k|; roots within "
                            f"{DUPLICATE_RTOL:g} times that spread are one multiple root")
    critp.add_argument("--out", default=None, help="also write critical.json here")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_critical(args)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
