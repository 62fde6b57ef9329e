"""Command-line front end: JSON config in, JSON/CSV reports out.

Exit codes: 0 all verdicts pass, 1 a verdict failed (or the solver could
not certify), 2 malformed configuration or I/O trouble.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .critical import critical_points
from .errors import ConvergenceError, CritpointError, ParameterError
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment
from .mobius import MobiusTransform
from .sampler import BaseMeasure, SeedSpec, as_complex

_TOP_KEYS = {"measure", "experiment", "n_schedule", "trials", "seed", "tolerances", "out_dir"}

_TOLERANCE_KEYS = {
    "tol_solver", "m_circle", "directions", "r_ball", "R_infty", "k_reference",
    "improvement_factor", "quadrant_max", "jensen_pass_rate", "jensen_slack",
    "probes", "projection", "slope_min", "slope_max", "min_hits",
    "growth_ratio_max", "circle_center", "circle_radius", "u_transform",
}


class ConfigError(ValueError):
    pass


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def parse_config(doc: dict, seed_override=None):
    """Validate a CLI config document into (experiment name, ExperimentConfig, out_dir).

    Raises ConfigError, or ParameterError from the measure, seed and
    [re, im] parsers; the CLI maps both to exit code 2.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("measure", "experiment", "n_schedule"):
        if key not in doc:
            raise ConfigError(f"config requires {key!r}")
    experiment = doc["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {sorted(EXPERIMENTS)}, got {experiment!r}")
    measure = BaseMeasure.from_json(doc["measure"])
    seed = SeedSpec.from_json(doc.get("seed", 0))
    if seed_override is not None:
        seed = SeedSpec(int(seed_override), seed.stream_id)
    tol = doc.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("tolerances must be a JSON object")
    unknown = set(tol) - _TOLERANCE_KEYS
    if unknown:
        raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
    kwargs = {k: v for k, v in tol.items()
              if k not in ("probes", "projection", "circle_center", "u_transform")}
    if "probes" in tol:
        kwargs["probes"] = tuple(as_complex(p, "probe") for p in tol["probes"])
    if "projection" in tol:
        pj = tol["projection"]
        if not (isinstance(pj, (list, tuple)) and len(pj) == 2):
            raise ConfigError("projection must be [a, b]")
        kwargs["projection"] = (float(pj[0]), float(pj[1]))
    if tol.get("circle_center") is not None:
        kwargs["circle_center"] = as_complex(tol["circle_center"], "circle_center")
    if tol.get("u_transform") is not None:
        kwargs["u_transform"] = MobiusTransform.from_json(tol["u_transform"])
    try:
        config = ExperimentConfig(
            measure=measure,
            n_schedule=tuple(doc["n_schedule"]),
            trials=int(doc.get("trials", 1)),
            seed=seed,
            **kwargs,
        )
    except (CritpointError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return experiment, config, doc.get("out_dir", ".")


def _cmd_run(args) -> int:
    doc = _load_json(args.config)
    experiment, config, out_dir = parse_config(doc, args.seed)
    if args.out:
        out_dir = args.out
    try:
        report = run_experiment(experiment, config)
    except CritpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if not isinstance(exc, ConvergenceError) else 1
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
        raise ConfigError(f"{args.roots}: expected a nonempty JSON array of [re, im] pairs")
    roots = np.array([as_complex(v, "root") for v in doc], dtype=complex)
    try:
        cs = critical_points(roots, tol=args.tol)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CritpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    critp.add_argument("--tol", type=float, default=1e-10, help="solver certificate tolerance")
    critp.add_argument("--out", default=None, help="also write critical.json here")
    critp.add_argument("--quiet", action="store_true")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_critical(args)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
