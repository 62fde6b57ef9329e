"""Rewrite bench/reference/<workload>.json from the current code.

    PYTHONPATH=src python3 bench/make_reference.py [WORKLOAD ...]

Run from the repository root, and only for a change that is meant to alter
the experiments' outputs: every benchmark repeat at a workload's default
seed is compared with these files.
"""

import json
import os
import sys

import critpoint.cli

import workloads


def _format(ref: dict) -> str:
    """JSON with one row or verdict per line."""
    parts = []
    for key, value in ref.items():
        if isinstance(value, list):
            body = ",\n".join("  " + json.dumps(item) for item in value)
            parts.append(f" {json.dumps(key)}: [\n{body}\n ]")
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main(names) -> int:
    for name in names or sorted(workloads.WORKLOADS):
        out = os.path.join(".bench_out", "reference", name)
        os.makedirs(out, exist_ok=True)
        cfg = os.path.join(out, "config.json")
        with open(cfg, "w") as f:
            json.dump(workloads.config(name, workloads.default_seed(name)), f)
        rc = critpoint.cli.main(["run", "--config", cfg, "--out", out, "--quiet"])
        report, _ = workloads.read_outputs(out)
        problems = workloads.invariant_problems(name, report, rc)
        if problems:
            print(f"{name}: not stored: {problems}", file=sys.stderr)
            return 1
        with open(workloads.reference_path(name), "w") as f:
            f.write(_format(workloads.reference_from_report(name, report, rc)))
        print(f"{name}: exit code {rc}, {len(report['rows'])} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
