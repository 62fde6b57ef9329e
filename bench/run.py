"""Benchmark of the `critpoint run` CLI over pinned experiment workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Each repeat calls critpoint.cli.main in a
fresh interpreter (bench/child.py) with PYTHONPATH=src, so every repeat pays
and measures the package's set-up.

--trace 0  Two set-up probes, then repeats until S seconds have passed (at
           least two).  Reports the medians of setup_s, run_s and
           peak_rss_mb, and ok_frac, the share of repeats that passed every
           check.  The loop is closed: one repeat at a time.
--trace 1  One untraced and one traced repeat of the workload, then the
           layer-scaling table in the traced process.  Reports the
           per-layer metrics of bench/layers.py; S is not used.

A repeat fails when it raises, exits 2, writes no report, breaks an
invariant of bench/workloads.py, differs from the stored reference (at the
workload's default seed), or writes a series.csv that is not byte-identical
to the run's first.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the full result, with the
environment, is written to .bench_out/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from metrics import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".bench_out"
PROBES = 2
MIN_REPEATS = 2
#: every process must end within this many seconds of the benchmark's start
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Runner:
    """Starts child processes from the checkout root until the deadline."""

    def __init__(self, root: str):
        self.root = root
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def spawn(self, args: list[str]):
        """(result dict, None) or (None, reason)."""
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            return None, "deadline passed before the process started"
        t0 = time.monotonic()
        try:
            p = subprocess.run([sys.executable, CHILD, repr(t0), *args], cwd=self.root,
                               env=self.env, capture_output=True, text=True,
                               timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            tail = p.stderr.strip().splitlines()[-1:] or ["no output"]
            return None, f"child exited {p.returncode}: {tail[0]}"
        return json.loads(lines[-1]), None


def _git_commit(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    return {"git_commit": _git_commit(root), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "loadavg_at_start": os.getloadavg(),
            "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ}}


def _repeat(runner, name, cfg, out, extra, ref):
    """One checked repeat: (child result or None, problems, series.csv bytes)."""
    res, err = runner.spawn(["run", cfg, out, *extra])
    if res is None:
        return None, [err], None
    problems, csv = workloads.check_repeat(name, out, res["exit_code"], ref)
    return res, problems, csv


def _median(values):
    return statistics.median(values) if values else 0.0


def run_untraced(runner, name, seconds, cfg, out, ref):
    setups, repeats, problems = [], [], []
    for _ in range(PROBES):
        res, err = runner.spawn(["probe"])
        if res is None:
            problems.append(f"probe: {err}")
        else:
            setups.append(res["setup_s"])
    first_csv = None
    while len(repeats) < MIN_REPEATS or runner.elapsed() < seconds:
        i = len(repeats)
        res, probs, csv = _repeat(runner, name, cfg, os.path.join(out, f"repeat{i}"),
                                  ["--env"] if i == 0 else [], ref)
        if csv is not None:
            first_csv = csv if first_csv is None else first_csv
            if csv != first_csv:
                probs.append("series.csv differs from the first repeat's")
        repeats.append({"result": res, "problems": probs})
        if runner.elapsed() >= DEADLINE_S:
            break
    done = [r["result"] for r in repeats if r["result"] is not None]
    ok = sum(1 for r in repeats if not r["problems"])
    metrics = {
        "setup_s": _median(setups + [r["setup_s"] for r in done]),
        "run_s": _median([r["run_s"] for r in done]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in done]),
        "ok_frac": ok / len(repeats),
    }
    return repeats, problems, metrics, done[0].get("env", {}) if done else {}


def run_traced(runner, name, cfg, out, ref):
    plain, p_probs, p_csv = _repeat(runner, name, cfg, os.path.join(out, "untraced"),
                                    ["--env"], ref)
    spans_path = os.path.join(out, "spans.json")
    traced, t_probs, t_csv = _repeat(runner, name, cfg, os.path.join(out, "traced"),
                                     ["--trace", spans_path], ref)
    if traced is not None:
        t_probs += traced["critical_set_problems"]
    if p_csv is not None and t_csv is not None and p_csv != t_csv:
        t_probs.append("traced series.csv differs from the untraced one")
    repeats = [{"result": plain, "problems": p_probs}, {"result": traced, "problems": t_probs}]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if traced is not None:
        metrics.update(traced["layers"])
        if plain is not None:
            metrics["trace.overhead_frac"] = traced["run_s"] / plain["run_s"] - 1.0
    return repeats, [], metrics, plain.get("env", {}) if plain else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="master seed of the workload's config (default: the one "
                         "the reference is stored for)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "critpoint", "cli.py")):
        print("error: src/critpoint/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    runner = Runner(root)
    name = args.workload
    seed = workloads.default_seed(name) if args.seed is None else args.seed
    ref = workloads.load_reference(name) if seed == workloads.default_seed(name) else None
    env = environment(root)
    out = os.path.join(root, OUT_DIR, name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cfg = os.path.join(out, "config.json")
    with open(cfg, "w") as f:
        json.dump(workloads.config(name, seed), f)

    if args.trace:
        repeats, problems, values, child_env = run_traced(runner, name, cfg, out, ref)
        units = PER_LAYER
    else:
        repeats, problems, values, child_env = run_untraced(
            runner, name, args.seconds, cfg, out, ref)
        units = END_TO_END
    env.update(child_env)
    failed = sum(1 for r in repeats if r["problems"])
    for i, r in enumerate(repeats):
        for p in r["problems"]:
            print(f"repeat {i}: {p}", file=sys.stderr)
    for p in problems:
        print(p, file=sys.stderr)
    result = {"correct": failed == 0 and not problems, "attempted": len(repeats),
              "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, (u, _) in units.items()}}
    with open(os.path.join(out, "result.json"), "w") as f:
        json.dump({"workload": name, "seed": seed, "trace": args.trace, "env": env,
                   "repeats": repeats, "problems": problems, **result}, f, indent=1)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
