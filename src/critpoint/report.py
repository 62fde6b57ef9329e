"""Machine-readable experiment reports: report.json + series.csv.

Reports are deterministic given the configuration, except for the
wall-clock and environment sections, which are excluded from series.csv
precisely so the CSV is byte-identical across reruns.  The solver section
(per n, summed over the solves that returned: their number, the roots
they merged as near-duplicates, their points above DEFAULT_TOL, sweeps,
active points per sweep, the target-source pairs summed directly and
by the solver's far route, `farfield.cauchy_sums`, and the iterates
nudged apart) and the series section (per n of a growth run, how its
circle grid was summed: the roots summed directly and by each side's
Laurent series, counted over the prefix of n roots, and each side's
longest series length) are deterministic but not in series.csv.  A
growth run sums its grid along the trajectory, each n adding the roots
new since the last, so its per-n wall-clock is the time of that n's
block alone.
"""

from __future__ import annotations

import csv
import io
import json
import os
import platform
from dataclasses import dataclass, field

import numpy as np

from . import logderiv

SCHEMA_VERSION = 1


def run_environment() -> dict:
    """The interpreter and numpy versions, and the number of ranges the
    Cauchy-sum kernel splits a large pass into (the CPUs the process may
    run on).  A run loads no other library."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "kernel_workers": logderiv._workers()}


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    threshold: float | str
    observed: float | str
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "threshold": self.threshold, "observed": self.observed,
                "detail": self.detail}


@dataclass
class Report:
    experiment: str
    config: dict
    rows: list = field(default_factory=list)   # (n, stat_name, value)
    verdicts: list = field(default_factory=list)
    wall_clock: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    environment: dict = field(default_factory=run_environment)

    def add_row(self, n: int, stat: str, value) -> None:
        self.rows.append((int(n), str(stat), float(value)))

    def add_verdict(self, name, passed, threshold, observed, detail="") -> None:
        self.verdicts.append(Verdict(name, bool(passed), threshold, observed, detail))

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def stat(self, n: int, name: str) -> float:
        for rn, rs, rv in self.rows:
            if rn == n and rs == name:
                return rv
        raise KeyError(f"no stat {name!r} at n={n}")

    def stats(self, name: str) -> dict:
        return {rn: rv for rn, rs, rv in self.rows if rs == name}

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "experiment": self.experiment,
            "config": self.config,
            "rows": [{"n": n, "stat": s, "value": v} for n, s, v in self.rows],
            "verdicts": [v.to_json() for v in self.verdicts],
            "passed": self.passed,
            "wall_clock": self.wall_clock,
            "solver": self.solver,
            "series": self.series,
            "environment": self.environment,
        }

    def series_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["experiment", "n", "stat_name", "value"])
        for n, s, v in self.rows:
            w.writerow([self.experiment, n, s, repr(v)])
        return buf.getvalue()

    def write(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as f:
            json.dump(self.to_json(), f, indent=2, sort_keys=True)
            f.write("\n")
        with open(os.path.join(out_dir, "series.csv"), "w", newline="") as f:
            f.write(self.series_csv())
