"""One benchmark process: a set-up probe or one `critpoint run` repeat.

    python3 bench/child.py T0 probe
    python3 bench/child.py T0 run CONFIG OUT [--trace SPANS_JSON] [--env]

T0 is the parent's time.monotonic() taken just before it started this
process.  CLOCK_MONOTONIC is shared by all processes on Linux, so the time
from T0 to the end of `import critpoint.cli` is the set-up time: interpreter
start plus the package's imports.  The last line of stdout is a JSON object.
"""

import sys
import time

import critpoint.cli  # its import is the set-up being timed

T_READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

SRC = os.path.join(os.getcwd(), "src")


def _environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas}


def _run(config, out, spans_path, want_env) -> dict:
    argv = ["run", "--config", config, "--out", out, "--quiet"]
    result = {}
    if spans_path is None:
        t0 = time.monotonic()
        rc = critpoint.cli.main(argv)
        result["run_s"] = time.monotonic() - t0
    else:
        import layers
        from spans import Tracer

        tracer, problems = Tracer(), []
        layers.install(tracer, problems)
        try:
            with tracer.span("cli.main") as root:
                rc = critpoint.cli.main(argv)
            result["run_s"] = root.duration
            with open(os.path.join(out, "report.json")) as f:
                result["layers"] = layers.layer_metrics(tracer.spans, root, json.load(f))
            with open(config) as f:
                seed = json.load(f)["seed"]
            result["layers"].update(layers.scaling_table(tracer, seed))
        finally:
            tracer.restore()
            tracer.dump(spans_path)
        result["critical_set_problems"] = problems
    result["exit_code"] = rc
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if want_env:
        result["env"] = _environment()
    return result


def main(argv) -> int:
    t_spawn, mode = float(argv[0]), argv[1]
    origin = os.path.dirname(os.path.abspath(critpoint.cli.__file__))
    if not origin.startswith(SRC + os.sep):
        print(f"critpoint was imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"setup_s": T_READY - t_spawn}
    if mode == "run":
        rest = argv[2:]
        spans_path = rest[rest.index("--trace") + 1] if "--trace" in rest else None
        result.update(_run(rest[0], rest[1], spans_path, "--env" in rest))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
