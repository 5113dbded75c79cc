"""One benchmark sample: a fresh interpreter runs one CLI command, cold.

    python3 perfbench/sample.py RESULT_JSON {plain|traced} -- CLI ARGS...

Times ``import rosenblatt.cli`` (the set-up every command pays), then
``rosenblatt.cli.main(args)`` with tracing off or on, and writes the exit
code, both times, ``ru_maxrss`` of this process and the environment the
command saw to RESULT_JSON.  A traced sample adds its spans and counters.
The package must be imported from ``src/`` of the current directory, never
from an installed copy.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_config": blas.get("openblas configuration", blas.get("name")),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ROSENBLATT_THREADS": os.environ.get("ROSENBLATT_THREADS"),
    }


def main() -> int:
    result_path, mode, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "traced"):
        print(__doc__, file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import rosenblatt.cli
    setup_s = time.perf_counter() - t0

    src = (Path.cwd() / "src").resolve()
    if not Path(rosenblatt.__file__).resolve().is_relative_to(src):
        print(f"rosenblatt imported from {rosenblatt.__file__}, not {src}", file=sys.stderr)
        return 2

    recorder = None
    if mode == "traced":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer
        recorder = tracer.install()

    t1 = time.perf_counter()
    code = rosenblatt.cli.main(cli_args)
    wall_s = time.perf_counter() - t1

    payload = {
        "exit": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": _environment(),
    }
    if recorder is not None:
        payload["trace"] = recorder.to_dict()
    Path(result_path).write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
