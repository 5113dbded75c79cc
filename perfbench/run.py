"""End-to-end benchmark of the rosenblatt command line.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record [--scale tiny] [--reference DIR]

Run it from the root of a source checkout; the package is imported from
``src/`` there, nothing is installed or built.  BENCHMARK.json names the
workloads whose end-to-end figures are gated (validate_gauss, market_scan);
``workloads.py`` says why ensemble_csv is only traced and run by hand.

Every sample is one CLI command run by ``perfbench/sample.py`` in a fresh
interpreter, one sample at a time.  The engine cache and the delta cache are
global to a process and every CLI call pays for them cold, so repeating a
command inside one process would measure a different program.
``ROSENBLATT_THREADS`` is removed from the samples' environment so the
package default of one thread applies; ``OPENBLAS_NUM_THREADS`` is passed on
as found.  Both are reported in the environment block.

``--trace 0`` runs samples of the named workload until ``--seconds`` are
used (``--workload all``: of each workload in turn, metrics prefixed with the
workload) and reports the end-to-end metrics as medians over the samples:
``wall_s`` (``rosenblatt.cli.main`` with cold caches), ``setup_s`` (``import
rosenblatt.cli`` in the fresh interpreter), ``paths_per_s`` (paths drawn per
command-second, see ``workloads.paths_drawn``) and ``peak_rss_mb``
(``ru_maxrss`` of the sample's process, MiB).

``--trace 1`` runs rounds until ``--seconds`` are used; a round runs every
workload once untraced and once traced, so one traced run emits the
per-layer metrics of all three commands, named ``<workload>.<layer>.<metric>``.
Layer times are self times: a span's duration minus its traced children, so
the layer times of a command plus ``cli.unattributed_s`` (argparse, manifests,
JSON) add up to its traced time.  ``paths.simulate_ensemble_s`` is the
exception: it is the whole ensemble draw, whose parts are reported beside it.
``trace.overhead_s`` is the traced command time minus the untraced one.

Every sample is gated: exit code 0 and outputs equal to the references in
``perfbench/reference`` (see ``workloads``).  A failing sample counts in
``failed`` and is never dropped.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the full per-sample record
and the spans of every traced sample go to ``.perfbench_work/results``.
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
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0  # a run must end within 180 s

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "paths_per_s": "1/s", "peak_rss_mb": "MiB"}

LAYER_UNITS = {
    "kernel.engine_build_s": "s",
    "kernel.panels_built": "count",
    "kernel.quadratic_increments_s": "s",
    "kernel.table_matrix_s": "s",
    "kernel.delta_tables_mb": "MiB",
    "paths.noise_s": "s",
    "paths.noise_us_per_path": "us",
    "paths.simulate_ensemble_s": "s",
    "paths.write_ensemble_s": "s",
    "paths.csv_bytes": "B",
    "paths.csv_mb_per_s": "MiB/s",
    "stats.increment_variance_s": "s",
    "stats.covariance_s": "s",
    "stats.skewness_s": "s",
    "stats.qv_decay_s": "s",
    "stats.histogram_s": "s",
    "market.build_market_s": "s",
    "market.divergence_scan_s": "s",
    "market.arbitrage_demo_s": "s",
    "market.write_s": "s",
    "cli.unattributed_s": "s",
    "trace.overhead_s": "s",
}

_KERNEL = ["kernel.engine_build_s", "kernel.panels_built", "kernel.quadratic_increments_s"]
_TAIL = ["cli.unattributed_s", "trace.overhead_s"]
# Only the layers a workload exercises: a layer it never calls would read 0.
LAYER_METRICS = {
    "ensemble_csv": _KERNEL + [
        "paths.noise_s", "paths.noise_us_per_path", "paths.simulate_ensemble_s",
        "paths.write_ensemble_s", "paths.csv_bytes", "paths.csv_mb_per_s"] + _TAIL,
    "validate_gauss": _KERNEL + [
        "kernel.table_matrix_s", "kernel.delta_tables_mb",
        "paths.noise_s", "paths.noise_us_per_path", "paths.simulate_ensemble_s",
        "stats.increment_variance_s", "stats.covariance_s", "stats.skewness_s",
        "stats.qv_decay_s", "stats.histogram_s"] + _TAIL,
    "market_scan": _KERNEL + [
        "kernel.delta_tables_mb", "market.build_market_s", "market.divergence_scan_s",
        "market.arbitrage_demo_s", "market.write_s"] + _TAIL,
}


@dataclass
class Sample:
    workload: str
    traced: bool
    result: dict | None = None          # sample.py's record; None if it crashed
    observed: tuple | None = None       # workloads.observe of its outputs
    csv_bytes: int | None = None
    problems: list[str] = field(default_factory=list)


def run_sample(workload: str, scale: str, program_seed: int, traced: bool,
               timeout: float, reference: tuple | None) -> Sample:
    """One fresh-process command, gated against `reference` when given."""
    sample = Sample(workload, traced)
    outdir = WORK / "sample"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    result_file = outdir / "result.json"
    env = {k: v for k, v in os.environ.items() if k != "ROSENBLATT_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(HERE / "sample.py"), str(result_file),
           "traced" if traced else "plain", "--",
           *wl.cli_args(workload, scale, program_seed, outdir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        sample.problems.append(f"timed out after {timeout:.0f} s")
        return sample
    try:
        if proc.returncode != 0 or not result_file.is_file():
            sample.problems.append(f"sample process failed ({proc.returncode}): "
                                   f"{proc.stderr.strip()[-500:]}")
            return sample
        sample.result = json.loads(result_file.read_text())
        if sample.result["exit"] != 0:
            sample.problems.append(f"exit code {sample.result['exit']}, expected 0: "
                                   f"{proc.stderr.strip()[-500:]}")
            return sample
        csv = wl.csv_path(workload, outdir)
        if csv is not None:
            sample.csv_bytes = csv.stat().st_size
        sample.observed = wl.observe(workload, outdir)
        if reference is not None:
            sample.problems += wl.compare(sample.observed, reference)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        sample.problems.append(f"unreadable outputs: {exc!r}")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return sample


def repeat(seconds: float, step) -> list[Sample]:
    """Call step(time left) until `seconds` are used, at least once; a step
    is started only when one more is expected to end within `seconds`."""
    start = time.monotonic()
    samples: list[Sample] = []
    rounds = 0
    while True:
        batch = step(DEADLINE_S - (time.monotonic() - start))
        samples += batch
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds > seconds:
            break
    return samples


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(workload: str, scale: str, samples: list[Sample]) -> dict:
    done = [s.result for s in samples]
    paths = wl.paths_drawn(workload, scale)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in done),
        "setup_s": statistics.median(r["setup_s"] for r in done),
        "paths_per_s": statistics.median(paths / r["wall_s"] for r in done),
        "peak_rss_mb": statistics.median(r["peak_rss_kib"] / 1024 for r in done),
    }


def self_times(spans: list) -> tuple[Counter, Counter, Counter]:
    """Per span name: summed self time, summed duration, and call count."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    self_t, total, calls = Counter(), Counter(), Counter()
    for (name, start, end, _), t in zip(spans, own):
        self_t[name] += t
        total[name] += end - start
        calls[name] += 1
    return self_t, total, calls


def layer_values(sample: Sample) -> dict:
    trace = sample.result["trace"]
    own, total, calls = self_times(trace["spans"])
    noise = own["paths.make_noise"] + own["paths.derive_seed"]
    v = {
        "kernel.engine_build_s": own["kernel.get_engine"] + own["kernel.panel"],
        "kernel.panels_built": trace["panels_built"],
        "kernel.quadratic_increments_s": own["kernel.quadratic_increments"],
        "kernel.table_matrix_s": own["kernel.table_matrix"],
        "kernel.delta_tables_mb": trace["delta_table_bytes"] / 2**20,
        "paths.noise_s": noise,
        "paths.noise_us_per_path": 1e6 * noise / max(calls["paths.make_noise"], 1),
        "paths.simulate_ensemble_s": total["paths.simulate_ensemble"],
        "paths.write_ensemble_s": own["paths.write_ensemble"],
        "cli.unattributed_s": own["cli.main"],
    }
    if sample.csv_bytes is not None:
        v["paths.csv_bytes"] = sample.csv_bytes
        v["paths.csv_mb_per_s"] = sample.csv_bytes / 2**20 / own["paths.write_ensemble"]
    for name in ("increment_variance", "covariance", "skewness", "qv_decay", "histogram"):
        v[f"stats.{name}_s"] = own[f"stats.{name}"]
    for name in ("build_market", "divergence_scan", "arbitrage_demo", "write"):
        v[f"market.{name}_s"] = own[f"market.{name}"]
    return v


def per_layer(samples: list[Sample]) -> dict:
    metrics = {}
    for workload in wl.WORKLOADS:
        plain = [s.result["wall_s"] for s in samples
                 if s.workload == workload and not s.traced and s.result]
        traced = [s for s in samples if s.workload == workload and s.traced and s.result]
        values = [layer_values(s) for s in traced]
        for name in LAYER_METRICS[workload]:
            if name == "trace.overhead_s":
                value = (statistics.median(s.result["wall_s"] for s in traced)
                         - statistics.median(plain))
            else:
                value = statistics.median(v[name] for v in values)
            metrics[f"{workload}.{name}"] = (value, LAYER_UNITS[name])
    return metrics


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def benchmark(args) -> int:
    program_seed = args.seed % wl.PROGRAM_SEEDS
    references = {w: wl.load_reference(args.reference, args.scale, w, program_seed)
                  for w in wl.WORKLOADS}

    def sample(workload, traced, left):
        return run_sample(workload, args.scale, program_seed, traced, left,
                          references[workload])

    names = wl.WORKLOADS if args.trace or args.workload == "all" else (args.workload,)
    if args.trace:
        def step(left):
            start, batch = time.monotonic(), []
            for i, workload in enumerate(wl.WORKLOADS):
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    batch.append(sample(workload, traced, left - (time.monotonic() - start)))
            return batch
        samples = repeat(args.seconds, step)
    else:
        samples = []
        for workload in names:
            samples += repeat(args.seconds, lambda left, w=workload: [sample(w, False, left)])
    failed = [s for s in samples if s.problems]
    for s in failed:
        print(f"FAILED {s.workload} ({'traced' if s.traced else 'plain'}): "
              + "; ".join(s.problems), file=sys.stderr)
    done = [s for s in samples if s.result]
    kinds = (False, True) if args.trace else (False,)
    if not all(any(s.workload == w and s.traced == t for s in done)
               for w in names for t in kinds):
        print("a workload has no completed sample; no result", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(done)
    else:
        prefix = args.workload == "all"
        metrics = {}
        for workload in names:
            mine = [s for s in done if s.workload == workload]
            metrics.update({(f"{workload}.{k}" if prefix else k): (v, END_TO_END[k])
                            for k, v in end_to_end(workload, args.scale, mine).items()})

    environment = done[0].result["environment"]
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "program_seed": program_seed,
        "scale": args.scale, "trace": args.trace, "environment": environment,
        "failed_frac": len(failed) / len(samples), **result,
        "samples": [{"workload": s.workload, "traced": s.traced, "problems": s.problems,
                     "csv_bytes": s.csv_bytes,
                     **{k: v for k, v in (s.result or {}).items() if k != "trace"}}
                    for s in samples],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1))
    for i, s in enumerate(s for s in done if s.traced):
        (results / f"{stem}-spans-{s.workload}-{i}.json").write_text(
            json.dumps(s.result["trace"]))

    print(f"environment: {json.dumps(environment, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed} (program seed {program_seed}), "
          f"scale {args.scale}, trace {args.trace}, {len(samples)} samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<44} {report['failed_frac']:>14.6g} "
          f"({len(failed)} of {len(samples)})")
    print(json.dumps(result))
    return 0


def record(args) -> int:
    """Record every workload's reference outputs for all program seeds."""
    refs = {}
    for workload in wl.WORKLOADS:
        refs[workload] = {}
        for seed in range(wl.PROGRAM_SEEDS):
            s = run_sample(workload, args.scale, seed, False, 600.0, None)
            if s.problems:
                print(f"cannot record {workload} seed {seed}: " + "; ".join(s.problems),
                      file=sys.stderr)
                return 1
            refs[workload][seed] = s.observed
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    wl.save_references(args.reference, args.scale, refs)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS + ("all",),
                    help="'all' runs every workload in turn, --seconds each")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(wl.SIZES), default="full")
    ap.add_argument("--reference", type=Path, default=HERE / "reference")
    ap.add_argument("--record", action="store_true",
                    help="record reference outputs instead of benchmarking")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rosenblatt" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'rosenblatt'}", file=sys.stderr)
        return 2
    if args.record:
        return record(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (args.reference / f"{args.scale}.json").is_file():
        print(f"no {args.scale} references in {args.reference}", file=sys.stderr)
        return 2
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
