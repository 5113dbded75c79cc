"""The three CLI commands the benchmark runs, what each sample's outputs must
equal, and the reference values they are compared with.

Why each workload exists and why it has its sizes is recorded in
BENCHMARK.json.  The ``tiny`` scale runs the same commands at sizes that take
well under a second; the harness's own smoke test uses it.

A workload seed selects one of ``PROGRAM_SEEDS`` program seeds (seed modulo
that count), because the gate compares outputs with references recorded per
program seed: the ensemble CSV must be byte-identical, so its sha256 can only
come from a recorded run.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

PROGRAM_SEEDS = 8

# Relative tolerance for floating-point outputs, taken against the largest
# magnitude of the reference array (or the reference scalar).  It admits the
# last-bit drift a reordered sum gives (ROADMAP item 2 allows that for the
# market) and nothing a wrong formula would give.
RTOL = 1e-9

_COMMANDS = {
    "ensemble_csv": ["simulate", "--process", "rosenblatt", "--hurst", "0.8",
                     "--noise", "rademacher"],
    "validate_gauss": ["validate", "--check", "all", "--process", "rosenblatt",
                       "--hurst", "0.8", "--noise", "gaussian"],
    "market_scan": ["market", "--hurst", "0.8", "--sigma", "1", "--scan-divergence",
                    "--demo-arbitrage", "--witness-all-ones"],
}

# Full sizes make each command a few seconds cold, so a 60 s run holds over ten
# fresh-process samples while the command still does its real work:
# - ensemble_csv: 10 000 paths at n = 128 write a 48 MB CSV; time goes to
#   Rademacher seeding (~10 %), factorised generation (~30 %) and CSV writing
#   (~55 %), the costs ROADMAP item 3 acts on.  The engine is small.
# - validate_gauss: 5000 Gaussian paths at n = 128 plus one ensemble per qv
#   size 16..256: engine builds on five grids, the Gaussian branch of
#   quadratic_increments, stats and the exact-law references.  It shares
#   the kernel with the other two but bypasses the CSV writer, Rademacher
#   seeding and the market, so it shows what an item-2 or item-3 change
#   costs a path that shares its code.
# - market_scan: N = 512 is the largest N the delta cache serves (342 MiB of
#   O(N^3) cold tables); the panel build and those tables are the time, the
#   costs ROADMAP item 2 acts on.  Noise and writing cost almost nothing.
# BENCHMARK.json lists validate_gauss and market_scan only.  ensemble_csv
# stays runnable and traced, so its per-layer numbers remain the baseline for
# the CSV writer and Rademacher seeding, but its Python-bound wall time moved
# by up to a third between 40 s runs as the host's load changed: over ten
# runs its IQR/median reached 0.27, wider than the largest bound allowed.
SIZES = {
    "full": {
        "ensemble_csv": ["--n", "128", "--paths", "10000"],
        "validate_gauss": ["--n", "128", "--paths", "5000"],   # default qv sizes 16..256
        "market_scan": ["--N", "512"],
    },
    "tiny": {
        "ensemble_csv": ["--n", "16", "--paths", "200"],
        "validate_gauss": ["--n", "32", "--paths", "1000", "--qv-sizes", "16,64,256"],
        "market_scan": ["--N", "32"],
    },
}

WORKLOADS = tuple(_COMMANDS)
_OUT = {"ensemble_csv": "ens.csv", "validate_gauss": "report.json", "market_scan": "market.csv"}


def cli_args(workload: str, scale: str, program_seed: int, outdir: Path) -> list[str]:
    return (_COMMANDS[workload] + SIZES[scale][workload]
            + ["--seed", str(program_seed), "--out", str(outdir / _OUT[workload])])


def _flag(args: list[str], name: str, default: str | None = None) -> str | None:
    return args[args.index(name) + 1] if name in args else default


def paths_drawn(workload: str, scale: str) -> int:
    """Paths one command generates, summed over every ensemble it draws.

    validate_gauss draws its main ensemble plus one per qv grid size (default
    16,32,64,128,256).  market_scan draws no ensemble; it counts the market
    paths it builds: the realised one, the divergence witness and the
    arbitrage-demo witness.
    """
    args = SIZES[scale][workload]
    if workload == "market_scan":
        return 3
    paths = int(_flag(args, "--paths"))
    if workload == "validate_gauss":
        return paths * (1 + len(_flag(args, "--qv-sizes", "16,32,64,128,256").split(",")))
    return paths


def csv_path(workload: str, outdir: Path) -> Path | None:
    return outdir / _OUT[workload] if workload == "ensemble_csv" else None


# ---------------------------------------------------------------------------
# observations: "exact" values must be equal, "close" float arrays within RTOL
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _observe_validate(outdir: Path) -> tuple[dict, dict]:
    report = json.loads((outdir / "report.json").read_text())
    exact = {"passed": report["passed"]}
    close = {}
    for check in report["checks"]:
        name = check["check"]
        exact[f"{name}.passed"] = check["passed"]
        if name == "histogram":
            with open(outdir / "report.json.hist.csv") as fh:
                rows = list(csv.DictReader(fh))
            exact["histogram.counts"] = [int(r["count"]) for r in rows]
            close["histogram.edges"] = ([float(rows[0]["bin_left"])]
                                        + [float(r["bin_right"]) for r in rows])
        elif name == "qv":
            exact["qv.sizes"] = check["sizes"]
            for key in ("slope", "intercept", "means", "std_errors"):
                close[f"qv.{key}"] = check[key]
        else:
            for key in ("estimate", "std_error", "discrete", "theoretical"):
                if check.get(key) is not None:
                    close[f"{name}.{key}"] = check[key]
    return exact, close


def _observe_market(outdir: Path) -> tuple[dict, dict]:
    with open(outdir / "market.csv") as fh:
        rows = list(csv.DictReader(fh))
    close = {col: [float(r[col]) for r in rows] for col in ("X", "u", "d", "S")}
    scan = json.loads((outdir / "market.csv.scan.json").read_text())
    trade = json.loads((outdir / "market.csv.trade.json").read_text())
    exact = {"first_violation": scan["first_violation"],
             "trade.index": trade["index"], "trade.strategy": trade["strategy"]}
    return exact, close


def observe(workload: str, outdir: Path) -> tuple[dict, dict]:
    """(exact, close) values of one sample's outputs."""
    if workload == "ensemble_csv":
        return {"csv_sha256": _sha256(outdir / "ens.csv")}, {}
    if workload == "validate_gauss":
        return _observe_validate(outdir)
    return _observe_market(outdir)


def compare(observed: tuple[dict, dict], reference: tuple[dict, dict]) -> list[str]:
    """Mismatches between an observation and its reference; empty when equal."""
    (exact, close), (ref_exact, ref_close) = observed, reference
    bad = [f"{k}: {exact.get(k)!r} != reference {v!r}"
           for k, v in ref_exact.items() if exact.get(k) != v]
    for k, ref in ref_close.items():
        ref = np.atleast_1d(np.asarray(ref, dtype=float))
        got = np.atleast_1d(np.asarray(close.get(k, []), dtype=float))
        if got.shape != ref.shape:
            bad.append(f"{k}: shape {got.shape} != reference {ref.shape}")
            continue
        err = float(np.max(np.abs(got - ref)))
        if not err <= RTOL * float(np.max(np.abs(ref))):
            bad.append(f"{k}: max deviation {err:.3g} exceeds {RTOL:g} of reference scale")
    return bad


# ---------------------------------------------------------------------------
# reference files: <dir>/<scale>.json holds the exact values, <dir>/<scale>.npz
# the float arrays under "<workload>/<program seed>/<name>"
# ---------------------------------------------------------------------------

def save_references(ref_dir: Path, scale: str, refs: dict) -> None:
    ref_dir.mkdir(parents=True, exist_ok=True)
    exact = {wl: {str(s): obs[0] for s, obs in by_seed.items()} for wl, by_seed in refs.items()}
    arrays = {f"{wl}/{s}/{k}": np.asarray(v, dtype=float)
              for wl, by_seed in refs.items() for s, obs in by_seed.items()
              for k, v in obs[1].items()}
    (ref_dir / f"{scale}.json").write_text(json.dumps(exact, indent=1, sort_keys=True) + "\n")
    np.savez(ref_dir / f"{scale}.npz", **arrays)


def load_reference(ref_dir: Path, scale: str, workload: str, program_seed: int) -> tuple[dict, dict]:
    exact = json.loads((ref_dir / f"{scale}.json").read_text())[workload][str(program_seed)]
    prefix = f"{workload}/{program_seed}/"
    with np.load(ref_dir / f"{scale}.npz") as npz:
        close = {k[len(prefix):]: npz[k] for k in npz.files if k.startswith(prefix)}
    return exact, close
