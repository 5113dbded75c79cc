"""Smoke test of the benchmark harness at tiny sizes (about a minute).

    python3 -m pytest perfbench/test_smoke.py

Records tiny references with the code under test, then checks that every
end-to-end and per-layer metric named in BENCHMARK.json is emitted with its
unit, that a corrupted reference trips the correctness gate for each
workload, and that a tree without the package source fails without a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

WORKLOADS = list(wl.WORKLOADS)


def bench(ref_dir: Path, workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
         "--reference", str(ref_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if proc.returncode == 0 else None), proc


@pytest.fixture(scope="module")
def refs(tmp_path_factory) -> Path:
    ref_dir = tmp_path_factory.mktemp("ref")
    subprocess.run([sys.executable, "perfbench/run.py", "--record", "--scale", "tiny",
                    "--reference", str(ref_dir)], cwd=ROOT, check=True, timeout=600)
    return ref_dir


def check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS + ["all"])
def test_end_to_end_metrics_emitted(refs, workload):
    code, result, proc = bench(refs, workload, 0)
    assert code == 0, proc.stderr
    declared = BENCH["end_to_end"]
    if workload == "all":
        declared = [{**m, "name": f"{w}.{m['name']}"} for w in WORKLOADS for m in declared]
    check_metrics(result, declared)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_declared_workloads_exist():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


def test_per_layer_metrics_emitted(refs):
    code, result, proc = bench(refs, WORKLOADS[0], 1)
    assert code == 0, proc.stderr
    check_metrics(result, BENCH["per_layer"])


def _corrupt(src: Path, dst: Path, workload: str) -> None:
    shutil.copytree(src, dst)
    exact = json.loads((dst / "tiny.json").read_text())
    with np.load(dst / "tiny.npz") as npz:
        arrays = {k: npz[k] for k in npz.files}
    if workload == "ensemble_csv":
        exact[workload]["3"]["csv_sha256"] = "0" * 64
    elif workload == "validate_gauss":
        arrays[f"{workload}/3/variance.estimate"] *= 1 + 1e-6
    else:
        arrays[f"{workload}/3/X"][-1] += 1e-6
    (dst / "tiny.json").write_text(json.dumps(exact))
    np.savez(dst / "tiny.npz", **arrays)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_trips_gate(refs, tmp_path, workload):
    bad = tmp_path / "bad"
    _corrupt(refs, bad, workload)
    code, result, proc = bench(bad, workload, 0)
    assert code == 0, proc.stderr
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "FAILED" in proc.stderr


def test_fails_without_package_source(refs, tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, proc = bench(refs, WORKLOADS[0], 0, cwd=tmp_path)
    assert code != 0 and result is None
    assert not proc.stdout.strip()
