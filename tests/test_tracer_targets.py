"""Every name the benchmark tracer (perfbench/tracer.py) patches must exist,
every call it wraps must run on the main thread, and a traced benchmark
command must write what the plain one writes.

The tracer wraps package functions by name from outside the package, so a
rename inside ``rosenblatt`` would otherwise surface only when a traced
benchmark run fails.  It also keeps one span stack for the whole process, so
a wrapped call from a worker thread (the engine builds its panel blocks on a
thread pool) would corrupt the trace.  The wrappers only time the calls, so
an output that changes under them points to a result that depends on timing
or on a call's binding; and the harness derives its layer metrics from the
spans, so a command that stops calling a traced function can break them.
These tests read the tracer's target table and the harness without
installing the tracer in this process or editing either.
"""
import functools
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACER = _BENCH / "tracer.py"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # run.py's dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _targets():
    tracer = _load("tracer")
    # install() also wraps these two as counters
    return sorted(set(tracer.SPANS) | {("rosenblatt.kernel", "VolterraEngine.panel"),
                                       ("rosenblatt.kernel", "VolterraEngine.delta_table")})


@pytest.mark.parametrize("module_name, attr", _targets())
def test_tracer_target_resolves(module_name, attr):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_traced_calls_run_on_main_thread(monkeypatch, tmp_path):
    threads = set()

    def recording(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            threads.add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    # patch the way the tracer does: classes in place, functions at every
    # binding inside the package
    for module_name, attr in _targets():
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            monkeypatch.setattr(cls, meth, recording(getattr(cls, meth)))
            continue
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if name == "rosenblatt" or name.startswith("rosenblatt."):
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, binding, recording(original))

    from rosenblatt.cli import main
    from rosenblatt.kernel import HurstParams, VolterraEngine

    VolterraEngine(64, HurstParams(0.8))
    # the qv band is calibrated to sizes 16..256, so qv may fail here; every
    # check still runs
    assert main(["validate", "--check", "all", "--hurst", "0.8", "--n", "16",
                 "--paths", "200", "--qv-sizes", "8,16,48", "--seed", "1",
                 "--out", str(tmp_path / "rep.json")]) in (0, 1)
    assert main(["market", "--hurst", "0.8", "--N", "40", "--scan-divergence",
                 "--demo-arbitrage", "--witness-all-ones", "--seed", "1",
                 "--out", str(tmp_path / "m.csv")]) == 0
    assert threads == {threading.main_thread().ident}


def _sample(mode: str, cli_args: list[str], result: Path) -> dict:
    """One ``perfbench/sample.py`` run in a fresh interpreter, as the harness
    starts it: from the checkout's root, with the package from its src/."""
    env = {k: v for k, v in os.environ.items() if k != "ROSENBLATT_THREADS"}
    env["PYTHONPATH"] = str(_BENCH.parent / "src")
    proc = subprocess.run([sys.executable, str(_BENCH / "sample.py"), str(result), mode,
                           "--", *cli_args], cwd=_BENCH.parent, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text())
    assert record["exit"] == 0, proc.stderr
    return record


@pytest.mark.parametrize("workload", _load("workloads").WORKLOADS)
def test_traced_command_writes_plain_outputs(workload, tmp_path):
    # each benchmark command at the harness's tiny sizes, plain then traced
    # into the same directory (the manifests record the output paths)
    wl, run = _load("workloads"), _load("run")
    out = tmp_path / "out"
    out.mkdir()
    cli_args = wl.cli_args(workload, "tiny", 3, out)
    _sample("plain", cli_args, tmp_path / "plain.json")
    plain = out.rename(tmp_path / "plain")
    out.mkdir()
    traced = _sample("traced", cli_args, tmp_path / "traced.json")

    names = sorted(f.name for f in plain.iterdir())
    assert names == sorted(f.name for f in out.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (plain / name).read_bytes(), name

    csv = wl.csv_path(workload, out)
    sample = run.Sample(workload, True, result=traced,
                        csv_bytes=None if csv is None else csv.stat().st_size)
    values = run.layer_values(sample)
    for name in run.LAYER_METRICS[workload]:
        if name != "trace.overhead_s":
            assert math.isfinite(values[name]), name
