"""Every name the benchmark tracer (perfbench/tracer.py) patches must exist,
and every call it wraps must run on the main thread.

The tracer wraps package functions by name from outside the package, so a
rename inside ``rosenblatt`` would otherwise surface only when a traced
benchmark run fails.  It also keeps one span stack for the whole process, so
a wrapped call from a worker thread (the engine builds its panel blocks on a
thread pool) would corrupt the trace.  Both tests read the tracer's target
table without installing the tracer.
"""
import functools
import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
