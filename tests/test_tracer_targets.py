"""Every name the benchmark tracer (perfbench/tracer.py) patches must exist.

The tracer wraps package functions by name from outside the package, so a
rename inside ``rosenblatt`` would otherwise surface only when a traced
benchmark run fails.  This reads the tracer's target table without
installing it.
"""
import importlib
import importlib.util
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
