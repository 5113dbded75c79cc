"""The benchmark's output gate, run at full size for every program seed.

perfbench/run.py refuses a sample whose outputs differ from the references
recorded in perfbench/reference: exact values (check verdicts, histogram
counts, the ensemble CSV's sha256, the market's first violation and trade)
must be equal and floats must lie within its RTOL.  This test runs the same
commands in-process and applies the same comparison, so a change that moves
a benchmark output fails here.  It reads the harness's workload table
(perfbench/workloads.py) without changing it.  Each case takes up to a few
seconds; the ensemble CSV is 48 MB, so every case deletes its outputs once
they are read.
"""
import importlib.util
import shutil
from pathlib import Path

import pytest

from rosenblatt import cli

_BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _BENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


wl = _workloads()


@pytest.mark.parametrize("seed", range(wl.PROGRAM_SEEDS))
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_outputs_match_reference(workload, seed, tmp_path):
    assert cli.main(wl.cli_args(workload, "full", seed, tmp_path)) == 0
    observed = wl.observe(workload, tmp_path)
    shutil.rmtree(tmp_path)
    reference = wl.load_reference(_BENCH / "reference", "full", workload, seed)
    assert wl.compare(observed, reference) == []
