"""Command-line contract: flags, exit codes, file outputs, determinism."""
import errno
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import rosenblatt.paths
from rosenblatt.cli import main
from rosenblatt.market import ArbitrageTrade
from rosenblatt.stats import MomentReport, QvDecayFit


def run(*argv):
    return main(list(argv))


class TestSimulate:
    def test_writes_csv_metadata_manifest(self, tmp_path):
        out = tmp_path / "ens.csv"
        code = run("simulate", "--process", "rosenblatt", "--hurst", "0.8",
                   "--n", "16", "--paths", "4", "--seed", "42", "--out", str(out))
        assert code == 0
        assert out.exists()
        meta = json.loads((tmp_path / "ens.csv.meta.json").read_text())
        assert meta["H"] == 0.8 and meta["M"] == 4 and meta["seed"] == 42
        manifest = json.loads((tmp_path / "ens.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["tool_version"]
        assert str(out) in manifest["outputs"]

    def test_reference_invocation_deterministic(self, tmp_path):
        # the documented reference call: 100 paths at n = 256, repeatable bytes
        args = ["simulate", "--process", "rosenblatt", "--hurst", "0.8",
                "--n", "256", "--paths", "100", "--seed", "42"]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 1 + 100 * 257

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "a.csv"
        run("simulate", "--process", "rosenblatt", "--hurst", "0.8",
            "--n", "32", "--paths", "5", "--seed", "7", "--out", str(out))
        first = out.read_bytes()
        first_meta = (tmp_path / "a.csv.meta.json").read_bytes()
        assert run("rerun", str(tmp_path / "a.csv.manifest.json")) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "a.csv.meta.json").read_bytes() == first_meta

    def test_rerun_missing_manifest_exits_2(self, tmp_path, capsys):
        assert run("rerun", str(tmp_path / "absent.manifest.json")) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_hurst_exits_2_naming_interval(self, tmp_path, capsys):
        code = run("simulate", "--process", "rosenblatt", "--hurst", "0.4",
                   "--n", "8", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "(1/2, 1)" in capsys.readouterr().err

    def test_invalid_n_exits_2(self, tmp_path):
        code = run("simulate", "--process", "walk", "--n", "0",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_fbm_hurst_is_kernel_index(self, tmp_path):
        code = run("simulate", "--process", "fbm", "--hurst", "0.6",
                   "--n", "8", "--out", str(tmp_path / "x.csv"))
        assert code == 2  # fbm needs its own index in (3/4, 1)
        code = run("simulate", "--process", "fbm", "--hurst", "0.8",
                   "--n", "8", "--out", str(tmp_path / "y.csv"))
        assert code == 0

    def test_missing_subcommand_usage(self):
        assert run() == 2

    def test_plot_writes_svg(self, tmp_path):
        out = tmp_path / "p.csv"
        code = run("simulate", "--process", "walk", "--n", "16", "--paths", "3",
                   "--seed", "1", "--out", str(out), "--plot")
        assert code == 0
        svg = (tmp_path / "p.csv.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestValidate:
    def test_variance_check_passes(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run("validate", "--check", "variance", "--process", "rosenblatt",
                   "--hurst", "0.8", "--n", "32", "--paths", "4000",
                   "--seed", "5", "--out", str(out))
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["passed"] is True
        c = rep["checks"][0]
        assert c["check"] == "variance" and c["theoretical"] == 1.0
        assert c["discrete"] is not None

    def test_t_on_a_float_grid_point_reads_that_point(self, tmp_path):
        # n t = 28.999999999999996 at t = 0.29, yet 29 / 100 == 0.29: Z(0.29) is read
        out = tmp_path / "rep.json"
        assert run("validate", "--check", "variance", "--process", "rosenblatt",
                   "--hurst", "0.8", "--n", "100", "--paths", "200", "--t", "0.29",
                   "--out", str(out)) == 0
        c = json.loads(out.read_text())["checks"][0]
        assert c["theoretical"] == 0.29 ** 1.6

    def test_walk_report_records_no_hurst_index(self, tmp_path):
        # the walk ignores --hurst: its report's H is null, as in simulate's meta
        flags = ["--process", "walk", "--hurst", "0.7", "--n", "16", "--paths", "50"]
        assert run("validate", "--check", "variance", *flags,
                   "--out", str(tmp_path / "rep.json")) == 0
        assert run("simulate", *flags, "--out", str(tmp_path / "ens.csv")) == 0
        assert json.loads((tmp_path / "rep.json").read_text())["H"] is None
        assert json.loads((tmp_path / "ens.csv.meta.json").read_text())["H"] is None

    def test_skewness_both_directions(self, tmp_path):
        code = run("validate", "--check", "skewness", "--process", "rosenblatt",
                   "--hurst", "0.8", "--n", "64", "--paths", "3000",
                   "--seed", "2", "--out", str(tmp_path / "r1.json"))
        assert code == 0
        code = run("validate", "--check", "skewness", "--process", "walk",
                   "--noise", "gaussian", "--n", "64", "--paths", "3000",
                   "--seed", "2", "--out", str(tmp_path / "r2.json"))
        assert code == 0

    def test_skewness_expected_only_where_exact_skewness_is_nonzero(self, tmp_path):
        # on grid 2 the Rosenblatt walk is 2 c_12 xi_1 xi_2, symmetric, with
        # tr C^3 exactly 0: no skew is expected there, and one is on grid 3
        for n, skew in (("2", False), ("3", True)):
            out = tmp_path / f"skew{n}.json"
            assert run("validate", "--check", "skewness", "--hurst", "0.6", "--n", n,
                       "--paths", "5000", "--noise", "gaussian", "--seed", "0",
                       "--out", str(out)) == 0
            c = json.loads(out.read_text())["checks"][0]
            assert (c["discrete"] != 0.0) is skew
            assert c["note"] == ("expect significant skew (non-Gaussian marginal)" if skew
                                 else "expect no detectable skew")

    def test_check_all_aggregates(self, tmp_path):
        # default qv sweep: the decay-slope band is calibrated to sizes 16..256
        out = tmp_path / "all.json"
        code = run("validate", "--check", "all", "--process", "rosenblatt",
                   "--hurst", "0.8", "--n", "32", "--paths", "1500",
                   "--seed", "6", "--out", str(out))
        rep = json.loads(out.read_text())
        assert [c["check"] for c in rep["checks"]] == [
            "variance", "covariance", "skewness", "qv", "histogram"]
        assert rep["passed"] is (code == 0)
        assert code == 0
        # each report entry carries exactly its dataclass's fields
        moment = {"check", "passed", *(f.name for f in fields(MomentReport))}
        for c in rep["checks"][:3]:
            assert set(c) == moment
        assert set(rep["checks"][3]) == {"check", "passed", "theoretical_slope",
                                         *(f.name for f in fields(QvDecayFit))}

    def test_degenerate_variance_passes(self, tmp_path, capsys):
        # t = 0.01 snaps to 0: estimate, discrete and continuum values are all
        # 0 with zero standard error, which is a pass
        out = tmp_path / "deg.json"
        code = run("validate", "--check", "variance", "--hurst", "0.8", "--n", "16",
                   "--paths", "200", "--t", "0.01", "--out", str(out))
        assert code == 0
        c = json.loads(out.read_text())["checks"][0]
        assert c["estimate"] == c["discrete"] == c["theoretical"] == c["std_error"] == 0
        assert "PASS variance" in capsys.readouterr().out

    def test_degenerate_skewness_is_strict_json(self, tmp_path, capsys):
        # t = 0.07 snaps to grid point 1, where the Rosenblatt walk has no
        # off-diagonal pair: its exact variance is 0 and every sample is 0,
        # so the skewness of that point mass is 0/0, a usage error, and no
        # report (nor a NaN in one) is written
        out = tmp_path / "skew.json"
        code = run("validate", "--check", "skewness", "--process", "rosenblatt",
                   "--hurst", "0.8", "--n", "16", "--paths", "200", "--t", "0.07",
                   "--out", str(out))
        assert code == 2
        assert "grid point 1 of grid 16" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--check", "skewness", "--n", "16", "--t", "0.07"],
                                      ["--check", "all", "--n", "1", "--qv-sizes", "1,2,4"]])
    def test_point_mass_refused_before_any_draw(self, tmp_path, monkeypatch, argv):
        # grid point 1 of the Rosenblatt walk, below its chaos order 2, is
        # refused before the walk is built or the pass reads a single slab,
        # and without reading the exact law
        import rosenblatt.cli as cli
        import rosenblatt.kernel as kernel

        def no_draw(*args):
            raise AssertionError("a path was drawn or a walk built")

        def no_law(*args):
            raise AssertionError("an exact law was read")

        monkeypatch.setattr(cli.st, "reduce_slabs", no_draw)
        for name in ("get_engine", "fbm_matrix"):
            monkeypatch.setattr(rosenblatt.paths, name, no_draw)
        monkeypatch.setattr(cli.st, "discrete_moment", no_law)
        monkeypatch.setattr(kernel.VolterraEngine, "table_matrix", no_law)
        code = run("validate", "--process", "rosenblatt", "--hurst", "0.8", "--paths", "200",
                   *argv, "--out", str(tmp_path / "rep.json"))
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("check, n, qv, drawn", [
        ("all", "32", "16,64,48", [64]),
        ("all", "128", "16,32,64", [128]),
        ("variance", "32", "16,256", [32]),
    ])
    def test_draws_one_ensemble_on_finest_grid(self, tmp_path, monkeypatch,
                                               check, n, qv, drawn):
        import rosenblatt.cli as cli
        calls = []
        draw = cli.path_slabs

        def recording(count, seed, kind, p, process, grid):
            calls.append(grid)
            return draw(count, seed, kind, p, process, grid)

        monkeypatch.setattr(cli, "path_slabs", recording)
        run("validate", "--check", check, "--process", "walk", "--noise", "gaussian",
            "--n", n, "--paths", "200", "--qv-sizes", qv, "--seed", "4",
            "--out", str(tmp_path / "rep.json"))
        assert calls == drawn

    @pytest.mark.parametrize("qv", ["16,16,16", "16,16,32"])
    def test_repeated_qv_sizes_exit_2(self, tmp_path, capsys, qv):
        # fewer than three distinct grids cannot fix the decay line
        out = tmp_path / "rep.json"
        code = run("validate", "--check", "qv", "--hurst", "0.8", "--n", "16",
                   "--paths", "200", "--qv-sizes", qv, "--out", str(out))
        assert code == 2
        assert "three distinct grid sizes" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_qv_size_among_three_exits_2(self, tmp_path, capsys):
        # three distinct grids, one given twice: fitting it twice would
        # weigh it double in the slope
        out = tmp_path / "rep.json"
        code = run("validate", "--check", "qv", "--hurst", "0.8", "--n", "16",
                   "--paths", "200", "--qv-sizes", "16,16,32,64", "--out", str(out))
        assert code == 2
        assert "must not repeat" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("check, n", [("qv", "2"), ("all", "1")])
    def test_rosenblatt_qv_grid_of_one_exits_2(self, tmp_path, capsys, check, n):
        # grid 1 has no off-diagonal pair, so its QV is exactly 0 and has no
        # logarithm: a usage error, with no report written
        out = tmp_path / "rep.json"
        code = run("validate", "--check", check, "--hurst", "0.8", "--n", n,
                   "--paths", "200", "--qv-sizes", "1,2,4", "--out", str(out))
        assert code == 2
        assert "positive mean QV" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("check", ["variance", "covariance", "qv", "all"])
    def test_single_path_exits_2_without_warning(self, tmp_path, capsys, check):
        # one path has no sample variance; numpy must not be asked for one
        # (its RuntimeWarning is an error in this suite)
        out = tmp_path / "rep.json"
        code = run("validate", "--check", check, "--hurst", "0.8", "--n", "16",
                   "--paths", "1", "--qv-sizes", "16,32,64", "--out", str(out))
        assert code == 2
        assert "need at least two samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("process, hurst", [("rosenblatt", "0.8"), ("fbm", "0.9")])
    def test_builds_one_engine(self, tmp_path, process, hurst):
        # the exact references of the coarsened n = 32 ensemble read the
        # engine of the grid-64 draw; the fbm walk streams its matrix and
        # builds no engine at all
        import rosenblatt.kernel as kernel
        kernel.get_engine.cache_clear()
        run("validate", "--check", "all", "--process", process, "--hurst", hurst,
            "--n", "32", "--paths", "200", "--qv-sizes", "16,32,64",
            "--out", str(tmp_path / "rep.json"))
        built = kernel.get_engine.cache_info()
        assert (built.misses, built.currsize) == ((1, 1) if process == "rosenblatt" else (0, 0))
        if process == "rosenblatt":
            # the one engine is the grid-64 one: asking for it again is a hit
            kernel.get_engine(64, kernel.HurstParams(0.8))
            assert kernel.get_engine.cache_info()[:2] == (built.hits + 1, 1)

    @pytest.mark.parametrize("flags", [
        # every path is +-xi_1 / sqrt(n) at grid point 1, so every square is
        # the same number, and the SE is below one ulp
        ["--process", "walk", "--n", "5", "--t", "0.2", "--paths", "50"],
        ["--process", "walk", "--n", "6", "--t", repr(1 / 6), "--paths", "50"],
        ["--process", "walk", "--n", "7", "--t", repr(1 / 7), "--paths", "50"],
        # Z(1/2) = 2 c_12 xi_1 xi_2 on grid 4: an SE of 5.7e-19, below one ulp
        ["--process", "rosenblatt", "--n", "4", "--t", "0.5", "--paths", "150",
         "--hurst", "0.8"]])
    def test_sample_without_spread_passes(self, tmp_path, flags):
        # the mean of identical squares and the exact sum round differently,
        # by more than 4 SE
        out = tmp_path / "rep.json"
        assert run("validate", "--check", "variance", *flags, "--noise", "rademacher",
                   "--out", str(out)) == 0
        c = json.loads(out.read_text())["checks"][0]
        assert abs(c["estimate"] - c["discrete"]) > 4.0 * c["std_error"]

    def test_builds_fbm_matrix_once(self, tmp_path, monkeypatch):
        # the draw and every exact reference of an fbm validate share the one
        # memoised fbm_matrix, streamed from the panel blocks by one pass of
        # the block pool, and no engine is built or kept
        import rosenblatt.kernel as kernel
        passes = []
        streamed = kernel._Panels._map

        def recording(self, use):
            passes.append(self.n)
            return streamed(self, use)

        kernel.get_engine.cache_clear()
        monkeypatch.setattr(kernel._Panels, "_map", recording)
        kernel.fbm_matrix.cache_clear()
        run("validate", "--check", "all", "--process", "fbm", "--hurst", "0.9",
            "--noise", "gaussian", "--n", "128", "--paths", "5000", "--seed", "3",
            "--out", str(tmp_path / "rep.json"))
        assert passes == [256]
        assert kernel.get_engine.cache_info().currsize == 0
        assert kernel.fbm_matrix.cache_info().currsize == 1

    def test_get_engine_builds_no_block(self, monkeypatch):
        # the engine's first reader builds its blocks, not get_engine
        import rosenblatt.kernel as kernel

        def no_build(*args):
            raise AssertionError("a panel block was built")

        monkeypatch.setattr(kernel._Panels, "_map", no_build)
        kernel.get_engine.cache_clear()
        assert kernel.get_engine(64, kernel.HurstParams(0.8)).n == 64

    @pytest.mark.parametrize("noise", ["gaussian", "rademacher"])
    def test_builds_each_block_once(self, tmp_path, monkeypatch, noise):
        # the draw is the engine's first reader and the exact laws read what
        # it kept: one pass of the block pool, no rebuild, and A_j1 kept
        # only for the +-1 pass, which reads it
        import rosenblatt.kernel as kernel
        passes = []
        streamed = kernel._Panels._map

        def recording(self, use):
            passes.append(self.n)
            return streamed(self, use)

        kernel.get_engine.cache_clear()
        monkeypatch.setattr(kernel._Panels, "_map", recording)
        run("validate", "--check", "all", "--process", "rosenblatt", "--hurst", "0.8",
            "--noise", noise, "--n", "32", "--paths", "200", "--qv-sizes", "16,32,64",
            "--out", str(tmp_path / "rep.json"))
        assert passes == [64]
        blocks = kernel.get_engine(64, kernel.HurstParams(0.8))._blocks(j1=False)
        assert passes == [64]
        assert {"A_j1" in t for t in blocks} == {noise == "rademacher"}

    def test_builds_each_exact_matrix_once(self, tmp_path, monkeypatch):
        # the point-mass rules read the walk's chaos order, not its exact
        # law, so only the checks build: the variance's 0 and t, the
        # covariance's s and t and the skewness's exact third cumulant at t
        import rosenblatt.kernel as kernel
        built = {}
        table = kernel.VolterraEngine.table_matrix

        def counting(self, m):
            built[m] = built.get(m, 0) + 1
            return table(self, m)

        monkeypatch.setattr(kernel.VolterraEngine, "table_matrix", counting)
        run("validate", "--check", "all", "--hurst", "0.8", "--noise", "gaussian",
            "--n", "16", "--paths", "200", "--qv-sizes", "4,8,16",
            "--out", str(tmp_path / "rep.json"))
        assert built == {0: 1, 8: 1, 16: 3}

    def test_malformed_qv_sizes_exits_2(self, tmp_path, capsys):
        code = run("validate", "--check", "qv", "--process", "walk", "--n", "16",
                   "--paths", "50", "--qv-sizes", "16,abc",
                   "--out", str(tmp_path / "rep.json"))
        assert code == 2
        assert "--qv-sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("check, flag, value", [("covariance", "--s", "-0.5"),
                                                    ("histogram", "--t", "-0.5"),
                                                    ("skewness", "--t", "1.7"),
                                                    ("covariance", "--s", "1.5")])
    def test_time_outside_unit_interval_exits_2(self, tmp_path, capsys, check, flag, value):
        out = tmp_path / "rep.json"
        code = run("validate", "--check", check, "--hurst", "0.8", "--n", "16",
                   "--paths", "200", flag, value, "--out", str(out))
        assert code == 2
        assert "error: t must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_histogram_writes_csv(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run("validate", "--check", "histogram", "--process", "rosenblatt",
                   "--hurst", "0.8", "--n", "16", "--paths", "500",
                   "--seed", "3", "--bins", "12", "--out", str(out))
        assert code == 0
        hist_lines = (tmp_path / "rep.json.hist.csv").read_text().splitlines()
        assert hist_lines[0] == "bin_left,bin_right,count"
        assert len(hist_lines) == 13
        assert sum(int(l.split(",")[2]) for l in hist_lines[1:]) == 500

    def test_failing_check_exits_1(self, tmp_path, monkeypatch):
        # the laws under test are true, so failures only arise from sampling
        # flukes; pin the aggregation contract by stubbing an unskewed report
        from rosenblatt.stats import MomentReport

        def flat_skew(x, t, law, seed):
            return MomentReport(quantity="skewness", estimate=0.0,
                                std_error=1.0, sample_size=x.size, discrete=1.0)

        monkeypatch.setattr("rosenblatt.cli.st.skewness", flat_skew)
        code = run("validate", "--check", "skewness", "--process", "rosenblatt",
                   "--hurst", "0.8", "--n", "8", "--paths", "200",
                   "--seed", "11", "--out", str(tmp_path / "r.json"))
        assert code == 1
        rep = json.loads((tmp_path / "r.json").read_text())
        assert rep["passed"] is False

    @pytest.mark.parametrize("process, noise, n", [
        ("rosenblatt", "gaussian", 32), ("rosenblatt", "rademacher", 32),
        ("fbm", "gaussian", 32), ("walk", "rademacher", 32), ("walk", "gaussian", 64)])
    def test_streamed_reports_equal_ensemble_reports(self, tmp_path, process, noise, n):
        # validate reads each path as its slab leaves the pass; every report
        # field must be the bits of the reports on the ensemble held whole.
        # 1100 paths are two full slabs and a partial one; grid n = 32 is
        # read off the grid-64 draw, and n = 64 is the draw itself
        from dataclasses import asdict

        from rosenblatt import HurstParams, ProcessTag, simulate_ensemble
        from rosenblatt import stats as st
        from rosenblatt.paths import WalkLaw, grid_index
        from rosenblatt.stats import _jump_square_sums

        hurst = {"rosenblatt": "0.8", "fbm": "0.9", "walk": None}[process]
        p = {"rosenblatt": HurstParams(0.8), "fbm": HurstParams.from_kernel_hurst(0.9),
             "walk": None}[process]
        M, seed, s, t, bins, sizes = 1100, 8, 0.3, 0.9, 20, (16, 32, 64)
        out = tmp_path / "rep.json"
        run("validate", "--check", "all", "--process", process,
            *(["--hurst", hurst] if hurst else []), "--noise", noise, "--n", str(n),
            "--paths", str(M), "--seed", str(seed), "--s", str(s), "--t", str(t),
            "--bins", str(bins), "--qv-sizes", "16,32,64", "--out", str(out))
        got = {c["check"]: c for c in json.loads(out.read_text())["checks"]}

        # each grid read off the draw by the literal (N / n)^h scaling, not
        # by the package's own scale_to_grid
        N, h = 64, {"rosenblatt": 0.8, "fbm": 0.9, "walk": 0.5}[process]
        fine = simulate_ensemble(M, seed, noise, p, process, N)
        Z = (N / n) ** h * fine[:, : n + 1]
        law = WalkLaw(ProcessTag(process), p, n, N)

        def at(x):
            return Z[:, grid_index(n, x)]
        want = {
            "variance": st.increment_variance(at(0.0), at(t), 0.0, t, law),
            "covariance": st.covariance(at(s), at(t), s, t, law),
            "skewness": st.skewness(at(t), t, law, seed),
            "qv": st.qv_decay((nn, _jump_square_sums((N / nn) ** h * fine[:, : nn + 1]))
                              for nn in sizes),
        }
        for name, rep in want.items():
            for key, value in asdict(rep).items():
                if (name, key) != ("skewness", "note"):  # the command writes its own
                    assert got[name][key] == value, (name, key)
        st.histogram(at(t), bins).to_csv(tmp_path / "want.csv")
        assert ((tmp_path / "rep.json.hist.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    def test_memory_grows_by_samples_not_paths(self, tmp_path):
        # validate keeps a few numbers per path, never the (M, N + 1) paths:
        # from 1024 to 4096 paths at N = 256 the traced peak may grow by less
        # than 256 bytes a path, where the path matrix alone takes 8 (N + 1)
        import tracemalloc

        argv = ["validate", "--check", "all", "--process", "rosenblatt", "--hurst", "0.8",
                "--noise", "gaussian", "--n", "128", "--qv-sizes", "16,64,256",
                "--seed", "3"]
        # build the engine and its cached tables before measuring
        run(*argv, "--paths", "200", "--out", str(tmp_path / "warm.json"))
        peaks = {}
        for M in (1024, 4096):
            tracemalloc.start()
            try:
                run(*argv, "--paths", str(M), "--out", str(tmp_path / f"{M}.json"))
                peaks[M] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4096] - peaks[1024] < 256 * (4096 - 1024)


class TestMarket:
    def test_path_csv_and_scan(self, tmp_path):
        out = tmp_path / "mkt.csv"
        code = run("market", "--N", "32", "--hurst", "0.8", "--seed", "9",
                   "--scan-divergence", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,t,X,B,S,u,d,r_minus_a,violated"
        assert len(lines) == 33
        scan = json.loads((tmp_path / "mkt.csv.scan.json").read_text())
        assert scan["theoretical_exponent"] == pytest.approx(0.8)
        assert scan["first_violation"] is not None

    def test_demo_on_witness(self, tmp_path):
        out = tmp_path / "mkt.csv"
        code = run("market", "--N", "64", "--hurst", "0.8", "--seed", "1",
                   "--demo-arbitrage", "--witness-all-ones", "--out", str(out))
        assert code == 0
        trade = json.loads((tmp_path / "mkt.csv.trade.json").read_text())
        assert trade["pnl_up"] > 0 and trade["pnl_down"] > 0
        assert set(trade) == {f.name for f in fields(ArbitrageTrade)}

    def test_demo_inconclusive_exits_4(self, tmp_path):
        code = run("market", "--N", "16", "--hurst", "0.8", "--sigma", "0",
                   "--demo-arbitrage", "--out", str(tmp_path / "m.csv"))
        assert code == 4
        assert list(tmp_path.iterdir()) == []

    def test_demo_trades_only_before_a_positive_price(self, tmp_path):
        # the realised S_3 < 0 and the first violation is at n = 4, where the
        # short trade would lose on both branches; the demo trades at the
        # first violation with S_{n-1} > 0 instead
        out = tmp_path / "m.csv"
        assert run("market", "--N", "16", "--hurst", "0.8", "--sigma", "20",
                   "--rate-a", "const:-3", "--demo-arbitrage", "--out", str(out)) == 0
        S = [float(line.split(",")[4]) for line in out.read_text().splitlines()[1:]]
        assert S[2] < 0.0
        trade = json.loads((tmp_path / "m.csv.trade.json").read_text())
        n0 = trade["index"]
        assert n0 > 4 and trade["entry_stock"] == S[n0 - 2] > 0.0
        assert min(trade["pnl_up"], trade["pnl_down"]) >= 0.0
        assert max(trade["pnl_up"], trade["pnl_down"]) > 0.0

    def test_witness_overflow_refuses_no_output_that_does_not_read_it(self, tmp_path):
        # only the all-ones witness's S overflows (at n = 209); the scan reads
        # its d and the demo its first steps, so every output is written
        out = tmp_path / "m.csv"
        assert run("market", "--hurst", "0.8", "--N", "256", "--sigma", "100",
                   "--scan-divergence", "--demo-arbitrage", "--witness-all-ones",
                   "--seed", "1", "--out", str(out)) == 0
        scan = json.loads((tmp_path / "m.csv.scan.json").read_text())
        trade = json.loads((tmp_path / "m.csv.trade.json").read_text())
        assert len(scan["fg_sequence"]) == 255
        assert trade["index"] == scan["first_violation"]
        assert len(out.read_text().splitlines()) == 257

    def test_rate_parsing_errors(self, tmp_path):
        code = run("market", "--N", "16", "--hurst", "0.8",
                   "--rate-r", "spline:1", "--out", str(tmp_path / "m.csv"))
        assert code == 2

    @pytest.mark.parametrize("flag,spec", [("--rate-r", "affine:1"),
                                           ("--rate-a", "const:abc"),
                                           ("--rate-r", "table:no-such-file.csv")])
    def test_malformed_rate_spec_exits_2(self, tmp_path, capsys, flag, spec):
        code = run("market", "--N", "16", "--hurst", "0.8", flag, spec,
                   "--out", str(tmp_path / "m.csv"))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, builds", [
        (["--scan-divergence", "--demo-arbitrage", "--witness-all-ones"], 2),
        (["--demo-arbitrage"], 1),
    ])
    def test_builds_each_market_path_once(self, tmp_path, monkeypatch, flags, builds):
        # the realised path and, for the scan or the witness demo, the
        # all-ones path: one streamed pass builds each once, and every
        # output reads it
        import rosenblatt.cli as cli
        import rosenblatt.market as market
        build = market.build_markets
        calls = []

        def counting(cfg, xi):
            calls.append([row.tolist() for row in xi])
            return build(cfg, xi)

        def refuse(*args):
            raise AssertionError("a second market build")

        monkeypatch.setattr(cli, "build_markets", counting)
        # a build made inside the market layer would be a second pass
        monkeypatch.setattr(market, "build_markets", refuse)
        assert run("market", "--N", "32", "--hurst", "0.8", "--seed", "1", *flags,
                   "--out", str(tmp_path / "m.csv")) == 0
        assert len(calls) == 1
        assert len({tuple(v) for v in calls[0]}) == len(calls[0]) == builds

    def test_streams_without_engine_cache(self, tmp_path):
        # the market reads each panel block once, so it leaves no engine behind
        import rosenblatt.kernel as kernel
        kernel.get_engine.cache_clear()
        assert run("market", "--N", "40", "--hurst", "0.8", "--scan-divergence",
                   "--demo-arbitrage", "--witness-all-ones",
                   "--out", str(tmp_path / "m.csv")) == 0
        assert kernel.get_engine.cache_info().currsize == 0

    def test_market_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "mkt.csv"
        run("market", "--N", "32", "--hurst", "0.8", "--seed", "4",
            "--scan-divergence", "--out", str(out))
        before = out.read_bytes()
        scan_before = (tmp_path / "mkt.csv.scan.json").read_bytes()
        assert run("rerun", str(tmp_path / "mkt.csv.manifest.json")) == 0
        assert out.read_bytes() == before
        assert (tmp_path / "mkt.csv.scan.json").read_bytes() == scan_before


class TestConfigFile:
    def test_config_mirrors_flags(self, tmp_path):
        cfg = tmp_path / "preset.cfg"
        cfg.write_text("process=rosenblatt\nhurst=0.8\nn=16\npaths=3\nseed=21\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run("simulate", "--config", str(cfg), "--out", str(out1)) == 0
        assert run("simulate", "--process", "rosenblatt", "--hurst", "0.8",
                   "--n", "16", "--paths", "3", "--seed", "21", "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_explicit_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "preset.cfg"
        cfg.write_text("process=walk\nn=8\npaths=2\nseed=5\n")
        out = tmp_path / "c.csv"
        assert run("simulate", "--config", str(cfg), "--paths", "4",
                   "--out", str(out)) == 0
        meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
        assert meta["M"] == 4

    def test_rerun_replays_the_flags_not_the_current_config(self, tmp_path):
        # the manifest holds the expanded flags, so editing the config file
        # after the run does not change what rerun writes
        cfg = tmp_path / "run.cfg"
        cfg.write_text("process=walk\nn=8\npaths=2\nseed=1\n")
        out = tmp_path / "a.csv"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 0
        first = out.read_bytes()
        manifest = tmp_path / "a.csv.manifest.json"
        argv = json.loads(manifest.read_text())["argv"]
        assert "--config" not in argv and argv[argv.index("--seed") + 1] == "1"
        cfg.write_text("process=walk\nn=8\npaths=2\nseed=2\n")
        assert run("rerun", str(manifest)) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("tail", [[], ["no-such-file.cfg"]])
    def test_config_without_readable_file_exits_2(self, tmp_path, capsys, tail):
        code = run("simulate", "--out", str(tmp_path / "x.csv"), "--config", *tail)
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["market", "--N", "16", "--hurst", "0.8", "--sigma", "nan"],
        ["market", "--N", "16", "--hurst", "0.8", "--sigma", "inf"],
        ["market", "--N", "16", "--hurst", "0.8", "--S0", "nan"],
        ["market", "--N", "16", "--hurst", "0.8", "--B0", "inf"],
        ["market", "--N", "16", "--hurst", "0.8", "--rate-r", "const:nan"],
        ["market", "--N", "16", "--hurst", "0.8", "--rate-a", "affine:0,inf"],
        ["validate", "--check", "variance", "--hurst", "0.8", "--n", "8",
         "--paths", "20", "--s", "nan"],
        ["simulate", "--process", "walk", "--n", "8", "--hurst", "nan"],
        # finite flags whose market prices overflow
        ["market", "--N", "16", "--hurst", "0.8", "--sigma", "1e300", "--scan-divergence"],
        ["market", "--N", "16", "--hurst", "0.8", "--rate-a", "affine:1e308,1e308",
         "--scan-divergence", "--demo-arbitrage"],
        # a precondition of the scan, checked before the market CSV is written
        ["market", "--N", "3", "--hurst", "0.8", "--scan-divergence"],
    ])
    def test_non_finite_number_exits_2_writing_nothing(self, tmp_path, capsys, argv):
        code = run(*argv, "--out", str(tmp_path / "x.out"))
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        # numpy refuses these at allocation, before touching any memory:
        # more bytes than free memory, or than the address space holds
        ["validate", "--check", "histogram", "--process", "walk", "--n", "8",
         "--paths", "200", "--bins", "1000000000000000"],
        ["simulate", "--process", "walk", "--n", "8", "--paths", "1000000000000000"],
        ["simulate", "--process", "walk", "--n", "8", "--paths", "100000000000000000000"],
        ["simulate", "--process", "walk", "--n", "100000000000000000000", "--paths", "2"],
        ["market", "--N", "100000000000000000000", "--hurst", "0.8"],
    ])
    def test_size_beyond_memory_exits_2_writing_nothing(self, tmp_path, capsys, argv):
        code = run(*argv, "--out", str(tmp_path / "x.out"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["validate", "--process", "walk", "--check", "variance", "--n", "-5", "--paths", "10"],
        ["validate", "--process", "walk", "--check", "variance", "--n", "0", "--paths", "10"],
        ["validate", "--process", "rosenblatt", "--hurst", "0.8", "--check", "histogram",
         "--n", "-3", "--paths", "10"],
        ["simulate", "--process", "fbm", "--hurst", "0.9", "--n", "-1", "--paths", "2"],
        ["validate", "--process", "walk", "--check", "qv", "--n", "8", "--paths", "10",
         "--qv-sizes", "0,2,4"],
    ])
    def test_grid_below_one_exits_2_writing_nothing(self, tmp_path, capsys, argv):
        code = run(*argv, "--out", str(tmp_path / "x.out"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "at least 1" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["--check", "histogram", "--noise", "gaussian", "--n", "64", "--paths", "200000",
          "--bins", "1"], "need at least 2 bins"),
        (["--check", "all", "--paths", "200", "--bins", "0"], "need at least 2 bins"),
        (["--check", "histogram", "--paths", "200", "--bins", str(2 ** 62)],
         f"an array of shape ({2 ** 62 + 1},) exceeds the address space"),
        (["--check", "qv", "--qv-sizes", "16,16,32", "--paths", "100000"],
         "qv_decay needs at least three distinct grid sizes"),
        (["--check", "qv", "--qv-sizes", "8,16,16,32", "--paths", "200"],
         "qv_decay grid sizes must not repeat, got [8, 16, 16, 32]"),
        (["--check", "skewness", "--paths", "99"], "skewness needs at least 100 paths"),
        (["--check", "all", "--paths", "50"], "skewness needs at least 100 paths"),
        *((["--check", check, "--paths", "1"], "need at least two samples")
          for check in ("variance", "covariance", "qv", "all")),
        (["--check", "histogram", "--noise", "gaussian", "--n", "64", "--paths", "200000",
          "--bins", str(10 ** 15)],
         f"{10 ** 15} bins need {16 * (10 ** 15 + 1)} bytes, more than physical memory holds"),
        *((["--check", check, "--paths", "0"], "need at least two samples")
          for check in ("variance", "covariance", "qv", "all")),
        (["--check", "histogram", "--process", "fbm", "--hurst", "0.9", "--n", "1024",
          "--paths", "200", "--bins", "1"], "need at least 2 bins"),
    ])
    def test_flag_a_check_refuses_exits_2_before_the_draw(self, tmp_path, monkeypatch,
                                                          capsys, argv, message):
        # each refusal of a report is made before the walk is built or any
        # noise row is drawn
        def no_draw(*args):
            raise AssertionError("a noise row was drawn or a walk built")
        for name in ("_draw", "get_engine", "fbm_matrix"):
            monkeypatch.setattr(rosenblatt.paths, name, no_draw)
        code = run("validate", "--hurst", "0.8", *argv, "--out", str(tmp_path / "x.out"))
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("check", ["skewness", "all"])
    @pytest.mark.parametrize("process", [["--process", "walk"],
                                         ["--process", "fbm", "--hurst", "0.9"],
                                         ["--process", "rosenblatt", "--hurst", "0.8"],
                                         ["--process", "rosenblatt", "--hurst", "0.8",
                                          "--n", "16", "--t", "0.07"]])
    def test_skewness_at_grid_point_0_exits_2_writing_nothing(self, tmp_path, capsys,
                                                              process, check):
        # t = 0.001 snaps to grid point 0 of grid 64, where every path is 0,
        # and t = 0.07 to grid point 1 of grid 16, where the Rosenblatt walk
        # has no off-diagonal pair and is 0 too: the skewness of that point
        # mass is 0/0, so asking for it is a usage error
        code = run("validate", "--check", check, "--n", "64", "--t", "0.001", *process,
                   "--paths", "200", "--out", str(tmp_path / "x.out"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert ("grid point 1 of grid 16" if "--t" in process else "grid point 0 of grid 64") in err
        assert list(tmp_path.iterdir()) == []

    def test_market_without_hurst_exits_2_writing_nothing(self, tmp_path, capsys):
        code = run("market", "--N", "16", "--out", str(tmp_path / "x.out"))
        assert code == 2
        assert "required: --hurst" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_rate_table_exits_2(self, tmp_path, capsys):
        table = tmp_path / "rate.csv"
        table.write_text("0,0.1\n1,nan\n")
        code = run("market", "--N", "16", "--hurst", "0.8", "--rate-r", f"table:{table}",
                   "--out", str(tmp_path / "m.csv"))
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [table]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--process", "walk", "--n", "8", "--paths", "2"],
        ["market", "--N", "16", "--hurst", "0.8"],
    ])
    def test_out_in_missing_directory_exits_2(self, tmp_path, capsys, argv):
        out = str(tmp_path / "nodir" / "x.csv")
        code = run(*argv, "--out", out)
        assert code == 2
        # the write goes to a temporary, but the error names the output, and
        # only the output
        err = capsys.readouterr().err
        assert err == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {out!r}\n"

    _SIMULATE = ["simulate", "--process", "walk", "--n", "8", "--paths", "2", "--plot"]
    _HISTOGRAM = ["validate", "--check", "histogram", "--process", "walk", "--n", "16",
                  "--paths", "200", "--plot"]
    _MARKET = ["market", "--N", "16", "--hurst", "0.8", "--scan-divergence",
               "--demo-arbitrage", "--witness-all-ones"]

    @pytest.mark.parametrize("argv, taken", [
        pytest.param(_SIMULATE, "", id="argv0"),
        pytest.param(["validate", "--check", "all", "--hurst", "0.8", "--n", "16",
                      "--paths", "200", "--qv-sizes", "4,8,16"], "", id="argv1"),
        pytest.param(_HISTOGRAM, "", id="argv2"),
        pytest.param(_MARKET, "", id="argv3"),
        *(pytest.param(argv, suffix, id=f"{argv[0]}{suffix}")
          for argv, suffixes in [(_SIMULATE, [".meta.json", ".svg", ".manifest.json"]),
                                 (_HISTOGRAM, [".hist.csv", ".hist.svg", ".manifest.json"]),
                                 (_MARKET, [".scan.json", ".trade.json", ".manifest.json"])]
          for suffix in suffixes),
    ])
    def test_out_naming_a_directory_exits_2_writing_nothing(self, tmp_path, monkeypatch,
                                                            capsys, argv, taken):
        # an empty directory where the primary output or one of its sidecars
        # goes: the write that meets it fails, and the files written before
        # it are removed, so the directory is all that is left
        monkeypatch.chdir(tmp_path)
        (tmp_path / f"out{taken}").mkdir()
        code = run(*argv, "--out", "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == [f"out{taken}"]
        assert list((tmp_path / f"out{taken}").iterdir()) == []

    @staticmethod
    def _part_then_raise(exc):
        """A writer that writes the start of its file, then raises ``exc``."""
        def write(*args):
            with open(args[-1], "w") as fh:
                fh.write("path_id,m,t,value\n0,0")
                raise exc
        return write

    @pytest.mark.parametrize("argv, target, earlier", [
        (_SIMULATE, "rosenblatt.cli.write_ensemble", None),
        (_MARKET, "rosenblatt.market.MarketPath.to_csv", None),
        (_SIMULATE, "rosenblatt.cli.write_ensemble", b"an earlier run\n"),
        (_MARKET, "rosenblatt.market.MarketPath.to_csv", b"an earlier run\n"),
    ], ids=["ensemble-csv", "market-csv", "ensemble-csv-over-earlier", "market-csv-over-earlier"])
    def test_write_failing_midway_exits_2_leaving_nothing(self, tmp_path, monkeypatch,
                                                          capsys, argv, target, earlier):
        # a primary that existed before the run keeps its bytes: the failed
        # write went to a temporary beside it, never to the file itself
        out = tmp_path / "out"
        if earlier is not None:
            out.write_bytes(earlier)
        monkeypatch.setattr(target, self._part_then_raise(
            OSError(errno.ENOSPC, "No space left on device")))
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == ([] if earlier is None else [out])
        assert earlier is None or out.read_bytes() == earlier

    def test_failing_sidecar_keeps_a_primary_that_existed(self, tmp_path, monkeypatch, capsys):
        # a sidecar path that is a directory is refused before anything is
        # written, so the old primary is left byte for byte
        monkeypatch.chdir(tmp_path)
        Path("out").write_bytes(b"an earlier run\n")
        Path("out.svg").mkdir()
        assert run(*self._SIMULATE, "--out", "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'out.svg'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "out.svg"]
        assert Path("out").read_bytes() == b"an earlier run\n"
        assert list(Path("out.svg").iterdir()) == []

    @pytest.mark.parametrize("argv", [_SIMULATE, _MARKET], ids=["simulate", "market"])
    def test_symlinked_out_writes_through_to_its_target(self, tmp_path, monkeypatch, argv):
        # the run replaces the link's target and keeps the link; the sidecars
        # and the manifest sit beside the link, as the manifest records them
        monkeypatch.chdir(tmp_path)
        Path("data").mkdir()
        Path("data/real.csv").write_text("an earlier run\n")
        Path("out").symlink_to("data/real.csv")
        assert run(*argv, "--out", "out") == 0
        assert Path("out").is_symlink() and os.readlink("out") == "data/real.csv"
        assert Path("data/real.csv").read_text().startswith(("path_id,", "n,t,"))
        assert os.listdir("data") == ["real.csv"]
        manifest = json.loads(Path("out.manifest.json").read_text())
        assert "out" in manifest["outputs"]
        assert all(Path(name).is_file() for name in manifest["outputs"])

    def test_interrupt_in_csv_writer_propagates_leaving_nothing(self, tmp_path, monkeypatch):
        import rosenblatt.cli as cli
        real = cli.path_slabs

        def interrupted(*args):
            slabs = real(*args)
            yield next(slabs)
            raise KeyboardInterrupt

        # the first slab is drawn before the write; the interrupt comes in the
        # CSV writer, once it has written the header and that slab
        monkeypatch.setattr(cli, "path_slabs", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(*self._SIMULATE, "--out", str(tmp_path / "out"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("via_config", [False, True])
    def test_tol_flag_exits_2(self, tmp_path, capsys, via_config):
        # no computation reads a tolerance, so the flag is gone
        tol = ["--tol", "1e-8"]
        if via_config:
            cfg = tmp_path / "old.cfg"
            cfg.write_text("tol=1e-8\n")
            tol = ["--config", str(cfg)]
        code = run("simulate", "--process", "walk", "--n", "8", *tol,
                   "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_rerun_of_manifest_with_tol_exits_2(self, tmp_path, capsys):
        # a manifest written while --tol existed replays as a usage error
        manifest = tmp_path / "old.csv.manifest.json"
        manifest.write_text(json.dumps({
            "command": "simulate",
            "argv": ["simulate", "--process", "walk", "--n", "8", "--tol", "1e-08",
                     "--out", str(tmp_path / "old.csv")]}))
        assert run("rerun", str(manifest)) == 2
        err = capsys.readouterr().err
        assert "--tol" in err and "Traceback" not in err

    @pytest.mark.parametrize("case", ["no-argv", "list", "self-rerun", "config-self-rerun"])
    def test_rerun_of_malformed_manifest_exits_2(self, tmp_path, capsys, case):
        # a replay holds the expanded flags, so never --config; one that
        # expands to rerun of its own manifest would recurse without end
        manifest = tmp_path / "bad.manifest.json"
        config = tmp_path / "empty.cfg"
        config.write_text("")
        payload = {"no-argv": {"command": "simulate"},
                   "list": ["simulate", "--process", "walk"],
                   "self-rerun": {"argv": ["rerun", str(manifest)]},
                   "config-self-rerun": {"argv": ["--config", str(config), "rerun",
                                                  str(manifest)]}}[case]
        manifest.write_text(json.dumps(payload))
        assert run("rerun", str(manifest)) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


class TestEnvironment:
    def test_histogram_plot_svg(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run("validate", "--check", "histogram", "--process", "walk",
                   "--n", "16", "--paths", "300", "--seed", "3",
                   "--out", str(out), "--plot")
        assert code == 0
        svg = (tmp_path / "rep.json.hist.svg").read_text()
        assert svg.startswith("<svg") and "rect" in svg

    def test_commands_do_not_import_scipy_linalg(self, tmp_path):
        # scipy.linalg takes about 0.07 s to import and no command needs it
        import rosenblatt
        src = str(Path(rosenblatt.__file__).resolve().parents[1])
        script = f"""
import sys
from rosenblatt import cli
market = cli.main(["market", "--N", "16", "--hurst", "0.8",
                   "--out", {str(tmp_path / "m.csv")!r}])
validate = cli.main(["validate", "--check", "all", "--process", "rosenblatt",
                     "--hurst", "0.8", "--n", "16", "--paths", "200",
                     "--qv-sizes", "16,32,64", "--out", {str(tmp_path / "v.json")!r}])
print(market, validate, "scipy.linalg" in sys.modules)
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        market, validate, linalg = proc.stdout.split()[-3:]
        assert market == "0" and validate in ("0", "1")
        assert linalg == "False"


def _package_memos():
    """Every object of the package with a ``cache_info``: its memoised
    functions, module-level or in a class, by qualified name."""
    import importlib
    import pkgutil

    import rosenblatt
    memos = {}
    for info in pkgutil.iter_modules(rosenblatt.__path__):
        module = importlib.import_module(f"rosenblatt.{info.name}")
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for member in members:
                if (hasattr(member, "cache_info")
                        and getattr(member, "__module__", None) == module.__name__):
                    memos[f"{module.__name__}.{member.__qualname__}"] = member
    return memos


class TestMemos:
    def test_every_memo_is_hit_by_some_command(self, tmp_path):
        # each command runs with every memo empty, as in a fresh process; a
        # memo that no command hits costs its entries and saves nothing
        memos = _package_memos()
        assert {"rosenblatt.kernel.get_engine", "rosenblatt.kernel.fbm_matrix"} <= set(memos)
        hits = dict.fromkeys(memos, 0)
        for argv in (
                ["validate", "--check", "all", "--process", "rosenblatt", "--hurst", "0.8",
                 "--n", "16", "--paths", "100", "--qv-sizes", "4,8,16"],
                ["validate", "--check", "all", "--process", "fbm", "--hurst", "0.9",
                 "--n", "16", "--paths", "100", "--qv-sizes", "4,8,16"],
                ["simulate", "--process", "rosenblatt", "--hurst", "0.8", "--n", "16",
                 "--paths", "4"],
                ["market", "--N", "16", "--hurst", "0.8", "--scan-divergence",
                 "--demo-arbitrage", "--witness-all-ones"]):
            for memo in memos.values():
                memo.cache_clear()
            assert run(*argv, "--out", str(tmp_path / "out")) in (0, 1)
            for name, memo in memos.items():
                hits[name] += memo.cache_info().hits
        assert [name for name, count in hits.items() if count == 0] == []


# Boundary values of each flag of a command: mostly ones the parser takes, and
# a few it refuses.  A flag is left out (its default) with probability
# _FUZZ_OMIT, 0.3 unless listed; each switch is given with probability 1/2.
_HURST = (["0.5000001", "0.51", "0.76", "0.8", "0.99", "0.9999999"], ["0.5", "0.75", "1", "nan"])
_SEED = (["0", "1", "-1", "18446744073709551617"], ["x", "1.5"])
_RATE = ["const:nan", "affine:1", "affine:0,inf", "cosh:1", "const:", "table:absent.csv"]
_FUZZ_FLAGS = {
    "--t": (["0", "0.001", "0.07", "0.0625", "0.25", "0.5", "0.51", "0.999", "1"],
            ["-0.5", "1.0000001", "nan", "x"]),
    "--s": (["0", "0.001", "0.25", "0.5", "0.999", "1"], ["-1", "2", "inf"]),
    "--n": (["1", "2", "3", "4", "7", "16"], ["-1", "0", "x"]),
    "--paths": (["2", "3", "99", "100", "101", "130"], ["-1", "0", "1"]),
    "--qv-sizes": (["1,2,4", "2,4,8", "4,4,8", "4,8", "2,3,5", "4,8,16", "1,1,2", "16,8,4",
                    "2,16,3"], ["0,2,4", "-1,2,4", "abc", ""]),
    "--process": (["walk", "fbm", "rosenblatt"], ["brownian"]),
    "--check": (["variance", "covariance", "skewness", "qv", "histogram", "all"], ["none"]),
    "--noise": (["rademacher", "gaussian"], ["cauchy"]),
    "--hurst": _HURST,
}
_FUZZ_OMIT = {"--check": 0.02, "--process": 0.2, "--hurst": 0.05, "--paths": 0.05}
_FUZZ = {
    "validate": (_FUZZ_FLAGS, _FUZZ_OMIT, []),
    "simulate": ({
        "--process": (["walk", "fbm", "rosenblatt"], ["brownian"]),
        "--hurst": _HURST,
        "--n": (["1", "2", "3", "7", "16", "64"], ["-1", "0", "x"]),
        "--paths": (["1", "2", "3", "129"], ["-1", "0", "x"]),
        "--seed": _SEED,
        "--noise": (["rademacher", "gaussian"], ["cauchy"]),
    }, {"--process": 0.02, "--hurst": 0.05}, ["--plot"]),
    "market": ({
        "--N": (["2", "3", "4", "5", "16", "63", "64"], ["-1", "0", "1", "x"]),
        "--hurst": _HURST,
        "--sigma": (["0", "1e-300", "0.5", "1", "20", "1e300"], ["nan", "inf", "x"]),
        "--rate-r": (["const:0.5", "const:0", "const:-1", "affine:0.1,0.2", "const:1e308"],
                     _RATE),
        "--rate-a": (["const:0", "const:0.5", "const:-3", "affine:0,1e-3"], _RATE),
        "--S0": (["1", "1e-300", "0.5", "1e300"], ["0", "-1", "nan", "x"]),
        "--B0": (["1", "2", "1e300"], ["0", "-1", "inf", "x"]),
        "--seed": _SEED,
    }, {"--hurst": 0.05}, ["--scan-divergence", "--demo-arbitrage", "--witness-all-ones"]),
}


def _fuzz_argv(rng, command: str) -> list[str]:
    flags, omit, switches = _FUZZ[command]
    argv = [command]
    for flag, (taken, refused) in flags.items():
        if rng.random() >= omit.get(flag, 0.3):
            argv += [flag, rng.choice(refused if rng.random() < 0.04 else taken)]
    return argv + [switch for switch in switches if rng.random() < 0.5]


def _fuzz_run(argv, tmp_path, capsys, keep=()) -> int:
    """Run ``argv`` and check the exit-code contract: 0, 1, 2 or 4, nothing
    raised, and an exit 2 or 4 prints one error: or inconclusive: line and
    leaves no file but ``keep``.  Then removes every file but ``keep``."""
    code = run(*argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 4), argv
    if code in (2, 4):
        assert len([line for line in err.splitlines()
                    if "error:" in line or "inconclusive:" in line]) == 1, argv
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(keep), argv
    for path in tmp_path.iterdir():
        if path.name not in keep:
            path.unlink()
    return code


def _readme_commands() -> list[list[str]]:
    """The commands of README's "Command line" block, each split into words."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def test_readme_command_block_runs(tmp_path, monkeypatch):
    # a reader pastes the block into a fresh directory: every command exits 0
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert [words[0] for words in commands] == ["mkdir"] + ["rosenblatt"] * 5
    for words in commands:
        if words[:2] == ["mkdir", "-p"]:
            Path(words[2]).mkdir(parents=True, exist_ok=True)
        else:
            assert main(words[1:]) == 0, words


class TestValidateFuzz:
    """A seeded fuzz of ``validate`` over boundary values of its flags.  It
    checks the exit-code contract only, no verdict: each run returns 0, 1 or
    2 and raises nothing (a numpy RuntimeWarning included), and an exit 2
    prints one error: line and leaves no file."""

    def test_exit_codes_hold(self, tmp_path, capsys):
        rng = random.Random(0)
        out = str(tmp_path / "rep.json")
        codes = [_fuzz_run([*_fuzz_argv(rng, "validate"), "--out", out], tmp_path, capsys)
                 for _ in range(2000)]
        # every exit code is reached, so the values reach past the parser
        assert set(codes) == {0, 1, 2}


class TestCommandFuzz:
    """The seeded fuzz of ``TestValidateFuzz`` for ``simulate``, ``market`` and
    ``rerun``, at tiny sizes: the exit-code contract only, no verdict.  A
    rerun replays a fuzzed simulate, market or validate command from its
    manifest, or reads a manifest that is malformed or absent.  Every run
    starts over an ``--out`` file of an earlier run, which an exit 2 or 4
    leaves byte for byte."""

    def _rerun_argv(self, rng, tmp_path) -> tuple[list[str], tuple[str, ...]]:
        manifest = tmp_path / "in.manifest.json"
        replay = [*_fuzz_argv(rng, rng.choice(["simulate", "market", "validate"])),
                  "--out", str(tmp_path / "out")]
        payload = rng.choice([{"argv": replay}] * 12 + [
            {"argv": ["rerun", str(manifest)]}, {"argv": ["--config", "absent.cfg", *replay]},
            {"argv": [*replay[:-1], 7]}, {"command": replay[0]}, replay, "{", None])
        if payload is None:
            manifest.unlink(missing_ok=True)
            return ["rerun", str(manifest)], ()
        manifest.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return ["rerun", str(manifest)], (manifest.name,)

    @pytest.mark.parametrize("command, seed, reached", [
        ("simulate", 1, {0, 2}), ("market", 2, {0, 2, 4}), ("rerun", 3, {0, 1, 2, 4})],
        ids=["simulate", "market", "rerun"])
    def test_exit_codes_hold(self, tmp_path, capsys, command, seed, reached):
        rng = random.Random(seed)
        codes = set()
        out = tmp_path / "out"
        for _ in range(500):
            if command == "rerun":
                argv, keep = self._rerun_argv(rng, tmp_path)
            else:
                argv, keep = [*_fuzz_argv(rng, command), "--out", str(out)], ()
            out.write_bytes(b"an earlier run\n")
            code = _fuzz_run(argv, tmp_path, capsys, (*keep, out.name))
            assert code in (0, 1) or out.read_bytes() == b"an earlier run\n", argv
            codes.add(code)
        assert codes == reached


class TestPinnedBytes:
    """Every process's simulate and validate artifacts, a witness market
    run's CSV, scan and long trade, and a realised path's CSV and short trade
    keep their bytes: tests/test_benchmark_gate.py compares the benchmark's
    Rosenblatt and market floats only within a tolerance.  Recorded with
    numpy 2.4.6, scipy 1.17.1 and OpenBLAS 0.3.31 (scipy-openblas), the
    versions CI installs; each hash is the same at the default thread count
    and with one BLAS thread on one CPU.  The walk and fbm val.json hashes
    were re-recorded when the skewness report's ``discrete`` became the
    exact skewness (0.0 for these linear walks, null before); no other byte
    of them moved.  All six val.json hashes and the market's scan.json hash
    were re-recorded when both log-log fits moved from np.polyfit to
    statistics.linear_regression: only the qv check's slope and intercept
    and the scan's fitted_exponent moved, each by at most 30 eps relative.
    The fits read no BLAS or LAPACK, so every hash here also holds under
    OPENBLAS_CORETYPE=Haswell.  They were recorded where numpy dispatches
    its float64 power, log and exp loops to AVX-512 (X86_V4), whose last
    bits differ from its AVX2 loops, and with CPython 3.11's statistics."""

    SHA256 = {
        ("walk", "rademacher"): {
            "sim.csv": "0e653727cae294f20e3785b9bb2a327d312b3811a01e1b4b2133014a7a7dcc40",
            "sim.csv.meta.json": "61408e19eb1c0040414d80bf067ab52431c026a13214c450c0a8027da4e9130d",
            "val.json": "f35fc248536bb197f78dccb167c6e6f90a678719ef283880bc831504e0b02350",
            "val.json.hist.csv": "9c17b25ee33306a614833fe58390d86c88511b38fe4f2f06a3e3abcc74076acf"},
        ("walk", "gaussian"): {
            "sim.csv": "fb04000bc1c9ffaa3e067580f16071e410aa02ff6fbae5b32044557d79e2f1b2",
            "sim.csv.meta.json": "3f41de9ea4da40dbf5d2a7f5c031de28bc15b63ebbdf95ddbd5ee51cae4441aa",
            "val.json": "0c28da20b9b8d7486445043aff37ebb6c7b2f1903e3a4cc2e4252e3017ab3d36",
            "val.json.hist.csv": "7511b704c4653275c0f5038a0b763d4ab1b1cbb2b6943340b7e8d0fdac499bb0"},
        ("fbm", "rademacher"): {
            "sim.csv": "49b89a298a9689248cd2a715495916538b24c9483815cf3087e22e6ba0f0cb71",
            "sim.csv.meta.json": "7f8a8cec5d5cc8eeb10f3da66fdc8eb6c33fc3dbca6b9e405507c6eceee7997a",
            "val.json": "8be5f878e04d244c4fa601ffb12c614fe9f0ee8948499a9e449ff0bab5d43881",
            "val.json.hist.csv": "642bd9a68ed44c4df134297abf27c7f5decf5b8d33bf14f9912b5348782c3efc"},
        ("fbm", "gaussian"): {
            "sim.csv": "72a591aec99be85a892e6b04600b4f3383afa755d59b177abe177adc9042572f",
            "sim.csv.meta.json": "474f43f7626393aa32537db003fe7938774ad929c27b683c5420717da457d5ef",
            "val.json": "403a127674479272a27739d44a80eb05631e6141c381c12d56bbb4c2e5a8f7d6",
            "val.json.hist.csv": "a2a575c7bfbd2dca58dac616d63a71950998504fc3e830951c776e2b98e63e7d"},
        ("rosenblatt", "rademacher"): {
            "sim.csv": "108c1d4f839cabc0b9f35da69670bab3cc90204e1a824a66ae900f35495d3d81",
            "sim.csv.meta.json": "094c7827a3e044201a4220f06cff8ec06fa102dc8d18433eaa1d886951b1ddc1",
            "val.json": "6757e4e344371f6fd6d97426c03a0ded9d5424b46c19b823e0fe40ca4668d0de",
            "val.json.hist.csv": "0b1f24c596324915cfd917728082c058ee8b9c78c150e6dd0acc99712ea77139"},
        ("rosenblatt", "gaussian"): {
            "sim.csv": "f3d5551ac6f7caf98ac61cdc6a972e916a84293a1ce8fb4594de6eabc1548df2",
            "sim.csv.meta.json": "353c7b557854152b5bf846ee0e4ef1e3eae4d09446a40129860665e5f50bde20",
            "val.json": "0d5c983db7f587a197fc027af47e9d2a68cb37d0d7efd115e4a007e48333de27",
            "val.json.hist.csv": "976b644bb86f714da95b3e0205d83ca66aa50cd2f103b72fbcf1495d01b305a2"},
    }
    HURST = {"walk": [], "fbm": ["--hurst", "0.9"], "rosenblatt": ["--hurst", "0.8"]}
    # on grids 8..32 the Rosenblatt QV slope is still off its limit 1 - 2H, so
    # the qv check, and validate with it, fails there (exit 1)
    VALIDATE_EXIT = {"walk": 0, "fbm": 0, "rosenblatt": 1}
    MARKET = {
        "mkt.csv": "80a55425b35831ae2e4eb6fb86f156327da0eb032942e64a98a69c38de471837",
        "mkt.csv.scan.json": "f1f59d3be272b7eaf114cccfe15f5fb4e798c617cd6517ca19c01e804f5b9c80",
        "mkt.csv.trade.json": "eaff307b9996070426f4febc68ce6e3f2eff10a03e16a5129d10d9e727571300",
    }
    # a realised path that trades short at n = 4 with S_3 = 2.5399...
    SHORT = {
        "mkt.csv": "b7ec327bae83c2e268b7a0287adc49f70700cb04af3efc5c920124c82fc3fb22",
        "mkt.csv.trade.json": "7082f75babf352fb9d68f6c463a27fe3272eab0ee12bcad3d06443dc87da6c94",
    }

    @pytest.mark.parametrize("process, noise", sorted(SHA256))
    def test_simulate_and_validate_keep_their_bytes(self, tmp_path, monkeypatch, process,
                                                    noise):
        # relative output paths: the report records its histogram file's path
        monkeypatch.chdir(tmp_path)
        flags = ["--process", process, *self.HURST[process],
                 "--noise", noise, "--n", "32", "--paths", "200", "--seed", "3"]
        assert run("simulate", *flags, "--out", "sim.csv") == 0
        assert run("validate", "--check", "all", *flags, "--qv-sizes", "8,16,32",
                   "--out", "val.json") == self.VALIDATE_EXIT[process]
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in self.SHA256[process, noise]}
        assert got == self.SHA256[process, noise]

    def test_market_keeps_its_bytes(self, tmp_path):
        assert run("market", "--N", "64", "--hurst", "0.8", "--scan-divergence",
                   "--demo-arbitrage", "--witness-all-ones", "--seed", "3",
                   "--out", str(tmp_path / "mkt.csv")) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in self.MARKET}
        assert got == self.MARKET

    def test_short_trade_keeps_its_bytes(self, tmp_path):
        assert run("market", "--N", "64", "--hurst", "0.8", "--sigma", "0.7",
                   "--rate-r", "affine:0.5,3", "--rate-a", "const:0.3", "--S0", "2.5",
                   "--demo-arbitrage", "--seed", "3", "--out", str(tmp_path / "mkt.csv")) == 0
        trade = json.loads((tmp_path / "mkt.csv.trade.json").read_text())
        assert (trade["index"], trade["strategy"]) == (4, "short-stock")
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in self.SHORT}
        assert got == self.SHORT
