"""Command-line contract: flags, exit codes, file outputs, determinism."""
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

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

    def test_skewness_both_directions(self, tmp_path):
        code = run("validate", "--check", "skewness", "--process", "rosenblatt",
                   "--hurst", "0.8", "--n", "64", "--paths", "3000",
                   "--seed", "2", "--out", str(tmp_path / "r1.json"))
        assert code == 0
        code = run("validate", "--check", "skewness", "--process", "walk",
                   "--noise", "gaussian", "--n", "64", "--paths", "3000",
                   "--seed", "2", "--out", str(tmp_path / "r2.json"))
        assert code == 0

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

    @pytest.mark.parametrize("check, n, qv, drawn", [
        ("all", "32", "16,64,48", [64]),
        ("all", "128", "16,32,64", [128]),
        ("variance", "32", "16,256", [32]),
    ])
    def test_draws_one_ensemble_on_finest_grid(self, tmp_path, monkeypatch,
                                               check, n, qv, drawn):
        import rosenblatt.cli as cli
        calls = []
        simulate = cli.simulate_ensemble

        def recording(count, seed, kind, p, process, grid):
            calls.append(grid)
            return simulate(count, seed, kind, p, process, grid)

        monkeypatch.setattr(cli, "simulate_ensemble", recording)
        run("validate", "--check", check, "--process", "walk", "--noise", "gaussian",
            "--n", n, "--paths", "200", "--qv-sizes", qv, "--seed", "4",
            "--out", str(tmp_path / "rep.json"))
        assert calls == drawn

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

        def flat_skew(ens, t):
            return MomentReport(quantity="skewness", estimate=0.0,
                                std_error=1.0, sample_size=ens.count)

        monkeypatch.setattr("rosenblatt.cli.st.skewness", flat_skew)
        code = run("validate", "--check", "skewness", "--process", "rosenblatt",
                   "--hurst", "0.8", "--n", "8", "--paths", "200",
                   "--seed", "11", "--out", str(tmp_path / "r.json"))
        assert code == 1
        rep = json.loads((tmp_path / "r.json").read_text())
        assert rep["passed"] is False


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
        # all-ones path: each is built once and read by every output
        import rosenblatt.cli as cli
        import rosenblatt.market as market
        build = market.build_market
        noises = []

        def counting(cfg, noise, *rest):
            noises.append(noise.values.tolist())
            return build(cfg, noise, *rest)

        # a build made inside the market layer counts too
        monkeypatch.setattr(cli, "build_market", counting)
        monkeypatch.setattr(market, "build_market", counting)
        assert run("market", "--N", "32", "--hurst", "0.8", "--seed", "1", *flags,
                   "--out", str(tmp_path / "m.csv")) == 0
        assert len(noises) == builds
        assert len({tuple(v) for v in noises}) == builds

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


    @pytest.mark.parametrize("tail", [[], ["no-such-file.cfg"]])
    def test_config_without_readable_file_exits_2(self, tmp_path, capsys, tail):
        code = run("simulate", "--out", str(tmp_path / "x.csv"), "--config", *tail)
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--process", "walk", "--n", "8", "--paths", "2"],
        ["market", "--N", "16", "--hurst", "0.8"],
    ])
    def test_out_in_missing_directory_exits_2(self, tmp_path, capsys, argv):
        code = run(*argv, "--out", str(tmp_path / "nodir" / "x.csv"))
        assert code == 2
        assert "error:" in capsys.readouterr().err

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

    @pytest.mark.parametrize("case", ["no-argv", "list", "self-rerun"])
    def test_rerun_of_malformed_manifest_exits_2(self, tmp_path, capsys, case):
        manifest = tmp_path / "bad.manifest.json"
        payload = {"no-argv": {"command": "simulate"},
                   "list": ["simulate", "--process", "walk"],
                   "self-rerun": {"argv": ["rerun", str(manifest)]}}[case]
        manifest.write_text(json.dumps(payload))
        assert run("rerun", str(manifest)) == 2
        assert "error:" in capsys.readouterr().err


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
