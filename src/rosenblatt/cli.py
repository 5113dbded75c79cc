"""Batch command-line interface: simulate / validate / market / rerun.

Every command is deterministic given its full flag set; outputs are
byte-identical across reruns.  Each primary output is accompanied by a
manifest (<out>.manifest.json) recording the resolved command line, so
`rosenblatt rerun MANIFEST` reproduces the artifacts exactly.  Wall time is
reported on stderr only; nothing volatile is written into output files.

Exit codes: 0 pass, 1 check failure, 2 usage (a bad flag or value, or an
output path that cannot be written), 4 inconclusive (arbitrage demo found no
violation at this scale).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .kernel import DomainError, HurstParams
from .market import (InconclusiveError, MarketConfig, affine_rate, arbitrage_demo,
                     build_market, constant_rate, divergence_scan, tabulated_rate)
from .paths import (NoiseKind, NoiseSequence, PathEnsemble, ProcessTag, make_noise,
                    simulate_ensemble, write_ensemble, write_json)
from . import stats as st

_QV_SIZES = (16, 32, 64, 128, 256)


def _params_for(process: ProcessTag, hurst: float | None) -> HurstParams | None:
    """CLI --hurst is the simulated process's own index: H in (1/2, 1) for
    rosenblatt, the kernel index in (3/4, 1) for fbm, ignored for walk."""
    if process is ProcessTag.WALK:
        return None
    if hurst is None:
        raise DomainError(f"--hurst is required for process {process.value}")
    if process is ProcessTag.FBM:
        return HurstParams.from_kernel_hurst(hurst)
    return HurstParams(hurst)


def _parse_rate(spec: str):
    kind, _, rest = spec.partition(":")
    try:
        if kind == "const":
            return constant_rate(float(rest))
        if kind == "affine":
            base, slope = rest.split(",")
            return affine_rate(float(base), float(slope))
        if kind == "table":
            ts, vs = [], []
            for line in Path(rest).read_text().splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                t_s, v_s = line.split(",")
                ts.append(float(t_s))
                vs.append(float(v_s))
            return tabulated_rate(ts, vs)
    except (OSError, ValueError) as exc:
        raise DomainError(f"malformed rate spec {spec!r}: {exc}") from exc
    raise DomainError(f"unknown rate preset {spec!r}; use const:X, affine:X,Y or table:FILE")


def _manifest(out: Path, command: str, args: argparse.Namespace,
              argv: list[str], outputs: list[str]) -> str:
    params = {k: v for k, v in vars(args).items() if k not in ("func", "argv") and v is not None}
    path = Path(str(out) + ".manifest.json")
    write_json(path, {
        "command": command,
        "params": {k: (v if isinstance(v, (int, float, str, bool)) else str(v))
                   for k, v in params.items()},
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "argv": argv,
        "outputs": sorted(outputs),
    })
    return str(path)


# ---------------------------------------------------------------------------
# minimal SVG emitters (no plotting dependencies)
# ---------------------------------------------------------------------------

def _svg_header(w, h):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">\n<rect width="100%" height="100%" fill="white"/>\n')


def _svg_paths(times, rows, path: Path, w=640, h=400) -> None:
    lo = min(float(r.min()) for r in rows)
    hi = max(float(r.max()) for r in rows)
    span = (hi - lo) or 1.0
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
              "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#ff7f0e"]
    parts = [_svg_header(w, h)]
    for k, row in enumerate(rows):
        pts = " ".join(f"{t * (w - 20) + 10:.1f},{h - 10 - (v - lo) / span * (h - 20):.1f}"
                       for t, v in zip(times, row))
        parts.append(f'<polyline fill="none" stroke="{colors[k % len(colors)]}" '
                     f'stroke-width="1" points="{pts}"/>\n')
    parts.append("</svg>\n")
    path.write_text("".join(parts))


def _svg_bars(edges, counts, path: Path, w=640, h=400) -> None:
    peak = max(int(c) for c in counts) or 1
    lo, hi = float(edges[0]), float(edges[-1])
    span = (hi - lo) or 1.0
    parts = [_svg_header(w, h)]
    for left, right, c in zip(edges[:-1], edges[1:], counts):
        x0 = (left - lo) / span * (w - 20) + 10
        bw = (right - left) / span * (w - 20)
        bh = int(c) / peak * (h - 20)
        parts.append(f'<rect x="{x0:.1f}" y="{h - 10 - bh:.1f}" width="{bw:.1f}" '
                     f'height="{bh:.1f}" fill="#1f77b4" stroke="white" stroke-width="0.5"/>\n')
    parts.append("</svg>\n")
    path.write_text("".join(parts))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args, argv) -> int:
    process = ProcessTag(args.process)
    p = _params_for(process, args.hurst)
    if args.n < 1:
        raise DomainError(f"--n must be at least 1, got {args.n}")
    ens = simulate_ensemble(args.paths, args.seed, NoiseKind(args.noise), p,
                            process, args.n)
    out = Path(args.out)
    outputs = write_ensemble(ens, out)
    if args.plot:
        svg = Path(str(out) + ".svg")
        _svg_paths(np.arange(args.n + 1) / args.n, list(ens.values[:10]), svg)
        outputs.append(str(svg))
    outputs.append(_manifest(out, "simulate", args, argv, outputs))
    return 0


def _run_checks(args) -> tuple[list[dict], list[str]]:
    process = ProcessTag(args.process)
    p = _params_for(process, args.hurst)
    kind = NoiseKind(args.noise)
    checks = []
    extra_files: list[str] = []
    wanted = [args.check] if args.check != "all" else [
        "variance", "covariance", "skewness", "qv", "histogram"]

    sizes = []
    if "qv" in wanted:
        try:
            sizes = [int(s) for s in args.qv_sizes.split(",")]
        except ValueError as exc:
            raise DomainError(f"malformed --qv-sizes {args.qv_sizes!r}: {exc}") from exc
    # one ensemble on the finest grid; every check reads its grid off it
    finest = simulate_ensemble(args.paths, args.seed, kind, p, process,
                               max([args.n, *sizes]))
    ensembles: dict[int, PathEnsemble] = {}

    def ensemble(n: int) -> PathEnsemble:
        if n not in ensembles:
            ensembles[n] = finest.coarsen(n)
        return ensembles[n]

    for name in wanted:
        if name == "variance":
            rep = st.increment_variance(ensemble(args.n), 0.0, args.t)
            checks.append({"check": "variance", "passed": rep.within(4.0),
                           **asdict(rep)})
        elif name == "covariance":
            rep = st.covariance(ensemble(args.n), args.s, args.t)
            checks.append({"check": "covariance", "passed": rep.within(4.0),
                           **asdict(rep)})
        elif name == "skewness":
            rep = st.skewness(ensemble(args.n), args.t)
            if process is ProcessTag.ROSENBLATT:
                ok = abs(rep.estimate) > 3.0 * rep.std_error
                note = "expect significant skew (non-Gaussian marginal)"
            else:
                ok = abs(rep.estimate) < 3.0 * rep.std_error
                note = "expect no detectable skew"
            checks.append({"check": "skewness", "passed": bool(ok),
                           **asdict(rep), "note": note})
        elif name == "qv":
            fit = st.qv_decay([ensemble(nn) for nn in sizes])
            expo = 1 - 2 * finest.hurst_index
            ok = abs(fit.slope - expo) <= 0.15
            if process is ProcessTag.ROSENBLATT:
                bounds = [nn ** expo for nn in sizes]
                ok = ok and all(m <= b * (1 + 4 * se / m)
                                for m, se, b in zip(fit.means, fit.std_errors, bounds))
            checks.append({"check": "qv", "passed": bool(ok),
                           "theoretical_slope": expo, **asdict(fit)})
        elif name == "histogram":
            hist = st.histogram(ensemble(args.n), args.t, args.bins)
            csv_path = Path(str(args.out) + ".hist.csv")
            hist.to_csv(csv_path)
            extra_files.append(str(csv_path))
            if args.plot:
                svg = Path(str(args.out) + ".hist.svg")
                _svg_bars(hist.bin_edges, hist.counts, svg)
                extra_files.append(str(svg))
            checks.append({"check": "histogram", "passed": True,
                           "total": hist.total, "bins": len(hist.counts),
                           "file": str(csv_path)})
    return checks, extra_files


def cmd_validate(args, argv) -> int:
    checks, extra = _run_checks(args)
    passed = all(c["passed"] for c in checks)
    out = Path(args.out)
    payload = {
        "process": args.process,
        "H": args.hurst,
        "n": args.n,
        "paths": args.paths,
        "seed": args.seed,
        "noise": args.noise,
        "checks": checks,
        "passed": passed,
    }
    write_json(out, payload)
    outputs = [str(out)] + extra
    outputs.append(_manifest(out, "validate", args, argv, outputs))
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['check']}")
    return 0 if passed else 1


def cmd_market(args, argv) -> int:
    if args.hurst is None:
        raise DomainError("--hurst is required")
    cfg = MarketConfig(N=args.N, sigma=args.sigma, rate_r=_parse_rate(args.rate_r),
                       rate_a=_parse_rate(args.rate_a), S0=args.S0, B0=args.B0,
                       H=args.hurst)
    out = Path(args.out)
    path = build_market(cfg, make_noise(args.N, NoiseKind.RADEMACHER, args.seed))
    path.to_csv(out)
    outputs = [str(out)]

    # the all-ones witness path, built once for the scan and the demo
    if args.scan_divergence or (args.demo_arbitrage and args.witness_all_ones):
        ones = build_market(cfg, NoiseSequence(kind=NoiseKind.RADEMACHER, seed=args.seed,
                                               values=np.ones(args.N)))
    if args.scan_divergence:
        report = divergence_scan(ones)
        scan_path = Path(str(out) + ".scan.json")
        report.to_json(scan_path)
        outputs.append(str(scan_path))

    if args.demo_arbitrage:
        trade = arbitrage_demo(ones if args.witness_all_ones else path)
        trade_path = Path(str(out) + ".trade.json")
        write_json(trade_path, asdict(trade))
        outputs.append(str(trade_path))
        print(f"arbitrage at n={trade.index}: {trade.strategy}, "
              f"pnl up {trade.pnl_up!r}, down {trade.pnl_down!r}")

    outputs.append(_manifest(out, "market", args, argv, outputs))
    return 0


def cmd_rerun(args, argv) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read manifest {args.manifest!r}: {exc}") from exc
    replay = manifest.get("argv") if isinstance(manifest, dict) else None
    if (not isinstance(replay, list) or not all(isinstance(a, str) for a in replay)
            or replay[:1] == ["rerun"]):
        raise DomainError(f"manifest {args.manifest!r} needs an argv list of strings "
                          "naming a command other than rerun")
    return main(replay)


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--hurst", type=float, default=None,
                    help="Hurst index of the simulated process")
    sp.add_argument("--n", type=int, default=64, help="grid resolution")
    sp.add_argument("--paths", type=int, default=1, help="ensemble size")
    sp.add_argument("--seed", type=int, default=0, help="master seed")
    sp.add_argument("--noise", choices=[k.value for k in NoiseKind],
                    default="rademacher")
    sp.add_argument("--out", required=True, help="primary output path")
    sp.add_argument("--plot", action="store_true", help="emit a minimal SVG chart")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rosenblatt",
        description="Simulate the Rosenblatt walk, verify its laws, and run the binary market.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="write a path ensemble as CSV + metadata")
    s.add_argument("--process", choices=[t.value for t in ProcessTag], required=True)
    _add_common(s)
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("validate", help="statistical checks against the process laws")
    v.add_argument("--check", choices=["variance", "covariance", "skewness",
                                       "qv", "histogram", "all"], required=True)
    v.add_argument("--process", choices=[t.value for t in ProcessTag],
                   default="rosenblatt")
    v.add_argument("--t", type=float, default=1.0, help="evaluation time")
    v.add_argument("--s", type=float, default=0.5, help="second time for covariance")
    v.add_argument("--bins", type=int, default=30)
    v.add_argument("--qv-sizes", default=",".join(str(x) for x in _QV_SIZES))
    _add_common(v)
    v.set_defaults(func=cmd_validate)

    m = sub.add_parser("market", help="binary market path, divergence scan, arbitrage demo")
    m.add_argument("--N", type=int, default=64, help="trading periods")
    m.add_argument("--hurst", type=float, default=None)
    m.add_argument("--sigma", type=float, default=1.0)
    m.add_argument("--rate-r", default="const:0.5")
    m.add_argument("--rate-a", default="const:0.0")
    m.add_argument("--S0", type=float, default=1.0)
    m.add_argument("--B0", type=float, default=1.0)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", required=True)
    m.add_argument("--scan-divergence", action="store_true")
    m.add_argument("--demo-arbitrage", action="store_true")
    m.add_argument("--witness-all-ones", action="store_true",
                   help="run the arbitrage demo on the all-ones witness path")
    m.set_defaults(func=cmd_market)

    r = sub.add_parser("rerun", help="replay a command from its manifest")
    r.add_argument("manifest")
    r.set_defaults(func=cmd_rerun)
    return ap


def _apply_config(argv: list[str]) -> list[str]:
    """Expand --config FILE (KEY=VALUE lines) into leading defaults; explicit
    flags still win because argparse takes the last occurrence."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise DomainError("--config needs a FILE argument")
    cfg_path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2:]
    injected: list[str] = []
    try:
        text = Path(cfg_path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read config {cfg_path!r}: {exc}") from exc
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                injected.append(f"--{key}")
        else:
            injected.extend([f"--{key}", value])
    # keep the subcommand first, then injected defaults, then explicit flags
    return rest[:1] + injected + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        expanded = _apply_config(argv)
        parser = _build_parser()
        args = parser.parse_args(expanded)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 2 if code not in (0,) else 0
    start = time.perf_counter()
    try:
        code = args.func(args, argv)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 4
    print(f"wall_time_s={time.perf_counter() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
