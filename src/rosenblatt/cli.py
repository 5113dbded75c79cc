"""Batch command-line interface: simulate / validate / market / rerun.

Every command is deterministic given its full flag set; outputs are
byte-identical across reruns.  Each command computes all of its outputs, then
hands them to the one publish step, ``_write``, which puts the primary output
(--out) in place first and the manifest (<out>.manifest.json), recording the
resolved command line, last, so `rosenblatt rerun MANIFEST` reproduces the
artifacts exactly.  A run either publishes all of its outputs or changes
nothing.  Wall time is reported on stderr only; nothing volatile is written
into output files.

Exit codes: 0 pass, 1 check failure, 2 usage (a bad flag or value, a size
too large for memory or for the disk, or an output path that cannot be
written), 4 inconclusive (arbitrage demo found no violation at this scale).
"""
from __future__ import annotations

import argparse
import errno
import itertools
import json
import os
import sys
import time
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .kernel import DomainError, HurstParams
from .market import (InconclusiveError, MarketConfig, affine_rate, arbitrage_demo,
                     build_markets, constant_rate, divergence_scan, tabulated_rate)
from .paths import (NoiseKind, ProcessTag, WalkLaw, ensemble_metadata, grid_index,
                    make_noise, path_slabs, write_ensemble, write_json)
from . import stats as st

def _params_for(args) -> HurstParams | None:
    """CLI --hurst is the simulated process's own index, read by its record:
    H for rosenblatt, the kernel index Hp for fbm, ignored for walk."""
    from_hurst = ProcessTag(args.process).form.from_hurst
    if from_hurst is None:
        return None
    if args.hurst is None:
        raise DomainError(f"--hurst is required for process {args.process}")
    return from_hurst(args.hurst)


def finite(text: str) -> float:
    """The one parser of every float flag and rate-spec number: refuses nan
    and +-inf, which no quantity of the package may take."""
    x = float(text)
    if not np.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return x


def _parse_rate(spec: str):
    kind, _, rest = spec.partition(":")
    try:
        if kind == "const":
            return constant_rate(finite(rest))
        if kind == "affine":
            base, slope = rest.split(",")
            return affine_rate(finite(base), finite(slope))
        if kind == "table":
            ts, vs = [], []
            for line in Path(rest).read_text().splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                t_s, v_s = line.split(",")
                ts.append(finite(t_s))
                vs.append(finite(v_s))
            return tabulated_rate(ts, vs)
    except (OSError, ValueError) as exc:
        raise DomainError(f"malformed rate spec {spec!r}: {exc}") from exc
    raise DomainError(f"unknown rate preset {spec!r}; use const:X, affine:X,Y or table:FILE")


def _write(files: list[tuple[Path, Callable]], args: argparse.Namespace) -> None:
    """The one publish step of a command's outputs: ``files`` are its (path,
    writer) pairs, primary first, all computed; the manifest
    <primary>.manifest.json, recording ``args`` and the expanded argv that
    ``main`` stored on them, goes last.  Each ``writer`` writes a temporary
    .<name>.part beside its path's target (a symlink is written through); once
    all are written they are renamed into place in that order.  If a write
    raises (an interrupt too), or a path is a directory, no output changes."""
    manifest = {
        "command": args.command,
        "params": {k: (v if isinstance(v, (int, float, str, bool)) else str(v))
                   for k, v in vars(args).items() if k not in ("func", "argv") and v is not None},
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "argv": args.argv,
        "outputs": sorted(str(path) for path, _ in files),
    }
    files = [*files, (Path(f"{files[0][0]}.manifest.json"), partial(write_json, payload=manifest))]
    targets = [path.resolve() for path, _ in files]
    if dirs := [path for (path, _), target in zip(files, targets) if target.is_dir()]:
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(dirs[0]))
    parts = [target.with_name(f".{target.name}.part") for target in targets]
    try:
        for (path, write), part in zip(files, parts):
            write(part)
        for (path, _), part, target in zip(files, parts, targets):
            os.replace(part, target)
    except OSError as exc:  # an error names the output, never its temporary
        if exc.filename is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# minimal SVG emitters (no plotting dependencies)
# ---------------------------------------------------------------------------

_W, _H = 640, 400  # every plot's width and height, in SVG user units


def _svg(path: Path, parts: list[str]) -> None:
    path.write_text(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
                    f'viewBox="0 0 {_W} {_H}">\n<rect width="100%" height="100%" fill="white"/>\n'
                    + "".join(parts) + "</svg>\n")


def _svg_paths(times, rows, path: Path) -> None:
    lo = min(float(r.min()) for r in rows)
    hi = max(float(r.max()) for r in rows)
    span = (hi - lo) or 1.0
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
              "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#ff7f0e"]
    parts = []
    for k, row in enumerate(rows):
        pts = " ".join(f"{t * (_W - 20) + 10:.1f},{_H - 10 - (v - lo) / span * (_H - 20):.1f}"
                       for t, v in zip(times, row))
        parts.append(f'<polyline fill="none" stroke="{colors[k % len(colors)]}" '
                     f'stroke-width="1" points="{pts}"/>\n')
    _svg(path, parts)


def _svg_bars(hist: st.Histogram, path: Path) -> None:
    peak = max(int(c) for c in hist.counts) or 1
    lo, hi = float(hist.bin_edges[0]), float(hist.bin_edges[-1])
    span = (hi - lo) or 1.0
    parts = []
    for left, right, c in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts):
        x0 = (left - lo) / span * (_W - 20) + 10
        bw = (right - left) / span * (_W - 20)
        bh = int(c) / peak * (_H - 20)
        parts.append(f'<rect x="{x0:.1f}" y="{_H - 10 - bh:.1f}" width="{bw:.1f}" '
                     f'height="{bh:.1f}" fill="#1f77b4" stroke="white" stroke-width="0.5"/>\n')
    _svg(path, parts)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    draw = (args.paths, args.seed, NoiseKind(args.noise), _params_for(args), args.process, args.n)
    # the paths go to the CSV one slab at a time; the plot reads the first
    slabs = path_slabs(*draw)
    first = next(slabs)
    meta = ensemble_metadata(*draw)
    out = Path(args.out)
    files = [(out, partial(write_ensemble, itertools.chain([first], slabs), meta)),
             (Path(f"{out}.meta.json"), partial(write_json, payload=meta))]
    if args.plot:
        files.append((Path(f"{out}.svg"),
                      partial(_svg_paths, np.arange(args.n + 1) / args.n, list(first[:10]))))
    _write(files, args)
    return 0


def _qv_sizes(a) -> list[int]:
    try:
        return [int(s) for s in a.qv_sizes.split(",")]
    except ValueError as exc:
        raise DomainError(f"malformed --qv-sizes {a.qv_sizes!r}: {exc}") from exc


def _moment(moment, a, law, read, grids):
    (s, zs), (t, zt) = read
    rep = moment(zs, zt, s, t, law)
    return {"passed": rep.within(4.0), **asdict(rep)}, []


def _skewness(a, law, read, grids):
    ((t, x),) = read
    rep = st.skewness(x, t, law, a.seed)
    # skew is expected exactly where the exact third cumulant is not 0
    # (not on grid point 2 of the Rosenblatt walk, 2 c_12 xi_1 xi_2)
    ok = (abs(rep.estimate) > 3.0 * rep.std_error if rep.discrete
          else abs(rep.estimate) < 3.0 * rep.std_error)
    note = ("expect significant skew (non-Gaussian marginal)" if rep.discrete
            else "expect no detectable skew")
    note = note if rep.note is None else f"{rep.note}; {note}"
    return {"passed": bool(ok), **asdict(rep), "note": note}, []


def _qv(a, law, read, grids):
    fit = st.qv_decay(grids)
    expo = 1 - 2 * law.hurst_index
    ok = abs(fit.slope - expo) <= 0.15
    if law.process_tag.form.quadratic:
        ok = ok and all(m <= nn ** expo * (1 + 4 * se / m)
                        for nn, m, se in zip(fit.sizes, fit.means, fit.std_errors))
    return {"passed": bool(ok), "theoretical_slope": expo, **asdict(fit)}, []


def _histogram(a, law, read, grids):
    hist = st.histogram(read[0][1], a.bins)
    csv_path = Path(str(a.out) + ".hist.csv")
    writes = [(csv_path, hist.to_csv)]
    if a.plot:
        writes.append((Path(str(a.out) + ".hist.svg"), partial(_svg_bars, hist)))
    return {"passed": True, "total": hist.total, "bins": len(hist.counts),
            "file": str(csv_path)}, writes


class _Check(NamedTuple):
    times: Callable                 # flags -> the grid-n times it reads every path at
    report: Callable                # see cmd_validate
    require: Callable               # flags -> refuses, before the draw, what its report would
    grids: Callable = lambda a: ()  # flags -> the grids it reads every path's QV on
    needs_spread: bool = False      # its statistic of a point mass is 0/0


# the checks in report order; --check all runs them all.  Each stats function
# is looked up at call time, where perfbench/tracer.py may have rebound it
_CHECKS = {
    "variance": _Check(lambda a: (0.0, a.t), lambda *r: _moment(st.increment_variance, *r),
                       lambda a: st.require_samples(a.paths)),
    "covariance": _Check(lambda a: (a.s, a.t), lambda *r: _moment(st.covariance, *r),
                         lambda a: st.require_samples(a.paths)),
    "skewness": _Check(lambda a: (a.t,), _skewness, lambda a: st.require_skewness_paths(a.paths),
                       needs_spread=True),
    "qv": _Check(lambda a: (), _qv, lambda a: (st.require_samples(a.paths),
                                               st.require_qv_sizes(_qv_sizes(a))),
                 grids=_qv_sizes),
    "histogram": _Check(lambda a: (a.t,), _histogram, lambda a: st.require_bins(a.bins)),
}


def cmd_validate(args) -> int:
    p = _params_for(args)
    checks = {name: _CHECKS[name] for name in (_CHECKS if args.check == "all" else [args.check])}
    sizes = [nn for c in checks.values() for nn in c.grids(args)]
    # one draw on the finest grid, read in one pass: each path leaves only its
    # grid-n values at the checks' times and its QV on each qv grid
    N = max([args.n, *sizes])
    law = WalkLaw(args.process, p, args.n, N)
    reads = {name: c.times(args) for name, c in checks.items()}
    # every refusal is made before the walk is built, a point mass's first: each
    # walk is a chaos of order 1 + quadratic with positive coefficients, so every
    # path is 0 at the grid points below it; first on the coarsest qv grid, whose
    # law checks the sizes' range
    order = 1 + law.process_tag.form.quadratic
    if sizes and WalkLaw(args.process, p, min(sizes), N).n < order:
        raise DomainError(f"qv grid {min(sizes)} has no positive mean QV: every path is 0 on it")
    for name, c in checks.items():
        for x in reads[name] if c.needs_spread else ():
            if (m := grid_index(args.n, x)) < order:
                raise DomainError(f"t = {x!r} snaps to grid point {m} of grid {args.n}, where "
                                  f"every path is 0: the {name} of a point mass is 0/0")
    for c in checks.values():
        c.require(args)
    slabs = path_slabs(args.paths, args.seed, NoiseKind(args.noise), p, args.process, N)
    times = sorted({x for ts in reads.values() for x in ts})
    values, qv = st.reduce_slabs(slabs, args.paths, law,
                                 [grid_index(args.n, x) for x in times], sizes)
    at = dict(zip(times, values))
    # each report, of its (time, values) pairs and the (grid, QV) pairs, is its
    # entry and the (path, writer) of each file it adds
    reports = {name: c.report(args, law, [(x, at[x]) for x in reads[name]], list(zip(sizes, qv)))
               for name, c in checks.items()}
    entries = [{"check": name, **entry} for name, (entry, _) in reports.items()]
    writes = [w for _, files in reports.values() for w in files]
    passed = all(c["passed"] for c in entries)
    report = {"process": args.process, "H": None if p is None else args.hurst, "n": args.n,
              "paths": args.paths, "seed": args.seed, "noise": args.noise,
              "checks": entries, "passed": passed}
    _write([(Path(args.out), partial(write_json, payload=report)), *writes], args)
    for c in entries:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['check']}")
    return 0 if passed else 1


def cmd_market(args) -> int:
    cfg = MarketConfig(N=args.N, sigma=args.sigma, rate_r=_parse_rate(args.rate_r),
                       rate_a=_parse_rate(args.rate_a), S0=args.S0, B0=args.B0,
                       H=args.hurst)
    # the realised path and, for the scan or the witness demo, the all-ones
    # witness path, from one branch pass
    xi = [make_noise(args.N, NoiseKind.RADEMACHER, args.seed)]
    if args.scan_divergence or (args.demo_arbitrage and args.witness_all_ones):
        xi.append(np.ones(args.N))
    path, *witness = build_markets(cfg, xi)
    out = Path(args.out)
    files = [(out, path.to_csv)]
    if args.scan_divergence:
        files.append((Path(f"{out}.scan.json"), divergence_scan(witness[0]).to_json))
    trade = None
    if args.demo_arbitrage:
        trade = arbitrage_demo(witness[0] if args.witness_all_ones else path)
        files.append((Path(f"{out}.trade.json"), partial(write_json, payload=asdict(trade))))
    _write(files, args)
    if trade is not None:
        print(f"arbitrage at n={trade.index}: {trade.strategy}, "
              f"pnl up {trade.pnl_up!r}, down {trade.pnl_down!r}")
    return 0


def cmd_rerun(args) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read manifest {args.manifest!r}: {exc}") from exc
    replay = manifest.get("argv") if isinstance(manifest, dict) else None
    if (not isinstance(replay, list) or not all(isinstance(a, str) for a in replay)
            or replay[:1] == ["rerun"] or "--config" in replay):
        raise DomainError(f"manifest {args.manifest!r} needs an argv list of strings "
                          "naming a command other than rerun, without --config")
    return main(replay)


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--hurst", type=finite, default=None,
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
    v.add_argument("--check", choices=[*_CHECKS, "all"], required=True)
    v.add_argument("--process", choices=[t.value for t in ProcessTag],
                   default="rosenblatt")
    v.add_argument("--t", type=finite, default=1.0, help="evaluation time")
    v.add_argument("--s", type=finite, default=0.5, help="second time for covariance")
    v.add_argument("--bins", type=int, default=30)
    v.add_argument("--qv-sizes", default="16,32,64,128,256")
    _add_common(v)
    v.set_defaults(func=cmd_validate)

    m = sub.add_parser("market", help="binary market path, divergence scan, arbitrage demo")
    m.add_argument("--N", type=int, default=64, help="trading periods")
    m.add_argument("--hurst", type=finite, required=True)
    m.add_argument("--sigma", type=finite, default=1.0)
    m.add_argument("--rate-r", default="const:0.5")
    m.add_argument("--rate-a", default="const:0.0")
    m.add_argument("--S0", type=finite, default=1.0)
    m.add_argument("--B0", type=finite, default=1.0)
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


_PARSER = _build_parser()


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
        if value.lower() not in ("true", "false"):
            injected.extend([f"--{key}", value])
        elif value.lower() == "true":
            injected.append(f"--{key}")
    # keep the subcommand first, then injected defaults, then explicit flags
    return rest[:1] + injected + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        expanded = _apply_config(argv)
        args = _PARSER.parse_args(expanded)
        # the manifest records the expanded flags: rerun never rereads a config
        args.argv = expanded
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse exits with 0 (--help, --version) or 2 (a usage error)
        return 2 if exc.code else 0
    start = time.perf_counter()
    try:
        code = args.func(args)
    except (DomainError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 4
    print(f"wall_time_s={time.perf_counter() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
