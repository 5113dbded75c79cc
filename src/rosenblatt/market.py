"""Binary market driven by the Rosenblatt walk.

Over N trading periods the bond and stock follow

    B_n = (1 + r_n) B_{n-1},          r_n = r(n/N) / N
    S_n = (1 + a_n + X_n) S_{n-1},    a_n = a(n/N) / N

with the binary return X_n = sigma * (Z(n/N) - Z((n-1)/N)) of the
quadratic-form walk.  Isolating the newest noise sign gives
X_n = f_{n-1}(xi) + xi_n g_{n-1}(xi) with f a quadratic and g a linear form
in the noise prefix, so given the past X_n takes exactly the two values
u_n = f + g and d_n = f - g.  The market excludes arbitrage only while
d_n < r_n - a_n < u_n at every step; on the all-ones noise path f - g grows
like n^(2Hp - 1), so the condition eventually fails.  At a violation a
one-period trade wins on both branches: borrow and buy the stock when both
branch returns are at or above r_n - a_n, sell it and lend when both are at
or below.

The walk increment is affine in xi_n (its quadratic form has no diagonal),
so u_n and d_n are the step-n increment with xi_n set to +1 and to -1, and
on a built path f = (u + d)/2 and g = (u - d)/2.  One streamed panel pass
of the kernel (``branch_increments``) evaluates both branches for every n
and for every noise path of a command at once, and the realised return X_n
is the branch its own xi_n picks.  The pass takes O(N^2 nodes) time per
path, but it builds each panel block, uses it and drops it, so it holds a
few blocks (O(N nodes) memory each) and no engine; the dense weight tables
are never formed here.  A built ``MarketPath`` holds its noise row, X, the
prices B and S, u, d and r - a; a nonpositive S is kept as computed.

The first trading period is degenerate (Z has no off-diagonal pair yet, so
X_1 = 0 surely); arbitrage checks therefore start at n = 2, where the model
is genuinely binary.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import linear_regression
from typing import Callable

import numpy as np

from .kernel import DomainError, HurstParams, branch_increments
from .paths import write_json


class InconclusiveError(RuntimeError):
    """No arbitrage violation found at this horizon; scan larger N or sigma."""


def _require_finite(*named: tuple[str, np.ndarray]) -> None:
    """Refuse the first (name, values) pair holding an infinity or a NaN."""
    for name, values in named:
        if not np.all(np.isfinite(values)):
            raise DomainError(f"the market overflows: {name} is not finite")


# ---------------------------------------------------------------------------
# rate presets
# ---------------------------------------------------------------------------

def constant_rate(x: float) -> Callable[[float], float]:
    """The rate that is x at every time."""
    return lambda t: x


def affine_rate(base: float, slope: float) -> Callable[[float], float]:
    """The rate base + slope * t."""
    return lambda t: base + slope * t


def tabulated_rate(times, values) -> Callable[[float], float]:
    """Linear interpolation through (time, value) samples on [0, 1]."""
    ts = np.asarray(times, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ts.size < 2 or np.any(np.diff(ts) <= 0):
        raise DomainError("tabulated rate needs at least two strictly increasing times")
    return lambda t: float(np.interp(t, ts, vs))


@dataclass
class MarketConfig:
    """Market inputs; rates are bounded deterministic functions of time."""

    N: int
    sigma: float
    rate_r: Callable[[float], float]
    rate_a: Callable[[float], float]
    S0: float
    B0: float
    H: float
    params: HurstParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.params = HurstParams(self.H)
        if self.N < 2:
            raise DomainError("need at least two trading periods")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise DomainError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if not all(np.isfinite(x) and x > 0 for x in (self.S0, self.B0)):
            raise DomainError(f"initial prices must be finite and positive, got "
                              f"S0={self.S0}, B0={self.B0}")

    def per_period_rates(self) -> tuple[np.ndarray, np.ndarray]:
        """(r_n, a_n) for n = 1..N: the per-period rates value(n/N)/N."""
        ts = np.arange(1, self.N + 1) / self.N
        r = np.array([self.rate_r(t) for t in ts]) / self.N
        a = np.array([self.rate_a(t) for t in ts]) / self.N
        return r, a


# ---------------------------------------------------------------------------
# market paths
# ---------------------------------------------------------------------------

@dataclass
class MarketPath:
    """One binary market trajectory with its up/down envelope."""

    cfg: MarketConfig
    xi: np.ndarray           # xi_1..xi_N, the path's +-1 noise row
    X: np.ndarray            # X_1..X_N
    B: np.ndarray            # B_0..B_N
    S: np.ndarray            # S_0..S_N
    u: np.ndarray            # u_1..u_N (u_1 = d_1 = 0: degenerate first period)
    d: np.ndarray
    r_minus_a: np.ndarray    # per-period r_n - a_n

    @property
    def violated(self) -> np.ndarray:
        """Strict no-arbitrage failure flags for n = 1..N.

        A step is checked only when it is genuinely binary (the two branch
        returns differ); the condition is min branch < r_n - a_n < max branch
        with equality counting as a violation.  Degenerate steps (n = 1
        always, every step when sigma = 0) are never flagged: with a single
        sure return there is no binary interval to test.
        """
        ra = self.r_minus_a
        lo = np.minimum(self.u, self.d)
        hi = np.maximum(self.u, self.d)
        binary = hi > lo
        return binary & ~((lo < ra) & (ra < hi))

    def to_csv(self, path: str | Path) -> None:
        """One row per step n = 1..N; refuses, before opening the file, a
        column that overflowed to an infinity or a NaN."""
        _require_finite(("X", self.X), ("B", self.B), ("S", self.S), ("u", self.u),
                        ("d", self.d), ("r - a", self.r_minus_a))
        N = self.cfg.N
        flags = self.violated
        with open(path, "w") as fh:
            fh.write("n,t,X,B,S,u,d,r_minus_a,violated\n")
            for k in range(N):
                vals = (self.X[k], self.B[k + 1], self.S[k + 1], self.u[k],
                        self.d[k], self.r_minus_a[k])
                body = ",".join(repr(float(v)) for v in vals)
                fh.write(f"{k + 1},{(k + 1) / N!r},{body},{int(flags[k])}\n")


def build_markets(cfg: MarketConfig, xi) -> list[MarketPath]:
    """Run the recursions with X_n = sigma * (Z(n/N) - Z((n-1)/N)) on each
    row of ``xi``, the (paths, N) +-1 noise rows (any array-like).

    One streamed branch pass gives every path's u and d; X_n is u_n where
    xi_n = +1 and d_n where xi_n = -1, so X_n = f_{n-1}(xi) + xi_n g_{n-1}(xi)
    holds bit for bit, and each path has the bits of its own one-path pass.
    Nonpositive stock prices are kept, never repaired (``no_arbitrage_check``
    skips the steps after one).  Prices or branch returns that overflow to an
    infinity or a NaN are kept as computed: each output checks the values it
    reads (``to_csv`` its columns, ``divergence_scan`` d, ``arbitrage_demo``
    the steps up to its trade), so an overflow late on the witness path
    refuses no output that does not read it.
    """
    xi = np.array(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[0] == 0 or xi.shape[1] != cfg.N:
        raise DomainError(f"noise rows of shape {xi.shape} are not (paths, N={cfg.N})")
    if not np.all(np.abs(xi) == 1.0):
        raise DomainError("the binary market needs Rademacher (+-1) noise")
    with np.errstate(over="ignore", invalid="ignore"):
        branches = cfg.sigma * branch_increments(cfg.N, cfg.params, xi[:, :-1])
        r, a = cfg.per_period_rates()
        B = cfg.B0 * np.cumprod(np.concatenate([[1.0], 1.0 + r]))
        r_minus_a = r - a
        Xs = np.where(xi > 0, branches[:, 0], branches[:, 1])
        growth = np.hstack([np.ones((len(xi), 1)), 1.0 + a + Xs])
        Ss = cfg.S0 * np.cumprod(growth, axis=1)
    return [MarketPath(cfg=cfg, xi=row, X=X, B=B, S=S, u=u, d=d, r_minus_a=r_minus_a)
            for row, (u, d), X, S in zip(xi, branches, Xs, Ss)]


def build_market(cfg: MarketConfig, xi) -> MarketPath:
    """``build_markets`` on the one noise row."""
    return build_markets(cfg, [xi])[0]


def no_arbitrage_check(path: MarketPath) -> int | None:
    """Smallest binary step n with S_{n-1} > 0 where d_n < r_n - a_n < u_n
    fails (equality counts).

    Steps after a breakdown of the stock price (S_{n-1} <= 0, or a NaN) are
    skipped: there the one-period trade's P&L has the sign flipped, so the
    violation gives no arbitrage.  Returns None when the condition holds at
    every such binary step of the path.
    """
    flags = path.violated & (path.S[:-1] > 0)
    hits = np.nonzero(flags)[0]
    return int(hits[0] + 1) if hits.size else None


# ---------------------------------------------------------------------------
# divergence certificate and arbitrage construction
# ---------------------------------------------------------------------------

@dataclass
class ArbitrageReport:
    """Growth of f - g on the all-ones witness path and the violation it forces."""

    first_violation: int | None
    fg_sequence: list[float]          # (f - g)(n) for n = 2..N
    fitted_exponent: float | None
    theoretical_exponent: float
    params: dict = field(default_factory=dict)
    note: str | None = None

    def to_json(self, path: str | Path) -> None:
        write_json(path, asdict(self))


def divergence_scan(witness: MarketPath) -> ArbitrageReport:
    """Track (f - g)(n) for n = 2..N on the built all-ones market path.

    Fits the growth exponent on the upper half of the range; the dominant
    theoretical rate is 2 Hp - 1.  The fit is refused (note set) if f - g is
    not positive throughout the upper half.
    """
    cfg = witness.cfg
    if not np.all(witness.xi == 1.0):
        raise DomainError("the divergence scan reads the all-ones witness path")
    N = cfg.N
    if N < 4:
        raise DomainError("scan needs N >= 4")
    fg = witness.d[1:]      # d_n = (f - g)(n) on the all-ones path
    _require_finite(("d", fg))

    ns = np.arange(2, N + 1)
    upper = ns >= N // 2
    fitted = None
    note = None
    if np.all(fg[upper] > 0):
        fitted = linear_regression(np.log(ns[upper]), np.log(fg[upper])).slope
    else:
        note = "f - g not positive on the upper half of the range; inconclusive at this scale"

    first = no_arbitrage_check(witness)
    Hp = cfg.params.Hp
    return ArbitrageReport(
        first_violation=first,
        fg_sequence=[float(v) for v in fg],
        fitted_exponent=fitted,
        theoretical_exponent=2 * Hp - 1,
        params={"N": N, "H": cfg.H, "sigma": cfg.sigma},
        note=note,
    )


@dataclass
class ArbitrageTrade:
    """One-period self-financing strategy in one unit of stock at a violation
    index, both branches."""

    index: int
    strategy: str                 # "long-stock" if u_n, d_n >= r_n - a_n, else "short-stock"
    entry_stock: float
    pnl_up: float
    pnl_down: float


def arbitrage_demo(path: MarketPath) -> ArbitrageTrade:
    """Construct the riskless one-period, one-unit trade at the first violation.

    Checks its own trade: both branch P&Ls must be >= 0 and one > 0.
    Raises InconclusiveError when no violation occurs within the horizon or
    the trade is no arbitrage (a P&L that rounds to a loss or to zero on
    both branches), and DomainError when a price or branch return the
    trade reads, up to its violation, overflowed.
    """
    n0 = no_arbitrage_check(path)
    if n0 is None:
        raise InconclusiveError(
            f"no arbitrage violation within N={path.cfg.N} at sigma={path.cfg.sigma}")
    _require_finite(("S", path.S[:n0]), ("u", path.u[:n0]), ("d", path.d[:n0]),
                    ("r - a", path.r_minus_a[n0 - 1]))
    s_prev, ra = float(path.S[n0 - 1]), float(path.r_minus_a[n0 - 1])
    u, d = float(path.u[n0 - 1]), float(path.d[n0 - 1])
    # long: borrow S_{n-1} at the bond rate and buy one unit of stock; wealth after
    # the step is S_{n-1} * (X - (r_n - a_n)), X = u_n or d_n.  Short is the negative.
    side = 1.0 if min(u, d) >= ra else -1.0
    strategy = "long-stock" if side > 0 else "short-stock"
    up, dn = side * (s_prev * (u - ra)), side * (s_prev * (d - ra))
    _require_finite(("the trade's P&L", (up, dn)))
    if not (min(up, dn) >= 0.0 and max(up, dn) > 0.0):
        raise InconclusiveError(
            f"the trade at n={n0} is no arbitrage: {strategy}, pnl up {up!r}, down {dn!r}")
    return ArbitrageTrade(index=n0, strategy=strategy, entry_stock=s_prev,
                          pnl_up=up, pnl_down=dn)

