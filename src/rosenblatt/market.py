"""Binary market driven by the Rosenblatt walk, and its continuous limit.

Over N trading periods the bond and stock follow

    B_n = (1 + r_n) B_{n-1},          r_n = r(n/N) / N
    S_n = (1 + a_n + X_n) S_{n-1},    a_n = a(n/N) / N

with the binary return X_n = sigma * (Z(n/N) - Z((n-1)/N)) of the
quadratic-form walk.  Isolating the newest noise sign gives
X_n = f_{n-1}(xi) + xi_n g_{n-1}(xi) with f a quadratic and g a linear form
in the noise prefix, so given the past X_n takes exactly the two values
u_n = f + g and d_n = f - g.  The market excludes arbitrage only while
d_n < r_n - a_n < u_n at every step; on the all-ones noise path f - g grows
like n^(2Hp - 1), so the condition eventually fails and a one-period
borrow-and-buy strategy wins on both branches.

The walk increment is affine in xi_n (its quadratic form has no diagonal),
so u_n and d_n are the step-n increment with xi_n set to +1 and to -1, and
on a built path f = (u + d)/2 and g = (u - d)/2.  One panel pass of the
kernel evaluates both branches for every n at once
(``VolterraEngine.branch_increments``), in O(N^2 nodes) time and memory, and
the realised return X_n is the branch its own xi_n picks; the dense weight
tables are never formed here.

The first trading period is degenerate (Z has no off-diagonal pair yet, so
X_1 = 0 surely); arbitrage checks therefore start at n = 2, where the model
is genuinely binary.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .kernel import DomainError, HurstParams, get_engine
from .paths import GridPath, NoiseKind, NoiseSequence, write_json


class InconclusiveError(RuntimeError):
    """No arbitrage violation found at this horizon; scan larger N or sigma."""


# ---------------------------------------------------------------------------
# rate presets
# ---------------------------------------------------------------------------

def constant_rate(x: float) -> Callable[[float], float]:
    return lambda t: x


def affine_rate(base: float, slope: float) -> Callable[[float], float]:
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

    def __post_init__(self):
        if self.N < 2:
            raise DomainError("need at least two trading periods")
        if self.sigma < 0:
            raise DomainError("sigma must be nonnegative")
        if self.S0 <= 0 or self.B0 <= 0:
            raise DomainError("initial prices must be positive")

    @property
    def params(self) -> HurstParams:
        return HurstParams(self.H)

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
    noise: NoiseSequence
    X: np.ndarray            # X_1..X_N
    B: np.ndarray            # B_0..B_N
    S: np.ndarray            # S_0..S_N
    u: np.ndarray            # u_1..u_N (u_1 = d_1 = 0: degenerate first period)
    d: np.ndarray
    r_minus_a: np.ndarray    # per-period r_n - a_n
    breakdown_at: int | None = None

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
        N = self.cfg.N
        flags = self.violated
        with open(path, "w") as fh:
            fh.write("n,t,X,B,S,u,d,r_minus_a,violated\n")
            for k in range(N):
                vals = (self.X[k], self.B[k + 1], self.S[k + 1], self.u[k],
                        self.d[k], self.r_minus_a[k])
                body = ",".join(repr(float(v)) for v in vals)
                fh.write(f"{k + 1},{(k + 1) / N!r},{body},{int(flags[k])}\n")


def build_market(cfg: MarketConfig, noise: NoiseSequence) -> MarketPath:
    """Run the recursions with X_n = sigma * (Z(n/N) - Z((n-1)/N)) on `noise`.

    One branch pass gives u and d; X_n is u_n where xi_n = +1 and d_n where
    xi_n = -1, so X_n = f_{n-1}(xi) + xi_n g_{n-1}(xi) holds bit for bit.
    Nonpositive stock prices are reported in `breakdown_at`, never repaired.
    """
    if noise.kind is not NoiseKind.RADEMACHER or not np.all(np.abs(noise.values) == 1.0):
        raise DomainError("the binary market needs Rademacher (+-1) noise")
    if noise.n != cfg.N:
        raise DomainError(f"noise length {noise.n} does not match N={cfg.N}")
    xi = noise.values
    u, d = cfg.sigma * get_engine(cfg.N, cfg.params).branch_increments(xi[:-1])
    X = np.where(xi > 0, u, d)

    r, a = cfg.per_period_rates()
    B = cfg.B0 * np.cumprod(np.concatenate([[1.0], 1.0 + r]))
    S = cfg.S0 * np.cumprod(np.concatenate([[1.0], 1.0 + a + X]))
    breakdown = None
    bad = np.nonzero(S[1:] <= 0)[0]
    if bad.size:
        breakdown = int(bad[0] + 1)
    return MarketPath(cfg=cfg, noise=noise, X=X, B=B, S=S, u=u, d=d,
                      r_minus_a=r - a, breakdown_at=breakdown)


def no_arbitrage_check(path: MarketPath) -> int | None:
    """Smallest binary step n where d_n < r_n - a_n < u_n fails (equality counts).

    Returns None when the condition holds at every binary step of the path.
    """
    flags = path.violated
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
    if not np.all(witness.noise.values == 1.0):
        raise DomainError("the divergence scan reads the all-ones witness path")
    N = cfg.N
    if N < 4:
        raise DomainError("scan needs N >= 4")
    fg = witness.d[1:]      # d_n = (f - g)(n) on the all-ones path

    ns = np.arange(2, N + 1)
    upper = ns >= N // 2
    fitted = None
    note = None
    if np.all(fg[upper] > 0):
        fitted = float(np.polyfit(np.log(ns[upper]), np.log(fg[upper]), 1)[0])
    else:
        note = "f - g not positive on the upper half of the range; inconclusive at this scale"

    first = no_arbitrage_check(witness)
    Hp = cfg.params.Hp
    return ArbitrageReport(
        first_violation=first,
        fg_sequence=[float(v) for v in fg],
        fitted_exponent=fitted,
        theoretical_exponent=2 * Hp - 1,
        params={"N": N, "H": cfg.H, "sigma": cfg.sigma, "n_max": N},
        note=note,
    )


@dataclass
class ArbitrageTrade:
    """One-period self-financing strategy at a violation index, both branches."""

    index: int
    strategy: str                 # "long-stock" (d-side) or "short-stock" (u-side)
    stock_units: float
    entry_stock: float
    pnl_up: float
    pnl_down: float


def branch_pnls(path: MarketPath, n: int, stock_units: float = 1.0,
                strategy: str = "long-stock") -> tuple[float, float]:
    """P&L of the one-period strategy entered before step n, on both branches.

    Long: borrow stock_units * S_{n-1} at the bond rate and buy the stock;
    wealth after the step is stock_units * S_{n-1} * (X - (r_n - a_n)) with
    X = u_n or d_n.  Short is the negative.
    """
    s_prev = float(path.S[n - 1])
    ra = float(path.r_minus_a[n - 1])
    up = stock_units * s_prev * (path.u[n - 1] - ra)
    dn = stock_units * s_prev * (path.d[n - 1] - ra)
    if strategy == "short-stock":
        up, dn = -up, -dn
    return float(up), float(dn)


def arbitrage_demo(path: MarketPath, stock_units: float = 1.0) -> ArbitrageTrade:
    """Construct the riskless one-period trade at the path's first violation index.

    Raises InconclusiveError when no violation occurs within the horizon.
    """
    n0 = no_arbitrage_check(path)
    if n0 is None:
        raise InconclusiveError(
            f"no arbitrage violation within N={path.cfg.N} at sigma={path.cfg.sigma}")
    ra = path.r_minus_a[n0 - 1]
    low_branch = min(path.u[n0 - 1], path.d[n0 - 1])
    strategy = "long-stock" if low_branch >= ra else "short-stock"
    up, dn = branch_pnls(path, n0, stock_units, strategy)
    return ArbitrageTrade(index=n0, strategy=strategy, stock_units=stock_units,
                          entry_stock=float(path.S[n0 - 1]), pnl_up=up, pnl_down=dn)


# ---------------------------------------------------------------------------
# continuous limit
# ---------------------------------------------------------------------------

def _simpson(fn: Callable[[float], float], hi: float, panels: int = 128) -> float:
    if hi == 0.0:
        return 0.0
    xs = np.linspace(0.0, hi, 2 * panels + 1)
    ys = np.array([fn(x) for x in xs])
    h = hi / (2 * panels)
    return float(h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum()))


def bs_limit(cfg: MarketConfig, Z_path: GridPath, t: float) -> tuple[float, float]:
    """Continuous-model prices driven by the supplied walk path:

        S_t = S0 exp(int_0^t a + sigma Z(t)),   B_t = B0 exp(int_0^t r)

    with the rate integrals by composite Simpson.
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError("t must lie in [0, 1]")
    int_a = _simpson(cfg.rate_a, t)
    int_r = _simpson(cfg.rate_r, t)
    S = cfg.S0 * np.exp(int_a + cfg.sigma * Z_path.value_at(t))
    B = cfg.B0 * np.exp(int_r)
    return float(S), float(B)
