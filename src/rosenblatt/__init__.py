"""Rosenblatt-process random walks, law verification, and the binary market."""

__version__ = "0.1.0"

from .kernel import (
    DomainError,
    HurstParams,
    c_const,
    d_const,
)
from .paths import (
    NoiseKind,
    ProcessTag,
    WalkLaw,
    grid_index,
    make_noise,
    path_slabs,
    scale_to_grid,
    simulate_ensemble,
)
from .stats import (
    Histogram,
    MomentReport,
    covariance,
    discrete_moment,
    histogram,
    increment_variance,
    qv_decay,
    skewness,
)
from .market import (
    ArbitrageReport,
    ArbitrageTrade,
    InconclusiveError,
    MarketConfig,
    MarketPath,
    affine_rate,
    arbitrage_demo,
    build_market,
    build_markets,
    constant_rate,
    divergence_scan,
    no_arbitrage_check,
    tabulated_rate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
