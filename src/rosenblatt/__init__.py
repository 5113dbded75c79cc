"""Rosenblatt-process random walks, law verification, and the binary market."""

__version__ = "0.1.0"

from .kernel import (
    DomainError,
    HurstParams,
    QuadratureError,
    WeightTable,
    c_const,
    cell_weight,
    d_const,
    dK,
    fbm_kernel,
    rosenblatt_kernel,
    weight_table,
)
from .paths import (
    GridPath,
    NoiseKind,
    NoiseSequence,
    PathEnsemble,
    ProcessTag,
    fbm_walk,
    make_noise,
    random_walk,
    rosenblatt_walk,
    simulate_ensemble,
)
from .stats import (
    Histogram,
    MomentReport,
    covariance,
    discrete_covariance,
    discrete_increment_variance,
    discrete_variance,
    histogram,
    increment_variance,
    qv_decay,
    quadratic_variation,
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
    bs_limit,
    build_market,
    constant_rate,
    divergence_scan,
    no_arbitrage_check,
    tabulated_rate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
