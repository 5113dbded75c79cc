"""The package's public names."""
import rosenblatt


def test_exports_are_pinned():
    # a change to the exports is an API change: update this list and declare it
    assert sorted(rosenblatt.__all__) == [
        "ArbitrageReport", "ArbitrageTrade", "DomainError", "GridPath", "Histogram",
        "HurstParams", "InconclusiveError", "MarketConfig", "MarketPath", "MomentReport",
        "NoiseKind", "NoiseSequence", "ProcessTag", "WalkLaw", "affine_rate",
        "arbitrage_demo", "bs_limit", "build_market", "build_markets", "c_const",
        "cell_weight", "constant_rate", "covariance", "dK", "d_const",
        "discrete_covariance", "discrete_increment_variance", "discrete_variance",
        "divergence_scan", "fbm_kernel", "fbm_walk", "grid_index", "histogram",
        "increment_variance", "kernel", "make_noise", "market", "no_arbitrage_check",
        "path_slabs", "paths", "quadratic_variation", "qv_decay", "random_walk",
        "rosenblatt_kernel", "rosenblatt_walk", "scale_to_grid", "simulate_ensemble",
        "skewness", "stats", "tabulated_rate",
    ]
