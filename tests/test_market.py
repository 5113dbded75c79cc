"""Binary market recursions, the f/g split, divergence, and the arbitrage trade."""
import json

import numpy as np
import pytest

from rosenblatt import (DomainError, InconclusiveError, MarketConfig,
                        affine_rate, arbitrage_demo, bs_limit, build_market,
                        constant_rate, divergence_scan, make_noise,
                        no_arbitrage_check, rosenblatt_walk, tabulated_rate,
                        weight_table)
from rosenblatt.kernel import get_engine
from rosenblatt.market import branch_pnls
from rosenblatt.paths import NoiseKind, NoiseSequence


def cfg_with(N=64, sigma=1.0, H=0.8, r=0.5, a=0.0):
    return MarketConfig(N=N, sigma=sigma, rate_r=constant_rate(r),
                        rate_a=constant_rate(a), S0=1.0, B0=1.0, H=H)


def ones_path(cfg):
    """The market path on the all-ones witness noise."""
    ones = NoiseSequence(kind=NoiseKind.RADEMACHER, seed=0, values=np.ones(cfg.N))
    return build_market(cfg, ones)


@pytest.fixture(scope="module")
def std_cfg():
    return cfg_with()


@pytest.fixture(scope="module")
def std_path(std_cfg):
    return build_market(std_cfg, make_noise(64, "rademacher", 424242))


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            cfg_with(N=1)
        with pytest.raises(DomainError):
            cfg_with(sigma=-0.1)
        with pytest.raises(DomainError):
            MarketConfig(N=8, sigma=1.0, rate_r=constant_rate(0.0),
                         rate_a=constant_rate(0.0), S0=0.0, B0=1.0, H=0.8)

    def test_per_period_rates(self):
        cfg = MarketConfig(N=4, sigma=1.0, rate_r=affine_rate(0.1, 0.4),
                           rate_a=constant_rate(0.2), S0=1.0, B0=1.0, H=0.8)
        r, a = cfg.per_period_rates()
        assert np.allclose(r, [(0.1 + 0.4 * t) / 4 for t in (0.25, 0.5, 0.75, 1.0)])
        assert np.allclose(a, 0.05)

    def test_tabulated_rate(self):
        rate = tabulated_rate([0.0, 0.5, 1.0], [1.0, 2.0, 0.0])
        assert rate(0.25) == pytest.approx(1.5)
        assert rate(0.75) == pytest.approx(1.0)
        with pytest.raises(DomainError):
            tabulated_rate([0.0, 0.0], [1.0, 2.0])


class TestFGForms:
    # on a built path f_{n-1}(xi) = (u_n + d_n)/2 and g_{n-1}(xi) = (u_n - d_n)/2

    def test_f_empty_sum_at_n2(self, std_path):
        assert std_path.u[1] + std_path.d[1] == 0.0

    def test_parity(self, std_cfg, std_path):
        # f is even and g odd in the noise, so flipping every sign swaps the
        # branches: u on -xi is d on xi
        xi = std_path.noise.values
        flipped = build_market(std_cfg, NoiseSequence(kind=NoiseKind.RADEMACHER,
                                                      seed=0, values=-xi))
        assert np.array_equal(flipped.u, std_path.d)
        assert np.array_equal(flipped.d, std_path.u)

    def test_g_positive_on_all_ones(self, std_cfg):
        path = ones_path(std_cfg)
        assert path.u[19] - path.d[19] > 0.0

    def test_f_matches_brute_force_table_sum(self):
        # sigma N sum_{i != j <= n-1} (table(n) - table(n-1)) on all-ones
        cfg = cfg_with(N=64, H=0.7)
        n = 20
        p = cfg.params
        path = ones_path(cfg)
        u, d = path.u[n - 1], path.d[n - 1]
        inc = (weight_table(n, 64, p).coeffs
               - weight_table(n - 1, 64, p).coeffs)
        want_f = float(inc[: n - 1, : n - 1].sum())
        assert 0.5 * (u + d) == pytest.approx(want_f, rel=1e-8)
        want_g = 2.0 * float(weight_table(n, 64, p).coeffs[n - 1, : n - 1].sum())
        assert 0.5 * (u - d) == pytest.approx(want_g, rel=1e-8)


class TestBuildMarket:
    def test_noise_validation(self, std_cfg):
        with pytest.raises(DomainError):
            build_market(std_cfg, make_noise(64, "gaussian", 1))
        with pytest.raises(DomainError):
            build_market(std_cfg, make_noise(32, "rademacher", 1))
        # X_n is the branch xi_n picks, so every entry must be +-1, the last too
        half = np.ones(64)
        half[-1] = 0.5
        with pytest.raises(DomainError, match="Rademacher"):
            build_market(std_cfg, NoiseSequence(kind=NoiseKind.RADEMACHER, seed=0,
                                                values=half))

    def test_sigma_zero_deterministic(self):
        cfg = cfg_with(N=16, sigma=0.0, r=0.3, a=0.1)
        path = build_market(cfg, make_noise(16, "rademacher", 2))
        assert np.allclose(path.X, 0.0)
        assert np.allclose(path.S, 1.0 * (1 + 0.1 / 16) ** np.arange(17))
        assert np.allclose(path.B, 1.0 * (1 + 0.3 / 16) ** np.arange(17))

    def test_bond_exponential_limit(self):
        # (1 + r/N)^N approaches e^r; classical compounding limit
        cfg = cfg_with(N=256, sigma=0.0, r=0.5)
        path = build_market(cfg, make_noise(256, "rademacher", 3))
        assert path.B[-1] == pytest.approx(np.exp(0.5), rel=5e-4)

    def test_isolation_identity_every_step(self):
        # X_n = f_{n-1}(xi) + xi_n g_{n-1}(xi) is the branch xi_n picks, and it
        # keeps every bit of the walk's own pass over the whole noise
        for N in (64, 512):
            cfg = cfg_with(N=N, sigma=0.7)
            xi = make_noise(N, "rademacher", 424242).values
            path = build_market(cfg, make_noise(N, "rademacher", 424242))
            walk = cfg.sigma * get_engine(N, cfg.params).quadratic_increments(
                xi[None, :], unit_squares=True)[0]
            assert path.X.tobytes() == walk.tobytes(), N
            assert np.array_equal(path.X, np.where(xi > 0, path.u, path.d)), N

    def test_never_calls_quadratic_increments(self, std_cfg, monkeypatch):
        # the branch pass is the market's only kernel call: X is read off it
        from rosenblatt.kernel import VolterraEngine

        def refuse(self, xi, unit_squares):
            raise AssertionError("build_market ran the walk pass")

        monkeypatch.setattr(VolterraEngine, "quadratic_increments", refuse)
        path = build_market(std_cfg, make_noise(64, "rademacher", 424242))
        assert path.X.shape == (64,)

    @pytest.mark.parametrize("N,steps,seed", [(64, None, 424242), (64, None, None),
                                              (600, (2, 300, 513, 600), 5)])
    def test_envelope_matches_delta_table_oracle(self, N, steps, seed):
        # u_n, d_n = sigma (x'Dx +- 2 D[n-1] x) on the dense panel increment
        # D = delta_table(n); seed None is the all-ones witness path
        cfg = cfg_with(N=N, sigma=0.7)
        if seed is None:
            noise = NoiseSequence(kind=NoiseKind.RADEMACHER, seed=0, values=np.ones(N))
        else:
            noise = make_noise(N, "rademacher", seed)
        path = build_market(cfg, noise)
        eng = get_engine(N, cfg.params)
        x = noise.values
        for n in steps or range(2, N + 1):
            D = eng.delta_table(n)
            f = x[: n - 1] @ D[: n - 1, : n - 1] @ x[: n - 1]
            g = 2.0 * (D[n - 1, : n - 1] @ x[: n - 1])
            assert path.u[n - 1] == pytest.approx(cfg.sigma * (f + g), rel=1e-10)
            assert path.d[n - 1] == pytest.approx(cfg.sigma * (f - g), rel=1e-10)

    def test_first_period_is_degenerate(self, std_path):
        assert std_path.X[0] == 0.0
        assert std_path.u[0] == 0.0 and std_path.d[0] == 0.0
        assert not std_path.violated[0]

    def test_breakdown_diagnostic(self):
        cfg = cfg_with(N=32, sigma=60.0)
        path = build_market(cfg, make_noise(32, "rademacher", 12))
        assert path.breakdown_at is not None
        assert path.S[path.breakdown_at] <= 0.0

    def test_csv_export(self, std_path, tmp_path):
        f = tmp_path / "market.csv"
        std_path.to_csv(f)
        lines = f.read_text().splitlines()
        assert lines[0] == "n,t,X,B,S,u,d,r_minus_a,violated"
        assert len(lines) == 65
        assert "np." not in lines[1]


class TestNoArbitrageCheck:
    def test_quiet_market_has_no_violation(self):
        # constructed case: zero rate spread, small sigma, short horizon, and
        # a realization whose branch returns straddle 0 at every step
        cfg = cfg_with(N=16, sigma=0.05, r=0.2, a=0.2)
        path = build_market(cfg, make_noise(16, "rademacher", 31))
        assert no_arbitrage_check(path) is None

    def test_sigma_zero_never_violates(self):
        cfg = cfg_with(N=16, sigma=0.0)
        path = build_market(cfg, make_noise(16, "rademacher", 2))
        assert no_arbitrage_check(path) is None

    def test_violation_found_on_spread_preset(self, std_path):
        n0 = no_arbitrage_check(std_path)
        assert n0 is not None and 2 <= n0 <= 64

    def test_equality_counts_as_violation(self, std_cfg, std_path):
        n0 = no_arbitrage_check(std_path)
        # rebuild a path whose spread exactly touches d at some step
        path = build_market(std_cfg, make_noise(64, "rademacher", 424242))
        k = 10
        path.r_minus_a.setflags(write=True)
        path.r_minus_a[k] = min(path.u[k], path.d[k])
        hit = no_arbitrage_check(path)
        assert hit is not None and hit <= k + 1


class TestDivergence:
    def test_scan_structure(self, std_cfg):
        rep = divergence_scan(ones_path(std_cfg))
        assert len(rep.fg_sequence) == 63
        assert rep.theoretical_exponent == pytest.approx(0.8)
        assert rep.first_violation is not None
        assert rep.params["n_max"] == 64

    def test_all_ones_spread_strictly_positive(self, std_cfg):
        # u_n - d_n = 2 g > 0 at every binary step of the witness path
        path = ones_path(std_cfg)
        assert np.all(path.u[1:] > path.d[1:])

    def test_growth_and_exponent_at_n128(self):
        cfg = cfg_with(N=128)
        rep = divergence_scan(ones_path(cfg))
        fg = np.array(rep.fg_sequence)
        upper = fg[62:]          # n = 64..128
        assert np.all(upper > 0)
        assert np.all(np.diff(upper) > 0)
        assert abs(rep.fitted_exponent - rep.theoretical_exponent) <= 0.3

    def test_scaling_in_grid_resolution(self):
        # the whole table scales as N^-H, so f - g at fixed n carries the
        # same factor: doubling N divides f - g by 2^H exactly
        H = 0.8
        fg64 = np.array(divergence_scan(ones_path(cfg_with(N=64, H=H))).fg_sequence[:31])
        fg128 = np.array(divergence_scan(ones_path(cfg_with(N=128, H=H))).fg_sequence[:31])
        ratios = fg64 / fg128
        assert np.allclose(ratios, 2.0 ** H, rtol=1e-10)

    def test_scan_bounds(self, std_cfg):
        with pytest.raises(DomainError, match="N >= 4"):
            divergence_scan(ones_path(cfg_with(N=3)))

    def test_scan_refuses_a_noise_path(self, std_path):
        with pytest.raises(DomainError, match="all-ones"):
            divergence_scan(std_path)

    def test_json_round_trip(self, std_cfg, tmp_path):
        rep = divergence_scan(ones_path(cfg_with(N=16)))
        f = tmp_path / "scan.json"
        rep.to_json(f)
        payload = json.loads(f.read_text())
        assert payload["theoretical_exponent"] == pytest.approx(0.8)
        assert len(payload["fg_sequence"]) == 15
        assert payload["params"]["N"] == 16


class TestArbitrageDemo:
    def test_witness_demo_wins_both_branches(self, std_cfg):
        trade = arbitrage_demo(ones_path(std_cfg))
        assert trade.strategy == "long-stock"
        assert trade.pnl_up > 0.0 and trade.pnl_down > 0.0

    def test_non_violating_step_has_a_losing_branch(self, std_cfg):
        path = ones_path(std_cfg)
        n0 = no_arbitrage_check(path)
        safe = next(n for n in range(2, 65) if not path.violated[n - 1])
        up, dn = branch_pnls(path, safe, strategy="long-stock")
        assert min(up, dn) <= 0.0 < max(up, dn)

    def test_pnl_linear_in_stock_units(self, std_cfg):
        path = ones_path(std_cfg)
        t1 = arbitrage_demo(path, stock_units=1.0)
        t2 = arbitrage_demo(path, stock_units=2.0)
        assert t2.pnl_up == pytest.approx(2 * t1.pnl_up)
        assert t2.pnl_down == pytest.approx(2 * t1.pnl_down)

    def test_refuses_when_no_violation(self):
        cfg = cfg_with(N=16, sigma=0.0)
        with pytest.raises(InconclusiveError):
            arbitrage_demo(build_market(cfg, make_noise(16, "rademacher", 5)))


class TestBsLimit:
    def test_degenerate_constant(self):
        cfg = cfg_with(N=16, sigma=0.0, r=0.0, a=0.0)
        z = rosenblatt_walk(make_noise(16, "rademacher", 7), cfg.params)
        S, B = bs_limit(cfg, z, 1.0)
        assert S == pytest.approx(1.0) and B == pytest.approx(1.0)

    def test_zero_path_gives_rate_integral(self):
        cfg = MarketConfig(N=16, sigma=0.7, rate_r=constant_rate(0.3),
                           rate_a=affine_rate(0.2, 0.6), S0=2.0, B0=3.0, H=0.8)
        from rosenblatt import GridPath, ProcessTag
        flat = GridPath(n=16, values=np.zeros(17), process_tag=ProcessTag.ROSENBLATT)
        S, B = bs_limit(cfg, flat, 1.0)
        assert S == pytest.approx(2.0 * np.exp(0.2 + 0.3), rel=1e-9)   # int affine = 0.2 + 0.6/2
        assert B == pytest.approx(3.0 * np.exp(0.3), rel=1e-9)

    def test_time_domain(self, std_cfg):
        z = rosenblatt_walk(make_noise(64, "rademacher", 7), std_cfg.params)
        with pytest.raises(DomainError):
            bs_limit(std_cfg, z, 1.5)

    def test_paired_gap_shrinks_with_resolution(self):
        # log S_N(1) - log S_limit(1) on the same noise shrinks as N grows
        from rosenblatt import HurstParams
        from rosenblatt.kernel import get_engine
        p = HurstParams(0.8)
        gaps = []
        for N in (32, 128):
            cfg = cfg_with(N=N, sigma=0.5, r=0.0, a=0.0)
            mean_gap = 0.0
            for seed in range(40):
                noise = make_noise(N, "rademacher", seed)
                path = build_market(cfg, noise)
                z = rosenblatt_walk(noise, p)
                S_lim, _ = bs_limit(cfg, z, 1.0)
                mean_gap += abs(np.log(path.S[-1]) - np.log(S_lim)) / 40
            gaps.append(mean_gap)
        assert gaps[1] < gaps[0]
