"""Binary market recursions, the f/g split, divergence, and the arbitrage trade."""
import dataclasses
import json

import numpy as np
import pytest

from rosenblatt import (DomainError, HurstParams, InconclusiveError, MarketConfig,
                        affine_rate, arbitrage_demo, build_market, build_markets,
                        constant_rate, divergence_scan, make_noise,
                        no_arbitrage_check, simulate_ensemble, tabulated_rate)
from rosenblatt.kernel import get_engine
from rosenblatt.market import MarketPath
from rosenblatt.paths import derive_seed

from oracles import bs_limit


def cfg_with(N=64, sigma=1.0, H=0.8, r=0.5, a=0.0):
    return MarketConfig(N=N, sigma=sigma, rate_r=constant_rate(r),
                        rate_a=constant_rate(a), S0=1.0, B0=1.0, H=H)


def ones_path(cfg):
    """The market path on the all-ones witness noise."""
    return build_market(cfg, np.ones(cfg.N))


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
        # nan and inf are refused for every number the market is built from
        for field in ("sigma", "S0", "B0", "H"):
            for value in (float("nan"), float("inf")):
                kw = dict(N=8, sigma=1.0, rate_r=constant_rate(0.0),
                          rate_a=constant_rate(0.0), S0=1.0, B0=1.0, H=0.8)
                kw[field] = value
                with pytest.raises(DomainError):
                    MarketConfig(**kw)
        # and H outside (1/2, 1) at construction, not first at cfg.params
        for H in (1.2, 0.5):
            with pytest.raises(DomainError):
                cfg_with(H=H)

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
        flipped = build_market(std_cfg, -std_path.xi)
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
        eng = get_engine(64, p)
        inc = eng.table_matrix(n) - eng.table_matrix(n - 1)
        want_f = float(inc[: n - 1, : n - 1].sum())
        assert 0.5 * (u + d) == pytest.approx(want_f, rel=1e-8)
        want_g = 2.0 * float(eng.table_matrix(n)[n - 1, : n - 1].sum())
        assert 0.5 * (u - d) == pytest.approx(want_g, rel=1e-8)


class TestBuildMarket:
    def test_noise_validation(self, std_cfg):
        # build_markets reads (paths, N) rows, build_market one row; X_n is the
        # branch xi_n picks, so every entry must be +-1, the last too
        half = np.ones(64)
        half[-1] = 0.5
        for rows in ([np.ones(63)], [np.ones(65)], [make_noise(32, "rademacher", 1)],
                     [make_noise(64, "gaussian", 1)], [half], np.ones((1, 1, 64)), []):
            with pytest.raises(DomainError):
                build_markets(std_cfg, rows)
            with pytest.raises(DomainError):
                build_market(std_cfg, rows[0] if len(rows) == 1 else rows)
        with pytest.raises(DomainError, match="Rademacher"):
            build_market(std_cfg, half)

    def test_paths_of_one_pass_equal_their_own_builds(self):
        # build_markets stacks every path's prefix in one branch pass; each
        # path keeps every bit of its own one-path build
        cfg = cfg_with(N=300, sigma=0.7)
        noises = [make_noise(300, "rademacher", 3), np.ones(300),
                  make_noise(300, "rademacher", 5)]
        for path, noise in zip(build_markets(cfg, noises), noises):
            alone = build_market(cfg, noise)
            assert np.array_equal(path.xi, noise)
            for name in ("X", "B", "S", "u", "d", "r_minus_a"):
                assert getattr(path, name).tobytes() == getattr(alone, name).tobytes(), name

    def test_holds_few_blocks_at_once(self, monkeypatch):
        # the branch pass builds each of N = 300's 19 panel blocks, uses it
        # and drops it: no more blocks are alive at once than the build has
        # workers, plus one
        import threading
        import weakref
        from rosenblatt import kernel
        build = kernel._Panels._block
        lock = threading.Lock()
        count = {"alive": 0, "peak": 0, "built": 0}

        def dropped():
            with lock:
                count["alive"] -= 1

        def tracked(self, lo, last):
            t = build(self, lo, last)
            with lock:
                count["alive"] += 1
                count["built"] += 1
                count["peak"] = max(count["peak"], count["alive"])
            weakref.finalize(t["A_gl"], dropped)
            return t

        monkeypatch.setattr(kernel._Panels, "_block", tracked)
        build_market(cfg_with(N=300), make_noise(300, "rademacher", 7))
        assert count["built"] == 19
        assert count["alive"] == 0
        assert count["peak"] <= min(kernel._cpus(), 19) + 1

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
            xi = make_noise(N, "rademacher", 424242)
            path = build_market(cfg, xi)
            walk = cfg.sigma * get_engine(N, cfg.params).quadratic_increments(xi[None, :])[0]
            assert path.X.tobytes() == walk.tobytes(), N
            assert np.array_equal(path.X, np.where(xi > 0, path.u, path.d)), N

    def test_never_calls_quadratic_increments(self, std_cfg, monkeypatch):
        # the branch pass is the market's only kernel call: X is read off it
        from rosenblatt.kernel import VolterraEngine

        def refuse(self, xi):
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
        x = np.ones(N) if seed is None else make_noise(N, "rademacher", seed)
        path = build_market(cfg, x)
        eng = get_engine(N, cfg.params)
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

    def test_overflow_is_kept_and_refused_by_each_reader(self, tmp_path):
        # only the witness's S overflows: the build keeps it, the scan reads
        # d alone, and the CSV writer refuses the path before opening a file
        cfg = cfg_with(N=256, sigma=100.0)
        path, witness = build_markets(cfg, [make_noise(256, "rademacher", 1), np.ones(256)])
        assert np.all(np.isfinite(path.S)) and not np.all(np.isfinite(witness.S))
        assert np.all(np.isfinite(witness.d))
        assert divergence_scan(witness).first_violation == arbitrage_demo(witness).index
        with pytest.raises(DomainError, match="S is not finite"):
            witness.to_csv(tmp_path / "w.csv")
        assert list(tmp_path.iterdir()) == []
        witness.d[100] = np.inf
        with pytest.raises(DomainError, match="d is not finite"):
            divergence_scan(witness)

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

    def test_skips_steps_after_a_breakdown(self):
        # S_3 < 0: the violation at n = 4 flips the trade's sign, so the
        # first violation counted is the first one with S_{n-1} > 0
        cfg = cfg_with(N=16, sigma=20.0, a=-3.0)
        path = build_market(cfg, make_noise(16, "rademacher", 0))
        assert path.S[3] < 0.0 and path.violated[3]
        n0 = no_arbitrage_check(path)
        assert n0 > 4 and path.S[n0 - 1] > 0.0
        assert n0 == 1 + min(k for k in range(16) if path.violated[k] and path.S[k] > 0)


class TestDivergence:
    def test_scan_structure(self, std_cfg):
        rep = divergence_scan(ones_path(std_cfg))
        assert len(rep.fg_sequence) == 63
        assert rep.theoretical_exponent == pytest.approx(0.8)
        assert rep.first_violation is not None

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

    @pytest.mark.parametrize("N", [16, 64, 512])
    def test_fitted_exponent_is_exact_on_a_straight_line(self, N):
        # f - g = n lies on log(f - g) = log n: the fitted exponent is 1 to the
        # last bit
        witness = dataclasses.replace(ones_path(cfg_with(N=N)),
                                      d=np.arange(1, N + 1, dtype=float))
        assert divergence_scan(witness).fitted_exponent == 1.0

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

    def test_short_trade_is_the_long_trade_negated(self):
        # the realised path trades short at n = 4: u_4 and d_4 both lie below
        # r_4 - a_4, so selling the stock and lending the proceeds wins
        cfg = MarketConfig(N=64, sigma=0.7, rate_r=affine_rate(0.5, 3.0),
                           rate_a=constant_rate(0.3), S0=2.5, B0=1.0, H=0.8)
        path = build_market(cfg, make_noise(64, "rademacher", 3))
        trade = arbitrage_demo(path)
        n0 = trade.index
        s_prev, ra = path.S[n0 - 1], path.r_minus_a[n0 - 1]
        u, d = path.u[n0 - 1], path.d[n0 - 1]
        assert trade.strategy == "short-stock"
        assert trade.pnl_up == -(s_prev * (u - ra))
        assert trade.pnl_down == -(s_prev * (d - ra))
        assert min(trade.pnl_up, trade.pnl_down) >= 0.0
        assert max(trade.pnl_up, trade.pnl_down) > 0.0

    def test_non_violating_step_has_a_losing_branch(self, std_cfg):
        # the long trade's P&L S_{n-1} * (X - (r_n - a_n)) on each branch X
        path = ones_path(std_cfg)
        safe = next(n for n in range(2, 65) if not path.violated[n - 1])
        s_prev, ra = path.S[safe - 1], path.r_minus_a[safe - 1]
        up, dn = (s_prev * (x - ra) for x in (path.u[safe - 1], path.d[safe - 1]))
        assert min(up, dn) <= 0.0 < max(up, dn)

    def test_refuses_a_trade_that_is_no_arbitrage(self):
        # S_1 is the smallest subnormal: both branch P&Ls round to zero
        N = 4
        path = MarketPath(cfg=cfg_with(N=N), xi=make_noise(N, "rademacher", 1),
                          X=np.zeros(N), B=np.ones(N + 1),
                          S=np.array([1.0, 5e-324, 1.0, 1.0, 1.0]),
                          u=np.array([0.0, 0.75, 1.0, 1.0]), d=np.array([0.0, 0.5, 0.0, 0.0]),
                          r_minus_a=np.full(N, 0.5))
        assert no_arbitrage_check(path) == 2
        with pytest.raises(InconclusiveError,
                           match=r"no arbitrage: long-stock, pnl up 0\.0, down 0\.0$"):
            arbitrage_demo(path)

    def test_refuses_an_overflowed_price_before_its_trade(self):
        cfg = cfg_with(N=8)
        path = ones_path(cfg)
        n0 = no_arbitrage_check(path)
        path.u[n0 - 2] = np.nan
        with pytest.raises(DomainError, match="u is not finite"):
            arbitrage_demo(path)

    def test_refuses_when_no_violation(self):
        cfg = cfg_with(N=16, sigma=0.0)
        with pytest.raises(InconclusiveError):
            arbitrage_demo(build_market(cfg, make_noise(16, "rademacher", 5)))


class TestBsLimit:
    def test_degenerate_constant(self):
        cfg = cfg_with(N=16, sigma=0.0, r=0.0, a=0.0)
        z = simulate_ensemble(1, 7, "rademacher", cfg.params, "rosenblatt", 16)[0]
        S, B = bs_limit(cfg, z, 1.0)
        assert S == pytest.approx(1.0) and B == pytest.approx(1.0)

    def test_zero_path_gives_rate_integral(self):
        cfg = MarketConfig(N=16, sigma=0.7, rate_r=constant_rate(0.3),
                           rate_a=affine_rate(0.2, 0.6), S0=2.0, B0=3.0, H=0.8)
        S, B = bs_limit(cfg, np.zeros(17), 1.0)
        assert S == pytest.approx(2.0 * np.exp(0.2 + 0.3), rel=1e-9)   # int affine = 0.2 + 0.6/2
        assert B == pytest.approx(3.0 * np.exp(0.3), rel=1e-9)

    def test_cadlag_floor_lookup(self):
        # Z(t) is the row's value at grid point floor(n t)
        cfg = cfg_with(N=4, sigma=1.0, r=0.0, a=0.0)
        z = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        for t, want in [(0.0, 0.0), (0.24, 0.0), (0.25, 1.0), (0.999, 3.0), (1.0, 4.0)]:
            assert bs_limit(cfg, z, t)[0] == np.exp(want), t

    def test_time_domain(self, std_cfg):
        z = simulate_ensemble(1, 7, "rademacher", std_cfg.params, "rosenblatt", 64)[0]
        with pytest.raises(DomainError):
            bs_limit(std_cfg, z, 1.5)

    @pytest.mark.parametrize("z", [np.zeros((2, 17)), np.zeros(1), np.arange(1.0, 18.0)],
                             ids=["2-D", "one-value", "not-from-0"])
    def test_refuses_what_is_not_a_path_row(self, std_cfg, z):
        with pytest.raises(DomainError, match="one path row"):
            bs_limit(std_cfg, z, 1.0)

    def test_paired_gap_shrinks_with_resolution(self):
        # log S_N(1) - log S_limit(1) on the same noise shrinks as N grows
        p = HurstParams(0.8)
        gaps = []
        for N in (32, 128):
            cfg = cfg_with(N=N, sigma=0.5, r=0.0, a=0.0)
            mean_gap = 0.0
            Z = simulate_ensemble(40, 0, "rademacher", p, "rosenblatt", N)
            for k, z in enumerate(Z):
                path = build_market(cfg, make_noise(N, "rademacher", derive_seed(0, k)))
                S_lim, _ = bs_limit(cfg, z, 1.0)
                mean_gap += abs(np.log(path.S[-1]) - np.log(S_lim)) / 40
            gaps.append(mean_gap)
        assert gaps[1] < gaps[0]
