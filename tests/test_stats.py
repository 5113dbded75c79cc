"""Moment reports, quadratic variation, histograms, and the exact finite-n laws."""
import numpy as np
import pytest

from rosenblatt import (DomainError, GridPath, ProcessTag,
                        covariance, discrete_covariance,
                        discrete_increment_variance, discrete_variance,
                        histogram, increment_variance, qv_decay,
                        quadratic_variation, simulate_ensemble, skewness)
from rosenblatt.stats import MomentReport


@pytest.fixture(scope="module")
def rose_ens(p08):
    return simulate_ensemble(8000, 2718, "rademacher", p08, "rosenblatt", 64)


@pytest.fixture(scope="module")
def walk_ens():
    return simulate_ensemble(8000, 31415, "gaussian", None, "walk", 64)


class TestDiscreteLaws:
    def test_variance_against_brute_force_value(self, p08):
        # cross-validated at n = 8 against nested scipy quadrature plus a
        # 4e5-path Monte Carlo of the definition during development
        assert discrete_variance(8, 1.0, p08) == pytest.approx(
            0.34297724041, rel=1e-9)

    def test_covariance_consistency(self, p08):
        # E[Z(t)^2] is both a variance and a self-covariance
        a = discrete_variance(16, 0.5, p08)
        b = discrete_covariance(16, 0.5, 0.5, p08)
        assert a == pytest.approx(b, rel=1e-12)

    def test_increment_bilinearity(self, p08):
        # E|Z(t)-Z(s)|^2 = Var Z(t) + Var Z(s) - 2 E[Z(s) Z(t)]
        n, s, t = 16, 0.5, 1.0
        lhs = discrete_increment_variance(n, s, t, p08)
        rhs = (discrete_variance(n, t, p08)
               + discrete_variance(n, s, p08)
               - 2 * discrete_covariance(n, s, t, p08))
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestIncrementVariance:
    def test_zero_at_equal_times(self, rose_ens):
        rep = increment_variance(rose_ens, 0.5, 0.5)
        assert rep.estimate == 0.0
        assert rep.note is not None  # degenerate flag, not an error

    def test_symmetric_in_arguments(self, rose_ens):
        a = increment_variance(rose_ens, 0.25, 0.75)
        b = increment_variance(rose_ens, 0.75, 0.25)
        assert a.estimate == b.estimate and a.theoretical == b.theoretical

    def test_matches_exact_discrete_law(self, rose_ens, p08):
        for (s, t) in [(0.0, 1.0), (0.25, 0.75)]:
            rep = increment_variance(rose_ens, s, t)
            assert rep.discrete == pytest.approx(
                discrete_increment_variance(64, s, t, p08), rel=1e-12)
            assert rep.within(4.0)
            assert rep.theoretical == pytest.approx(
                abs(np.floor(64 * t) / 64 - np.floor(64 * s) / 64) ** 1.6)

    def test_agrees_with_variance_at_origin(self, rose_ens):
        rep = increment_variance(rose_ens, 0.0, 1.0)
        z1 = rose_ens.values[:, -1]
        assert rep.estimate == pytest.approx(float(np.mean(z1 * z1)), rel=1e-12)

    def test_walk_theoretical_is_brownian(self, walk_ens):
        rep = increment_variance(walk_ens, 0.0, 0.5)
        assert rep.theoretical == pytest.approx(0.5)
        assert rep.within(4.0)


class TestCovariance:
    def test_zero_time_edge(self, rose_ens):
        rep = covariance(rose_ens, 0.0, 0.7)
        assert rep.theoretical == 0.0
        assert rep.estimate == 0.0

    def test_terminal_value_is_unit(self, rose_ens):
        rep = covariance(rose_ens, 1.0, 1.0)
        assert rep.theoretical == pytest.approx(1.0)

    def test_cancellation_at_half(self, rose_ens):
        # (0.5^1.6 + 1 - 0.5^1.6)/2 = 0.5 exactly
        rep = covariance(rose_ens, 0.5, 1.0)
        assert rep.theoretical == pytest.approx(0.5, rel=1e-14)
        assert rep.within(4.0)

    def test_walk_covariance_is_min(self, walk_ens):
        rep = covariance(walk_ens, 0.25, 0.75)
        assert rep.theoretical == pytest.approx(0.25)
        assert rep.within(4.0)


class TestSkewness:
    def test_gaussian_walk_unskewed(self, walk_ens):
        rep = skewness(walk_ens, 1.0)
        assert abs(rep.estimate) < 3.0 * rep.std_error

    def test_rosenblatt_marginal_is_skewed(self, rose_ens):
        rep = skewness(rose_ens, 1.0)
        assert abs(rep.estimate) > 3.0 * rep.std_error
        assert rep.estimate > 0

    def test_scale_invariance(self, rose_ens):
        rep = skewness(rose_ens, 1.0)
        scaled = simulate_ensemble(100, 1, "rademacher", rose_ens.params,
                                   "rosenblatt", 8)
        scaled.values = rose_ens.values * 3.7
        scaled.n = rose_ens.n
        scaled.master_seed = rose_ens.master_seed
        rep2 = skewness(scaled, 1.0)
        assert rep2.estimate == pytest.approx(rep.estimate, rel=1e-12)

    def test_needs_enough_paths(self, p08):
        tiny = simulate_ensemble(50, 1, "rademacher", p08, "rosenblatt", 8)
        with pytest.raises(DomainError):
            skewness(tiny, 1.0)


class TestQuadraticVariation:
    def test_constant_path_is_zero(self):
        path = GridPath(n=4, values=np.zeros(5), process_tag=ProcessTag.WALK)
        assert quadratic_variation(path) == 0.0

    def test_sign_flip_invariance(self, p08):
        ens = simulate_ensemble(1, 5, "rademacher", p08, "rosenblatt", 32)
        path = next(ens.paths)
        flipped = GridPath(n=32, values=-path.values, process_tag=path.process_tag)
        assert quadratic_variation(path) == quadratic_variation(flipped)

    def test_partial_horizon(self):
        path = GridPath(n=4, values=np.array([0.0, 1.0, 1.0, 2.0, 2.0]),
                        process_tag=ProcessTag.WALK)
        assert quadratic_variation(path, 0.5) == 1.0
        assert quadratic_variation(path, 1.0) == 2.0

    def test_qv_decay_refuses_short_sweeps(self, rose_ens):
        with pytest.raises(DomainError):
            qv_decay([rose_ens, rose_ens])

    def test_qv_decay_matches_exact_slope(self, p08):
        from rosenblatt.kernel import get_engine
        sizes = (16, 32, 64, 128)
        enss = [simulate_ensemble(2000, 99, "rademacher", p08, "rosenblatt", n)
                for n in sizes]
        fit = qv_decay(enss)
        exact = []
        for n in sizes:
            eng = get_engine(n, p08)
            exact.append(sum(2.0 * float(np.sum(eng.delta_table(m) ** 2))
                             for m in range(1, n + 1)))
        exact_slope = np.polyfit(np.log(sizes), np.log(exact), 1)[0]
        assert fit.slope == pytest.approx(exact_slope, abs=0.05)
        for mean, want in zip(fit.means, exact):
            assert mean == pytest.approx(want, rel=0.1)


class TestHistogram:
    def test_counts_conserved(self, rose_ens):
        h = histogram(rose_ens, 1.0, 25)
        assert int(h.counts.sum()) == h.total == rose_ens.count
        assert len(h.bin_edges) == 26

    def test_all_equal_samples_single_bin(self, p08):
        ens = simulate_ensemble(100, 4, "rademacher", p08, "rosenblatt", 8)
        ens.values = np.full_like(ens.values, 2.5)
        h = histogram(ens, 1.0, 10)
        assert (h.counts > 0).sum() == 1
        assert int(h.counts.sum()) == 100

    def test_bin_validation(self, rose_ens):
        with pytest.raises(DomainError):
            histogram(rose_ens, 1.0, 1)

    def test_h09_right_skew_mean_exceeds_median(self):
        from rosenblatt import HurstParams
        p09 = HurstParams(0.9)
        ens = simulate_ensemble(5000, 88, "rademacher", p09, "rosenblatt", 128)
        x = ens.values[:, -1]
        se_median = 1.2533 * x.std(ddof=1) / np.sqrt(x.size)
        assert x.mean() - np.median(x) > 2.0 * se_median

    def test_csv(self, rose_ens, tmp_path):
        h = histogram(rose_ens, 1.0, 5)
        f = tmp_path / "h.csv"
        h.to_csv(f)
        lines = f.read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 6


class TestReports:
    def test_validation(self):
        with pytest.raises(DomainError):
            MomentReport(quantity="x", estimate=1.0, std_error=-1.0, sample_size=10)
        with pytest.raises(DomainError):
            MomentReport(quantity="x", estimate=1.0, std_error=0.1, sample_size=1)


class TestGridTime:
    @pytest.mark.parametrize("t", [-0.5, 1.5])
    @pytest.mark.parametrize("call", [
        "discrete_increment_variance", "discrete_covariance",
        "quadratic_variation", "value_at", "values_at"])
    def test_time_outside_unit_interval_raises(self, p08, call, t):
        # every site reads the grid index floor(n t) through paths.grid_index
        path = GridPath(n=4, values=np.arange(5.0), process_tag=ProcessTag.WALK)
        ens = simulate_ensemble(2, 0, "rademacher", None, "walk", 4)
        calls = {
            "discrete_increment_variance": lambda: discrete_increment_variance(16, t, 1.0, p08),
            "discrete_covariance": lambda: discrete_covariance(16, t, 1.0, p08),
            "quadratic_variation": lambda: quadratic_variation(path, t),
            "value_at": lambda: path.value_at(t),
            "values_at": lambda: ens.values_at(t),
        }
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            calls[call]()
