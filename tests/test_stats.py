"""Moment reports, quadratic variation, histograms, and the exact finite-n laws."""
import itertools
import math

import numpy as np
import pytest

from rosenblatt import (DomainError, MarketConfig, ProcessTag, constant_rate,
                        covariance, discrete_moment, histogram, increment_variance,
                        qv_decay, simulate_ensemble, skewness)
from rosenblatt.kernel import HurstParams, fbm_matrix, get_engine
from rosenblatt.paths import (_SLAB, WalkLaw, grid_index, path_slabs,
                              scale_to_grid)
from rosenblatt.stats import (MomentReport, _discrete_skewness, _jump_square_sums,
                              reduce_slabs)

from oracles import bs_limit

ROSE_SEED, WALK_SEED = 2718, 31415

# An ensemble below is a (paths, law) pair: the (M, n + 1) paths on grid n
# and their WalkLaw.


def _at(ens, t):
    """Every path's value at t, snapped to floor(n t)/n."""
    Z, law = ens
    return Z[:, grid_index(law.n, t)]


def _pair(ens, s, t):
    """What a two-time report reads of an ensemble: its samples at s and t,
    the two times, and its law."""
    return _at(ens, s), _at(ens, t), s, t, ens[1]


def _skew(ens, t, seed):
    return skewness(_at(ens, t), t, ens[1], seed)


def _qv(ens, n):
    """(n, every path's QV on grid n), read off an ensemble's whole matrix."""
    Z, law = ens
    return n, _jump_square_sums(scale_to_grid(Z[:, : n + 1], law.n, n, law.hurst_index))


def _slabs(Z):
    """The rows of Z in slabs of _SLAB, as views."""
    return (Z[r: r + _SLAB] for r in range(0, Z.shape[0], _SLAB))


@pytest.fixture(scope="module")
def rose_ens(p08):
    return (simulate_ensemble(8000, ROSE_SEED, "rademacher", p08, "rosenblatt", 64),
            WalkLaw(ProcessTag.ROSENBLATT, p08, 64, 64))


@pytest.fixture(scope="module")
def walk_ens():
    return (simulate_ensemble(8000, WALK_SEED, "gaussian", None, "walk", 64),
            WalkLaw(ProcessTag.WALK, None, 64, 64))


def _rose(n, p):
    """The law of the Rosenblatt walk drawn on grid n itself."""
    return WalkLaw(ProcessTag.ROSENBLATT, p, n, n)


class TestDiscreteLaws:
    def test_variance_against_brute_force_value(self, p08):
        # cross-validated at n = 8 against nested scipy quadrature plus a
        # 4e5-path Monte Carlo of the definition during development
        assert discrete_moment(_rose(8, p08), "increment", 0.0, 1.0) == pytest.approx(
            0.34297724041, rel=1e-9)

    def test_covariance_consistency(self, p08):
        # E[Z(t)^2] is both a variance and a self-covariance
        a = discrete_moment(_rose(16, p08), "increment", 0.0, 0.5)
        b = discrete_moment(_rose(16, p08), "covariance", 0.5, 0.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_increment_bilinearity(self, p08):
        # E|Z(t)-Z(s)|^2 = Var Z(t) + Var Z(s) - 2 E[Z(s) Z(t)]
        law, s, t = _rose(16, p08), 0.5, 1.0
        lhs = discrete_moment(law, "increment", s, t)
        rhs = (discrete_moment(law, "increment", 0.0, t)
               + discrete_moment(law, "increment", 0.0, s)
               - 2 * discrete_moment(law, "covariance", s, t))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_symmetric_in_arguments_bitwise(self, p08):
        # (a - b)^2 is (b - a)^2 exactly, and grid point 0 reads a zero form,
        # for each walk on its own grid and on a grid read off a finer draw
        for process, N, s, t in itertools.product(
                ProcessTag, (16, 48), (0.0, 0.25, 0.3), (0.0, 0.5, 0.75, 1.0)):
            law = WalkLaw(process, None if process is ProcessTag.WALK else p08, 16, N)
            for quantity in ("increment", "covariance"):
                got = discrete_moment(law, quantity, s, t)
                assert got.hex() == discrete_moment(law, quantity, t, s).hex()

    def test_walk_is_its_continuum_law(self):
        # the walk's exact moments are |mt - ms| / n and min(ms, mt) / n, to
        # the rounding of (1/N) sum 1 times N/n
        for n, N in [(16, 16), (37, 300), (100, 100)]:
            law = WalkLaw(ProcessTag.WALK, None, n, N)
            for s, t in itertools.product(np.linspace(0, 1, 9), repeat=2):
                ms, mt = grid_index(n, s), grid_index(n, t)
                for quantity, want in (("increment", abs(mt - ms) / n),
                                       ("covariance", min(ms, mt) / n)):
                    got = discrete_moment(law, quantity, s, t)
                    assert abs(got - want) <= 4.5e-16 * want, (n, N, s, t, quantity)

    @pytest.mark.parametrize("process, H", [("walk", None), ("fbm", 0.76), ("fbm", 0.99),
                                            ("rosenblatt", 0.51), ("rosenblatt", 0.8),
                                            ("rosenblatt", 0.99)])
    def test_point_mass_exactly_below_the_chaos_order(self, process, H):
        # validate refuses a point mass by the walk's chaos order 1 +
        # quadratic, not by its exact law: a chaos with positive coefficients
        # (and, if quadratic, no diagonal) has variance 0 at grid point m
        # exactly when m is below its order, on its own grid and on grids
        # read off finer draws
        form = ProcessTag(process).form
        p = None if H is None else form.from_hurst(H)
        try:
            for n in range(1, 33):
                for N in sorted({n, 2 * n, 64}):
                    law = WalkLaw(process, p, n, N)
                    for m in range(n + 1):
                        zero = discrete_moment(law, "increment", 0.0, m / n) == 0.0
                        assert zero == (m < 1 + form.quadratic), (n, N, m)
        finally:
            # the 64 grids' engines and matrices serve no other test
            get_engine.cache_clear()
            fbm_matrix.cache_clear()

    def test_refuses_unknown_quantity(self, p08):
        with pytest.raises(DomainError, match="quantity"):
            discrete_moment(_rose(16, p08), "variance", 0.0, 1.0)


def _fsum_reference(law, s, t, quantity):
    """The fbm walk's exact moment as one correctly rounded math.fsum of its
    terms over the kappa rows of grid ``law.drawn_n``, then scaled."""
    N = law.drawn_n
    T = np.vstack([np.zeros(N), fbm_matrix(N, law.params)])
    a, b = T[grid_index(law.n, s)], T[grid_index(law.n, t)]
    terms = (b - a) ** 2 if quantity == "increment" else a * b
    return (N / law.n) ** (2 * law.hurst_index) * math.fsum(terms.tolist()) / N


_TIMES = [(0.0, 1.0), (0.25, 0.75), (0.3, 0.9), (0.5, 0.5), (0.0, 0.4)]


class TestSelfSimilarReferences:
    """The exact references of an ensemble coarsened from grid N read grid
    N's engine; discrete self-similarity makes them the grid-n laws."""

    @staticmethod
    def _references(ens):
        return [(increment_variance(*_pair(ens, s, t)).discrete,
                 covariance(*_pair(ens, s, t)).discrete)
                for s, t in _TIMES]

    @staticmethod
    def _direct(process, n, p):
        law = WalkLaw(ProcessTag(process), p, n, n)
        if process == "rosenblatt":
            return [(discrete_moment(law, "increment", s, t),
                     discrete_moment(law, "covariance", s, t)) for s, t in _TIMES]
        return [(_fsum_reference(law, s, t, "increment"),
                 _fsum_reference(law, s, t, "covariance")) for s, t in _TIMES]

    @pytest.mark.parametrize("process", ["rosenblatt", "fbm"])
    @pytest.mark.parametrize("H", [0.6, 0.8])
    @pytest.mark.parametrize("N", [256, 300])
    def test_coarsened_references_equal_grid_n_laws(self, process, H, N):
        p, n = HurstParams(H), 128
        law = WalkLaw(ProcessTag(process), p, n, N)
        fine = simulate_ensemble(2, 5, "gaussian", p, process, N)
        coarse = (scale_to_grid(fine[:, : n + 1], N, n, law.hurst_index), law)
        for got, want in zip(self._references(coarse), self._direct(process, n, p)):
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-14 * abs(w), (g, w)

    @pytest.mark.parametrize("process", ["rosenblatt", "fbm"])
    @pytest.mark.parametrize("H", [0.6, 0.8])
    @pytest.mark.parametrize("n", [128, 300])
    def test_direct_references_are_the_public_laws(self, process, H, n):
        # the reports carry discrete_moment's bits; the fbm ones lie within
        # 1e-15 of the fsum over the same kappa rows
        p = HurstParams(H)
        law = WalkLaw(ProcessTag(process), p, n, n)
        refs = self._references((simulate_ensemble(2, 5, "gaussian", p, process, n), law))
        assert refs == [(discrete_moment(law, "increment", s, t),
                         discrete_moment(law, "covariance", s, t)) for s, t in _TIMES]
        for got, want in zip(refs, self._direct(process, n, p)):
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-15 * abs(w), (g, w)

    @pytest.mark.parametrize("process", ["walk", "fbm", "rosenblatt"])
    def test_string_tag_is_the_enum(self, process):
        # a law named by the tag's string value is the same law
        p = None if process == "walk" else HurstParams(0.8)
        by_name = WalkLaw(process, p, 16, 32)
        by_tag = WalkLaw(ProcessTag(process), p, 16, 32)
        assert by_name.process_tag is ProcessTag(process)
        assert by_name.hurst_index == by_tag.hurst_index
        for quantity in ("increment", "covariance"):
            assert (discrete_moment(by_name, quantity, 0.25, 1.0)
                    == discrete_moment(by_tag, quantity, 0.25, 1.0))


def _sign_vectors(n):
    """All 2^(n - 1) sign vectors of length n with xi_1 = +1, as (rows, n).

    The laws are even in the noise (xi -> -xi flips the linear walks and
    keeps the quadratic one), so the second moments over these are the
    moments over all 2^n equally likely Rademacher vectors.
    """
    rest = np.array(list(itertools.product((1.0, -1.0), repeat=n - 1))).reshape(-1, n - 1)
    return np.hstack([np.ones((rest.shape[0], 1)), rest])


class TestExactLawIsTheGeneratedLaw:
    """discrete_moment against exact enumeration of the +-1 noise, run
    through the generator's own walk: the mean over every sign vector of a
    product or a squared increment is the walk's moment, with no sampling
    error."""

    @pytest.mark.parametrize("process, H", [("walk", None), ("fbm", 0.9),
                                            ("rosenblatt", 0.6), ("rosenblatt", 0.8)])
    @pytest.mark.parametrize("N", [8, 12])
    def test_enumeration_matches_discrete_moment(self, process, H, N):
        p = None if H is None else (HurstParams.from_kernel_hurst(H) if process == "fbm"
                                    else HurstParams(H))
        *_, walk = ProcessTag(process).form.read(N, p)
        paths = np.pad(walk(_sign_vectors(N)), ((0, 0), (1, 0)))
        # on the walk's own grid, and on the grid n read off N = 2n
        for n in (N, N // 2):
            law = WalkLaw(ProcessTag(process), p, n, N)
            Z = scale_to_grid(paths[:, : n + 1], N, n, law.hurst_index)
            for s, t in itertools.product(np.linspace(0, 1, 5), repeat=2):
                zs, zt = Z[:, grid_index(n, s)], Z[:, grid_index(n, t)]
                for quantity, sample in (("increment", (zt - zs) ** 2), ("covariance", zs * zt)):
                    want = discrete_moment(law, quantity, s, t)
                    got = math.fsum(sample.tolist()) / sample.size
                    assert abs(got - want) <= 1e-13 * abs(want), (n, s, t, quantity, got, want)


class TestIncrementVariance:
    def test_zero_at_equal_times(self, rose_ens):
        rep = increment_variance(*_pair(rose_ens, 0.5, 0.5))
        assert rep.estimate == 0.0
        assert rep.note is not None  # degenerate flag, not an error

    def test_symmetric_in_arguments(self, rose_ens):
        a = increment_variance(*_pair(rose_ens, 0.25, 0.75))
        b = increment_variance(*_pair(rose_ens, 0.75, 0.25))
        assert a.estimate == b.estimate and a.theoretical == b.theoretical
        assert a.discrete == b.discrete and a.note == b.note

    def test_matches_exact_discrete_law(self, rose_ens, p08):
        for (s, t) in [(0.0, 1.0), (0.25, 0.75)]:
            rep = increment_variance(*_pair(rose_ens, s, t))
            assert rep.discrete == pytest.approx(
                discrete_moment(_rose(64, p08), "increment", s, t), rel=1e-12)
            assert rep.within(4.0)
            assert rep.theoretical == pytest.approx(
                abs(np.floor(64 * t) / 64 - np.floor(64 * s) / 64) ** 1.6)

    def test_agrees_with_variance_at_origin(self, rose_ens):
        rep = increment_variance(*_pair(rose_ens, 0.0, 1.0))
        z1 = rose_ens[0][:, -1]
        assert rep.estimate == pytest.approx(float(np.mean(z1 * z1)), rel=1e-12)

    def test_walk_theoretical_is_brownian(self, walk_ens):
        rep = increment_variance(*_pair(walk_ens, 0.0, 0.5))
        assert rep.theoretical == pytest.approx(0.5)
        assert rep.within(4.0)


class TestCovariance:
    def test_zero_time_edge(self, rose_ens):
        for s, t in [(0.0, 0.7), (0.7, 0.0)]:
            rep = covariance(*_pair(rose_ens, s, t))
            assert rep.theoretical == 0.0
            assert rep.estimate == 0.0
            assert rep.discrete == 0.0

    def test_terminal_value_is_unit(self, rose_ens):
        rep = covariance(*_pair(rose_ens, 1.0, 1.0))
        assert rep.theoretical == pytest.approx(1.0)

    def test_cancellation_at_half(self, rose_ens):
        # (0.5^1.6 + 1 - 0.5^1.6)/2 = 0.5 exactly
        rep = covariance(*_pair(rose_ens, 0.5, 1.0))
        assert rep.theoretical == pytest.approx(0.5, rel=1e-14)
        assert rep.within(4.0)

    def test_walk_covariance_is_min(self, walk_ens):
        rep = covariance(*_pair(walk_ens, 0.25, 0.75))
        assert rep.theoretical == pytest.approx(0.25)
        assert rep.within(4.0)


class TestSkewness:
    def test_gaussian_walk_unskewed(self, walk_ens):
        rep = _skew(walk_ens, 1.0, WALK_SEED)
        assert abs(rep.estimate) < 3.0 * rep.std_error

    def test_rosenblatt_marginal_is_skewed(self, rose_ens):
        rep = _skew(rose_ens, 1.0, ROSE_SEED)
        assert abs(rep.estimate) > 3.0 * rep.std_error
        assert rep.estimate > 0

    def test_scale_invariance(self, rose_ens):
        rep = _skew(rose_ens, 1.0, ROSE_SEED)
        rep2 = skewness(_at(rose_ens, 1.0) * 3.7, 1.0, rose_ens[1], ROSE_SEED)
        assert rep2.estimate == pytest.approx(rep.estimate, rel=1e-12)

    def test_matches_cube_power_formula(self, rose_ens):
        # the estimate and bootstrap resamples of the c ** 3 formula
        def skew(v):
            c = v - v.mean()
            return np.mean(c ** 3) / np.mean(c * c) ** 1.5
        x = _at(rose_ens, 1.0)
        rng = np.random.Generator(np.random.Philox(
            key=(ROSE_SEED ^ 0xB007B007) & ((1 << 64) - 1)))
        reps = [skew(x[rng.integers(0, x.size, x.size)]) for _ in range(200)]
        rep = _skew(rose_ens, 1.0, ROSE_SEED)
        assert rep.estimate == pytest.approx(skew(x), rel=1e-14, abs=0)
        assert rep.std_error == pytest.approx(np.std(reps, ddof=1), rel=1e-14, abs=0)

    @pytest.mark.parametrize("H", [0.6, 0.8])
    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_exact_skewness_from_the_spectrum(self, H, n):
        # Gaussian chaos: Z = sum lambda (eta^2 - 1), so kappa3 / kappa2^(3/2)
        # = 8 sum lambda^3 / (2 sum lambda^2)^(3/2) over the eigenvalues of C
        lam = np.linalg.eigvalsh(get_engine(n, HurstParams(H)).table_matrix(n))
        want = 8 * np.sum(lam ** 3) / (2 * np.sum(lam ** 2)) ** 1.5
        got = _discrete_skewness(_rose(n, HurstParams(H)), 1.0)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        if n == 2:
            # Z = 2 c_12 xi_1 xi_2 is symmetric: tr C^3 is exactly 0
            assert got == 0.0
        if n == 64:
            assert got == pytest.approx({0.6: 2.016, 0.8: 2.352}[H], abs=1e-3)

    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_exact_skewness_by_enumeration(self, p08, m):
        # every +-1 noise of grid 7 equally likely: the population skewness of
        # xi' C(m) xi over all 128 noises is the exact one of Rademacher noise
        n = 7
        xi = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        C = get_engine(n, p08).table_matrix(m)
        z = np.einsum("ri,ij,rj->r", xi, C, xi)
        c = z - z.mean()
        want = np.mean(c ** 3) / np.mean(c ** 2) ** 1.5
        got = _discrete_skewness(WalkLaw(ProcessTag.ROSENBLATT, p08, n, n), m / n)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_exact_skewness_of_each_form(self, p08):
        # linear walks in symmetric noise have none; a point mass has a 0/0;
        # a grid read off a finer draw has the skewness of its own draw
        fbm = HurstParams.from_kernel_hurst(0.9)
        assert _discrete_skewness(WalkLaw(ProcessTag.WALK, None, 16, 16), 0.5) == 0.0
        assert _discrete_skewness(WalkLaw(ProcessTag.FBM, fbm, 16, 16), 0.5) == 0.0
        assert _discrete_skewness(WalkLaw(ProcessTag.WALK, None, 16, 16), 0.0) is None
        assert _discrete_skewness(_rose(16, p08), 1 / 16) is None
        assert _discrete_skewness(WalkLaw(ProcessTag.ROSENBLATT, p08, 32, 64), 1.0) == \
            pytest.approx(_discrete_skewness(_rose(32, p08), 1.0), rel=1e-12)

    def test_report_carries_the_exact_skewness(self, rose_ens, walk_ens):
        rep = _skew(rose_ens, 1.0, ROSE_SEED)
        assert rep.discrete == _discrete_skewness(rose_ens[1], 1.0) > 0
        assert _skew(walk_ens, 1.0, WALK_SEED).discrete == 0.0

    def test_point_mass_is_flagged_not_nan(self, p08):
        # the Rosenblatt walk is 0 at grid point 1 of every path: the 0/0 is
        # reported as a zero estimate with a "degenerate" note, not a NaN
        law = WalkLaw(ProcessTag.ROSENBLATT, p08, 16, 16)
        x = simulate_ensemble(200, 3, "rademacher", p08, "rosenblatt", 16)[:, 1]
        rep = skewness(x, 1 / 16, law, 3)
        assert rep.estimate == rep.std_error == 0.0
        assert rep.note.startswith("degenerate")
        # and its exact skewness is the 0/0 of a point mass too
        assert rep.discrete is None

    def test_needs_enough_paths(self, p08):
        tiny = (simulate_ensemble(50, 1, "rademacher", p08, "rosenblatt", 8),
                WalkLaw(ProcessTag.ROSENBLATT, p08, 8, 8))
        with pytest.raises(DomainError):
            _skew(tiny, 1.0, 1)


class TestQuadraticVariation:
    # the QV of a path is its row's sum of squared grid jumps
    def test_constant_path_is_zero(self):
        assert _jump_square_sums(np.zeros((1, 5)))[0] == 0.0

    def test_sign_flip_invariance(self, p08):
        Z = simulate_ensemble(1, 5, "rademacher", p08, "rosenblatt", 32)
        assert _jump_square_sums(Z)[0] == _jump_square_sums(-Z)[0]

    def test_partial_horizon(self):
        # [Z]_t sums the jumps up to grid point floor(n t)
        path = np.array([[0.0, 1.0, 1.0, 2.0, 2.0]])
        assert _jump_square_sums(path[:, : grid_index(4, 0.5) + 1])[0] == 1.0
        assert _jump_square_sums(path[:, : grid_index(4, 1.0) + 1])[0] == 2.0

    def test_qv_decay_refuses_short_sweeps(self, rose_ens):
        with pytest.raises(DomainError):
            qv_decay([_qv(rose_ens, 64), _qv(rose_ens, 64)])

    def test_qv_decay_refuses_repeated_sizes(self, rose_ens):
        # three ensembles on two grids: the fitted line passes through both exactly
        with pytest.raises(DomainError, match="distinct"):
            qv_decay([_qv(rose_ens, 64), _qv(rose_ens, 64), _qv(rose_ens, 32)])
        # three distinct grids, one of them twice, would weigh that grid double
        with pytest.raises(DomainError, match="must not repeat"):
            qv_decay([_qv(rose_ens, 16), _qv(rose_ens, 64), _qv(rose_ens, 32),
                      _qv(rose_ens, 64)])

    def test_qv_decay_refuses_zero_mean_grid(self, rose_ens):
        # on grid 1 the quadratic form has no off-diagonal pair: every QV is
        # exactly 0, and log 0 would turn the fit into NaN
        assert not np.any(rose_ens[0][:, :2])
        with pytest.raises(DomainError, match="positive mean QV"):
            qv_decay(_qv(rose_ens, n) for n in (1, 2, 4))

    def test_qv_decay_is_exact_on_a_straight_line(self):
        # mean QV = n lies on log mean = log n: the least-squares line is
        # slope 1 and intercept 0 to the last bit
        fit = qv_decay((n, np.full(2, float(n))) for n in (16, 32, 64))
        assert (fit.slope, fit.intercept) == (1.0, 0.0)

    def test_qv_decay_matches_exact_slope(self, p08):
        from rosenblatt.kernel import get_engine
        sizes = (16, 32, 64, 128)
        fit = qv_decay(_qv((simulate_ensemble(2000, 99, "rademacher", p08, "rosenblatt", n),
                            WalkLaw(ProcessTag.ROSENBLATT, p08, n, n)), n) for n in sizes)
        exact = []
        for n in sizes:
            eng = get_engine(n, p08)
            exact.append(sum(2.0 * float(np.sum(eng.delta_table(m) ** 2))
                             for m in range(1, n + 1)))
        exact_slope = np.polyfit(np.log(sizes), np.log(exact), 1)[0]
        assert fit.slope == pytest.approx(exact_slope, abs=0.05)
        for mean, want in zip(fit.means, exact):
            assert mean == pytest.approx(want, rel=0.1)

    def test_qv_decay_slabs_keep_whole_matrix_bits(self, p08):
        # 1100 rows span several slabs; the per-slab squared differences must
        # give the bits of the whole (M, n) difference matrix, and a
        # generator of the pairs the bits of a list
        fine = simulate_ensemble(1100, 12, "gaussian", p08, "rosenblatt", 64)
        sizes = (16, 32, 64)
        law = WalkLaw(ProcessTag.ROSENBLATT, p08, 64, 64)
        _, sums = reduce_slabs(_slabs(fine), 1100, law, [], sizes)
        fit = qv_decay(zip(sizes, sums))
        means, ses = [], []
        for n in sizes:
            d = np.diff((64 / n) ** 0.8 * fine[:, : n + 1], axis=1)
            d *= d
            qv = d.sum(axis=1)
            means.append(float(qv.mean()))
            ses.append(float(np.std(qv, ddof=1) / np.sqrt(qv.size)))
        assert fit.sizes == list(sizes)
        assert fit.means == means and fit.std_errors == ses
        assert fit == qv_decay(list(zip(sizes, sums)))


    def test_qv_decay_holds_one_scaled_slab_of_a_shared_draw(self, p08):
        # grids read off one draw: the sweep holds the QV sums it returns,
        # a slab's scaled values and differences and the fit's O(M)
        # temporaries, never a grid's whole (M, N + 1) matrix (2.1 MB here)
        import tracemalloc
        M, N = 4096, 64
        fine = simulate_ensemble(M, 12, "gaussian", p08, "rosenblatt", N)
        law = WalkLaw(ProcessTag.ROSENBLATT, p08, N, N)
        sizes = (16, 32, 64)
        tracemalloc.start()
        try:
            qv_decay(zip(sizes, reduce_slabs(_slabs(fine), M, law, [], sizes)[1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(sizes) * M * 8 + 4 * _SLAB * (N + 1) * 8

    def test_validate_pass_holds_a_few_slabs(self, p08):
        # validate's default draw, 5000 Gaussian paths on grid 256, read at
        # its three times on grid 128 and on its five qv grids: besides the
        # engine, the pass holds the returned numbers and one slab's noise,
        # GEMM temporaries, increments and paths (7.6 MiB at 512 rows)
        import tracemalloc
        M, N = 5000, 256
        # the engine's blocks, built by its first Gaussian pass, are not counted
        get_engine(N, p08).quadratic_increments(np.zeros((1, N)))
        law = WalkLaw(ProcessTag.ROSENBLATT, p08, 128, N)
        tracemalloc.start()
        try:
            reduce_slabs(path_slabs(M, 41, "gaussian", p08, "rosenblatt", N), M, law,
                         [0, 64, 128], [16, 32, 64, 128, 256])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


class TestHistogram:
    def test_counts_conserved(self, rose_ens):
        h = histogram(_at(rose_ens, 1.0), 25)
        assert int(h.counts.sum()) == h.total == rose_ens[0].shape[0]
        assert len(h.bin_edges) == 26

    def test_all_equal_samples_single_bin(self):
        x = np.full(100, 2.5)
        h = histogram(x, 10)
        assert (h.counts > 0).sum() == 1
        assert int(h.counts.sum()) == 100
        # numpy widens the point mass to 2.5 -+ 0.5
        assert h.bin_edges.tobytes() == np.histogram(x, 10, range=(2.0, 3.0))[1].tobytes()

    def test_bin_validation(self, rose_ens):
        with pytest.raises(DomainError):
            histogram(_at(rose_ens, 1.0), 1)
        # addressable, but 16 PB of edges and counts: refused before numpy allocates
        with pytest.raises(MemoryError, match="more than physical memory holds"):
            histogram(_at(rose_ens, 1.0), 10 ** 15)

    def test_h09_right_skew_mean_exceeds_median(self):
        from rosenblatt import HurstParams
        p09 = HurstParams(0.9)
        x = simulate_ensemble(5000, 88, "rademacher", p09, "rosenblatt", 128)[:, -1]
        se_median = 1.2533 * x.std(ddof=1) / np.sqrt(x.size)
        assert x.mean() - np.median(x) > 2.0 * se_median

    def test_csv(self, rose_ens, tmp_path):
        h = histogram(_at(rose_ens, 1.0), 5)
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

    @pytest.mark.parametrize("ref", [0.2, 0.028416156292424475])
    def test_within_at_zero_spread_allows_rounding_only(self, ref):
        # a sample with no spread has SE 0: its mean passes within rounding of
        # the exact value, and fails once the value moves by 1e-9 relative
        near = MomentReport(quantity="x", estimate=ref * (1 - 4e-16), std_error=0.0,
                            sample_size=50, discrete=ref)
        assert near.within(4.0) is True
        moved = MomentReport(quantity="x", estimate=ref, std_error=0.0, sample_size=50,
                             discrete=ref * (1 + 1e-9))
        assert moved.within(4.0) is False

    def test_within_refuses_a_report_without_reference(self):
        # neither an exact nor a continuum value: nothing to be within
        rep = MomentReport(quantity="x", estimate=1.0, std_error=0.1, sample_size=50)
        with pytest.raises(DomainError, match="no reference"):
            rep.within(4.0)


class TestGridTime:
    @pytest.mark.parametrize("t", [-0.5, 1.5])
    @pytest.mark.parametrize("call", [
        "discrete_increment_variance", "discrete_covariance", "bs_limit", "values_at"])
    def test_time_outside_unit_interval_raises(self, p08, call, t):
        # every site reads the grid index floor(n t) through paths.grid_index
        Z = simulate_ensemble(2, 0, "rademacher", None, "walk", 4)
        cfg = MarketConfig(N=4, sigma=1.0, rate_r=constant_rate(0.0),
                           rate_a=constant_rate(0.0), S0=1.0, B0=1.0, H=0.8)
        calls = {
            "discrete_increment_variance": lambda: discrete_moment(_rose(16, p08), "increment",
                                                                   t, 1.0),
            "discrete_covariance": lambda: discrete_moment(_rose(16, p08), "covariance", t, 1.0),
            "bs_limit": lambda: bs_limit(cfg, Z[0], t),
            "values_at": lambda: Z[:, grid_index(4, t)],
        }
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            calls[call]()
