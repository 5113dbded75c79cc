"""Kernel constants, point evaluations, and cell integrals against oracles."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from rosenblatt import (DomainError, HurstParams, QuadratureError,
                        c_const, cell_weight, d_const, dK,
                        fbm_kernel, rosenblatt_kernel, weight_table)
from rosenblatt.kernel import (_BLOCK, VolterraEngine, _adaptive_gauss, _roots_jacobi,
                               get_engine)

from conftest import F_oracle, K_oracle, cell_weight_oracle, dK_cell_oracle


class TestConstants:
    def test_c_const_against_log_gamma(self):
        # beta(0.5, 0.25) via lgamma, then the defining formula at Hp = 0.75
        beta = math.exp(math.lgamma(0.5) + math.lgamma(0.25) - math.lgamma(0.75))
        expected = math.sqrt(0.75 * 0.5 / beta)
        assert c_const(0.75) == pytest.approx(expected, rel=1e-13)
        assert c_const(0.75) == pytest.approx(0.2674, abs=5e-5)

    def test_c_const_vanishes_at_half(self):
        assert c_const(0.5 + 1e-9) < 1e-4

    @pytest.mark.parametrize("Hp", [0.76, 0.85, 0.95])
    def test_c_const_round_trip(self, Hp):
        import scipy.special as sp
        lhs = c_const(Hp) ** 2 * sp.beta(2 - 2 * Hp, Hp - 0.5)
        assert lhs == pytest.approx(Hp * (2 * Hp - 1), rel=1e-12)

    @pytest.mark.parametrize("Hp", [0.4, 0.5, 1.0, 1.3])
    def test_c_const_domain(self, Hp):
        with pytest.raises(DomainError):
            c_const(Hp)

    def test_d_const_values(self):
        assert d_const(0.6) == pytest.approx((1 / 1.6) * math.sqrt(0.4 / 0.6), rel=1e-13)
        assert d_const(0.6) == pytest.approx(0.5103, abs=5e-5)
        assert d_const(0.9) == pytest.approx((1 / 1.9) * math.sqrt(1.6 / 0.9), rel=1e-13)
        assert d_const(0.9) == pytest.approx(0.7017, abs=6e-5)

    def test_d_const_vanishes_at_half(self):
        assert d_const(0.5 + 1e-12) < 1e-5

    @pytest.mark.parametrize("H", [0.5, 0.2, 1.0])
    def test_d_const_domain(self, H):
        with pytest.raises(DomainError):
            d_const(H)


class TestHurstParams:
    def test_derived_constants_bit_equal(self):
        p = HurstParams(0.8)
        assert p.Hp == 0.9
        assert p.cHp == c_const(0.9)
        assert p.dH == d_const(0.8)

    def test_from_kernel_hurst(self):
        p = HurstParams.from_kernel_hurst(0.8)
        assert p.H == pytest.approx(0.6)

    def test_invalid_bundles(self):
        # H is the only field: the rest is derived, never passed in
        with pytest.raises(TypeError):
            HurstParams(H=0.8, Hp=0.9)
        with pytest.raises(DomainError):
            HurstParams(0.5)
        with pytest.raises(DomainError):
            HurstParams.from_kernel_hurst(0.7)


class TestFbmKernel:
    def test_limit_t_equals_s(self, p07):
        assert fbm_kernel(0.5, 0.5, p07) == 0.0

    def test_domain(self, p07):
        with pytest.raises(DomainError):
            fbm_kernel(0.5, 0.0, p07)
        with pytest.raises(DomainError):
            fbm_kernel(0.3, 0.5, p07)

    def test_subdivision_budget_raises(self):
        # 1/x is not integrable on [0, 1]: the bisections chase the pole at 0
        # until the budget runs out
        with pytest.raises(QuadratureError, match="after 641 bisections"):
            _adaptive_gauss(lambda x: 1.0 / x, 0.0, 1.0)

    def test_against_qaws_oracle(self):
        for (t, s, Hp) in [(1.0, 0.5, 0.76), (0.8, 0.3, 0.8), (1.0, 0.02, 0.9)]:
            p = HurstParams.from_kernel_hurst(Hp)
            assert fbm_kernel(t, s, p) == pytest.approx(K_oracle(t, s, Hp), rel=1e-9)

    def test_nondecreasing_in_t(self, p06):
        s = 0.3
        vals = [fbm_kernel(t, s, p06) for t in (0.35, 0.5, 0.7, 1.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_covariance_identity(self):
        # int_0^s K(t,u) K(s,u) du = (t^2Hp + s^2Hp - (t-s)^2Hp)/2 at (1, 0.5)
        p = HurstParams.from_kernel_hurst(0.8)
        val, _ = quad(lambda u: fbm_kernel(1.0, u, p) * fbm_kernel(0.5, u, p),
                      0.0, 0.5, epsabs=1e-9, epsrel=1e-8, limit=200)
        assert val == pytest.approx(0.5, abs=1e-4)


class TestDK:
    def test_closed_form_at_double(self, p06):
        s = 0.21
        expected = p06.cHp * 0.5 ** (0.5 - p06.Hp) * s ** (p06.Hp - 1.5)
        assert dK(2 * s, s, p06) == pytest.approx(expected, rel=1e-13)

    def test_finite_difference_of_K(self, p06):
        # p06 has kernel index 0.8
        t, s, h = 0.8, 0.3, 1e-6
        fd = (fbm_kernel(t + h, s, p06) - fbm_kernel(t, s, p06)) / h
        assert dK(t, s, p06) == pytest.approx(fd, rel=1e-4)

    def test_finite_difference_random_points(self, p07):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(100):
            s = rng.uniform(0.05, 0.7)
            t = rng.uniform(s + 0.05, 1.0)
            fd = (fbm_kernel(t + h, s, p07) - fbm_kernel(t, s, p07)) / h
            assert dK(t, s, p07) == pytest.approx(fd, rel=1e-3)

    def test_positive_on_random_sample(self, p08):
        rng = np.random.default_rng(17)
        s = rng.uniform(1e-6, 1.0, size=1000)
        t = s + rng.uniform(1e-9, 1.0, size=1000)
        vals = p08.cHp * (s / t) ** (0.5 - p08.Hp) * (t - s) ** (p08.Hp - 1.5)
        assert np.all(vals > 0)
        assert dK(0.9, 0.1, p08) > 0

    def test_domain(self, p08):
        with pytest.raises(DomainError):
            dK(0.5, 0.5, p08)
        with pytest.raises(DomainError):
            dK(0.5, 0.0, p08)


class TestRosenblattKernel:
    def test_support(self, p07):
        assert rosenblatt_kernel(0.5, 0.7, 0.2, p07) == 0.0
        assert rosenblatt_kernel(0.5, 0.2, 0.7, p07) == 0.0
        assert rosenblatt_kernel(0.5, 0.5, 0.2, p07) == 0.0

    def test_symmetry(self, p07):
        a = rosenblatt_kernel(1.0, 0.3, 0.5, p07)
        b = rosenblatt_kernel(1.0, 0.5, 0.3, p07)
        assert a == pytest.approx(b, rel=1e-12)

    def test_against_qaws_oracle(self, p07, p08):
        assert rosenblatt_kernel(1.0, 0.3, 0.5, p07) == pytest.approx(
            F_oracle(1.0, 0.3, 0.5, 0.7), rel=1e-8)
        assert rosenblatt_kernel(0.9, 0.61, 0.6, p08) == pytest.approx(
            F_oracle(0.9, 0.61, 0.6, 0.8), rel=1e-8)

    def test_nonnegative(self, p08):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u, v = rng.uniform(0.01, 0.99, 2)
            if u == v:
                continue
            assert rosenblatt_kernel(1.0, u, v, p08) >= 0.0

    def test_refusals(self, p07):
        with pytest.raises(DomainError):
            rosenblatt_kernel(1.0, 0.0, 0.5, p07)
        with pytest.raises(DomainError):
            rosenblatt_kernel(1.0, 0.4, 0.4, p07)
        with pytest.raises(DomainError):
            rosenblatt_kernel(1.5, 0.4, 0.2, p07)


class TestCellWeight:
    def test_support_and_domain(self, p07):
        assert cell_weight(2, 3, 1, 8, p07) == 0.0
        assert cell_weight(2, 1, 3, 8, p07) == 0.0
        with pytest.raises(DomainError):
            cell_weight(4, 2, 2, 8, p07)
        with pytest.raises(DomainError):
            cell_weight(9, 1, 2, 8, p07)

    def test_symmetry_random_triples(self, p07):
        rng = np.random.default_rng(11)
        for _ in range(4):
            i, j = rng.choice(np.arange(1, 9), size=2, replace=False)
            m = int(rng.integers(max(i, j), 9))
            a = cell_weight(m, int(i), int(j), 8, p07)
            b = cell_weight(m, int(j), int(i), 8, p07)
            assert a == pytest.approx(b, rel=1e-7)
            assert a >= 0

    def test_against_independent_oracle(self, p08):
        for (m, i, j) in [(8, 1, 2), (8, 3, 6), (8, 7, 8), (5, 2, 5), (8, 1, 8)]:
            got = cell_weight(m, i, j, 8, p08)
            want = cell_weight_oracle(m, i, j, 8, 0.8)
            assert got == pytest.approx(want, rel=2e-8)

    def test_frobenius_identity_h08_n16(self, p08):
        # 2 sum c^2 at (H, n, t) = (0.8, 16, 1): bounded by the continuum value
        # t^2H = 1 and equal to the cross-validated finite-n value 0.451872.
        # The finite-n deficit decays like n^(H-1), so at n = 16 the sum sits
        # far below 1; see the decisions ledger for the measured sequence.
        C = get_engine(16, p08).table_matrix(16)
        fro = 2.0 * float(np.sum(C * C))
        assert fro <= 1.0 + 1e-8
        assert fro == pytest.approx(0.4518720, abs=2e-6)

    def test_discrete_l2_monotone_toward_continuum(self, p08):
        # 2 sum c^2 (floor(nt)) is nondecreasing in n at fixed t and never
        # exceeds t^2H (Jensen: cell averaging shrinks the L2 norm)
        for tfrac in (0.5, 1.0):
            prev = 0.0
            for n in (8, 16, 32, 64):
                m = int(n * tfrac)
                C = get_engine(n, p08).table_matrix(m)
                fro = 2.0 * float(np.sum(C * C))
                assert fro >= prev
                assert fro <= tfrac ** (2 * 0.8) + 1e-8
                prev = fro


class TestWeightTable:
    def test_matches_cell_weight_entrywise(self, p07):
        wt = weight_table(8, 8, p07)
        for i in range(1, 9):
            for j in range(1, i):
                direct = cell_weight(8, i, j, 8, p07)
                assert wt.coeffs[i - 1, j - 1] == pytest.approx(direct, rel=1e-8)

    def test_structure(self, p07):
        wt = weight_table(5, 8, p07)
        C = wt.coeffs
        assert np.all(np.diag(C) == 0.0)
        assert np.array_equal(C, C.T)
        assert np.all(C[5:, :] == 0.0) and np.all(C[:, 5:] == 0.0)
        assert np.all(C >= 0.0)

    def test_increment_consistency(self, p07):
        # table(m) - table(m-1) on i, j <= m-1 equals the panel time integral,
        # checked against independent quadrature over a in [(m-1)/n, m/n]
        n, m = 8, 5
        eng = get_engine(n, p07)
        D = eng.table_matrix(m) - eng.table_matrix(m - 1)
        assert np.all(D[m:, :] == 0.0)
        Hp = p07.Hp
        for (i, j) in [(1, 2), (2, 4), (3, 4)]:
            val, _ = quad(lambda a: dK_cell_oracle(a, (i - 1) / n, i / n, Hp)
                          * dK_cell_oracle(a, (j - 1) / n, j / n, Hp),
                          (m - 1) / n, m / n, epsabs=1e-13, epsrel=1e-11)
            want = p07.dH * n * val
            assert D[i - 1, j - 1] == pytest.approx(want, rel=1e-8)

    def test_bad_m(self, p07):
        with pytest.raises(DomainError):
            weight_table(9, 8, p07)

    @pytest.mark.parametrize("k", [0, 9, 17])
    def test_panel_index_outside_grid(self, p07, k):
        with pytest.raises(DomainError):
            get_engine(8, p07).panel(k)

    def test_concurrent_build_and_read(self, p08):
        # build-then-freeze: racing readers must see one consistent table
        from concurrent.futures import ThreadPoolExecutor
        eng = get_engine(24, p08)
        with ThreadPoolExecutor(max_workers=8) as pool:
            tables = list(pool.map(lambda _: eng.table_matrix(24), range(16)))
        assert all(np.array_equal(tables[0], t) for t in tables[1:])
        assert not eng.panel(5)["A_gl"].flags.writeable

    @pytest.mark.parametrize("n", [7, 128, 300])
    def test_parallel_build_equals_serial_blocks(self, p08, n):
        # one block, whole blocks, a partial last block: each block the pool
        # built must equal a fresh serial build bit for bit
        eng = VolterraEngine(n, p08)
        assert len(eng._blocks) == -(-n // _BLOCK)
        for b, t in enumerate(eng._blocks):
            lo = 1 + b * _BLOCK
            ref = eng._block(lo, min(lo + _BLOCK - 1, n))
            assert t["lo"] == lo
            for key in ("A_gl", "A_j1", "Qd", "row", "wR", "e2"):
                assert t[key].shape == ref[key].shape, (b, key)
                assert t[key].tobytes() == ref[key].tobytes(), (b, key)

    def test_engine_shared_across_unread_tolerances(self, p08):
        # the panel rule is fixed, so the engine reads only (n, H): the key
        # is the value of H, not the parameter object
        assert get_engine(16, p08) is get_engine(16, HurstParams(0.8))
        assert get_engine(16, p08) is not get_engine(16, HurstParams(0.7))


class TestQuadraticIncrements:
    @pytest.mark.parametrize("n", [7, 37, 300, 400])
    @pytest.mark.parametrize("M", [1, 2, 513, 1100])
    def test_rows_independent_of_batch(self, p08, n, M):
        # slabs of 512 rows, blocks of 16 panels and (n > 256) the chunked
        # inner dimension must not change any bit
        eng = get_engine(n, p08)
        rng = np.random.default_rng(n * 10007 + M)
        noise = {True: rng.integers(0, 2, (M, n)) * 2.0 - 1.0,
                 False: rng.standard_normal((M, n))}
        for unit, xi in noise.items():
            batch = eng.quadratic_increments(xi, unit)
            for r in sorted({0, 1, 511, 512, M - 1} & set(range(M))):
                alone = eng.quadratic_increments(xi[r:r + 1], unit)[0]
                assert np.array_equal(batch[r], alone), (unit, r)

    @pytest.mark.parametrize("n", [7, 37])
    def test_matches_delta_table_quadratic_form(self, p07, n):
        eng = get_engine(n, p07)
        rng = np.random.default_rng(n)
        for unit, xi in ((True, rng.integers(0, 2, (3, n)) * 2.0 - 1.0),
                         (False, rng.standard_normal((3, n)))):
            inc = eng.quadratic_increments(xi, unit)
            for x, row in zip(xi, inc):
                want = [x[:k] @ eng.delta_table(k) @ x[:k] for k in range(1, n + 1)]
                scale = np.max(np.abs(want))
                assert np.max(np.abs(row - want)) <= 1e-10 * scale


class TestBranchIncrements:
    @pytest.mark.parametrize("n", [7, 33, 128, 300, 512])
    def test_equals_per_prefix_branch_pairs(self, p08, n):
        # column k - 1 of the up / down row is, bit for bit, increment k of the
        # walk's own pass on the noise x with xi_k set to +1 / -1; n covers
        # one block, whole and partial last blocks, and (n > 256) the chunked
        # inner dimension
        eng = get_engine(n, p08)
        rng = np.random.default_rng(n)
        prefixes = {"ones": np.ones(n - 1),
                    "rademacher": rng.integers(0, 2, n - 1) * 2.0 - 1.0,
                    "short": rng.integers(0, 2, n // 2) * 2.0 - 1.0}
        for name, x in prefixes.items():
            K = x.size + 1
            got = eng.branch_increments(x)
            assert got.shape == (2, K), name
            for row, sign in enumerate((1.0, -1.0)):
                xi = np.ones((K, n))
                xi[:, : x.size] = x
                xi[np.arange(K), np.arange(K)] = sign
                want = eng.quadratic_increments(xi, True)[np.arange(K), np.arange(K)]
                assert got[row].tobytes() == want.tobytes(), (name, sign)

    @pytest.mark.parametrize("x", [np.ones((2, 3)), np.ones(8), np.ones(12),
                                   np.random.default_rng(0).standard_normal(5)])
    def test_rejects_2d_or_too_long_prefix(self, p08, x):
        with pytest.raises(DomainError):
            get_engine(8, p08).branch_increments(x)


class TestRootsJacobi:
    def test_bits_of_scipy_rule(self):
        import scipy.special as sp
        for n in (2, 3, 8, 16, 17, 32, 64):
            for b in np.linspace(0.05, 1.95, 39):
                x, w = _roots_jacobi(n, b)
                xr, wr = sp.roots_jacobi(n, 0.0, b)
                assert x.tobytes() == xr.tobytes(), (n, b)
                assert w.tobytes() == wr.tobytes(), (n, b)
