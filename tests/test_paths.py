"""Noise generation, the three walks, ensembles, and their exact moments."""
import json

import numpy as np
import pytest

from rosenblatt import (DomainError, GridPath, HurstParams, NoiseKind,
                        NoiseSequence, ProcessTag, discrete_variance, fbm_walk,
                        make_noise, random_walk, rosenblatt_walk,
                        simulate_ensemble)
from rosenblatt.kernel import get_engine
from rosenblatt.paths import derive_seed, ensemble_metadata, write_ensemble


class TestNoise:
    def test_reproducible(self):
        a = make_noise(64, "rademacher", 123)
        b = make_noise(64, "rademacher", 123)
        assert np.array_equal(a.values, b.values)
        g1 = make_noise(64, "gaussian", 123)
        g2 = make_noise(64, NoiseKind.GAUSSIAN, 123)
        assert np.array_equal(g1.values, g2.values)

    def test_rademacher_values(self):
        x = make_noise(500, "rademacher", 7).values
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_seeds_differ(self):
        assert not np.array_equal(make_noise(32, "rademacher", 1).values,
                                  make_noise(32, "rademacher", 2).values)

    def test_derive_seed_spread(self):
        seeds = {derive_seed(42, k) for k in range(1000)}
        assert len(seeds) == 1000

    def test_length_validation(self):
        with pytest.raises(DomainError):
            make_noise(0, "rademacher", 1)


class TestNoisePrefix:
    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    def test_prefix_consistent(self, kind):
        # the first n values of a stream do not depend on its length
        full = make_noise(300, kind, 11).values
        for n in (1, 2, 16, 37, 128, 299):
            assert make_noise(n, kind, 11).values.tobytes() == full[:n].tobytes(), n


class TestCoarsen:
    PARAMS = {"walk": None, "fbm": HurstParams.from_kernel_hurst(0.9),
              "rosenblatt": HurstParams(0.8)}

    @pytest.mark.parametrize("N", [128, 300])
    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    @pytest.mark.parametrize("process", ["walk", "fbm", "rosenblatt"])
    def test_equals_direct_draw(self, process, kind, N):
        # discrete self-similarity: Z_n(m/n) = (N/n)^h Z_N(m/N), m <= n
        p = self.PARAMS[process]
        fine = simulate_ensemble(6, 5, kind, p, process, N)
        for n in (1, 2, 16, 37, 100, 128):
            direct = simulate_ensemble(6, 5, kind, p, process, n).values
            coarse = fine.coarsen(n)
            assert coarse.n == n and coarse.values.shape == direct.shape
            assert coarse.process_tag is fine.process_tag and coarse.kind is fine.kind
            err = np.max(np.abs(coarse.values - direct))
            assert err <= 1e-13 * np.max(np.abs(direct)), (n, err)

    def test_full_grid_is_itself_and_domain(self, p07):
        ens = simulate_ensemble(2, 1, "rademacher", p07, "rosenblatt", 8)
        assert ens.coarsen(8) is ens
        for n in (0, 9):
            with pytest.raises(DomainError):
                ens.coarsen(n)

    def test_hurst_index(self):
        ens = {tag: simulate_ensemble(2, 1, "rademacher", self.PARAMS[tag], tag, 4)
               for tag in self.PARAMS}
        assert ens["walk"].hurst_index == 0.5
        assert ens["fbm"].hurst_index == 0.9
        assert ens["rosenblatt"].hurst_index == 0.8


class TestRandomWalk:
    def test_explicit_small_case(self):
        noise = NoiseSequence(kind=NoiseKind.RADEMACHER, seed=0,
                              values=np.array([1.0, -1.0, 1.0, 1.0]))
        w = random_walk(noise)
        assert np.allclose(w.values, [0.0, 0.5, 0.0, 0.5, 1.0])
        assert w.process_tag is ProcessTag.WALK

    def test_starts_at_zero(self):
        w = random_walk(make_noise(17, "gaussian", 3))
        assert w.values[0] == 0.0

    def test_terminal_variance(self):
        M, n = 10000, 16
        ens = simulate_ensemble(M, 11, "rademacher", None, "walk", n)
        v = ens.values[:, -1].var()
        # SE of a sample variance of a unit-variance sum is about sqrt(2/M)
        assert abs(v - 1.0) < 3.0 * np.sqrt(2.0 / M)


class TestGridPath:
    def test_cadlag_floor_lookup(self):
        path = GridPath(n=4, values=np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
                        process_tag=ProcessTag.WALK)
        assert path.value_at(0.0) == 0.0
        assert path.value_at(0.24) == 0.0
        assert path.value_at(0.25) == 1.0
        assert path.value_at(0.999) == 3.0
        assert path.value_at(1.0) == 4.0
        with pytest.raises(DomainError):
            path.value_at(1.5)

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            GridPath(n=4, values=np.zeros(4), process_tag=ProcessTag.WALK)
        with pytest.raises(DomainError):
            GridPath(n=2, values=np.array([1.0, 0.0, 0.0]), process_tag=ProcessTag.WALK)


class TestFbmWalk:
    def test_starts_at_zero_and_deterministic(self, p06):
        noise = make_noise(32, "rademacher", 5)
        b1 = fbm_walk(noise, p06)
        b2 = fbm_walk(noise, p06)
        assert b1.values[0] == 0.0
        assert np.array_equal(b1.values, b2.values)
        assert b1.process_tag is ProcessTag.FBM

    def test_covariance_monte_carlo(self, p06):
        # kernel index Hp = 0.8; E[B(0.5) B(1)] has closed form 0.5 there
        n, M = 128, 20000
        ens = simulate_ensemble(M, 2024, "rademacher", p06, "fbm", n)
        prod = ens.values_at(0.5) * ens.values_at(1.0)
        est = prod.mean()
        se = prod.std(ddof=1) / np.sqrt(M)
        T = get_engine(n, p06).fbm_matrix()
        exact = float(np.dot(T[n // 2 - 1, : n // 2], T[n - 1, : n // 2]) / n)
        assert abs(est - exact) < 4.0 * se          # estimator correctness
        assert abs(est - 0.5) < 4.0 * se            # continuum law at this n


class TestRosenblattWalk:
    def test_n1_is_identically_zero(self, p07):
        z = rosenblatt_walk(make_noise(1, "rademacher", 9), p07)
        assert np.array_equal(z.values, [0.0, 0.0])

    def test_factorized_equals_direct(self, p07):
        for kind in ("rademacher", "gaussian"):
            for seed in range(6):
                noise = make_noise(16, kind, seed)
                zf = rosenblatt_walk(noise, p07)
                zd = rosenblatt_walk(noise, p07, method="direct")
                ref = np.max(np.abs(zd.values)) or 1.0
                assert np.max(np.abs(zf.values - zd.values)) < 1e-6 * ref

    def test_direct_sweep_matches_table_matrix_bitwise(self, p07):
        # the cumulative sweep adds the delta tables in table_matrix's order
        noise = make_noise(12, "gaussian", 4)
        eng = get_engine(12, p07)
        zd = rosenblatt_walk(noise, p07, method="direct")
        x = noise.values
        for m in range(1, 13):
            assert zd.values[m] == x @ eng.table_matrix(m) @ x, m

    def test_unknown_method(self, p07):
        with pytest.raises(DomainError):
            rosenblatt_walk(make_noise(4, "rademacher", 0), p07, method="magic")

    def test_exact_second_moment(self, p08):
        n, M = 32, 10000
        closed = discrete_variance(n, 1.0, p08)
        for kind in ("rademacher", "gaussian"):
            ens = simulate_ensemble(M, 17, kind, p08, "rosenblatt", n)
            z1 = ens.values[:, -1]
            v = z1.var()
            se = np.sqrt(max(np.mean((z1 - z1.mean()) ** 4) - v * v, 0.0) / M)
            assert abs(v - closed) < 4.0 * se, kind

    def test_zero_mean_both_noise_kinds(self, p08):
        n, M = 32, 10000
        for kind in ("rademacher", "gaussian"):
            ens = simulate_ensemble(M, 23, kind, p08, "rosenblatt", n)
            z1 = ens.values[:, -1]
            assert abs(z1.mean()) < 4.0 * z1.std(ddof=1) / np.sqrt(M), kind

    def test_increment_bound(self, p08):
        # E|Z(t) - Z(s)|^2 never exceeds the continuum modulus
        # |floor(nt)/n - floor(ns)/n|^2H up to sampling error
        n, M = 64, 8000
        ens = simulate_ensemble(M, 31, "rademacher", p08, "rosenblatt", n)
        for (s, t) in [(0.0, 0.5), (0.25, 0.75), (0.5, 1.0), (0.9, 1.0)]:
            d = ens.values_at(t) - ens.values_at(s)
            sq = d * d
            est = sq.mean()
            se_rel = sq.std(ddof=1) / np.sqrt(M) / est
            bound = (np.floor(n * t) / n - np.floor(n * s) / n) ** (2 * 0.8)
            assert est <= bound * (1.0 + 5.0 * se_rel)

    def test_variance_ratio_roughly_self_similar(self, p08):
        # 2 sum c^2(floor(nt)) / t^2H varies slowly in t at fixed large n
        n = 256
        ratios = [discrete_variance(n, t, p08) / t ** 1.6
                  for t in (0.25, 0.5, 1.0)]
        mid = np.mean(ratios)
        assert all(abs(r - mid) / mid < 0.10 for r in ratios)


class TestEnsembles:
    def test_same_master_seed_identical(self, p07):
        a = simulate_ensemble(5, 77, "rademacher", p07, "rosenblatt", 16)
        b = simulate_ensemble(5, 77, "rademacher", p07, "rosenblatt", 16)
        assert np.array_equal(a.values, b.values)

    def test_count_one_reduces_to_single_path(self, p07):
        ens = simulate_ensemble(1, 42, "rademacher", p07, "rosenblatt", 16)
        noise = make_noise(16, "rademacher", derive_seed(42, 0))
        single = rosenblatt_walk(noise, p07)
        # the single path is the ensemble code on one row: same bits
        assert np.array_equal(ens.values[0], single.values)

    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    def test_rows_match_fresh_generator_noise(self, kind):
        # the walk's values are the noise partial sums over sqrt(n), exactly
        n, seed = 37, 2**64 - 5
        ens = simulate_ensemble(40, seed, kind, None, "walk", n)
        for k in range(40):
            noise = make_noise(n, kind, derive_seed(seed, k)).values
            assert np.array_equal(ens.values[k, 1:], np.cumsum(noise) / np.sqrt(n)), k

    @pytest.mark.parametrize("n", [64, 400])
    def test_fbm_rows_independent_of_batch(self, n):
        # a row's bits depend neither on --paths nor on the single-path route
        p = HurstParams.from_kernel_hurst(0.9)
        runs = {M: simulate_ensemble(M, 3, "gaussian", p, "fbm", n).values
                for M in (1, 2, 600)}
        for k in (0, 1):
            noise = make_noise(n, "gaussian", derive_seed(3, k))
            alone = fbm_walk(noise, p).values
            for M, values in runs.items():
                if k < M:
                    assert np.array_equal(values[k], alone), (M, k)
        assert np.array_equal(runs[600][599],
                              fbm_walk(make_noise(n, "gaussian", derive_seed(3, 599)), p).values)

    def test_requires_params_for_kernel_walks(self):
        with pytest.raises(DomainError):
            simulate_ensemble(2, 1, "rademacher", None, "rosenblatt", 8)

    def test_csv_and_metadata(self, p07, tmp_path):
        ens = simulate_ensemble(3, 9, "rademacher", p07, "rosenblatt", 8)
        csv_path = tmp_path / "ens.csv"
        files = write_ensemble(ens, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "path_id,m,t,value"
        assert len(lines) == 1 + 3 * 9
        meta = json.loads((tmp_path / "ens.csv.meta.json").read_text())
        assert meta == {"H": 0.7, "n": 8, "M": 3, "kind": "rademacher",
                        "seed": 9, "process": "rosenblatt"}
        assert len(files) == 2
        # every value round-trips through repr exactly
        row = lines[5].split(",")
        k, m = int(row[0]), int(row[1])
        assert float(row[3]) == ens.values[k, m]

    def test_metadata_walk(self):
        ens = simulate_ensemble(2, 1, "rademacher", None, "walk", 8)
        meta = ensemble_metadata(ens)
        assert meta["H"] is None and meta["process"] == "walk"
