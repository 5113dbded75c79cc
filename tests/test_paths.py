"""Noise generation, the three walks, ensembles, and their exact moments."""
import math
import tracemalloc

import numpy as np
import pytest

from rosenblatt import (DomainError, HurstParams, NoiseKind, ProcessTag,
                        discrete_moment, make_noise, simulate_ensemble)
from rosenblatt.kernel import _matmul, fbm_matrix, get_engine
from rosenblatt.paths import (_SLAB, WalkLaw, derive_seed, ensemble_metadata,
                              grid_index, path_slabs, scale_to_grid,
                              write_ensemble, write_json)

from oracles import direct_rosenblatt_walk


class TestNoise:
    def test_reproducible(self):
        a = make_noise(64, "rademacher", 123)
        b = make_noise(64, "rademacher", 123)
        assert np.array_equal(a, b)
        g1 = make_noise(64, "gaussian", 123)
        g2 = make_noise(64, NoiseKind.GAUSSIAN, 123)
        assert np.array_equal(g1, g2)

    def test_is_a_read_only_row(self):
        x = make_noise(8, "gaussian", 1)
        assert x.shape == (8,) and not x.flags.writeable

    def test_rademacher_values(self):
        x = make_noise(500, "rademacher", 7)
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_seeds_differ(self):
        assert not np.array_equal(make_noise(32, "rademacher", 1),
                                  make_noise(32, "rademacher", 2))

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
        full = make_noise(300, kind, 11)
        for n in (1, 2, 16, 37, 128, 299):
            assert make_noise(n, kind, 11).tobytes() == full[:n].tobytes(), n


class TestCoarsen:
    PARAMS = {"walk": None, "fbm": HurstParams.from_kernel_hurst(0.9),
              "rosenblatt": HurstParams(0.8)}

    @pytest.mark.parametrize("N", [128, 300])
    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    @pytest.mark.parametrize("process", ["walk", "fbm", "rosenblatt"])
    def test_equals_direct_draw(self, process, kind, N):
        # discrete self-similarity: Z_n(m/n) = (N/n)^h Z_N(m/N), m <= n
        p = self.PARAMS[process]
        h = WalkLaw(ProcessTag(process), p, N, N).hurst_index
        fine = simulate_ensemble(6, 5, kind, p, process, N)
        for n in (1, 2, 16, 37, 100, 128):
            direct = simulate_ensemble(6, 5, kind, p, process, n)
            coarse = scale_to_grid(fine[:, : n + 1], N, n, h)
            assert coarse.shape == direct.shape
            err = np.max(np.abs(coarse - direct))
            assert err <= 1e-13 * np.max(np.abs(direct)), (n, err)

    def test_hurst_index(self):
        law = {tag: WalkLaw(ProcessTag(tag), self.PARAMS[tag], 4, 4) for tag in self.PARAMS}
        assert law["walk"].hurst_index == 0.5
        assert law["fbm"].hurst_index == 0.9
        assert law["rosenblatt"].hurst_index == 0.8

    @pytest.mark.parametrize("n", [0, 9])
    def test_law_grid_lies_in_drawn_grid(self, p07, n):
        # a grid read off a grid-8 draw lies in 1..8
        with pytest.raises(DomainError, match="at most the drawn grid 8"):
            WalkLaw(ProcessTag.ROSENBLATT, p07, n, 8)

    def test_law_refuses_unknown_process(self):
        with pytest.raises(DomainError, match="unknown process 'brownian'"):
            WalkLaw("brownian", None, 4, 4)

    @pytest.mark.parametrize("process", ["fbm", "rosenblatt"])
    def test_law_refuses_kernel_walk_without_params(self, process):
        # refused as path_slabs refuses it, not left for hurst_index to trip on
        with pytest.raises(DomainError, match="need Hurst parameters"):
            WalkLaw(process, None, 4, 4)
        with pytest.raises(DomainError, match="need Hurst parameters"):
            path_slabs(2, 1, "rademacher", None, process, 4)


class TestSharedRows:
    """The held ensemble is the streamed slabs' rows, read-only; a coarser
    grid read off it is the prefix scaled by (N/n)^h."""

    PARAMS = TestCoarsen.PARAMS

    @pytest.mark.parametrize("process", ["walk", "fbm", "rosenblatt"])
    def test_readers_equal_scaled_prefix_bitwise(self, process):
        # 600 rows span several slabs
        N, p = 128, self.PARAMS[process]
        fine = simulate_ensemble(600, 7, "gaussian", p, process, N)
        assert fine.shape == (600, N + 1)
        assert (np.concatenate(list(path_slabs(600, 7, "gaussian", p, process, N))).tobytes()
                == fine.tobytes())
        with pytest.raises(ValueError, match="read-only"):
            fine[0, 1] = 1.0
        h = {"walk": 0.5, "fbm": 0.9, "rosenblatt": 0.8}[process]
        for n in (1, 16, 37, 128):
            want = (N / n) ** h * fine[:, : n + 1]
            got = scale_to_grid(fine[:, : n + 1], N, n, h)
            # a new array on every grid, the drawn one (n = N, factor 1.0) too
            assert got.tobytes() == want.tobytes() and not np.shares_memory(got, fine), n
            for t in np.linspace(0.0, 1.0, 11):
                m = grid_index(n, t)
                assert scale_to_grid(fine[:, m], N, n, h).tobytes() == want[:, m].tobytes()


class TestRandomWalk:
    def test_explicit_small_case(self):
        xi = np.array([[1.0, -1.0, 1.0, 1.0]])
        *_, paths = ProcessTag.WALK.form.read(4, None)
        w = paths(xi)
        assert np.allclose(w, [[0.5, 0.0, 0.5, 1.0]])

    def test_starts_at_zero(self):
        w = simulate_ensemble(1, 3, "gaussian", None, "walk", 17)[0]
        assert w[0] == 0.0

    def test_terminal_variance(self):
        M, n = 10000, 16
        v = simulate_ensemble(M, 11, "rademacher", None, "walk", n)[:, -1].var()
        # SE of a sample variance of a unit-variance sum is about sqrt(2/M)
        assert abs(v - 1.0) < 3.0 * np.sqrt(2.0 / M)


class TestFbmWalk:
    def test_starts_at_zero_and_deterministic(self, p06):
        b1 = simulate_ensemble(1, 5, "rademacher", p06, "fbm", 32)[0]
        b2 = simulate_ensemble(1, 5, "rademacher", p06, "fbm", 32)[0]
        assert b1[0] == 0.0
        assert np.array_equal(b1, b2)

    def test_covariance_monte_carlo(self, p06):
        # kernel index Hp = 0.8; E[B(0.5) B(1)] has closed form 0.5 there
        n, M = 128, 20000
        Z = simulate_ensemble(M, 2024, "rademacher", p06, "fbm", n)
        prod = Z[:, grid_index(n, 0.5)] * Z[:, grid_index(n, 1.0)]
        est = prod.mean()
        se = prod.std(ddof=1) / np.sqrt(M)
        T = fbm_matrix(n, p06)
        exact = float(np.dot(T[n // 2 - 1, : n // 2], T[n - 1, : n // 2]) / n)
        assert abs(est - exact) < 4.0 * se          # estimator correctness
        assert abs(est - 0.5) < 4.0 * se            # continuum law at this n


class TestRosenblattWalk:
    def test_n1_is_identically_zero(self, p07):
        z = simulate_ensemble(1, 9, "rademacher", p07, "rosenblatt", 1)[0]
        assert np.array_equal(z, [0.0, 0.0])

    def test_factorized_equals_direct(self, p07):
        for kind in ("rademacher", "gaussian"):
            Z = simulate_ensemble(6, 0, kind, p07, "rosenblatt", 16)
            for k, zf in enumerate(Z):
                zd = direct_rosenblatt_walk(make_noise(16, kind, derive_seed(0, k)), p07)
                ref = np.max(np.abs(zd)) or 1.0
                assert np.max(np.abs(zf - zd)) < 1e-6 * ref

    def test_direct_sweep_matches_delta_table_sum_bitwise(self, p07):
        # the direct generator sweeps C(m) forward one delta table per step
        x = make_noise(12, "gaussian", 4)
        eng = get_engine(12, p07)
        zd = direct_rosenblatt_walk(x, p07)
        C = np.zeros((12, 12))
        for m in range(1, 13):
            C[:m, :m] += eng.delta_table(m)
            assert zd[m] == x @ C @ x, m

    def test_exact_second_moment(self, p08):
        n, M = 32, 10000
        law = WalkLaw(ProcessTag.ROSENBLATT, p08, n, n)
        closed = discrete_moment(law, "increment", 0.0, 1.0)
        for kind in ("rademacher", "gaussian"):
            z1 = simulate_ensemble(M, 17, kind, p08, "rosenblatt", n)[:, -1]
            v = z1.var()
            se = np.sqrt(max(np.mean((z1 - z1.mean()) ** 4) - v * v, 0.0) / M)
            assert abs(v - closed) < 4.0 * se, kind

    def test_zero_mean_both_noise_kinds(self, p08):
        n, M = 32, 10000
        for kind in ("rademacher", "gaussian"):
            z1 = simulate_ensemble(M, 23, kind, p08, "rosenblatt", n)[:, -1]
            assert abs(z1.mean()) < 4.0 * z1.std(ddof=1) / np.sqrt(M), kind

    def test_increment_bound(self, p08):
        # E|Z(t) - Z(s)|^2 never exceeds the continuum modulus
        # |floor(nt)/n - floor(ns)/n|^2H up to sampling error
        n, M = 64, 8000
        Z = simulate_ensemble(M, 31, "rademacher", p08, "rosenblatt", n)
        for (s, t) in [(0.0, 0.5), (0.25, 0.75), (0.5, 1.0), (0.9, 1.0)]:
            d = Z[:, grid_index(n, t)] - Z[:, grid_index(n, s)]
            sq = d * d
            est = sq.mean()
            se_rel = sq.std(ddof=1) / np.sqrt(M) / est
            bound = (np.floor(n * t) / n - np.floor(n * s) / n) ** (2 * 0.8)
            assert est <= bound * (1.0 + 5.0 * se_rel)

    def test_variance_ratio_roughly_self_similar(self, p08):
        # 2 sum c^2(floor(nt)) / t^2H varies slowly in t at fixed large n
        n = 256
        law = WalkLaw(ProcessTag.ROSENBLATT, p08, n, n)
        ratios = [discrete_moment(law, "increment", 0.0, t) / t ** 1.6
                  for t in (0.25, 0.5, 1.0)]
        mid = np.mean(ratios)
        assert all(abs(r - mid) / mid < 0.10 for r in ratios)


class TestEnsembles:
    def test_same_master_seed_identical(self, p07):
        a = simulate_ensemble(5, 77, "rademacher", p07, "rosenblatt", 16)
        b = simulate_ensemble(5, 77, "rademacher", p07, "rosenblatt", 16)
        assert np.array_equal(a, b)

    def test_count_one_reduces_to_single_path(self, p07):
        # a single path is the one-row case of a larger draw: same bits
        Z = simulate_ensemble(1, 42, "rademacher", p07, "rosenblatt", 16)
        assert np.array_equal(Z[0], simulate_ensemble(200, 42, "rademacher", p07,
                                                      "rosenblatt", 16)[0])

    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    def test_rows_match_fresh_generator_noise(self, kind):
        # the walk's values are the noise partial sums over sqrt(n), exactly
        n, seed = 37, 2**64 - 5
        Z = simulate_ensemble(40, seed, kind, None, "walk", n)
        for k in range(40):
            noise = make_noise(n, kind, derive_seed(seed, k))
            assert np.array_equal(Z[k, 1:], np.cumsum(noise) / np.sqrt(n)), k

    @pytest.mark.parametrize("n", [64, 400])
    def test_fbm_rows_independent_of_batch(self, n):
        # a row's bits depend neither on --paths nor on passing it alone
        p = HurstParams.from_kernel_hurst(0.9)
        runs = {M: simulate_ensemble(M, 3, "gaussian", p, "fbm", n)
                for M in (1, 2, 600)}

        def alone(k):
            xi = make_noise(n, "gaussian", derive_seed(3, k))[None, :]
            *_, paths = ProcessTag.FBM.form.read(n, p)
            return paths(xi)[0]

        for k in (0, 1):
            for M, values in runs.items():
                if k < M:
                    assert np.array_equal(values[k, 1:], alone(k)), (M, k)
        assert np.array_equal(runs[600][599, 1:], alone(599))

    def test_requires_params_for_kernel_walks(self):
        with pytest.raises(DomainError):
            simulate_ensemble(2, 1, "rademacher", None, "rosenblatt", 8)

    @pytest.mark.parametrize("n", [0, -5])
    @pytest.mark.parametrize("process, p", [("walk", None), ("fbm", HurstParams(0.8)),
                                            ("rosenblatt", HurstParams(0.8))])
    def test_refuses_grid_below_one(self, process, p, n):
        with pytest.raises(DomainError, match="at least 1"):
            simulate_ensemble(2, 1, "rademacher", p, process, n)

    def test_csv_and_metadata(self, p07, tmp_path):
        Z = simulate_ensemble(3, 9, "rademacher", p07, "rosenblatt", 8)
        csv_path = tmp_path / "ens.csv"
        meta = ensemble_metadata(3, 9, "rademacher", p07, "rosenblatt", 8)
        assert meta == {"H": 0.7, "n": 8, "M": 3, "kind": "rademacher",
                        "seed": 9, "process": "rosenblatt"}
        # the CSV alone: the metadata sidecar is the command's to write
        assert write_ensemble([Z], meta, csv_path) is None
        assert [p.name for p in tmp_path.iterdir()] == ["ens.csv"]
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "path_id,m,t,value"
        assert len(lines) == 1 + 3 * 9
        # every value round-trips through repr exactly
        row = lines[5].split(",")
        k, m = int(row[0]), int(row[1])
        assert float(row[3]) == Z[k, m]

    @pytest.mark.parametrize("process", ["walk", "rosenblatt"])
    def test_csv_bytes_equal_line_by_line_writer(self, p07, tmp_path, process):
        # the per-line formatting the writer batches, kept as its reference
        M, n = 5, 7
        Z = simulate_ensemble(M, 3, "gaussian", p07, process, n)
        write_ensemble([Z], ensemble_metadata(M, 3, "gaussian", p07, process, n),
                       tmp_path / "ens.csv")
        want = ["path_id,m,t,value\n"]
        for k in range(M):
            for m in range(n + 1):
                want.append(f"{k},{m},{m / n!r},{float(Z[k, m])!r}\n")
        assert (tmp_path / "ens.csv").read_text() == "".join(want)

    def test_metadata_walk(self):
        meta = ensemble_metadata(2, 1, "rademacher", None, "walk", 8)
        assert meta["H"] is None and meta["process"] == "walk"

    def test_metadata_records_the_process_index(self):
        # H is the simulated process's own index: the kernel index for fbm
        meta = ensemble_metadata(2, 1, "gaussian", HurstParams.from_kernel_hurst(0.9), "fbm", 8)
        assert meta["H"] == 0.9 and meta["process"] == "fbm"
        # Hp = (H + 1)/2 returns every 4-decimal kernel index exactly
        for k in range(7501, 10000):
            assert HurstParams.from_kernel_hurst(k / 10000).Hp == k / 10000, k


class TestGridIndex:
    def test_every_grid_time_up_to_1000(self):
        # m is the largest index whose CSV time m / n is at most t, also where
        # n t rounds below m (n = 100, t = 0.29; n = 49, t = 1/49)
        for n in range(1, 1001):
            for m in range(n + 1):
                t = m / n
                assert grid_index(n, t) == m, (n, m)
                if m > 0:
                    assert grid_index(n, math.nextafter(t, -math.inf)) == m - 1, (n, m)
                if m < n:
                    assert grid_index(n, math.nextafter(t, math.inf)) == m, (n, m)

class TestStreamedPass:
    """An ensemble is drawn, passed and summed one slab of _SLAB rows at a time."""

    PARAMS = {"walk": None, "fbm": HurstParams.from_kernel_hurst(0.9),
              "rosenblatt": HurstParams(0.8)}

    @staticmethod
    def whole_matrix(M, seed, kind, p, process, n):
        """The ensemble from its whole (M, n) noise matrix, in one pass."""
        xi = np.array([make_noise(n, kind, derive_seed(seed, k)) for k in range(M)])
        values = np.zeros((M, n + 1))
        if process == "walk":
            values[:, 1:] = np.cumsum(xi, axis=1) / np.sqrt(n)
        elif process == "fbm":
            values[:, 1:] = _matmul(xi, fbm_matrix(n, p).T) / np.sqrt(n)
        else:
            inc = get_engine(n, p).quadratic_increments(xi)
            np.cumsum(inc, axis=1, out=values[:, 1:])
        return values

    @pytest.mark.parametrize("M", [1, _SLAB - 1, _SLAB, _SLAB + 1, 511, 512, 513, 1100])
    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    @pytest.mark.parametrize("process", ["walk", "fbm", "rosenblatt"])
    def test_rows_equal_whole_matrix_pass(self, process, kind, M):
        p, n = self.PARAMS[process], 37
        Z = simulate_ensemble(M, 13, kind, p, process, n)
        assert Z.tobytes() == self.whole_matrix(M, 13, kind, p, process, n).tobytes()

    @pytest.mark.parametrize("M, rows", [(1100, [_SLAB] * (1100 // _SLAB) + [1100 % _SLAB]),
                                         (1, [1])])
    def test_one_pass_call_per_slab(self, monkeypatch, M, rows):
        # the ensemble runs the engine's one pass, once per noise slab: full
        # slabs of _SLAB rows, then the rest
        from rosenblatt.kernel import VolterraEngine
        calls = []
        original = VolterraEngine.quadratic_increments

        def recording(self, xi):
            calls.append(xi.shape[0])
            return original(self, xi)

        monkeypatch.setattr(VolterraEngine, "quadratic_increments", recording)
        simulate_ensemble(M, 13, "gaussian", self.PARAMS["rosenblatt"], "rosenblatt", 37)
        assert calls == rows

    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    def test_bytes_independent_of_slab(self, monkeypatch, kind):
        # the slab size is memory, not arithmetic; n = 300 runs the pass's
        # inner dimension in two chunks of at most 256 (kernel._KCHUNK)
        p = self.PARAMS["rosenblatt"]
        drawn = []
        for rows in (1, 128, 512):
            monkeypatch.setattr("rosenblatt.paths._SLAB", rows)
            drawn.append(simulate_ensemble(1100, 17, kind, p, "rosenblatt", 300).tobytes())
        assert drawn[0] == drawn[1] == drawn[2]

    def test_holds_no_noise_or_increment_matrix(self, p08):
        # besides the values, the pass may hold a few slabs' worth of noise,
        # increments and GEMM temporaries, never an (M, n) matrix
        M, n = 16384, 64
        # the engine's blocks, built by its first Gaussian pass, are not counted
        get_engine(n, p08).quadratic_increments(np.zeros((1, n)))
        tracemalloc.start()
        try:
            Z = simulate_ensemble(M, 5, "gaussian", p08, "rosenblatt", n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= Z.nbytes + 16 * _SLAB * (n + 1) * 8


class TestWriteJson:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_refuses_non_finite(self, tmp_path, value):
        # strict JSON: no NaN / Infinity token, and no file left behind
        path = tmp_path / "r.json"
        with pytest.raises(ValueError):
            write_json(path, {"ok": 1.0, "nested": {"bad": [value]}})
        assert not path.exists()
