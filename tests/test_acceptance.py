"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at their stated sample sizes under a fixed master
seed, so every outcome is deterministic.  Criterion 2 carries a second,
stricter clause (the finite-n closed-form variance within 5 percent of the
continuum value at n = 64 and 2 percent at n = 256) that the scheme cannot
meet: the deficit is dominated by the kernel's singularity at time zero and
decays like n^(H-1).  That clause is asserted as stated and fails honestly;
the measured values are printed for the record.
"""
import numpy as np
import pytest

from rosenblatt import (HurstParams, MarketConfig, NoiseKind,
                        arbitrage_demo, bs_limit, build_market, cell_weight,
                        constant_rate, dK, discrete_increment_variance,
                        discrete_variance, divergence_scan, fbm_kernel,
                        fbm_walk, make_noise, no_arbitrage_check,
                        rosenblatt_kernel, rosenblatt_walk, simulate_ensemble,
                        skewness)
from rosenblatt.cli import main as cli_main
from rosenblatt.kernel import get_engine
from rosenblatt.paths import NoiseSequence

from conftest import F_oracle, K_oracle, cell_weight_oracle

SEED = 20260808


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def p08():
    return HurstParams(0.8)


@pytest.fixture(scope="module")
def p06():
    return HurstParams(0.6)


@pytest.fixture(scope="module")
def ens_h08_n128(p08):
    return simulate_ensemble(20000, SEED, "rademacher", p08, "rosenblatt", 128)


@pytest.fixture(scope="module")
def ens_h08_n256(p08):
    return simulate_ensemble(10000, SEED + 1, "rademacher", p08, "rosenblatt", 256)


# ---------------------------------------------------------------------------
# 1. kernel oracle suite
# ---------------------------------------------------------------------------

def test_criterion_1_kernel_oracles(p08, p06):
    rng = np.random.default_rng(101)
    worst = 0.0

    for _ in range(20):  # fbm kernel vs QAWS
        s = rng.uniform(0.02, 0.85)
        t = rng.uniform(s + 0.05, 1.0)
        p = p08 if rng.random() < 0.5 else p06
        got = fbm_kernel(t, s, p)
        want = K_oracle(t, s, p.Hp)
        worst = max(worst, abs(got - want) / abs(want))

    for _ in range(20):  # two-variable kernel vs QAWS
        u, v = rng.uniform(0.02, 0.9, size=2)
        if abs(u - v) < 1e-3:
            v = u + 0.05
        t = rng.uniform(max(u, v) + 0.02, 1.0)
        got = rosenblatt_kernel(t, u, v, p08)
        want = F_oracle(t, u, v, 0.8)
        worst = max(worst, abs(got - want) / abs(want))

    cells = [(8, 1, 2, 8), (8, 7, 8, 8), (8, 3, 6, 8), (5, 2, 5, 8), (8, 1, 8, 8),
             (16, 1, 2, 16), (16, 15, 16, 16), (16, 4, 11, 16), (12, 3, 12, 16),
             (16, 2, 3, 16), (6, 1, 6, 8), (8, 4, 5, 8), (16, 8, 9, 16),
             (16, 1, 16, 16), (10, 9, 10, 16), (7, 2, 7, 8), (8, 2, 6, 8),
             (16, 5, 6, 16), (14, 1, 3, 16), (16, 10, 16, 16)]
    for (m, i, j, n) in cells:  # 20 cell integrals vs nested QAWS
        got = cell_weight(m, i, j, n, p08)
        want = cell_weight_oracle(m, i, j, n, 0.8)
        worst = max(worst, abs(got - want) / abs(want))

    ok_kernels = worst < 1e-6

    worst_fd = 0.0
    h = 1e-6
    for _ in range(20):  # dK vs finite differences of K
        s = rng.uniform(0.05, 0.7)
        t = rng.uniform(s + 0.05, 1.0)
        fd = (fbm_kernel(t + h, s, p08) - fbm_kernel(t, s, p08)) / h
        worst_fd = max(worst_fd, abs(dK(t, s, p08) - fd) / abs(fd))
    ok_fd = worst_fd < 1e-3

    report(1, ok_kernels and ok_fd,
           f"worst oracle rel err {worst:.2e} (tol 1e-6), dK fd rel {worst_fd:.2e} (tol 1e-3)")
    assert ok_kernels and ok_fd


# ---------------------------------------------------------------------------
# 2. exact variance law
# ---------------------------------------------------------------------------

def test_criterion_2_variance_matches_closed_form(p06, p08):
    oks, details = [], []
    for p in (p06, p08):
        ens = simulate_ensemble(20000, SEED + 2, "rademacher", p, "rosenblatt", 64)
        z1 = ens.values[:, -1]
        var = float(z1.var())
        se = float(np.sqrt(max(np.mean((z1 - z1.mean()) ** 4) - var ** 2, 0) / z1.size))
        closed = discrete_variance(64, 1.0, p)
        z = (var - closed) / se
        oks.append(abs(z) < 3.0)
        details.append(f"H={p.H}: var {var:.4f} vs closed {closed:.4f} (z={z:+.2f})")
    ok = all(oks)
    report(2, ok, "exact variance law; " + "; ".join(details))
    assert ok


def test_criterion_2_closed_form_continuum_proximity(p06, p08):
    # as stated: 2 sum c^2 within 5 percent of 1 at n = 64, 2 percent at 256.
    # The finite-n deficit decays like n^(H-1) (zero-endpoint singularity of
    # the kernel), so the true values sit far below; recorded and asserted
    # at the stated thresholds, failing honestly.  See the decisions ledger.
    vals = {(p.H, n): discrete_variance(n, 1.0, p)
            for p in (p06, p08) for n in (64, 256)}
    ok64 = all(abs(vals[(H, 64)] - 1.0) <= 0.05 for H in (0.6, 0.8))
    ok256 = all(abs(vals[(H, 256)] - 1.0) <= 0.02 for H in (0.6, 0.8))
    detail = ", ".join(f"2*sum c^2(H={H}, n={n}) = {v:.4f}" for (H, n), v in vals.items())
    report(2, ok64 and ok256, f"continuum proximity as stated; {detail}")
    assert ok64 and ok256, (
        "finite-n closed form is not within 5%/2% of the continuum value 1; "
        f"measured {detail}; the deficit decays like n^(H-1), so these "
        "thresholds are unreachable at n = 64/256 (see decisions ledger)")


# ---------------------------------------------------------------------------
# 3. increment law
# ---------------------------------------------------------------------------

def test_criterion_3_increment_law(p08, ens_h08_n128):
    n = 128
    oks, details = [], []
    for (s, t) in [(0.0, 0.5), (0.25, 0.75), (0.5, 1.0)]:
        d = ens_h08_n128.values_at(t) - ens_h08_n128.values_at(s)
        sq = d * d
        est = float(sq.mean())
        se_rel = float(sq.std(ddof=1) / np.sqrt(sq.size)) / est
        target = abs(np.floor(n * t) / n - np.floor(n * s) / n) ** 1.6
        disc = discrete_increment_variance(n, s, t, p08)
        ok = est <= target * (1 + 4 * se_rel) and abs(est / disc - 1.0) < 0.05
        oks.append(ok)
        details.append(f"({s},{t}): est {est:.4f} <= {target:.4f}, disc dev {est / disc - 1:+.3%}")
    ok = all(oks)
    report(3, ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 4. oracle equivalence of the two generators
# ---------------------------------------------------------------------------

def test_criterion_4_generator_equivalence(p08):
    worst = 0.0
    for n in (8, 16, 32):
        for kind in ("rademacher", "gaussian"):
            for seed in range(20):
                noise = make_noise(n, kind, SEED + seed)
                zf = rosenblatt_walk(noise, p08)
                zd = rosenblatt_walk(noise, p08, method="direct")
                scale = float(np.max(np.abs(zd.values))) or 1.0
                worst = max(worst, float(np.max(np.abs(zf.values - zd.values))) / scale)
    ok = worst < 1e-6
    report(4, ok, f"factorized vs brute-force double sum, worst rel {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 5. quadratic variation decay
# ---------------------------------------------------------------------------

def test_criterion_5_qv_decay(p08):
    sizes = (16, 32, 64, 128, 256)
    means, oks, details = [], [], []
    for N in sizes:
        ens = simulate_ensemble(5000, SEED + 3, "rademacher", p08, "rosenblatt", N)
        d = np.diff(ens.values, axis=1)
        qv = (d * d).sum(axis=1)
        mean = float(qv.mean())
        se_rel = float(qv.std(ddof=1) / np.sqrt(qv.size)) / mean
        bound = N ** (1 - 2 * 0.8)
        oks.append(mean <= bound * (1 + 4 * se_rel))
        means.append(mean)
        details.append(f"N={N}: {mean:.4f} <= {bound:.4f}")
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    ok_slope = abs(slope - (1 - 2 * 0.8)) <= 0.15
    ok = all(oks) and ok_slope
    report(5, ok, f"slope {slope:.3f} in -0.6 +- 0.15; " + "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 6. non-Gaussianity of the marginal
# ---------------------------------------------------------------------------

def test_criterion_6_skewness(p08, ens_h08_n256):
    rep = skewness(ens_h08_n256, 1.0)
    ok_rose = abs(rep.estimate) > 3.0 * rep.std_error

    walk = simulate_ensemble(10000, SEED + 4, "gaussian", None, "walk", 256)
    rep_w = skewness(walk, 1.0)
    ok_walk = abs(rep_w.estimate) < 3.0 * rep_w.std_error

    ok = ok_rose and ok_walk
    report(6, ok, f"rosenblatt skew {rep.estimate:.3f} ({abs(rep.estimate) / rep.std_error:.1f} SE), "
                  f"gaussian walk skew {rep_w.estimate:.3f} ({abs(rep_w.estimate) / rep_w.std_error:.1f} SE)")
    assert ok


# ---------------------------------------------------------------------------
# 7. fBm walk covariance
# ---------------------------------------------------------------------------

def test_criterion_7_fbm_covariance(p06):
    # p06 bundles kernel index Hp = 0.8
    n, M = 128, 20000
    ens = simulate_ensemble(M, SEED + 5, "rademacher", p06, "fbm", n)
    oks, details = [], []
    for (s, t) in [(0.25, 0.5), (0.5, 1.0), (0.25, 1.0), (0.75, 1.0), (0.5, 0.5)]:
        prod = ens.values_at(s) * ens.values_at(t)
        est = float(prod.mean())
        se = float(prod.std(ddof=1) / np.sqrt(M))
        want = 0.5 * (t ** 1.6 + s ** 1.6 - abs(t - s) ** 1.6)
        z = (est - want) / se
        oks.append(abs(z) < 4.0)
        details.append(f"({s},{t}): z={z:+.2f}")
    ok = all(oks)
    report(7, ok, "covariance vs closed form at Hp=0.8; " + "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 8. arbitrage divergence and the constructed trade
# ---------------------------------------------------------------------------

def test_criterion_8_arbitrage(p08):
    N = 128
    cfg = MarketConfig(N=N, sigma=1.0, rate_r=constant_rate(0.5),
                       rate_a=constant_rate(0.0), S0=1.0, B0=1.0, H=0.8)
    ones = NoiseSequence(kind=NoiseKind.RADEMACHER, seed=0, values=np.ones(N))
    rep = divergence_scan(build_market(cfg, ones))
    fg = np.array(rep.fg_sequence)
    ns = np.arange(2, N + 1)
    upper = fg[ns >= N // 2]
    ok_pos = bool(np.all(upper > 0) and np.all(np.diff(upper) > 0))
    ok_exp = rep.fitted_exponent is not None and abs(rep.fitted_exponent - 0.8) <= 0.3

    cfg64 = MarketConfig(N=64, sigma=1.0, rate_r=constant_rate(0.5),
                         rate_a=constant_rate(0.0), S0=1.0, B0=1.0, H=0.8)
    witness = NoiseSequence(kind=NoiseKind.RADEMACHER, seed=0, values=np.ones(64))
    path = build_market(cfg64, witness)
    n0 = no_arbitrage_check(path)
    ok_viol = n0 is not None

    trade = arbitrage_demo(path)
    ok_trade = trade.pnl_up > 0.0 and trade.pnl_down > 0.0

    ok = ok_pos and ok_exp and ok_viol and ok_trade
    report(8, ok, f"f-g increasing on upper half: {ok_pos}; fitted exp "
                  f"{rep.fitted_exponent:.3f} vs 0.8 +- 0.3; violation at n={n0}; "
                  f"trade pnl ({trade.pnl_up:.4g}, {trade.pnl_down:.4g})")
    assert ok


# ---------------------------------------------------------------------------
# 9. market converges to its continuous limit
# ---------------------------------------------------------------------------

def test_criterion_9_market_limit(p08):
    sigma, M = 0.5, 500
    gaps = {}
    for N in (32, 64, 128, 256):
        eng = get_engine(N, p08)
        xi = np.empty((M, N))
        from rosenblatt.paths import derive_seed
        for k in range(M):
            xi[k] = make_noise(N, "rademacher", derive_seed(SEED + 6, k)).values
        X = sigma * eng.quadratic_increments(xi, unit_squares=True)
        z1 = X.sum(axis=1) / sigma
        log_sn = np.log1p(X).sum(axis=1)
        gaps[N] = float(np.mean(np.abs(log_sn - sigma * z1)))

    # spot check the vectorized gap against the module API on a few paths
    cfg = MarketConfig(N=64, sigma=sigma, rate_r=constant_rate(0.0),
                       rate_a=constant_rate(0.0), S0=1.0, B0=1.0, H=0.8)
    from rosenblatt.paths import derive_seed
    for k in range(3):
        noise = make_noise(64, "rademacher", derive_seed(SEED + 6, k))
        mp = build_market(cfg, noise)
        zp = rosenblatt_walk(noise, p08)
        s_lim, _ = bs_limit(cfg, zp, 1.0)
        gap = abs(np.log(mp.S[-1]) - np.log(s_lim))
        assert gap == pytest.approx(
            abs(np.log1p(sigma * np.diff(zp.values)).sum() - sigma * zp.values[-1]),
            rel=1e-9)

    seq = [gaps[N] for N in (32, 64, 128, 256)]
    ok_mono = all(b < a for a, b in zip(seq, seq[1:]))
    ratio = gaps[64] / gaps[256]
    ok_ratio = ratio >= 2.0
    ok = ok_mono and ok_ratio
    report(9, ok, f"mean |log S_N - log S_lim| = " +
                  ", ".join(f"{g:.5f}@{N}" for N, g in gaps.items()) +
                  f"; 64->256 ratio {ratio:.2f} >= 2")
    assert ok


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    commands = [
        ["simulate", "--process", "rosenblatt", "--hurst", "0.8", "--n", "64",
         "--paths", "20", "--seed", "42", "--out", str(tmp_path / "ens.csv")],
        ["validate", "--check", "variance", "--process", "rosenblatt",
         "--hurst", "0.8", "--n", "32", "--paths", "2000", "--seed", "7",
         "--out", str(tmp_path / "rep.json")],
        ["market", "--N", "64", "--hurst", "0.8", "--seed", "3",
         "--scan-divergence", "--demo-arbitrage", "--witness-all-ones",
         "--out", str(tmp_path / "mkt.csv")],
    ]

    def digest():
        return {f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())}

    for argv in commands:
        assert cli_main(argv) == 0
    first = digest()
    for argv in commands:  # rerun with identical flags
        assert cli_main(argv) == 0
    ok = digest() == first
    report(10, ok, f"{len(first)} output files byte-identical on rerun with fixed flags")
    assert ok
