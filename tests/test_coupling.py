"""The Brownian coupling of grids n and 2n, read off the coefficient tables.

Drive grid n with the noise of grid 2n summed in pairs, xi = P eta, where P
is the (n, 2n) pair-summing matrix with entries 1/sqrt(2).  For Gaussian eta
the walk Z_n(m/n) = xi' C_n(m) xi is then the double Wiener integral of the
kernel averaged over the cells of grid n, with the diagonal cells set to
zero, so Z_n(m/n) = eta' P'C_n(m)P eta and Var Z = 2 ||C||_F^2.  The cells of
grid 2n refine those of grid n, so the averaging is an orthogonal projection
and Pythagoras gives

    E|Z_2n(m/n) - Z_n(m/n)|^2 = 2 ||P'C_n(m)P - C_2n(2m)||_F^2
                              = Var Z_2n(m/n) - Var Z_n(m/n).

The identity holds only if the cell weights of the two grids add up: off
the diagonal, each c_ij(m) of grid n must be the sum of the four weights of
grid 2n on its sub-cells, halved.  The discrete self-similarity tests
compare grids at the same cell sizes and cannot see an error in that sum.
With the diagonal cells kept (the double Wiener integral of the kernel
averaged over every cell pair) the same identity holds, so the weights the
walk zeroes are consistent across grids too.  The Monte Carlo test runs the
coupled noise through the walk's own pass.
"""
import numpy as np
import pytest

from rosenblatt import HurstParams
from rosenblatt.kernel import get_engine
from rosenblatt.paths import WalkLaw
from rosenblatt.stats import discrete_moment

from oracles import full_coefficient_matrix


def _pair_sum(n: int) -> np.ndarray:
    P = np.zeros((n, 2 * n))
    P[np.arange(n), 2 * np.arange(n)] = P[np.arange(n), 2 * np.arange(n) + 1] = 2 ** -0.5
    return P


@pytest.mark.parametrize("H", [0.6, 0.8])
@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
def test_coupled_distance_is_the_variance_gap(H, n):
    p = HurstParams(H)
    coarse, fine, P = get_engine(n, p), get_engine(2 * n, p), _pair_sum(n)
    for m in sorted({1, n // 4, n // 2 + 1, n - 1, n}):
        Cn, C2n = coarse.table_matrix(m), fine.table_matrix(2 * m)
        distance = 2 * np.sum((P.T @ Cn @ P - C2n) ** 2)
        gap = 2 * np.sum(C2n ** 2) - 2 * np.sum(Cn ** 2)
        assert distance == pytest.approx(gap, rel=1e-13, abs=0.0), m


@pytest.mark.parametrize("H", [0.6, 0.8])
@pytest.mark.parametrize("n", [8, 32, 128])
def test_coupled_distance_with_the_diagonal_is_the_variance_gap(H, n):
    p = HurstParams(H)
    Cn, C2n, P = full_coefficient_matrix(n, p), full_coefficient_matrix(2 * n, p), _pair_sum(n)
    # off the diagonal the reader is the walk's own matrix, bit for bit
    assert np.array_equal(Cn - np.diag(np.diag(Cn)), get_engine(n, p).table_matrix(n))
    assert np.all(np.diag(Cn) > 0.0)
    distance = 2 * np.sum((P.T @ Cn @ P - C2n) ** 2)
    gap = 2 * np.sum(C2n ** 2) - 2 * np.sum(Cn ** 2)
    assert abs(distance - gap) <= 1e-13 * 2 * np.sum(C2n ** 2)


def _walk(n: int, p: HurstParams, noise: np.ndarray) -> np.ndarray:
    """Z at grid points 1..n of each noise row, through the engine's pass ten
    slabs at a time (rows do not mix, so the slabs only bound the memory)."""
    eng = get_engine(n, p)
    return np.cumsum(np.vstack([eng.quadratic_increments(x) for x in np.split(noise, 10)]),
                     axis=1)


@pytest.mark.parametrize("H", [0.6, 0.8])
def test_coupled_monte_carlo_matches_the_variance_gap(H):
    # 40 000 Gaussian rows eta drive grid 64 and xi = P eta grid 32: the
    # sample E|Z_64(t) - Z_32(t)|^2 lies within 4 SE of the exact gap
    n, M, p = 32, 40_000, HurstParams(H)
    eta = np.random.default_rng(14).standard_normal((M, 2 * n))
    fine, coarse = _walk(2 * n, p, eta), _walk(n, p, eta @ _pair_sum(n).T)
    for t in (0.5, 1.0):
        d2 = (fine[:, round(2 * n * t) - 1] - coarse[:, round(n * t) - 1]) ** 2
        gap = (discrete_moment(WalkLaw("rosenblatt", p, 2 * n, 2 * n), "increment", 0.0, t)
               - discrete_moment(WalkLaw("rosenblatt", p, n, n), "increment", 0.0, t))
        se = d2.std(ddof=1) / np.sqrt(M)
        assert abs(d2.mean() - gap) <= 4.0 * se, t
