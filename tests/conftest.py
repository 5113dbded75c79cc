"""Shared fixtures and independent quadrature oracles.

The oracles use scipy's QAWS adaptive rules (weight='alg'), a completely
separate code path from the package's Gauss-Legendre / Gauss-Jacobi /
incomplete-beta machinery, so agreement is a genuine cross-check.
"""
import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from rosenblatt import HurstParams


@pytest.fixture(scope="session")
def p07():
    return HurstParams(0.7)


@pytest.fixture(scope="session")
def p08():
    return HurstParams(0.8)


@pytest.fixture(scope="session")
def p06():
    return HurstParams(0.6)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def c_oracle(Hp: float) -> float:
    return np.sqrt(Hp * (2 * Hp - 1) / special.beta(2 - 2 * Hp, Hp - 0.5))


def K_oracle(t: float, s: float, Hp: float) -> float:
    """QAWS integral of the fbm kernel integrand with its (u-s)^(Hp-3/2) weight."""
    if s >= t:
        return 0.0
    val, _ = quad(lambda u: u ** (Hp - 0.5), s, t, weight="alg",
                  wvar=(Hp - 1.5, 0.0), epsabs=1e-14, epsrel=1e-12)
    return c_oracle(Hp) * s ** (0.5 - Hp) * val


def F_oracle(t: float, u: float, v: float, H: float) -> float:
    """QAWS evaluation of the two-variable kernel at a point, u != v."""
    if u >= t or v >= t or u <= 0 or v <= 0:
        return 0.0
    Hp = (H + 1) / 2
    lo, mn = max(u, v), min(u, v)
    val, _ = quad(lambda x: x ** (2 * Hp - 1) * (x - mn) ** (Hp - 1.5), lo, t,
                  weight="alg", wvar=(Hp - 1.5, 0.0), epsabs=1e-13, epsrel=1e-11)
    dH = np.sqrt(2.0 * (2 * H - 1) / H) / (H + 1)
    return dH * c_oracle(Hp) ** 2 * (u * v) ** (0.5 - Hp) * val


def dK_cell_oracle(a: float, u1: float, u2: float, Hp: float) -> float:
    """int_{u1}^{min(u2, a)} dK(a, u) du by direct adaptive quadrature."""
    if a <= u1:
        return 0.0
    hi = min(u2, a)
    c = c_oracle(Hp)
    if hi < a:
        val, _ = quad(lambda u: c * (u / a) ** (0.5 - Hp) * (a - u) ** (Hp - 1.5),
                      u1, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
        return val
    val, _ = quad(lambda u: c * (u / a) ** (0.5 - Hp), u1, hi, weight="alg",
                  wvar=(0.0, Hp - 1.5), epsabs=1e-14, epsrel=1e-12)
    return val


def cell_weight_oracle(m: int, i: int, j: int, n: int, H: float) -> float:
    """n * iint_{cells} F via the a-outer product of two 1-D QAWS integrals."""
    Hp = (H + 1) / 2
    t = m / n
    u1, u2 = (i - 1) / n, i / n
    v1, v2 = (j - 1) / n, j / n
    lo = max(u1, v1)
    pts = sorted({p for p in (u1, u2, v1, v2) if lo < p < t})
    dH = np.sqrt(2.0 * (2 * H - 1) / H) / (H + 1)
    val, _ = quad(lambda a: dK_cell_oracle(a, u1, u2, Hp) * dK_cell_oracle(a, v1, v2, Hp),
                  lo, t, points=pts or None, epsabs=1e-12, epsrel=1e-10, limit=400)
    return n * dH * val
