"""Direct evaluators that no command runs: the suite's second oracle layer.

The package computes the walk and the binary market from its factorised
panel tables alone.  This module holds the independent rules those tables
are tested against, each written in a different evaluation order:

* ``fbm_kernel`` - K in closed form (Euler's integral, a 2F1), and ``dK``;
* ``rosenblatt_kernel`` - F at a point, its time integral from ``_phi_grid``;
* ``cell_weight`` - a fixed tensor product of graded rules over the (u, v)
  cell pair with the time integral innermost; slow but self-contained;
* ``panel_block`` - a block's node tables built panel by panel, the
  incomplete beta closed form evaluated per panel and node family;
* ``direct_rosenblatt_walk`` - xi' C(m) xi against the full weight table;
* ``full_coefficient_matrix`` - c_ij(n) with the diagonal the walk zeroes;
* ``bs_limit`` - the continuous-limit prices driven by a walk path.

The point rules read one geometrically graded composite Gauss-Legendre rule
(``_graded``).  The scipy QAWS oracles of ``conftest`` check these in turn.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import special

from rosenblatt import DomainError, HurstParams, MarketConfig, grid_index
from rosenblatt.kernel import _NODES, _gram, get_engine

# ``_graded``'s rule: panels per graded end, each this factor narrower toward
# it, and Gauss-Legendre nodes per panel.
_DEPTH, _RATIO, _GNODES = 8, 4.0, 12
_GX, _GW = np.polynomial.legendre.leggauss(_GNODES)


def _graded(lo, hi, left: bool, right: bool):
    """Composite Gauss-Legendre nodes and weights on [lo, hi], node axis first.

    Each flagged end gets ``_DEPTH`` panels, each ``_RATIO`` times narrower
    toward it (both ends: one such half each), so an integrable power or
    logarithmic singularity at that end converges geometrically in the node
    count; no flag gives one panel.  lo and hi broadcast.
    """
    e = np.concatenate([[0.0], _RATIO ** -np.arange(_DEPTH - 1, -1.0, -1)])
    if left and right:
        e = np.concatenate([0.5 * e, 1.0 - 0.5 * e[-2::-1]])
    elif right:
        e = 1.0 - e[::-1]
    elif not left:
        e = np.array([0.0, 1.0])
    h = 0.5 * np.diff(e)[:, None]
    span = np.subtract(hi, lo)
    return (lo + np.multiply.outer((e[:-1, None] + h * (_GX + 1.0)).ravel(), span),
            np.multiply.outer((h * _GW).ravel(), span))


# ---------------------------------------------------------------------------
# point evaluations
# ---------------------------------------------------------------------------

def fbm_kernel(t: float, s: float, p: HurstParams) -> float:
    """fBm kernel K(t, s) for 0 < s <= t.

    Closed form: substituting u = s + w turns the integral into Euler's
    integral of the hypergeometric function (DLMF 15.6.1), so with
    alpha = Hp - 1/2

        K(t, s) = cHp (t-s)^alpha / alpha * 2F1(-alpha, alpha; alpha+1; 1 - t/s).

    Returns 0 in the limit t == s.
    """
    if s <= 0 or s > t:
        raise DomainError(f"need 0 < s <= t, got s={s}, t={t}")
    if t == s:
        return 0.0
    alpha = p.Hp - 0.5
    return float(p.cHp * (t - s) ** alpha / alpha
                 * special.hyp2f1(-alpha, alpha, alpha + 1, 1 - t / s))


def dK(t: float, s: float, p: HurstParams) -> float:
    """Time derivative of the fBm kernel, cHp (s/t)^(1/2-Hp) (t-s)^(Hp-3/2).

    Strictly positive on 0 < s < t; diverges as t decreases to s, so callers
    must never evaluate on the diagonal.
    """
    if s <= 0 or t <= s:
        raise DomainError(f"need 0 < s < t, got s={s}, t={t}")
    return p.cHp * (s / t) ** (0.5 - p.Hp) * (t - s) ** (p.Hp - 1.5)


def _phi_grid(t, U, V, p):
    """Vectorised inner time integral over flat arrays U, V (entries < t, U != V).

    Exact power substitution w = (a - max)^alpha, then ``_graded`` on
    [0, (t-max)^alpha] toward 0, so the near-singularity of the smaller
    argument is resolved even for adjacent cells.
    """
    Hp = p.Hp
    alpha = Hp - 0.5
    lo, mn = np.maximum(U, V), np.minimum(U, V)
    w, wg = _graded(0.0, (t - lo) ** alpha, True, False)
    a = lo + w ** (1.0 / alpha)
    return (wg * a ** (2 * Hp - 1) * (a - mn) ** (Hp - 1.5)).sum(axis=0) / alpha


def rosenblatt_kernel(t: float, u: float, v: float, p: HurstParams) -> float:
    """Two-variable kernel F(t, u, v); symmetric in (u, v), zero for u >= t or v >= t.

    Point evaluation refuses u == 0, v == 0 (the y^(1/2-Hp) factor is
    singular there) and u == v (the time integral diverges on the diagonal;
    every discrete sum excludes it).  Cell integrals handle both by
    integration.  The time integral is ``_phi_grid``, as in ``cell_weight``.
    """
    if not 0.0 < t <= 1.0:
        raise DomainError(f"need t in (0, 1], got {t}")
    if u <= 0.0 or v <= 0.0:
        raise DomainError("point evaluation of F requires u > 0 and v > 0")
    if u >= t or v >= t:
        return 0.0
    if u == v:
        raise DomainError("F diverges on the diagonal u == v")
    return (p.dH * p.cHp ** 2 * (u * v) ** (0.5 - p.Hp)
            * float(_phi_grid(t, np.array([u]), np.array([v]), p)[0]))


# ---------------------------------------------------------------------------
# direct cell integrals (outer tensor Gauss over the cell)
# ---------------------------------------------------------------------------

def cell_weight(m: int, i: int, j: int, n: int, p: HurstParams) -> float:
    """Cell coefficient c_ij(m) = n * iint_{cell_i x cell_j} F(m/n, u, v) dv du.

    Direct evaluation order: a fixed tensor product of one ``_graded`` rule
    per cell with the time integral (``_phi_grid``) innermost.  Each cell's
    rule is graded toward the ends where the integrand is singular: the
    diagonal u == v, which an adjacent cell touches, the time t = m/n, which
    cell m ends at, and zero, where cell 1 starts.  Cell 1 is integrated in
    r = u^(3/2-Hp), which absorbs the factor u^(1/2-Hp) exactly.
    Independent of ``VolterraEngine.table_matrix``'s factorised assembly.
    """
    if i == j:
        raise DomainError("diagonal cells are excluded (the kernel diverges on u == v)")
    if not (1 <= i <= n and 1 <= j <= n and 1 <= m <= n):
        raise DomainError(f"need 1 <= i, j <= n and 1 <= m <= n, got i={i}, j={j}, m={m}, n={n}")
    if i > m or j > m:
        return 0.0

    def rule(c, other):
        """Nodes of cell c and their weights times c's factor u^(1/2-Hp)."""
        pw = 1.5 - p.Hp if c == 1 else 1.0
        r, w = _graded(((c - 1) / n) ** pw, (c / n) ** pw,
                       c == 1 or other == c - 1, c == m or other == c + 1)
        u = r ** (1.0 / pw)
        return u, (w / pw if c == 1 else w * u ** (0.5 - p.Hp))

    u, wu = rule(i, j)
    v, wv = rule(j, i)
    # one row of u nodes at a time keeps the inner rule's arrays small
    phi = np.array([_phi_grid(m / n, np.full(v.size, uk), v, p) for uk in u])
    return n * p.dH * p.cHp ** 2 * float(wu @ phi @ wv)


# ---------------------------------------------------------------------------
# per-panel node tables
# ---------------------------------------------------------------------------

def _Ix(pan, x):
    return pan._B * special.betainc(pan._c1, pan._alpha, x)


def _abar(pan, k, a):
    """Analytic parts Abar_i(a) for i = 1..k at nodes a; shape (k, len(a))."""
    n, p = pan.n, pan.params
    pref = p.cHp * a ** (p.Hp - 0.5)
    out = np.zeros((k, a.size))
    if k >= 2:
        # each interior cell edge is shared by two rows: evaluate it once
        edges = _Ix(pan, (np.arange(k - 1)[:, None] / n) / a)
        out[: k - 2] = pref * (edges[1:] - edges[:-1])
        out[k - 2] = pref * (pan._B - edges[k - 2])
    return out


def _edge(pan, k, a):
    """R(a) with E(a) = (a - lo)^alpha R(a); betaincc keeps it stable near lo."""
    p = pan.params
    lo = (k - 1) / pan.n
    compl = special.betaincc(pan._c1, pan._alpha, lo / a)
    return p.cHp * a ** (p.Hp - 0.5) * pan._B * compl / (a - lo) ** pan._alpha


def panel_block(pan, lo: int, last: int) -> dict:
    """The node tables of panels lo..last of the panel quadrature ``pan``
    (A_gl, A_j1 and Qd, wR, e2), built one panel at a time: two incomplete
    beta evaluations of the analytic parts and two of the endpoint factor R
    per panel, each on that panel's nodes alone.  The oracle the per-family
    whole-block builders (``kernel._Panels._table``, ``_wR``, ``_e2`` and
    ``kernel._column_squares``) are held to bit for bit."""
    nodes, h2 = _NODES, 0.5 / pan.n
    x, _ = pan._gl
    xj1, wj1 = pan._j1
    xj2, wj2 = pan._j2
    B = last - lo + 1
    A_gl, A_j1 = np.zeros((last, B * nodes)), np.zeros((last, B * nodes))
    Qd, row, wR = np.empty((B, nodes)), np.empty((B, nodes)), np.empty((B, nodes))
    e2 = np.empty(B)
    for j, k in enumerate(range(lo, last + 1)):
        left = (k - 1) / pan.n
        a_j1 = left + h2 * (xj1 + 1.0)
        cols = slice(j * nodes, (j + 1) * nodes)
        A_gl[:k, cols] = _abar(pan, k, left + h2 * (x + 1.0))
        A_j1[:k, cols] = _abar(pan, k, a_j1)
        # with xi_i^2 = 1 the squared-noise term is the column sum of A^2
        Qd[j] = np.sum(A_gl[:k, cols] ** 2, axis=0)
        # panel 1 has no Abar part, so its (zero) row 0 stands in
        row[j] = A_j1[max(k - 2, 0), cols]
        # Jacobi weights times R: the Abar-E cross terms
        wR[j] = wj1 * h2 ** (1 + pan._alpha) * _edge(pan, k, a_j1)
        # int_panel E(a)^2 da
        e2[j] = np.sum(wj2 * h2 ** (1 + 2 * pan._alpha)
                       * _edge(pan, k, left + h2 * (xj2 + 1.0)) ** 2)
    return {"lo": lo, "A_gl": A_gl, "A_j1": A_j1, "Qd": Qd, "row": row, "wR": wR, "e2": e2}


# ---------------------------------------------------------------------------
# brute-force walk
# ---------------------------------------------------------------------------

def direct_rosenblatt_walk(xi: np.ndarray, p: HurstParams) -> np.ndarray:
    """The Rosenblatt walk driven by the (n,) noise row ``xi``, as an (n + 1,)
    row, by brute force: xi' C(m) xi against the full weight table at every
    grid time, sweeping C(m) forward by one ``delta_table`` per step (O(n^3)
    kernel work).  The oracle the factorised pass of ``path_slabs`` is
    tested against."""
    n = len(xi)
    eng = get_engine(n, p)
    values = np.zeros(n + 1)
    C = np.zeros((n, n))
    for m in range(1, n + 1):
        C[:m, :m] += eng.delta_table(m)
        values[m] = xi @ C @ xi
    return values


def full_coefficient_matrix(n: int, p: HurstParams) -> np.ndarray:
    """The (n, n) coefficient matrix of grid n with its diagonal kept: the
    engine's ``_gram`` sum over its blocks times n dH, symmetrised, read
    before ``_scaled`` zeroes the diagonal cells, which the walk leaves out
    and which criterion 2's deficit partly is."""
    eng = get_engine(n, p)
    G = np.zeros((n, n))
    for t in eng._blocks(j1=False):
        last = t["A_gl"].shape[0]
        G[:last, :last] += _gram(eng._cut(t, t["lo"], last))
    G *= n * p.dH
    return 0.5 * (G + G.T)


# ---------------------------------------------------------------------------
# continuous limit
# ---------------------------------------------------------------------------

def _simpson(fn: Callable[[float], float], hi: float, panels: int = 128) -> float:
    if hi == 0.0:
        return 0.0
    xs = np.linspace(0.0, hi, 2 * panels + 1)
    ys = np.array([fn(x) for x in xs])
    h = hi / (2 * panels)
    return float(h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum()))


def bs_limit(cfg: MarketConfig, z: np.ndarray, t: float) -> tuple[float, float]:
    """Continuous-model prices driven by the walk path ``z``, one row of its
    n + 1 grid values (cadlag: Z(t) = z[grid_index(n, t)]):

        S_t = S0 exp(int_0^t a + sigma Z(t)),   B_t = B0 exp(int_0^t r)

    with the rate integrals by composite Simpson.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size < 2 or z[0] != 0.0:
        raise DomainError(f"z must be one path row of n + 1 >= 2 grid values starting "
                          f"at 0, got shape {z.shape}")
    zt = z[grid_index(z.size - 1, t)]
    int_a = _simpson(cfg.rate_a, t)
    int_r = _simpson(cfg.rate_r, t)
    S = cfg.S0 * np.exp(int_a + cfg.sigma * zt)
    B = cfg.B0 * np.exp(int_r)
    return float(S), float(B)
