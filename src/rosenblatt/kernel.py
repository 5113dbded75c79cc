"""Singular Volterra kernels of the Rosenblatt construction.

The fractional Brownian kernel and its time derivative, for 1/2 < Hp < 1,

    K(t, s)  = c(Hp) * s^(1/2-Hp) * int_s^t (u-s)^(Hp-3/2) u^(Hp-1/2) du
    dK(t, s) = c(Hp) * (s/t)^(1/2-Hp) * (t-s)^(Hp-3/2)

drive the symmetric two-variable kernel (Hp = (H+1)/2)

    F(t, u, v) = d(H) * 1{u<t} 1{v<t} * int_{max(u,v)}^t dK(a, u) dK(a, v) da

whose grid-cell integrals c_ij(m) = n * iint_{cell_i x cell_j} F(m/n, u, v)
are the quadratic-form coefficients of the approximating walk.

Two independent evaluation orders are provided for the cell integrals:

* ``cell_weight``  - outer tensor Gauss over the (u, v) cell pair with the
  time integral innermost, fully adaptive; slow but self-contained.
* ``weight_table`` - time integral outermost, factorised through the
  one-dimensional cell integrals g_i(a) = int_{cell_i} dK(a, u) du, which
  reduce to regularized incomplete beta functions.  Per grid panel the
  integrands split into an analytic part plus (a - panel_left)^alpha times
  an analytic part (alpha = Hp - 1/2), so one Gauss-Legendre and two
  Gauss-Jacobi node families integrate every product at spectral accuracy.
  The Gauss-Jacobi nodes are scipy's rule with the eigenvalues taken from
  numpy's LAPACK (``_roots_jacobi``), so no command imports scipy.linalg.

The panel machinery (``VolterraEngine``) builds every panel table when it is
constructed and is read-only after that; the path generators, the statistics
and the market module share one engine per (n, H).  Every panel integrates
with the same 16 nodes per family (``_NODES``).  The node tables are stacked
in blocks of 16 consecutive panels, each a zero-padded (K, 16 * nodes)
matrix whose rows are the cells i <= K of the block's last panel, so the
ensemble pass runs one GEMM per block where it would run sixteen thin ones;
the zero rows add exact zeros to every product.  One such pass over the
market's noise prefix gives the up and the down branch of every step, and
with them the walk increments themselves.  The blocks are built on
a thread pool, one worker per usable CPU: the build is mostly incomplete
beta evaluations, which release the GIL, and each block is computed on its
own, so no table depends on the worker count.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import special


# Panels per stacked block of node tables, nodes per panel of each
# Gauss-Legendre / Gauss-Jacobi family (the adaptive rules use as many), noise
# rows per GEMM in ``quadratic_increments`` (the slab bounds the temporaries at
# a few MiB), and the inner-dimension chunk and column multiple of ``_matmul``.
_BLOCK = 16
_NODES = 16
_SLAB = 512
_KCHUNK = 256
_NPAD = 16
# xi_k of the up (row 0) and the down (row 1) branch in ``branch_increments``
_BRANCHES = np.array([[1.0], [-1.0]])
# Stopping rule of the adaptive routines (``fbm_kernel``, ``rosenblatt_kernel``,
# ``cell_weight``): relative and absolute error, and the bisection budget unit.
_REL_TOL = 1e-8
_ABS_TOL = 1e-12
_MAX_SUBDIV = 40


@lru_cache(maxsize=None)
def _leggauss(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


def _roots_jacobi(n: int, b: float):
    """Gauss-Jacobi nodes and weights for the weight (1 + x)^b on [-1, 1], b > 0.

    Step for step the rule of ``scipy.special.roots_jacobi(n, 0, b)``, so the
    result has its bits: eigenvalues of the Jacobi matrix, one Newton step,
    weights from log-normalised values scaled to the weight's integral mu0.
    Only the eigenvalues come from ``np.linalg.eigvalsh`` on the dense
    tridiagonal instead of ``scipy.linalg.eigvals_banded``; both end in
    LAPACK's dsterf on the same diagonals, and this keeps ``scipy.linalg``
    (about 0.07 s to import) out of every engine build.
    """
    k = np.arange(n, dtype=float)
    mu0 = 2.0 ** (b + 1) * special.beta(1.0, b + 1)
    diag = np.where(k == 0, b / (2 + b), b * b / ((2.0 * k + b) * (2.0 * k + b + 2)))
    k = k[1:]
    off = (2.0 / (2.0 * k + b) * np.sqrt(k * (k + b) / (2 * k + b + 1))
           * np.where(k == 1, 1.0, np.sqrt(k * (k + b) / (2.0 * k + b - 1))))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    # improve the roots by one Newton step
    dy = 0.5 * (n + b + 1) * special.eval_jacobi(n - 1, 1.0, b + 1, x)
    x -= special.eval_jacobi(n, 0.0, b, x) / dy
    # fm and dy span many decades: log-normalise both before the product
    fm = special.eval_jacobi(n - 1, 0.0, b, x)
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.)
    w = 1.0 / (fm * dy)
    w *= mu0 / w.sum()
    return x, w


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with each row's bits independent of the rows computed with it.

    numpy hands a one-row product to gemv, whose summation order differs from
    gemm's, so one row goes through gemm as two.  Within gemm the BLAS splits
    the inner dimension by its own rule: OpenBLAS keeps it whole for every row
    count up to a few hundred (its GEMM_Q) but beyond that splits it
    differently for different row counts.  Inner dimensions above 256 are
    therefore cut into fixed chunks of 256, whose products are accumulated in
    order; 256 stays clear of that limit while a grid of n <= 256 still runs
    one product per block.  The row count also changes the bits of a b that
    is a transposed view (as the fBm rows pass it) or whose width is not a
    multiple of the BLAS column unroll, so such a b is first copied into a
    row-major array padded with zero columns to a multiple of 16; the panel
    blocks, 16 * nodes wide, skip the copy.
    """
    if a.shape[0] == 1:
        return _matmul(np.repeat(a, 2, axis=0), b)[:1]
    cols = b.shape[1]
    if cols % _NPAD or b.strides[1] != b.itemsize:
        padded = np.zeros((b.shape[0], -(-cols // _NPAD) * _NPAD))
        padded[:, :cols] = b
        return _matmul(a, padded)[:, :cols]
    out = a[:, :_KCHUNK] @ b[:_KCHUNK]
    for lo in range(_KCHUNK, a.shape[1], _KCHUNK):
        out += a[:, lo: lo + _KCHUNK] @ b[lo: lo + _KCHUNK]
    return out


class DomainError(ValueError):
    """Argument outside the mathematical domain of a kernel quantity."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------

def c_const(Hp: float) -> float:
    """Normalizing constant of the fBm kernel, (Hp(2Hp-1)/B(2-2Hp, Hp-1/2))^(1/2)."""
    if not 0.5 < Hp < 1.0:
        raise DomainError(f"kernel Hurst index must lie in (1/2, 1), got {Hp}")
    return float(np.sqrt(Hp * (2 * Hp - 1) / special.beta(2 - 2 * Hp, Hp - 0.5)))


def d_const(H: float) -> float:
    """Normalizing constant of the two-variable kernel, sqrt(2(2H-1)/H)/(H+1)."""
    if not 0.5 < H < 1.0:
        raise DomainError(f"Hurst index must lie in (1/2, 1), got {H}")
    return float(np.sqrt(2.0 * (2 * H - 1) / H) / (H + 1))


@dataclass(frozen=True)
class HurstParams:
    """Parameter bundle shared by every kernel evaluation, fixed by H alone.

    H is the Hurst index of the limit process, Hp = (H+1)/2 the index of the
    underlying fBm kernel, cHp and dH the two normalizing constants.
    """

    H: float

    def __post_init__(self):
        if not 0.5 < self.H < 1.0:
            raise DomainError(f"H must lie in (1/2, 1), got {self.H}")

    @property
    def Hp(self) -> float:
        return (self.H + 1) / 2

    @cached_property
    def cHp(self) -> float:
        return c_const(self.Hp)

    @cached_property
    def dH(self) -> float:
        return d_const(self.H)

    @classmethod
    def from_kernel_hurst(cls, Hp: float) -> "HurstParams":
        """Build the bundle from the fBm kernel index Hp in (3/4, 1)."""
        if not 0.75 < Hp < 1.0:
            raise DomainError(f"kernel Hurst index must lie in (3/4, 1), got {Hp}")
        return cls(2 * Hp - 1)


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre (scalar integrands)
# ---------------------------------------------------------------------------

def _adaptive_gauss(f, a: float, b: float) -> float:
    """Globally adaptive Gauss-Legendre for a vectorised integrand on [a, b].

    Each interval carries a Richardson estimate (one-panel rule against the
    sum over its two halves); the worst interval is bisected until the total
    estimated error meets max(_REL_TOL * |integral|, _ABS_TOL).
    """
    if b <= a:
        return 0.0
    x, w = _leggauss(_NODES)

    def rule(lo, hi):
        h2 = 0.5 * (hi - lo)
        return h2 * float(np.dot(w, f(lo + h2 * (x + 1.0))))

    def entry(lo, hi):
        mid = 0.5 * (lo + hi)
        fine = rule(lo, mid) + rule(mid, hi)
        return [abs(rule(lo, hi) - fine), lo, hi, fine]

    segs = [entry(a, b)]
    total = segs[0][3]
    err = segs[0][0]
    pops = 0
    while err > max(_REL_TOL * abs(total), _ABS_TOL):
        pops += 1
        if pops > 16 * _MAX_SUBDIV:
            raise QuadratureError(
                f"adaptive quadrature failed to reach rel_tol={_REL_TOL} "
                f"after {pops} bisections")
        segs.sort(key=lambda s: s[0])
        e, lo, hi, fine = segs.pop()
        mid = 0.5 * (lo + hi)
        left, right = entry(lo, mid), entry(mid, hi)
        total += left[3] + right[3] - fine
        err += left[0] + right[0] - e
        segs.append(left)
        segs.append(right)
    return total


# ---------------------------------------------------------------------------
# point evaluations
# ---------------------------------------------------------------------------

def fbm_kernel(t: float, s: float, p: HurstParams) -> float:
    """fBm kernel K(t, s) for 0 < s <= t.

    The endpoint singularity (u-s)^(Hp-3/2) is absorbed exactly by the
    substitution w = (u-s)^(Hp-1/2); the transformed integrand is handled by
    adaptive Gauss-Legendre.  Returns 0 in the limit t == s.
    """
    if s <= 0 or s > t:
        raise DomainError(f"need 0 < s <= t, got s={s}, t={t}")
    if t == s:
        return 0.0
    Hp = p.Hp
    alpha = Hp - 0.5
    g = lambda w: (s + w ** (1.0 / alpha)) ** (Hp - 0.5)
    val = _adaptive_gauss(g, 0.0, (t - s) ** alpha) / alpha
    return p.cHp * s ** (0.5 - Hp) * val


def dK(t: float, s: float, p: HurstParams) -> float:
    """Time derivative of the fBm kernel, cHp (s/t)^(1/2-Hp) (t-s)^(Hp-3/2).

    Strictly positive on 0 < s < t; diverges as t decreases to s, so callers
    must never evaluate on the diagonal.
    """
    if s <= 0 or t <= s:
        raise DomainError(f"need 0 < s < t, got s={s}, t={t}")
    return p.cHp * (s / t) ** (0.5 - p.Hp) * (t - s) ** (p.Hp - 1.5)


def _phi_adaptive(t, u, v, p):
    """int_{max(u,v)}^t a^(2Hp-1) (a-u)^(Hp-3/2) (a-v)^(Hp-3/2) da, u != v.

    Substituting w = (a - max(u,v))^alpha absorbs the singular factor of the
    larger argument; the other factor is smooth on the open interval.
    """
    Hp = p.Hp
    alpha = Hp - 0.5
    lo, mn = max(u, v), min(u, v)

    def g(w):
        a = lo + w ** (1.0 / alpha)
        return a ** (2 * Hp - 1) * (a - mn) ** (Hp - 1.5)

    return _adaptive_gauss(g, 0.0, (t - lo) ** alpha) / alpha


def rosenblatt_kernel(t: float, u: float, v: float, p: HurstParams) -> float:
    """Two-variable kernel F(t, u, v); symmetric in (u, v), zero for u >= t or v >= t.

    Point evaluation refuses u == 0, v == 0 (the y^(1/2-Hp) factor is
    singular there) and u == v (the time integral diverges on the diagonal;
    every discrete sum excludes it).  Cell integrals handle both by
    integration.
    """
    if not 0.0 < t <= 1.0:
        raise DomainError(f"need t in (0, 1], got {t}")
    if u <= 0.0 or v <= 0.0:
        raise DomainError("point evaluation of F requires u > 0 and v > 0")
    if u >= t or v >= t:
        return 0.0
    if u == v:
        raise DomainError("F diverges on the diagonal u == v")
    Hp = p.Hp
    return p.dH * p.cHp ** 2 * (u * v) ** (0.5 - Hp) * _phi_adaptive(t, u, v, p)


# ---------------------------------------------------------------------------
# direct cell integrals (outer tensor Gauss over the cell)
# ---------------------------------------------------------------------------

def _phi_grid(t, U, V, p):
    """Vectorised inner time integral over flat arrays U, V (entries < t, U != V).

    Fixed composite rule: exact power substitution w = (a - max)^alpha, then
    12-node Gauss-Legendre on 8 panels of [0, (t-max)^alpha], graded by a
    factor 4 toward 0, so the near-singularity of the smaller argument is
    resolved even for adjacent cells.
    """
    depth, nodes, ratio = 8, 12, 4.0
    Hp = p.Hp
    alpha = Hp - 0.5
    lo = np.maximum(U, V)
    mn = np.minimum(U, V)
    W = (t - lo) ** alpha
    x, w = _leggauss(nodes)
    fracs = np.concatenate([[0.0], ratio ** -np.arange(depth - 1, -1.0, -1)])
    # panel edges (P+1, N); nodes laid out as (P*Q, N) for one fused pass
    e0 = np.multiply.outer(fracs[:-1], W)
    e1 = np.multiply.outer(fracs[1:], W)
    h2 = 0.5 * (e1 - e0)[:, None, :]
    wg = (np.multiply.outer(np.ones(depth), w))[:, :, None] * h2
    a = lo[None, None, :] + (e0[:, None, :] + h2 * (x[None, :, None] + 1.0)) ** (1.0 / alpha)
    vals = wg * a ** (2 * Hp - 1) * (a - mn[None, None, :]) ** (Hp - 1.5)
    return vals.sum(axis=(0, 1)) / alpha


def cell_weight(m: int, i: int, j: int, n: int, p: HurstParams) -> float:
    """Cell coefficient c_ij(m) = n * iint_{cell_i x cell_j} F(m/n, u, v) dv du.

    Direct evaluation order: adaptive tensor-product Gauss over the cell pair
    with the time integral innermost.  For a cell touching zero the factor
    u^(1/2-Hp) is absorbed exactly by integrating in r = u^(3/2-Hp).
    Independent of ``weight_table``'s factorised assembly.
    """
    if i == j:
        raise DomainError("diagonal cells are excluded (the kernel diverges on u == v)")
    if not (1 <= i <= n and 1 <= j <= n and 1 <= m <= n):
        raise DomainError(f"need 1 <= i, j <= n and 1 <= m <= n, got i={i}, j={j}, m={m}, n={n}")
    if i > m or j > m:
        return 0.0
    Hp = p.Hp
    t = m / n
    scale = p.dH * p.cHp ** 2
    pu = 1.5 - Hp if i == 1 else 1.0
    pv = 1.5 - Hp if j == 1 else 1.0
    ua, ub = ((i - 1) / n) ** pu, (i / n) ** pu
    va, vb = ((j - 1) / n) ** pv, (j / n) ** pv
    nodes = _NODES
    x, w = _leggauss(nodes)

    def tiles(regions):
        """Tensor Gauss value on each (transformed-coordinate) rectangle."""
        U, V, WW = [], [], []
        for qa, qb, ra, rb in regions:
            hu, hv = 0.5 * (qb - qa), 0.5 * (rb - ra)
            uu = (qa + hu * (x + 1.0)) ** (1.0 / pu)
            vv = (ra + hv * (x + 1.0)) ** (1.0 / pv)
            # transformed directions absorbed their power factor; Jacobian 1/p
            fu = w * hu * (1.0 / pu if pu != 1.0 else uu ** (0.5 - Hp))
            fv = w * hv * (1.0 / pv if pv != 1.0 else vv ** (0.5 - Hp))
            U.append(np.repeat(uu, nodes))
            V.append(np.tile(vv, nodes))
            WW.append(np.outer(fu, fv).ravel())
        G = scale * _phi_grid(t, np.concatenate(U), np.concatenate(V), p)
        G = G.reshape(len(regions), nodes * nodes)
        return (np.concatenate(WW).reshape(len(regions), -1) * G).sum(axis=1)

    def halves(region):
        qa, qb, ra, rb = region
        qm, rm = 0.5 * (qa + qb), 0.5 * (ra + rb)
        return [(qa, qm, ra, rb), (qm, qb, ra, rb),   # u-split pair
                (qa, qb, ra, rm), (qa, qb, rm, rb)]   # v-split pair

    def make_entries(regions, coarse):
        """One work-list entry per region: Richardson error against both
        bisection axes, keeping the split direction that explains more of the
        discrepancy (edge singularities then refine in strips, not tiles)."""
        four = [h for r in regions for h in halves(r)]
        vals = tiles(four).reshape(len(regions), 4)
        out = []
        for r, c, v in zip(regions, coarse, vals):
            fu, fv = float(v[0] + v[1]), float(v[2] + v[3])
            if abs(c - fu) >= abs(c - fv):
                out.append([abs(c - fu), r, fu, halves(r)[:2], v[:2]])
            else:
                out.append([abs(c - fv), r, fv, halves(r)[2:], v[2:]])
        return out

    root = (ua, ub, va, vb)
    segs = make_entries([root], tiles([root]))
    total = segs[0][2]
    err = segs[0][0]
    pops = 0
    # single-axis Richardson is an estimate, not a bound; stop a factor 8 early
    while err > max(0.125 * _REL_TOL * abs(total), _ABS_TOL):
        pops += 1
        if pops > 64 * _MAX_SUBDIV:
            raise QuadratureError(f"cell_weight failed to converge after {pops} bisections")
        segs.sort(key=lambda s: s[0])
        e, region, fine, children, coarse = segs.pop()
        new = make_entries(children, coarse)
        total += sum(c[2] for c in new) - fine
        err += sum(c[0] for c in new) - e
        segs.extend(new)
    return n * total


# ---------------------------------------------------------------------------
# factorised panel machinery
# ---------------------------------------------------------------------------

class VolterraEngine:
    """Shared quadrature tables for the grid t_m = m/n on [0, 1] at index H.

    Per panel k the one-dimensional cell integrals G_i(a) split as
    Abar_i(a) + s_i E(a), where E(a) = int_{(k-1)/n}^a dK(a, u) du carries the
    whole (a - (k-1)/n)^alpha endpoint behavior and s = (0, .., 0, -1, +1).
    Everything is evaluated through the incomplete beta closed form

        int_{u1}^{u2} dK(a, u) du
            = cHp a^(Hp-1/2) [Ix(u2/a) - Ix(u1/a)],
        Ix(x) = B(3/2-Hp, Hp-1/2) betainc(3/2-Hp, Hp-1/2, x).

    The constructor builds every panel, in blocks of 16 consecutive panels.
    A block's A_gl / A_j1 tables are one zero-padded matrix each, of shape
    (K, 16 * nodes) with K the block's last panel (a last, partial block has
    fewer columns); panel k fills rows :k of its column slice.  Next to them
    the block holds, one row per panel, the weights wR = w_j1 R, the scalar
    e2 = int_panel E^2, row k - 2 of A_j1 and the column sums of A_gl^2.
    ``quadratic_increments`` (the ensembles) and ``branch_increments`` (the
    market's up/down envelope) multiply the noise by whole blocks through
    the same ``_increments``; ``panel`` cuts one panel out of its block in
    the same layout for the dense oracles ``delta_table`` and ``fbm_matrix``.

    The blocks are built in parallel, one thread per CPU the process may run
    on and at most one per block.  A block reads only constants set before
    the pool starts, so every table is bit-identical to a serial build.
    Instances are read-only after construction and safe to share across
    readers; acquire them through ``get_engine``.
    """

    def __init__(self, n: int, p: HurstParams):
        if n < 1:
            raise DomainError(f"grid resolution must be positive, got {n}")
        self.n = n
        self.params = p
        self._alpha = p.Hp - 0.5
        self._c1 = 1.5 - p.Hp
        self._c2 = p.Hp - 0.5
        self._B = float(special.beta(self._c1, self._c2))
        self._gl = _leggauss(_NODES)
        self._j1 = _roots_jacobi(_NODES, self._alpha)
        self._j2 = _roots_jacobi(_NODES, 2 * self._alpha)
        self._w_gl = 0.5 / n * self._gl[1]
        self._w_gl.setflags(write=False)
        # _block reads only the constants above, so the blocks are built
        # independently, one worker per usable CPU, and come back in order
        los = range(1, n + 1, _BLOCK)
        with ThreadPoolExecutor(min(_cpus(), len(los))) as pool:
            self._blocks = list(pool.map(
                lambda lo: self._block(lo, min(lo + _BLOCK - 1, n)), los))

    # -- closed-form one-dimensional integrals ------------------------------

    def _Ix(self, x):
        return self._B * special.betainc(self._c1, self._c2, x)

    def _abar(self, k, a):
        """Analytic parts Abar_i(a) for i = 1..k at nodes a; shape (k, len(a))."""
        n, p = self.n, self.params
        pref = p.cHp * a ** (p.Hp - 0.5)
        out = np.zeros((k, a.size))
        if k >= 2:
            # each interior cell edge is shared by two rows: evaluate it once
            edges = self._Ix((np.arange(k - 1)[:, None] / n) / a)
            out[: k - 2] = pref * (edges[1:] - edges[:-1])
            out[k - 2] = pref * (self._B - edges[k - 2])
        return out

    def _edge(self, k, a):
        """R(a) with E(a) = (a - lo)^alpha R(a); betaincc keeps it stable near lo."""
        p = self.params
        lo = (k - 1) / self.n
        compl = special.betaincc(self._c1, self._c2, lo / a)
        return p.cHp * a ** (p.Hp - 0.5) * self._B * compl / (a - lo) ** self._alpha

    # -- panels --------------------------------------------------------------

    def _block(self, lo: int, last: int) -> dict:
        """Node tables of panels lo..last, frozen."""
        nodes, h2 = _NODES, 0.5 / self.n
        x, _ = self._gl
        xj1, wj1 = self._j1
        xj2, wj2 = self._j2
        B = last - lo + 1
        A_gl, A_j1 = np.zeros((last, B * nodes)), np.zeros((last, B * nodes))
        Qd, row, wR = np.empty((B, nodes)), np.empty((B, nodes)), np.empty((B, nodes))
        e2 = np.empty(B)
        for j, k in enumerate(range(lo, last + 1)):
            left = (k - 1) / self.n
            a_j1 = left + h2 * (xj1 + 1.0)
            cols = slice(j * nodes, (j + 1) * nodes)
            A_gl[:k, cols] = self._abar(k, left + h2 * (x + 1.0))
            A_j1[:k, cols] = self._abar(k, a_j1)
            # with xi_i^2 = 1 the squared-noise term is the column sum of A^2
            Qd[j] = np.sum(A_gl[:k, cols] ** 2, axis=0)
            # panel 1 has no Abar part, so its (zero) row 0 stands in
            row[j] = A_j1[max(k - 2, 0), cols]
            # Jacobi weights times R: the Abar-E cross terms
            wR[j] = wj1 * h2 ** (1 + self._alpha) * self._edge(k, a_j1)
            # int_panel E(a)^2 da
            e2[j] = np.sum(wj2 * h2 ** (1 + 2 * self._alpha)
                           * self._edge(k, left + h2 * (xj2 + 1.0)) ** 2)
        for arr in (A_gl, A_j1, Qd, row, wR, e2):
            arr.setflags(write=False)
        return {"lo": lo, "A_gl": A_gl, "A_j1": A_j1, "w_gl": self._w_gl,
                "Qd": Qd, "row": row, "wR": wR, "e2": e2}

    def panel(self, k: int) -> dict:
        """Read-only views of panel k = [(k-1)/n, k/n] in its block's layout:
        A_gl / A_j1 of shape (k, nodes), the per-panel entries as one row."""
        if not 1 <= k <= self.n:
            raise DomainError(f"panel index must lie in 1..{self.n}, got {k}")
        b, j = divmod(k - 1, _BLOCK)
        t = self._blocks[b]
        cols = slice(j * _NODES, (j + 1) * _NODES)
        one = {key: t[key][j: j + 1] for key in ("Qd", "row", "wR", "e2")}
        return {"lo": k, "A_gl": t["A_gl"][:k, cols], "A_j1": t["A_j1"][:k, cols],
                "w_gl": self._w_gl, **one}

    def delta_table(self, k: int) -> np.ndarray:
        """Panel increment DeltaC_k[i, j] = n dH int_panel G_i G_j da, (k, k).

        Built on every call, never cached: it is the dense O(k^2) oracle for
        the panel increments and feeds ``table_matrix``.
        """
        p = self.panel(k)
        A = p["A_gl"]
        T0 = (A * p["w_gl"]) @ A.T
        m1 = (p["A_j1"] * p["wR"]).sum(axis=1)
        e2 = p["e2"][0]
        s = np.zeros(k)
        s[k - 1] = 1.0
        if k >= 2:
            s[k - 2] = -1.0
        C = T0 + np.outer(s, m1) + np.outer(m1, s) + e2 * np.outer(s, s)
        C *= self.n * self.params.dH
        C = 0.5 * (C + C.T)  # exact symmetry (BLAS products are symmetric only to 1 ulp)
        np.fill_diagonal(C, 0.0)
        C.setflags(write=False)
        return C

    def table_matrix(self, m: int) -> np.ndarray:
        """Cumulative coefficient matrix c_ij(m), zero-padded to (n, n).

        Sums the uncached ``delta_table`` increments, O(m^3) per call: the
        path of the exact finite-n laws and of the direct generator, which
        cross-check the factorised panel pass.
        """
        C = np.zeros((self.n, self.n))
        for k in range(1, m + 1):
            C[:k, :k] += self.delta_table(k)
        return C

    # -- fBm coefficients ----------------------------------------------------

    def fbm_matrix(self) -> np.ndarray:
        """kappa[m-1, i-1] = n int_{cell_i} K(m/n, s) ds, lower triangular (n, n).

        Uses K(t, s) = int_s^t dK(a, s) da, so row m accumulates the same
        panel integrals int_panel G_i da that drive the weight tables.  Built
        on every call, O(n^2 nodes).
        """
        n = self.n
        T = np.zeros((n, n))
        row = np.zeros(n)
        for k in range(1, n + 1):
            p = self.panel(k)
            base = (p["A_gl"] * p["w_gl"]).sum(axis=1)
            e1 = float(np.sum(p["wR"]))
            base[k - 1] += e1
            if k >= 2:
                base[k - 2] -= e1
            row[:k] += base
            T[k - 1] = n * row
        T.setflags(write=False)
        return T

    # -- quadratic-form increments for path generation -----------------------

    def quadratic_increments(self, xi: np.ndarray, unit_squares: bool) -> np.ndarray:
        """Increments Z(k/n) - Z((k-1)/n) of the off-diagonal quadratic form.

        xi has shape (M, n); column k - 1 of the result is the panel-k
        increment of every row.  Passing unit_squares=True (Rademacher noise)
        skips the xi^2 reduction.  Rows go through in slabs of 512 and
        panels in blocks of 16, three GEMMs per slab and block at most.
        """
        M, n = xi.shape
        if n != self.n:
            raise DomainError(f"noise length {n} does not match grid {self.n}")
        # the Gaussian squared-noise GEMMs need A_gl^2; squared per call, not
        # kept: it would double what the engine holds
        A_sq = [None if unit_squares else t["A_gl"] ** 2 for t in self._blocks]
        out = np.empty((M, n))
        for r in range(0, M, _SLAB):
            x = np.zeros((min(_SLAB, M - r), n + 1))
            x[:, 1:] = xi[r: r + _SLAB]
            x2 = None if unit_squares else x ** 2
            for t, t_sq in zip(self._blocks, A_sq):
                lo, K = t["lo"], t["A_gl"].shape[0]
                out[r: r + _SLAB, lo - 1: K] = self._increments(
                    t, x[:, : K + 1], None if x2 is None else x2[:, : K + 1], t_sq)
        return out

    def branch_increments(self, x: np.ndarray) -> np.ndarray:
        """Step-k increments, k = 1..len(x)+1, of the Rademacher prefix
        x[:k-1] continued by xi_k = +1 (row 0) and by xi_k = -1 (row 1).

        The increment is affine in xi_k (the quadratic form has no diagonal),
        so column k - 1 is (f + g, f - g) of the split f_{k-1} + xi_k g_{k-1}.
        One pass over the panel blocks, with the bits of
        ``quadratic_increments`` on the noise whose xi_k is set.  Both rows
        carry the whole prefix x; only xi_k differs.  Row k - 1 of panel k's
        A_gl / A_j1 is zero (cell k has no Abar part), so panel k reads
        xi_1..xi_{k-1} from x and xi_k only as ``cur``, which is +1 in row 0
        and -1 in row 1 for every panel.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size >= self.n:
            raise DomainError(f"prefix must be one-dimensional and shorter than {self.n}")
        if not np.all(np.abs(x) == 1.0):
            raise DomainError("branch increments need a Rademacher (+-1) prefix")
        xs = np.zeros((2, self.n + 1))
        xs[:, 1: x.size + 1] = x
        out = np.empty((2, self.n))
        for t in self._blocks:
            lo, K = t["lo"], t["A_gl"].shape[0]
            out[:, lo - 1: K] = self._increments(t, xs[:, : K + 1], None, None, _BRANCHES)
        return out[:, : x.size + 1]

    def _increments(self, t: dict, x: np.ndarray, x2: np.ndarray | None,
                    A_sq: np.ndarray | None, cur: np.ndarray | None = None) -> np.ndarray:
        """Increments of the consecutive panels of block t for each row of x,
        shape (M, panels).

        x has shape (M, K + 1), K the last panel of t, with column i holding
        xi_i and column 0 the absent xi_0 = 0; x2 is its square and A_sq the
        square of t["A_gl"], both None for unit squares.  cur, if given,
        replaces xi_k of every panel k of t; it must broadcast against
        (M, panels).  The sum over pairs i != j <= k of xi_i xi_j
        int_panel G_i G_j is expanded through the Abar/E split, so it costs
        O(M k nodes) flops per panel.
        """
        M = x.shape[0]
        B, nodes = t["wR"].shape
        lo = t["lo"]
        prev = x[:, lo - 1: lo - 1 + B]
        if cur is None:
            cur = x[:, lo: lo + B]
        S = _matmul(x[:, 1:], t["A_gl"]).reshape(M, B, nodes)
        if x2 is None:
            Qd, sq = t["Qd"], 1.0
        else:
            Qd = _matmul(x2[:, 1:], A_sq).reshape(M, B, nodes)
            sq = x2[:, lo - 1: lo - 1 + B, None]
        # in place, but in the operation order of ((S*S - Qd) * w_gl).sum()
        # + (2 * (xs*S1 + sq*row) * wR).sum() - 2 xi_k xi_{k-1} e2 with
        # xs = xi_k - xi_{k-1}: the order fixes every bit of the result
        S *= S
        S -= Qd
        S *= t["w_gl"]
        part = S.sum(axis=2)
        S1 = _matmul(x[:, 1:], t["A_j1"]).reshape(M, B, nodes)
        S1 *= (cur - prev)[:, :, None]
        S1 += sq * t["row"]
        S1 *= 2.0
        S1 *= t["wR"]
        part += S1.sum(axis=2)
        part -= 2.0 * (cur * prev) * t["e2"]
        return self.n * self.params.dH * part


_ENGINES: dict[tuple, VolterraEngine] = {}
_ENGINES_LOCK = threading.Lock()


def get_engine(n: int, p: HurstParams) -> VolterraEngine:
    """Shared engine cache keyed by what the engine reads: (n, H)."""
    key = (n, p.H)
    with _ENGINES_LOCK:
        eng = _ENGINES.get(key)
        if eng is None:
            eng = VolterraEngine(n, p)
            _ENGINES[key] = eng
    return eng


# ---------------------------------------------------------------------------
# assembled tables
# ---------------------------------------------------------------------------

@dataclass
class WeightTable:
    """Symmetric coefficient table c_ij(m) on an n-grid, zero diagonal."""

    n: int
    m: int
    H: float
    coeffs: np.ndarray


def weight_table(m: int, n: int, p: HurstParams) -> WeightTable:
    """Full coefficient table at time index m via the factorised panel assembly."""
    if not 1 <= m <= n:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}")
    coeffs = get_engine(n, p).table_matrix(m)
    coeffs.setflags(write=False)
    return WeightTable(n=n, m=m, H=p.H, coeffs=coeffs)
