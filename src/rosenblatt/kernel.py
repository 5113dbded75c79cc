"""Singular Volterra kernels of the Rosenblatt construction.

The fractional Brownian kernel and its time derivative, for 1/2 < Hp < 1,

    K(t, s)  = c(Hp) * s^(1/2-Hp) * int_s^t (u-s)^(Hp-3/2) u^(Hp-1/2) du
    dK(t, s) = c(Hp) * (s/t)^(1/2-Hp) * (t-s)^(Hp-3/2)

drive the symmetric two-variable kernel (Hp = (H+1)/2)

    F(t, u, v) = d(H) * 1{u<t} 1{v<t} * int_{max(u,v)}^t dK(a, u) dK(a, v) da

whose grid-cell integrals c_ij(m) = n * iint_{cell_i x cell_j} F(m/n, u, v)
are the quadratic-form coefficients of the approximating walk.

The cell integrals have one evaluation order here: the time integral
outermost, factorised through the one-dimensional cell integrals
g_i(a) = int_{cell_i} dK(a, u) du, which reduce to regularized incomplete
beta functions.  Per grid panel the integrands split into an analytic part
plus (a - panel_left)^alpha times an analytic part (alpha = Hp - 1/2), so one
Gauss-Legendre and two Gauss-Jacobi node families integrate every product at
spectral accuracy.  The Gauss-Jacobi nodes are scipy's rule with the
eigenvalues taken from numpy's LAPACK (``_roots_jacobi``), so no command
imports scipy.linalg.  K, dK and F are never evaluated at a point; the
suite's oracles do that, in other evaluation orders.

The panel tables are built in blocks of 16 consecutive panels (16 nodes per
family, ``_NODES``), each a zero-padded (K, 16 * nodes) matrix whose rows are
the cells i <= K of the block's last panel, so a pass runs one GEMM per block
where it would run sixteen thin ones; the zero rows add exact zeros.  The
blocks are built on a thread pool, one worker per usable CPU, largest block
first, and each reader builds of a block only the node families it reads,
one at a time (``_table``): the build is mostly incomplete beta evaluations,
which release the GIL, one call per family table on the whole table, with
each edge past a panel's own cells read as Ix(1) = B so that its rows
difference to exact zeros, plus the small endpoint factors (``_wR``,
``_e2``); and each block is computed on its own, so no table depends on the
worker count or on the order blocks finish in.  ``_Panels`` builds the
tables and runs the +-1 pass, a Gauss-Legendre half (``_gl_half``) and a
Gauss-Jacobi half (``_j1_half``), in a per-node operation order that fixes
the bits of the Rademacher ensembles and of the market's branch pass, which
gives the up and the down branch of every step of each noise prefix
(``branch_increments``).
The branch pass runs each prefix once through the first half on a block's
A_gl, drops it, builds the block's A_j1 and runs the second half once per
branch sign; the fbm walk's matrix (``fbm_matrix``) builds A_gl alone, so a
worker of either holds one table at a time and neither keeps an engine.
``VolterraEngine`` keeps every block of the Rosenblatt walk, read-only, built
on first read: one engine per (n, H) is shared by its path generator and
statistics, and the exact-law references of an ensemble coarsened from grid
N read grid N's engine and rescale by discrete self-similarity.  Only the
engine runs the Gaussian pass, on noise that is not all +-1
(``quadratic_increments``): the Gauss-Legendre product alone is squared and
weighed by one GEMM against a block-diagonal weight matrix, and the cross
and squared-noise terms, linear in their tables, read node contractions made
once per block, in the worker that built it, which the exact-law matrices
and the per-panel oracles read too.  Only the +-1 pass reads a block's A_j1
node by node; what that means for the kept blocks is ``_blocks``'s rule.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import special


# Panels per stacked block of node tables, nodes per panel of each
# Gauss-Legendre / Gauss-Jacobi family, and the inner-dimension chunk and
# column multiple of ``_matmul``.
_BLOCK = 16
_NODES = 16
_KCHUNK = 256
_NPAD = 16


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
    is a transposed view or whose width is not a multiple of the BLAS column
    unroll, so such a b is first copied by ``_padded`` (the fbm walk pads its
    matrix once); the panel blocks, 16 * nodes wide, skip the copy.
    """
    if a.shape[0] == 1:
        return _matmul(np.repeat(a, 2, axis=0), b)[:1]
    cols = b.shape[1]
    if cols % _NPAD or b.strides[1] != b.itemsize:
        return _matmul(a, _padded(b))[:, :cols]
    out = a[:, :_KCHUNK] @ b[:_KCHUNK]
    for lo in range(_KCHUNK, a.shape[1], _KCHUNK):
        out += a[:, lo: lo + _KCHUNK] @ b[lo: lo + _KCHUNK]
    return out


def _padded(b: np.ndarray) -> np.ndarray:
    """b copied as ``_matmul`` reads it: row-major, zero columns to a multiple of 16."""
    out = np.zeros((b.shape[0], -(-b.shape[1] // _NPAD) * _NPAD))
    out[:, : b.shape[1]] = b
    return out


def _node_sum(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_q A[i, q] w[q] over the nodes q of each panel, shape (rows, panels).

    A holds the node columns of consecutive panels side by side (a block's
    tables or one panel's slice); w broadcasts against (panels, nodes).
    """
    return (A.reshape(A.shape[0], -1, _NODES) * w).sum(axis=2)


def _signs(lo: int, B: int, K: int) -> np.ndarray:
    """(K, B), column j the s_k of panel k = lo + j: +1 at row k-1, -1 at row k-2."""
    S = np.zeros((K + 1, B))  # row 0 takes panel 1's -1, which has no row
    S[lo + np.arange(B), np.arange(B)] = 1.0
    S[lo - 1 + np.arange(B), np.arange(B)] = -1.0
    return S[1:]


def _subdiagonal(T: np.ndarray, lo: int) -> np.ndarray:
    """Row k - 2 of panel k's columns of a block table T from panel lo, one row
    per panel (row 0, a zero, for panel 1): A_j1's is row, m1's is diag."""
    K, B = T.shape[0], T.shape[0] - lo + 1
    return T.reshape(K, B, -1)[np.maximum(np.arange(lo - 2, K - 1), 0), np.arange(B)]


def _column_squares(A: np.ndarray) -> np.ndarray:
    """Qd, the column sums of A^2 of each panel of a block table A, (panels,
    nodes): with xi_i^2 = 1 the squared-noise term of the +-1 pass
    (``_gl_half``).  The rows of a panel's column slice past its own cells
    are exact zeros, so one contraction over all rows sums each panel's."""
    return np.einsum("ij,ij->j", A, A).reshape(-1, _NODES)


def _gram(v: dict) -> np.ndarray:
    """Unscaled panel Gram sum of a block, or a cut of one, in ``panel``'s
    layout: A W A^T + S M1^T + M1 S^T + S diag(e2) S^T, with A the A_gl
    columns, W the w_gl of each panel, S the panels' ``_signs`` and M1 their
    stored m1 = sum_q wR A_j1; one GEMM [A W | S | M1 | S e2] @ [A | M1 | S | S]^T.
    """
    A, M1 = v["A_gl"], v["m1"]
    K, B = A.shape[0], v["e2"].size
    S = _signs(v["lo"], B, K)
    AW = (A.reshape(K, B, _NODES) * v["w_gl"]).reshape(K, -1)
    return np.hstack([AW, S, M1, S * v["e2"]]) @ np.hstack([A, M1, S, S]).T


class DomainError(ValueError):
    """Argument outside the mathematical domain of a kernel quantity."""


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
# factorised panel machinery
# ---------------------------------------------------------------------------

class _Panels:
    """The panel quadrature of the grid t_m = m/n on [0, 1] at index H.

    Per panel k the one-dimensional cell integrals G_i(a) split as
    Abar_i(a) + s_i E(a), where E(a) = int_{(k-1)/n}^a dK(a, u) du carries the
    whole (a - (k-1)/n)^alpha endpoint behavior and s = (0, .., 0, -1, +1).
    Everything is evaluated through the incomplete beta closed form

        int_{u1}^{u2} dK(a, u) du
            = cHp a^(Hp-1/2) [Ix(u2/a) - Ix(u1/a)],
        Ix(x) = B(3/2-Hp, Hp-1/2) betainc(3/2-Hp, Hp-1/2, x).

    Construction sets only the node rules and constants.  ``_table`` builds
    one node family's difference table of 16 consecutive panels, ``_wR`` and
    ``_e2`` their endpoint factors, ``_map`` hands every block's panel range
    to a function that builds what it reads, and ``_gl_half`` and
    ``_j1_half`` are the two halves of the +-1 pass of noise rows through a
    block, which read one table each; ``branch_increments`` runs the second
    once per branch sign on one result of the first and keeps nothing else.
    This class holds nothing of the Gaussian pass, which ``VolterraEngine``
    runs on the contractions it keeps.
    """

    def __init__(self, n: int, p: HurstParams):
        if n < 1:
            raise DomainError(f"grid resolution must be positive, got {n}")
        self.n = n
        self.params = p
        self._alpha = p.Hp - 0.5
        self._c1 = 1.5 - p.Hp
        self._B = float(special.beta(self._c1, self._alpha))
        self._gl = np.polynomial.legendre.leggauss(_NODES)
        self._j1 = _roots_jacobi(_NODES, self._alpha)
        self._j2 = _roots_jacobi(_NODES, 2 * self._alpha)
        self._w_gl = 0.5 / n * self._gl[1]
        self._w_gl.setflags(write=False)

    # -- panels --------------------------------------------------------------

    def _nodes(self, lo: int, last: int, rule) -> tuple:
        """Left ends (B, 1) of panels lo..last, the nodes a (B, nodes) of the
        node family rule on each, and the prefactor cHp a^alpha."""
        left = (np.arange(lo - 1, last) / self.n)[:, None]
        a = left + 0.5 / self.n * (rule[0] + 1.0)
        return left, a, self.params.cHp * a ** self._alpha

    def _table(self, lo: int, last: int, rule) -> np.ndarray:
        """The difference table of panels lo..last on the nodes of one family,
        rule = ``self._gl`` (A_gl) or ``self._j1`` (A_j1), frozen.

        One incomplete beta call builds the whole table in place.  It first
        holds the arguments (i/n)/a of every cell edge i < K at every node a
        of the block; rows i >= k - 1 of panel k's column slice are set to
        1.0, where Ix(1) = B exactly, so after the differences of consecutive
        rows row k - 2 holds B - Ix((k-2)/n / a) and every row from k - 1 down
        is an exact zero.  Every temporary is one row per panel or a column of
        edges, so the build holds nothing the size of a table beside the one
        it returns.
        """
        nodes, al = _NODES, self._alpha
        _, a, pref = self._nodes(lo, last, rule)
        A = np.empty((last, a.size))
        np.divide(np.arange(last)[:, None] / self.n, a.reshape(-1), out=A)
        for j, k in enumerate(range(lo, last + 1)):
            A[k - 1:, j * nodes: (j + 1) * nodes] = 1.0
        special.betainc(self._c1, al, A, out=A)
        A *= self._B
        # in place and without a copy: the output starts before the input
        np.subtract(A[1:], A[:-1], out=A[:-1])
        A[-1] = 0.0
        A.reshape(last, -1, nodes)[...] *= pref
        A.setflags(write=False)
        return A

    def _edge(self, lo: int, last: int, rule) -> np.ndarray:
        """R of E(a) = (a - (k-1)/n)^alpha R(a) on the nodes of a Gauss-Jacobi
        family, (B, nodes); one betaincc call keeps it stable near the
        panel's left end."""
        left, a, pref = self._nodes(lo, last, rule)
        al = self._alpha
        return pref * self._B * special.betaincc(self._c1, al, left / a) / (a - left) ** al

    def _wR(self, lo: int, last: int) -> np.ndarray:
        """Jacobi weights times R, the Abar-E cross terms, (B, nodes), frozen."""
        wR = self._j1[1] * (0.5 / self.n) ** (1 + self._alpha) * self._edge(lo, last, self._j1)
        wR.setflags(write=False)
        return wR

    def _e2(self, lo: int, last: int) -> np.ndarray:
        """int_panel E(a)^2 da of panels lo..last on the second Gauss-Jacobi
        family, (B,), frozen."""
        e2 = np.sum(self._j2[1] * (0.5 / self.n) ** (1 + 2 * self._alpha)
                    * self._edge(lo, last, self._j2) ** 2, axis=1)
        e2.setflags(write=False)
        return e2

    def _map(self, use) -> list:
        """[use(lo, last) for the block of every panels lo..last, in panel
        order], run on a thread pool, one worker per usable CPU and at most
        one per block.  use builds what it reads of its block, one node
        family at a time (``_table``, ``_wR``, ``_e2``).  The pool takes the
        blocks largest first (a block's cost grows with its last panel), so no
        worker is left with the largest block while the others idle, and the
        results come back in panel order.  A block reads only the constants
        set by ``__init__``, so its tables are bit-identical to a serial build
        whatever the worker count or the order blocks finish in; a table that
        use does not return is dropped once use is done with it."""
        los = range(1, self.n + 1, _BLOCK)
        with ThreadPoolExecutor(min(_cpus(), len(los))) as pool:
            return list(pool.map(
                lambda lo: use(lo, min(lo + _BLOCK - 1, self.n)), los[::-1]))[::-1]

    def _gl_half(self, t: dict, x: np.ndarray) -> np.ndarray:
        """sum_q w_gl (S_q^2 - Qd_q) of the +-1 pass, from A_gl and Qd.

        The +-1 pass of block t is ``_j1_half(t, x, cur, _gl_half(t, x))``:
        the increments of t's consecutive panels for each +-1 noise row of x,
        shape (M, panels).  x has shape (M, K + 1), K the last panel of t,
        with column i holding xi_i and column 0 the absent xi_0 = 0.  cur is
        the xi_k of every panel k of t: x's own columns lo..K for a path, a
        scalar branch sign for ``branch_increments``.  With xi_i^2 = 1 the sum
        over pairs i != j <= k of xi_i xi_j int_panel G_i G_j is expanded
        through the Abar/E split into sum_q w_gl (S_q^2 - Qd_q) + 2 sum_q wR_q
        ((xi_k - xi_{k-1}) S1_q + xi_{k-1}^2 row_q) - 2 xi_k xi_{k-1} e2, with
        S = x @ A_gl, S1 = x @ A_j1 and Qd the column sums of A_gl^2
        (``_column_squares``), so it costs O(M k nodes) flops per panel.
        Every product goes through ``_matmul``, so no row's bits depend on M.
        The halves read one family's table each, so the branch pass drops a
        block's A_gl before it builds its A_j1, and only the second reads cur.
        """
        S = _matmul(x[:, 1:], t["A_gl"]).reshape(x.shape[0], -1, _NODES)
        # in place, but in the operation order of ((S*S - Qd) * w_gl).sum():
        # the order fixes every bit of the result
        S *= S
        S -= t["Qd"]
        S *= self._w_gl
        return S.sum(axis=2)

    def _j1_half(self, t: dict, x: np.ndarray, cur: np.ndarray | float,
                 part: np.ndarray) -> np.ndarray:
        """n dH (part + the rest of the +-1 pass, ``_gl_half``), from A_j1, wR
        and e2, as a new array; part, ``_gl_half``'s result, is left as it
        is, so the branch pass reads it once per branch sign."""
        M = x.shape[0]
        B, nodes = t["wR"].shape
        lo = t["lo"]
        prev = x[:, lo - 1: lo - 1 + B]
        # in place on S1 and out, but in the operation order of part + (2 *
        # (xs*S1 + row) * wR).sum() - 2 xi_k xi_{k-1} e2 with xs = xi_k - xi_{k-1}
        S1 = _matmul(x[:, 1:], t["A_j1"]).reshape(M, B, nodes)
        S1 *= (cur - prev)[:, :, None]
        S1 += _subdiagonal(t["A_j1"], lo)
        S1 *= 2.0
        S1 *= t["wR"]
        out = part + S1.sum(axis=2)
        out -= 2.0 * (cur * prev) * t["e2"]
        return self.n * self.params.dH * out


class VolterraEngine(_Panels):
    """Every panel table of the grid t_m = m/n on [0, 1] at index H.

    The blocks of 16 consecutive panels are built on first read, not by the
    constructor, and kept.  A block's A_gl / A_j1 tables are one zero-padded
    matrix each, of shape (K, 16 * nodes) with K the block's last panel (a
    last, partial block has fewer columns); panel k fills rows :k of its
    column slice.  Next to them the block holds, one row per panel, the
    weights wR = w_j1 R, the scalar e2 = int_panel E^2 and the column sums of
    A_gl^2, and the node contractions D and m1, made in the worker that built
    it, next to the engine's block-diagonal weights W.
    ``quadratic_increments`` (the ensembles, once per noise slab) multiplies
    its noise rows by whole blocks: the +-1 pass through ``_gl_half`` and
    ``_j1_half``, the Gaussian pass on the contractions and W, which only
    this class holds.  The dense matrices read the blocks too, through one
    ``_gram`` product per block (``table_matrix``) or per ``panel``
    (``delta_table``).  The fbm matrix and the market's branch pass read
    each block once, so they keep none (``fbm_matrix``,
    ``branch_increments``): this class serves the Rosenblatt walk alone.
    Whether the blocks keep A_j1 is ``_blocks``'s rule.

    The tables are read-only and safe to share across readers; acquire an
    engine through ``get_engine``.  No lock guards the first build: readers
    that race it may each build, with identical bits, and the last one's
    blocks are kept.
    """

    def __init__(self, n: int, p: HurstParams):
        super().__init__(n, p)
        # block-diagonal (16 * nodes, 16): w_gl in the node rows of each
        # panel's column; a partial block of B panels reads [:B * nodes, :B]
        self._W = np.kron(np.eye(_BLOCK), self._w_gl[:, None])
        self._W.setflags(write=False)
        self._built = None

    def _block(self, lo: int, last: int, j1: bool) -> dict:
        """The block of panels lo..last, built one node family at a time:
        A_j1 with wR and e2, then m1 = sum_q wR A_j1, and A_j1 is dropped,
        unless j1, before A_gl, its Qd and D = sum_q w_gl A_gl^2 are built."""
        A_j1, wR = self._table(lo, last, self._j1), self._wR(lo, last)
        t = {"lo": lo, "wR": wR, "e2": self._e2(lo, last), "m1": _node_sum(A_j1, wR)}
        if j1:
            t["A_j1"] = A_j1
        del A_j1
        A_gl = self._table(lo, last, self._gl)
        t.update(A_gl=A_gl, Qd=_column_squares(A_gl), D=_node_sum(A_gl ** 2, self._w_gl))
        for key in ("m1", "Qd", "D"):
            t[key].setflags(write=False)
        return t

    def _blocks(self, j1: bool) -> list:
        """Every block, in panel order (``_block``), with A_j1 if j1.

        The one reader of A_j1 is the +-1 pass; every other reader reads its
        contraction m1 alone.  So the blocks keep A_j1 only if the +-1 pass
        is their first reader: otherwise each worker drops A_j1 once m1 is
        made and before it builds A_gl, which halves the kept tables and the
        tables a worker holds.  A +-1 pass that finds blocks without A_j1
        rebuilds every block, with the same bits, and they keep it from then
        on.  The caller gets the blocks it asked for even if a racing build
        replaces them."""
        blocks = self._built
        if blocks is None or (j1 and "A_j1" not in blocks[0]):
            blocks = self._built = self._map(lambda lo, last: self._block(lo, last, j1))
        return blocks

    def panel(self, k: int) -> dict:
        """Read-only views of panel k = [(k-1)/n, k/n] in its block's layout:
        A_gl of shape (k, nodes), m1 of shape (k, 1) and the per-panel
        entries as one row; no A_j1 (``_blocks``)."""
        if not 1 <= k <= self.n:
            raise DomainError(f"panel index must lie in 1..{self.n}, got {k}")
        return self._cut(self._blocks(j1=False)[(k - 1) // _BLOCK], k, k)

    def _cut(self, t: dict, first: int, last: int) -> dict:
        """The views ``_gram`` reads of panels first..last of block t, rows
        :last."""
        j0, j1 = first - t["lo"], last - t["lo"] + 1
        one = {key: t[key][j0: j1] for key in ("Qd", "wR", "e2")}
        return {"lo": first, "A_gl": t["A_gl"][:last, j0 * _NODES: j1 * _NODES],
                "m1": t["m1"][:last, j0: j1], "w_gl": self._w_gl, **one}

    def _scaled(self, G: np.ndarray) -> np.ndarray:
        """n dH G, exactly symmetric (BLAS products are symmetric only to 1 ulp),
        with a zero diagonal; read-only."""
        G *= self.n * self.params.dH
        C = 0.5 * (G + G.T)
        np.fill_diagonal(C, 0.0)
        C.setflags(write=False)
        return C

    def delta_table(self, k: int) -> np.ndarray:
        """Panel increment DeltaC_k[i, j] = n dH int_panel G_i G_j da, (k, k).

        Built on every call, never cached: the per-panel oracle for the panel
        increments and the step of the suite's direct generator.
        """
        return self._scaled(_gram(self.panel(k)))

    def table_matrix(self, m: int) -> np.ndarray:
        """Cumulative coefficient matrix c_ij(m), zero-padded to (n, n).

        One ``_gram`` product per stored block, the block holding panel m cut
        at m; m = 0 gives zeros.  The exact finite-n laws read it.  It reads
        m1, not A_j1 (``_blocks``).
        """
        if not 0 <= m <= self.n:
            raise DomainError(f"need 0 <= m <= n, got m={m}, n={self.n}")
        G = np.zeros((self.n, self.n))
        for t in self._blocks(j1=False)[: -(-m // _BLOCK)]:
            last = min(t["A_gl"].shape[0], m)
            G[:last, :last] += _gram(self._cut(t, t["lo"], last))
        return self._scaled(G)

    # -- quadratic-form increments for path generation -----------------------

    def quadratic_increments(self, xi: np.ndarray) -> np.ndarray:
        """Increments Z(k/n) - Z((k-1)/n) of the off-diagonal quadratic form
        for each row of the (M, n) noise xi, shape (M, n).

        Column k - 1 of the result is the panel-k increment of every row, and
        every stored block runs once over all M rows.  This is the one pass of
        the ensembles, which call it once per noise slab.  The noise picks the
        pass, per call, before anything is allocated: if |xi| = 1 everywhere
        it runs the +-1 pass (``_gl_half``), two GEMMs 16 * nodes wide per
        block, in its per-node operation order, which fixes the bits of the
        Rademacher ensembles and of ``branch_increments``.
        Otherwise it runs the Gaussian pass, the same sum with every node sum
        but the squared one contracted: sum_q w_gl S_q^2 is S^2 @ W with the
        block-diagonal W, the squared-noise terms are x^2 @ D and x_{k-1}^2
        diag, and the cross term is x @ m1, so a block runs one GEMM 16 *
        nodes wide and three 16 wide.  Both give the same sum to within
        rounding.  Every product goes through ``_matmul``, so a row's bits do
        not depend on the other rows of xi when those are of its noise kind
        (a +-1 row stacked with Gaussian rows runs the Gaussian pass).  Only
        the +-1 pass reads A_j1 (``_blocks``).
        """
        n = self.n
        if xi.shape[1] != n:
            raise DomainError(f"noise length {xi.shape[1]} does not match grid {n}")
        unit = bool(np.all(np.abs(xi) == 1.0))
        blocks = self._blocks(j1=unit)
        x = np.zeros((xi.shape[0], n + 1))
        x[:, 1:] = xi
        out = np.empty(xi.shape)
        if unit:
            for t in blocks:
                lo, K = t["lo"], t["A_gl"].shape[0]
                xb = x[:, : K + 1]
                out[:, lo - 1: K] = self._j1_half(t, xb, x[:, lo: K + 1], self._gl_half(t, xb))
            return out
        x2 = x ** 2
        for t in blocks:
            lo, K = t["lo"], t["A_gl"].shape[0]
            prev, cur = x[:, lo - 1: K], x[:, lo: K + 1]
            S = _matmul(x[:, 1: K + 1], t["A_gl"])
            S *= S
            part = _matmul(S, self._W[: S.shape[1], : K - lo + 1])
            part -= _matmul(x2[:, 1: K + 1], t["D"])
            cross = _matmul(x[:, 1: K + 1], t["m1"])
            cross *= cur - prev
            cross += x2[:, lo - 1: K] * _subdiagonal(t["m1"], lo)[:, 0]
            cross *= 2.0
            part += cross
            part -= 2.0 * (cur * prev) * t["e2"]
            out[:, lo - 1: K] = n * self.params.dH * part
        return out


@lru_cache(maxsize=None)
def get_engine(n: int, p: HurstParams) -> VolterraEngine:
    """The one shared engine of (n, H): ``HurstParams`` hashes by H alone.
    It builds no block: the engine's first reader does."""
    return VolterraEngine(n, p)


@lru_cache(maxsize=None)
def fbm_matrix(n: int, p: HurstParams) -> np.ndarray:
    """kappa[m-1, i-1] = n int_{cell_i} K(m/n, s) ds, lower triangular (n, n).

    Uses K(t, s) = int_s^t dK(a, s) da, so row m is the cumulative sum over
    panels k <= m of the panel integrals int_panel G_i da, read per block as
    sum_q w_gl A_gl + s_k sum_q wR in the worker that built the block's
    A_gl, as in ``branch_increments``.  Each block's integrals fill its
    panels' rows of T, which is then summed down the panels in place, in
    panel order.  No engine is built, and of each block only A_gl and wR:
    the fbm walk reads no A_j1 and no e2.  Memoised per (n, H), read-only
    (0.5 MiB at n = 256).
    """
    pan = _Panels(n, p)
    base = pan._map(lambda lo, last: _node_sum(pan._table(lo, last, pan._gl), pan._w_gl)
                    + _signs(lo, last - lo + 1, last) * pan._wR(lo, last).sum(axis=1))
    T = np.zeros((n, n))
    for b in base:
        K, B = b.shape
        T[K - B: K, :K] = b.T
    np.cumsum(T, axis=0, out=T)
    T *= n
    T.setflags(write=False)
    return T


def branch_increments(n: int, p: HurstParams, prefixes: np.ndarray) -> np.ndarray:
    """Step-k increments, k = 1..L+1, on grid n of each Rademacher prefix
    row x of the (P, L) array prefixes, x[:k-1] continued by xi_k = +1
    (out[., 0]) and by xi_k = -1 (out[., 1]); shape (P, 2, L + 1).

    The increment is affine in xi_k (the quadratic form has no diagonal),
    so column k - 1 is (f + g, f - g) of the split f_{k-1} + xi_k g_{k-1}.
    Row k - 1 of panel k's A_gl / A_j1 is zero (cell k has no Abar part), so
    panel k reads xi_1..xi_{k-1} from the prefix and xi_k only as ``cur``,
    which enters after every product.  So each prefix runs once through
    every product, in one streamed pass, a node family at a time: in the
    worker that builds it, each block's A_gl is built, run through the
    Gauss-Legendre half ``_gl_half`` of the +-1 pass for the P prefix rows
    and dropped, and then its A_j1 is built and run through the
    Gauss-Jacobi half twice, with cur = +1 and cur = -1, each reading the
    first half's (P, panels) result.  So a worker holds one table at a time,
    only the results are kept, and no engine is built or cached.  The rows
    are those of ``quadratic_increments`` on the noise whose xi_k is set,
    bit for bit.
    """
    x = np.asarray(prefixes, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] >= n:
        raise DomainError(f"prefixes must be a (P, L) array with P >= 1 and L < {n}")
    if not np.all(np.abs(x) == 1.0):
        raise DomainError("branch increments need Rademacher (+-1) prefixes")
    P, L = x.shape
    xs = np.zeros((P, n + 1))
    xs[:, 1: L + 1] = x
    pan = _Panels(n, p)

    def block(lo: int, last: int) -> np.ndarray:
        xb = xs[:, : last + 1]
        A = pan._table(lo, last, pan._gl)
        part = pan._gl_half({"A_gl": A, "Qd": _column_squares(A)}, xb)
        del A
        t = {"lo": lo, "A_j1": pan._table(lo, last, pan._j1), "wR": pan._wR(lo, last),
             "e2": pan._e2(lo, last)}
        return np.stack([pan._j1_half(t, xb, cur, part) for cur in (1.0, -1.0)], axis=1)

    return np.concatenate(pan._map(block), axis=2)[:, :, : L + 1]
