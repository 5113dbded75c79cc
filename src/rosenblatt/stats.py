"""Statistical verification of the simulated process laws.

Monte Carlo moment estimates are compared against two reference levels: the
continuum law of the limit process (variance t^2H, covariance
(t^2H + s^2H - |t-s|^2H)/2, increment variance |t-s|^2H at grid-snapped
times) and the exact finite-n law of the walk itself, ``discrete_moment``.
At grid point m each walk is a form A(m) in its noise with a scale c (1/N
if linear, 2 if quadratic), both read off the one place a walk is defined,
its ``paths.WalkForm``, so for independent unit-variance noise

    increment  E|X(t) - X(s)|^2 = c sum (A(mt) - A(ms))^2
    covariance E[X(s) X(t)]     = c sum A(ms) A(mt)

times (N/n)^(2h) for grid n read off a draw on grid N.  The finite-n values
converge to the continuum slowly (over n = 128 .. 512 the deficit
1 - 2 sum c^2 falls like n^-0.21 at H = 0.6 and n^-0.25 at H = 0.8, not
n^(H-1)), so estimator correctness is always gated on the exact discrete
value while reports carry both.

The Monte Carlo reports take per-path samples, one number per path (its
value at a time, or its quadratic variation on a grid), plus the
``WalkLaw`` their exact references need; none takes a path matrix.
``reduce_slabs`` reads those samples off an ensemble's slabs in one pass as
they are generated, so ``validate`` holds O(M) numbers, never the (M, N + 1)
paths.
"""
from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from statistics import linear_regression

import numpy as np

from .kernel import DomainError
from .paths import WalkLaw, grid_index, require_addressable, scale_to_grid

# resamples behind the skewness standard error
_BOOTSTRAP = 200
# Rounding, in eps |ref|, that ``MomentReport.within`` allows beyond k SE: a
# sample with no spread has an SE of 0 or below one ulp, and its mean and the
# exact sum round differently.  Over such samples (variance and covariance of
# walk and fbm, Hp = 0.8 and 0.9, at grid point 1 of n = 2..64, and of the
# Rosenblatt walk, H = 0.6 and 0.8, at grid point 2 of 4; M = 2..160 and up
# to 20 000 Rademacher paths) |estimate - ref| / (eps |ref|) reached 4.62.
_ROUNDING = 8


@dataclass
class MomentReport:
    """One estimated moment with its uncertainty and reference values.

    `theoretical` is the continuum-law target at grid-snapped times;
    `discrete` is the exact finite-n value when one is available (the
    correct gate for estimator checks).
    """

    quantity: str
    estimate: float
    std_error: float
    sample_size: int
    theoretical: float | None = None
    discrete: float | None = None
    note: str | None = None

    def __post_init__(self):
        if self.std_error < 0:
            raise DomainError("std_error must be nonnegative")
        require_samples(self.sample_size)

    def within(self, k: float) -> bool:
        """|estimate - ref| <= k * std_error + _ROUNDING * eps * |ref|, ref the
        exact discrete value or else the continuum one, so a zero-variance
        estimate passes if it equals ref up to rounding; refuses a report with neither."""
        ref = self.discrete if self.discrete is not None else self.theoretical
        if ref is None:
            raise DomainError(f"{self.quantity} report has no reference value")
        return (abs(self.estimate - ref)
                <= k * self.std_error + _ROUNDING * sys.float_info.epsilon * abs(ref))


@dataclass
class Histogram:
    """Equal-width marginal histogram; counts conserve the sample size."""

    bin_edges: np.ndarray
    counts: np.ndarray
    total: int

    def __post_init__(self):
        if not np.all(np.diff(self.bin_edges) > 0):
            raise DomainError("bin edges must be strictly increasing")
        if int(self.counts.sum()) != self.total:
            raise DomainError("histogram counts must sum to the sample size")

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            fh.write("bin_left,bin_right,count\n")
            for lo, hi, c in zip(self.bin_edges[:-1], self.bin_edges[1:], self.counts):
                fh.write(f"{float(lo)!r},{float(hi)!r},{int(c)}\n")


# the sizes a report refuses: ``validate`` checks its flags by them before the draw

def require_samples(count: int) -> None:
    """Refuses fewer than two samples, whose s has no degrees of freedom."""
    if count < 2:
        raise DomainError("need at least two samples")


def require_skewness_paths(count: int) -> None:
    """Refuses fewer than 100 paths, too few for the bootstrap SE of a skewness."""
    if count < 100:
        raise DomainError("skewness needs at least 100 paths")


def require_qv_sizes(sizes: Sequence[int]) -> None:
    """Refuses fewer than three distinct grid sizes: one gives no slope, and a
    line through two points fits them exactly whatever the decay.  Refuses a
    repeated grid size too, which would weigh that grid twice in the fit."""
    if len(set(sizes)) < 3:
        raise DomainError("qv_decay needs at least three distinct grid sizes")
    if len(set(sizes)) < len(sizes):
        raise DomainError(f"qv_decay grid sizes must not repeat, got {sizes}")


def require_bins(bins: int) -> None:
    """Refuses fewer than two bins, more edges than memory can address, and,
    where the platform reports its physical memory, more bins than it holds
    at 16 bytes each (an edge and a count)."""
    if bins < 2:
        raise DomainError("need at least 2 bins")
    require_addressable(bins + 1)
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    if 0 < memory < 16 * (bins + 1):
        raise MemoryError(f"{bins} bins need {16 * (bins + 1)} bytes, more than physical "
                          "memory holds")


def _mean_se(x: np.ndarray) -> float:
    """Standard error s / sqrt(M) of a sample mean (its delete-one jackknife)."""
    require_samples(x.size)
    return float(np.std(x, ddof=1) / np.sqrt(x.size))


# ---------------------------------------------------------------------------
# exact finite-n laws: every exact second moment is discrete_moment
# ---------------------------------------------------------------------------

def _coefficients(law: WalkLaw) -> tuple:
    """The scale c of the walk of ``law`` and its coefficients at a time, the
    function t -> A(m) for m the grid-n index of t, both read on
    ``law.drawn_n``, the grid the paths were drawn on."""
    c, A, _ = law.process_tag.form.read(law.drawn_n, law.params)
    return c, lambda t: A(grid_index(law.n, t))


def discrete_moment(law: WalkLaw, quantity: str, s: float, t: float) -> float:
    """Exact finite-n "increment" variance E|X(t) - X(s)|^2 or "covariance"
    E[X(s) X(t)] of the walk of ``law`` at the grid-snapped s and t.

    The formula of the module docstring: c sum (A(mt) - A(ms))^2 or
    c sum A(ms) A(mt), with c and A the walk's form read on ``law.drawn_n``,
    the grid the paths were drawn on, at the grid-n indices, and scaled by
    (N/n)^(2h), h the process's self-similarity index (discrete
    self-similarity, as in ``scale_to_grid``); paths drawn on grid n itself
    have N = n and a factor of exactly 1.  Symmetric in s and t bit for bit.
    """
    if quantity not in ("increment", "covariance"):
        raise DomainError(f"quantity must be 'increment' or 'covariance', got {quantity!r}")
    c, at = _coefficients(law)
    As, At = at(s), at(t)
    scale = (law.drawn_n / law.n) ** (2 * law.hurst_index)
    if quantity == "increment":
        D = At - As
        return scale * float(c * np.sum(D * D))
    return scale * float(c * np.sum(As * At))


# ---------------------------------------------------------------------------
# per-path samples, read in one pass
# ---------------------------------------------------------------------------

def _jump_square_sums(rows: np.ndarray) -> np.ndarray:
    """Each row's sum of squared grid jumps; its temporaries die on return,
    before the next slab is read."""
    d = np.diff(rows, axis=1)
    d *= d
    return d.sum(axis=1)


def reduce_slabs(slabs: Iterable[np.ndarray], count: int, law: WalkLaw,
                 columns: Sequence[int], sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The per-path samples the reports read, in one pass over count paths.

    ``slabs`` holds the paths drawn on grid ``law.drawn_n`` in row order,
    (rows, drawn_n + 1) each.  Returns the values on grid ``law.n`` at the
    grid-n indices ``columns``, one row per index, and, for each grid in
    ``sizes``, every path's sum of squared jumps up to t = 1, one row per
    grid.  Each is scaled by ``scale_to_grid``, so they are the bits read off
    the whole (count, drawn_n + 1) matrix of the same draw.  A slab is done
    with once its rows are filled, so the pass holds these
    (len(columns) + len(sizes), count) numbers and one slab.
    """
    if any(not 1 <= nn <= law.drawn_n for nn in sizes):
        raise DomainError(f"qv grid sizes must be at least 1 and at most the drawn grid "
                          f"{law.drawn_n}, got {list(sizes)}")
    require_addressable(len(columns) + len(sizes), count)
    values = np.empty((len(columns), count))
    qv = np.empty((len(sizes), count))
    h, N = law.hurst_index, law.drawn_n
    r = 0
    for slab in slabs:
        rows = slice(r, r + slab.shape[0])
        r += slab.shape[0]
        for out, m in zip(values, columns):
            out[rows] = scale_to_grid(slab[:, m], N, law.n, h)
        for out, nn in zip(qv, sizes):
            out[rows] = _jump_square_sums(scale_to_grid(slab[:, : nn + 1], N, nn, h))
    return values, qv


# ---------------------------------------------------------------------------
# Monte Carlo reports
# ---------------------------------------------------------------------------

def increment_variance(zs: np.ndarray, zt: np.ndarray, s: float, t: float,
                       law: WalkLaw) -> MomentReport:
    """E|Z(t) - Z(s)|^2 with the standard error of the mean, from every
    path's values zs at s and zt at t on grid ``law.n``.

    The continuum target is |floor(nt)/n - floor(ns)/n|^(2H); a zero-width
    snapped increment is flagged, not an error.  Every field is symmetric in
    (s, zs) and (t, zt) bit for bit.
    """
    n = law.n
    d = zt - zs
    sq = d * d
    expo = 2 * law.hurst_index
    ms, mt = grid_index(n, s), grid_index(n, t)
    theo = abs(mt / n - ms / n) ** expo
    note = None
    if mt == ms:
        note = "degenerate: s and t snap to the same grid point"
    return MomentReport(
        quantity="increment_variance",
        estimate=float(sq.mean()),
        std_error=_mean_se(sq),
        sample_size=sq.size,
        theoretical=theo,
        discrete=discrete_moment(law, "increment", s, t),
        note=note,
    )


def covariance(zs: np.ndarray, zt: np.ndarray, s: float, t: float,
               law: WalkLaw) -> MomentReport:
    """E[Z(s) Z(t)] against (t^2H + s^2H - |t-s|^2H)/2 at grid-snapped times,
    from every path's values zs at s and zt at t on grid ``law.n``."""
    n = law.n
    prod = zs * zt
    expo = 2 * law.hurst_index
    sg, tg = grid_index(n, s) / n, grid_index(n, t) / n
    theo = 0.5 * (tg ** expo + sg ** expo - abs(tg - sg) ** expo)
    return MomentReport(
        quantity="covariance",
        estimate=float(prod.mean()),
        std_error=_mean_se(prod),
        sample_size=prod.size,
        theoretical=theo,
        discrete=discrete_moment(law, "covariance", s, t),
    )


def _discrete_skewness(law: WalkLaw, t: float) -> float | None:
    """Exact finite-n skewness kappa3 / kappa2^(3/2) of the walk of ``law`` at
    the grid-snapped t; None at a point mass (kappa2 = 0), whose skewness is 0/0.

    Read off the walk's form A = A(m) with its scale c, on the drawn grid
    (the ratio does not change with the grid's scaling): kappa2 = c sum A^2.
    A linear form in symmetric noise has kappa3 = 0.  The quadratic form
    xi' A xi, A symmetric with a zero diagonal, has kappa3 = E[(xi' A xi)^3]
    = 8 tr(A^3) for +-1 and Gaussian noise alike: only products whose index
    pairs close a triangle of three distinct cells have a nonzero mean, 1.
    """
    c, at = _coefficients(law)
    a = at(t)
    k2 = c * float(np.sum(a * a))
    if k2 == 0.0:
        return None
    k3 = 8.0 * float(np.sum((a @ a) * a)) if law.process_tag.form.quadratic else 0.0
    return k3 / k2 ** 1.5


def skewness(x: np.ndarray, t: float, law: WalkLaw, seed: int) -> MomentReport:
    """Standardized third moment of every path's value x at t on grid
    ``law.n``, with the standard error of _BOOTSTRAP bootstrap resamples
    drawn from Philox keyed by seed, against the exact ``_discrete_skewness``."""
    require_skewness_paths(x.size)
    theo = None if law.process_tag.form.quadratic else 0.0
    exact = _discrete_skewness(law, t)
    if np.ptp(x) == 0.0:
        # every sample, and so every resample, is the same value (the
        # Rosenblatt walk is 0 on grid point 1): the standardised moment
        # would be 0/0
        return MomentReport(quantity="skewness", estimate=0.0, std_error=0.0,
                            sample_size=x.size, theoretical=theo, discrete=exact,
                            note="degenerate: every sample has the same value")
    def skew(v):
        # c^3 as c^2 * c: a power of the whole array would run libm pow per entry
        c = v - v.mean()
        c2 = c * c
        return np.mean(c2 * c) / np.mean(c2) ** 1.5
    rng = np.random.Generator(np.random.Philox(key=(seed ^ 0xB007B007) & ((1 << 64) - 1)))
    reps = np.empty(_BOOTSTRAP)
    for b in range(_BOOTSTRAP):
        reps[b] = skew(x[rng.integers(0, x.size, x.size)])
    return MomentReport(
        quantity="skewness",
        estimate=float(skew(x)),
        std_error=float(np.std(reps, ddof=1)),
        sample_size=x.size,
        theoretical=theo,
        discrete=exact,
    )


@dataclass
class QvDecayFit:
    """Least-squares slope of log E[QV]_1 against log n across grid sizes."""

    slope: float
    intercept: float
    sizes: list[int]
    means: list[float]
    std_errors: list[float]


def qv_decay(sums: Iterable[tuple[int, np.ndarray]]) -> QvDecayFit:
    """Fit the decay exponent of the mean quadratic variation at t = 1 from
    (grid size, every path's QV on that grid) pairs.

    Refuses the sizes ``require_qv_sizes`` refuses, and a grid whose mean QV
    is not positive, which has no logarithm (the Rosenblatt walk on grid 1
    has no off-diagonal pair, so its QV is exactly 0).
    """
    sizes, means, ses = [], [], []
    for n, qv in sums:
        sizes.append(n)
        means.append(float(qv.mean()))
        ses.append(_mean_se(qv))
    require_qv_sizes(sizes)
    for n, mean in zip(sizes, means):
        if not mean > 0.0:
            raise DomainError(f"qv_decay needs a positive mean QV, got {mean} on grid {n}")
    fit = linear_regression(np.log(sizes), np.log(means))
    return QvDecayFit(fit.slope, fit.intercept, sizes, means, ses)


def histogram(x: np.ndarray, bins: int) -> Histogram:
    """Equal-width histogram of the marginal sample x spanning its range
    (numpy widens the range of a point mass to its value -+ 0.5)."""
    require_bins(bins)
    counts, edges = np.histogram(x, bins=bins, range=(float(x.min()), float(x.max())))
    return Histogram(bin_edges=edges, counts=counts, total=x.size)
