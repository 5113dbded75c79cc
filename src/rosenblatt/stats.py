"""Statistical verification of the simulated process laws.

Monte Carlo moment estimates are compared against two reference levels: the
continuum law of the limit process (variance t^2H, covariance
(t^2H + s^2H - |t-s|^2H)/2, increment variance |t-s|^2H at grid-snapped
times) and the exact finite-n law of the walk itself, which for the
off-diagonal quadratic form is 2 sum_{i != j} c_ij^2 and its increment
analogue.  The finite-n values converge to the continuum slowly (the deficit
decays like n^(H-1)), so estimator correctness is always gated on the exact
discrete value while reports carry both.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernel import DomainError, HurstParams, get_engine
from .paths import GridPath, PathEnsemble, ProcessTag, grid_index

# resamples behind the skewness standard error
_BOOTSTRAP = 200


@dataclass
class MomentReport:
    """One estimated moment with its uncertainty and reference values.

    `theoretical` is the continuum-law target at grid-snapped times;
    `discrete` is the exact finite-n expectation when one is available (the
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
        if self.sample_size < 2:
            raise DomainError("need at least two samples")

    def within(self, k: float) -> bool:
        """|estimate - ref| <= k * std_error, ref the exact discrete value or,
        failing that, the continuum one; a zero-variance estimate passes only
        when it equals ref."""
        ref = self.discrete if self.discrete is not None else self.theoretical
        if ref is None:
            return True
        return abs(self.estimate - ref) <= k * self.std_error


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


def _mean_se(x: np.ndarray) -> float:
    """Standard error s / sqrt(M) of a sample mean (its delete-one jackknife)."""
    return float(np.std(x, ddof=1) / np.sqrt(x.size))


# ---------------------------------------------------------------------------
# exact finite-n laws of the quadratic-form walk
# ---------------------------------------------------------------------------

def discrete_increment_variance(n: int, s: float, t: float, p: HurstParams) -> float:
    """Exact E|Z(t) - Z(s)|^2 = 2 sum_{i != j} (c_ij(mt) - c_ij(ms))^2."""
    ms, mt = sorted((grid_index(n, s), grid_index(n, t)))
    eng = get_engine(n, p)
    D = eng.table_matrix(mt) - (eng.table_matrix(ms) if ms else 0.0)
    return float(2.0 * np.sum(D * D))


def discrete_variance(n: int, t: float, p: HurstParams) -> float:
    """Exact Var Z(t) of the walk, the closed form 2 sum_{i != j} c_ij(m)^2."""
    return discrete_increment_variance(n, 0.0, t, p)


def discrete_covariance(n: int, s: float, t: float, p: HurstParams) -> float:
    """Exact E[Z(s) Z(t)] = 2 sum_{i != j} c_ij(ms) c_ij(mt)."""
    ms, mt = grid_index(n, s), grid_index(n, t)
    if ms == 0 or mt == 0:
        return 0.0
    eng = get_engine(n, p)
    return float(2.0 * np.sum(eng.table_matrix(ms) * eng.table_matrix(mt)))


def _discrete_reference(ens: PathEnsemble, quantity: str, s: float, t: float) -> float | None:
    p, n = ens.params, ens.n
    ms, mt = grid_index(n, s), grid_index(n, t)
    if ens.process_tag is ProcessTag.ROSENBLATT:
        if quantity == "increment":
            return discrete_increment_variance(n, s, t, p)
        return discrete_covariance(n, s, t, p)
    if ens.process_tag is ProcessTag.FBM:
        T = get_engine(n, p).fbm_matrix()
        def cov(a, b):
            if a == 0 or b == 0:
                return 0.0
            k = min(a, b)
            return float(np.dot(T[a - 1, :k], T[b - 1, :k]) / n)
        if quantity == "increment":
            return cov(mt, mt) - 2 * cov(ms, mt) + cov(ms, ms)
        return cov(ms, mt)
    # the plain walk hits its continuum law exactly
    if quantity == "increment":
        return abs(mt - ms) / n
    return min(ms, mt) / n


# ---------------------------------------------------------------------------
# Monte Carlo reports
# ---------------------------------------------------------------------------

def increment_variance(ens: PathEnsemble, s: float, t: float) -> MomentReport:
    """E|Z(t) - Z(s)|^2 with the standard error of the mean.

    The continuum target is |floor(nt)/n - floor(ns)/n|^(2H); a zero-width
    snapped increment is flagged, not an error.  Symmetric in (s, t).
    """
    n = ens.n
    s, t = sorted((s, t))
    d = ens.values_at(t) - ens.values_at(s)
    sq = d * d
    expo = 2 * ens.hurst_index
    ms, mt = grid_index(n, s), grid_index(n, t)
    theo = abs(mt / n - ms / n) ** expo
    note = None
    if mt == ms:
        note = "degenerate: s and t snap to the same grid point"
    return MomentReport(
        quantity="increment_variance",
        estimate=float(sq.mean()),
        std_error=_mean_se(sq),
        sample_size=ens.count,
        theoretical=theo,
        discrete=_discrete_reference(ens, "increment", s, t),
        note=note,
    )


def covariance(ens: PathEnsemble, s: float, t: float) -> MomentReport:
    """E[Z(s) Z(t)] against (t^2H + s^2H - |t-s|^2H)/2 at grid-snapped times."""
    n = ens.n
    prod = ens.values_at(s) * ens.values_at(t)
    expo = 2 * ens.hurst_index
    sg, tg = grid_index(n, s) / n, grid_index(n, t) / n
    theo = 0.5 * (tg ** expo + sg ** expo - abs(tg - sg) ** expo)
    return MomentReport(
        quantity="covariance",
        estimate=float(prod.mean()),
        std_error=_mean_se(prod),
        sample_size=ens.count,
        theoretical=theo,
        discrete=_discrete_reference(ens, "covariance", s, t),
    )


def skewness(ens: PathEnsemble, t: float) -> MomentReport:
    """Standardized third moment of the marginal at t, with the standard error
    of _BOOTSTRAP bootstrap resamples."""
    if ens.count < 100:
        raise DomainError("skewness needs at least 100 paths")
    x = ens.values_at(t)
    def skew(v):
        c = v - v.mean()
        m2 = np.mean(c * c)
        return np.mean(c ** 3) / m2 ** 1.5
    rng = np.random.Generator(np.random.Philox(key=(ens.master_seed ^ 0xB007B007) & ((1 << 64) - 1)))
    reps = np.empty(_BOOTSTRAP)
    for b in range(_BOOTSTRAP):
        reps[b] = skew(x[rng.integers(0, x.size, x.size)])
    theo = None if ens.process_tag is ProcessTag.ROSENBLATT else 0.0
    return MomentReport(
        quantity="skewness",
        estimate=float(skew(x)),
        std_error=float(np.std(reps, ddof=1)),
        sample_size=ens.count,
        theoretical=theo,
    )


def quadratic_variation(path: GridPath, t: float = 1.0) -> float:
    """[Z]_t = sum of squared grid jumps up to floor(n t)/n; sign-flip invariant."""
    d = np.diff(path.values[: grid_index(path.n, t) + 1])
    return float(np.dot(d, d))


@dataclass
class QvDecayFit:
    """Least-squares slope of log E[QV]_1 against log n across grid sizes."""

    slope: float
    intercept: float
    sizes: list[int]
    means: list[float]
    std_errors: list[float]


def qv_decay(ensembles: list[PathEnsemble]) -> QvDecayFit:
    """Fit the decay exponent of the mean quadratic variation at t = 1.

    Refuses fewer than three grid sizes.
    """
    if len(ensembles) < 3:
        raise DomainError("qv_decay needs at least three grid sizes")
    sizes, means, ses = [], [], []
    for ens in ensembles:
        d = np.diff(ens.values, axis=1)
        qv = (d * d).sum(axis=1)
        sizes.append(ens.n)
        means.append(float(qv.mean()))
        ses.append(_mean_se(qv))
    slope, intercept = np.polyfit(np.log(sizes), np.log(means), 1)
    return QvDecayFit(slope=float(slope), intercept=float(intercept),
                      sizes=sizes, means=means, std_errors=ses)


def histogram(ens: PathEnsemble, t: float, bins: int) -> Histogram:
    """Equal-width histogram of the marginal at t spanning the sample range."""
    if bins < 2:
        raise DomainError("need at least 2 bins")
    x = ens.values_at(t)
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(x, bins=bins, range=(lo, hi))
    return Histogram(bin_edges=edges, counts=counts, total=x.size)

