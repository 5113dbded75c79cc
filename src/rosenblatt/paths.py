"""Coupled random walks on the grid t_m = m/n, m = 0..n.

Three processes share one noise sequence xi_1..xi_n:

    walk        W(m/n) = sum_{i<=m} xi_i / sqrt(n)
    fbm         B(m/n) = sum_{i<=m} [n int_{cell_i} K(m/n, s) ds] xi_i / sqrt(n)
    rosenblatt  Z(m/n) = sum_{i != j <= m} c_ij(m) xi_i xi_j

Paths are cadlag step functions between grid points.  The Rosenblatt walk has
two generators: the fast factorised one accumulates, per grid panel, the
square of the running kernel-weighted noise sum at shared quadrature nodes
(O(n^2) per path); the direct one evaluates the quadratic form against the
full weight table at every step and serves as the brute-force oracle.

Ensemble member k draws its noise from Philox keyed by derive_seed(master, k).
``simulate_ensemble`` keeps one Philox generator per ensemble and, before each
row, resets it to the state a fresh ``Philox(key=...)`` starts in (key
[seed, 0], counter 0, empty output buffer, no cached 32-bit half), which skips
the per-row construction cost; ``make_noise`` builds the fresh generator and
is the oracle the reused one is tested against.

An ensemble is streamed: its noise is drawn one slab of 512 rows (``_SLAB``)
at a time, each slab runs through the walk (for the Rosenblatt walk, one call
of the engine's ``quadratic_increments`` pass) and is summed straight into
its rows of the preallocated (M, n + 1) values, and only then is the next
slab drawn.  So the values are the only (M, .) array an ensemble ever holds
whole; no (M, n) noise or increment matrix exists.  No row's bits depend on
the slab it went through.  The drawn rows are read-only, and coarsening
shares them: a coarsened ensemble holds no matrix of its own, but scales
what it reads of the drawn rows (a column, a slab of rows, or all of them),
so a command that reads several grids off one draw holds one (M, .) array.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .kernel import DomainError, HurstParams, _matmul, get_engine


class NoiseKind(str, Enum):
    RADEMACHER = "rademacher"
    GAUSSIAN = "gaussian"


class ProcessTag(str, Enum):
    WALK = "walk"
    FBM = "fbm"
    ROSENBLATT = "rosenblatt"


# Noise rows per slab of an ensemble, which is drawn, passed and summed one
# slab at a time: the slab bounds both the pass's GEMM temporaries and the
# noise held at once to a few MiB.  No row's bits depend on its slab.
_SLAB = 512

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    """One splitmix64 output step; the documented stream-splitting primitive."""
    state = (state + _GOLDEN) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Seed of ensemble member `index`: splitmix64(master + (index+1) * golden)."""
    return _splitmix64((master_seed + (index + 1) * _GOLDEN) & _MASK)


@dataclass(frozen=True)
class NoiseSequence:
    """Reproducible i.i.d. mean-zero unit-variance driving noise."""

    kind: NoiseKind
    seed: int
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.size


def require_addressable(*shape: int) -> None:
    """MemoryError, not numpy's ValueError, for a float array of this shape
    whose bytes exceed the address space, as for one beyond free memory."""
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"an array of shape {shape} exceeds the address space")


def _draw(rng: np.random.Generator, kind: NoiseKind, n: int) -> np.ndarray:
    if kind is NoiseKind.RADEMACHER:
        return rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
    return rng.standard_normal(n)


def make_noise(n: int, kind: NoiseKind | str, seed: int) -> NoiseSequence:
    """Draw xi_1..xi_n from a counter-based generator (Philox) keyed by seed."""
    if n < 1:
        raise DomainError(f"noise length must be positive, got {n}")
    kind = NoiseKind(kind)
    require_addressable(n)
    values = _draw(np.random.Generator(np.random.Philox(key=seed & _MASK)), kind, n)
    values.setflags(write=False)
    return NoiseSequence(kind=kind, seed=seed, values=values)


def grid_index(n: int, t: float) -> int:
    """Index floor(n t) of the grid point at or before t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    return int(np.floor(n * t))


@dataclass
class GridPath:
    """One simulated path at grid times m/n, values[0] = 0, cadlag off-grid."""

    n: int
    values: np.ndarray
    process_tag: ProcessTag

    def __post_init__(self):
        if self.values.shape != (self.n + 1,):
            raise DomainError("GridPath needs n+1 values")
        if self.values[0] != 0.0:
            raise DomainError("paths start at 0")

    def value_at(self, t: float) -> float:
        """Step interpolation matching the floor(n t)/n time convention."""
        return float(self.values[grid_index(self.n, t)])


@dataclass(frozen=True)
class PathEnsemble:
    """M paths sharing (n, process, noise kind); row k uses derive_seed(seed, k).

    ``drawn`` holds the paths as drawn, (M, drawn_n + 1) and read-only: on
    grid n itself, or on the finer grid ``drawn_n`` of the ensemble that
    ``coarsen`` read this one off.  A coarsened ensemble shares those rows
    and copies nothing: ``values``, ``values_at`` and ``slabs`` read the
    first n + 1 columns and scale what they read by (drawn_n / n)^h.  The
    exact-law references read the engine of ``drawn_n``, so a coarsened
    ensemble needs no engine of its own.  Frozen, so n cannot part from the
    rows: a changed copy is made with ``dataclasses.replace``.
    """

    drawn: np.ndarray           # (M, drawn_n + 1)
    n: int
    process_tag: ProcessTag
    kind: NoiseKind
    master_seed: int
    params: HurstParams | None = None

    def __post_init__(self):
        # coarsened ensembles share these rows, so none may write to them
        drawn = self.drawn.view()
        drawn.flags.writeable = False
        object.__setattr__(self, "drawn", drawn)

    @property
    def drawn_n(self) -> int:
        """The grid the paths were drawn on."""
        return self.drawn.shape[1] - 1

    @property
    def count(self) -> int:
        return self.drawn.shape[0]

    def _read(self, rows: slice, cols: slice | int) -> np.ndarray:
        """``drawn[rows, cols]`` on grid n: the drawn rows themselves when n is
        the drawn grid, else a new array of them times (drawn_n / n)^h."""
        part = self.drawn[rows, cols]
        if self.n == self.drawn_n:
            return part
        return (self.drawn_n / self.n) ** self.hurst_index * part

    @property
    def values(self) -> np.ndarray:
        """The (M, n + 1) paths on grid n; a coarsened ensemble scales them
        from the drawn rows on every read."""
        return self._read(slice(None), slice(None, self.n + 1))

    @property
    def paths(self):
        for row in self.values:
            yield GridPath(n=self.n, values=row, process_tag=self.process_tag)

    def values_at(self, t: float) -> np.ndarray:
        """Every path's value at t, snapped to floor(n t)/n like ``GridPath.value_at``."""
        return self._read(slice(None), grid_index(self.n, t))

    def slabs(self) -> Iterator[np.ndarray]:
        """``values`` in order, ``_SLAB`` rows at a time, so a reader of every
        row of a coarsened ensemble holds one scaled slab at once."""
        for r in range(0, self.count, _SLAB):
            yield self._read(slice(r, r + _SLAB), slice(None, self.n + 1))

    @property
    def hurst_index(self) -> float:
        """Self-similarity index h of the limit process: H for rosenblatt, the
        kernel index Hp for fbm, 1/2 for the walk."""
        if self.process_tag is ProcessTag.ROSENBLATT:
            return self.params.H
        if self.process_tag is ProcessTag.FBM:
            return self.params.Hp
        return 0.5

    def coarsen(self, n: int) -> "PathEnsemble":
        """The same seeds' ensemble on the coarser grid m/n, 1 <= n <= self.n.

        The walks are discretely self-similar: the noise is prefix-consistent
        (a row's first n values do not depend on its length), and every grid-n
        coefficient, the 1/sqrt(n) of walk and fbm included, is n^(-h) times
        one that does not depend on n.  So Z_n(m/n) = (N/n)^h Z_N(m/N) for
        m <= n, and the result equals a direct draw on grid n to a few ulp.
        The result shares the drawn rows and copies nothing; it scales them
        where it reads them, once, from ``drawn_n``, so coarsening a coarsened
        ensemble gives the one-step result, within an ulp of scaling twice.
        """
        if not 1 <= n <= self.n:
            raise DomainError(f"coarser grid must lie in 1..{self.n}, got {n}")
        if n == self.n:
            return self
        return replace(self, n=n)


# ---------------------------------------------------------------------------
# path generation
# ---------------------------------------------------------------------------

def _walks(slabs: Iterable[np.ndarray], count: int, n: int, kind: NoiseKind,
           p: HurstParams | None, process_tag: ProcessTag) -> np.ndarray:
    """Paths driven by the noise rows of ``slabs``, (count, n + 1), column 0 zero.

    The slabs, each (rows, n), hold the count noise rows in order; each goes
    through the walk and is summed into its rows of the result before the
    next is read, so only the result is ever whole.  The Rosenblatt walk
    calls the engine's ``quadratic_increments`` once per slab; ``fbm_matrix``
    is built once, not per slab.  Each row's bits depend neither on its slab
    nor on count (``cumsum`` runs along the row, and ``_matmul`` and the
    panel pass keep rows apart), so a single path is the one-row case.
    """
    require_addressable(count, n + 1)
    values = np.zeros((count, n + 1))
    if process_tag is ProcessTag.FBM:
        T = get_engine(n, p).fbm_matrix()
    elif process_tag is ProcessTag.ROSENBLATT:
        eng = get_engine(n, p)
    r = 0
    for x in slabs:
        rows = values[r: r + x.shape[0], 1:]
        r += x.shape[0]
        if process_tag is ProcessTag.FBM:
            np.divide(_matmul(x, T.T), np.sqrt(n), out=rows)
        elif process_tag is ProcessTag.ROSENBLATT:
            np.cumsum(eng.quadratic_increments(x, kind is NoiseKind.RADEMACHER),
                      axis=1, out=rows)
        else:
            np.cumsum(x, axis=1, out=rows)
            rows /= np.sqrt(n)
    return values


def _single(noise: NoiseSequence, p: HurstParams | None, process_tag: ProcessTag) -> GridPath:
    values = _walks([noise.values[None, :]], 1, noise.n, noise.kind, p, process_tag)[0]
    return GridPath(n=noise.n, values=values, process_tag=process_tag)


def random_walk(noise: NoiseSequence) -> GridPath:
    """Rescaled simple random walk W(m/n) = sum_{i<=m} xi_i / sqrt(n)."""
    return _single(noise, None, ProcessTag.WALK)


def fbm_walk(noise: NoiseSequence, p: HurstParams) -> GridPath:
    """Kernel-disturbed walk converging to fBm with Hurst index p.Hp."""
    return _single(noise, p, ProcessTag.FBM)


def rosenblatt_walk(noise: NoiseSequence, p: HurstParams,
                    method: str = "factorized") -> GridPath:
    """Off-diagonal quadratic-form walk converging to the Rosenblatt process.

    method="factorized" streams panel increments; method="direct" evaluates
    xi' C(m) xi against the full weight table at every grid time (the
    brute-force oracle, O(n^3) kernel work), sweeping C(m) forward by one
    ``delta_table`` per step.
    """
    if method == "factorized":
        return _single(noise, p, ProcessTag.ROSENBLATT)
    if method != "direct":
        raise DomainError(f"unknown method {method!r}")
    n = noise.n
    eng = get_engine(n, p)
    values = np.zeros(n + 1)
    x = noise.values
    C = np.zeros((n, n))
    for m in range(1, n + 1):
        C[:m, :m] += eng.delta_table(m)
        values[m] = x @ C @ x
    return GridPath(n=n, values=values, process_tag=ProcessTag.ROSENBLATT)


def _noise_slabs(count: int, master_seed: int, kind: NoiseKind,
                 n: int) -> Iterator[np.ndarray]:
    """The count noise rows, (rows, n) slabs of ``_SLAB`` rows, drawn lazily.

    Row k is ``make_noise(n, kind, derive_seed(master_seed, k)).values`` bit
    for bit, drawn from one generator reset per row.
    """
    rng = np.random.Generator(np.random.Philox(key=0))
    fresh = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, np.uint64), "key": None},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for r in range(0, count, _SLAB):
        xi = np.empty((min(_SLAB, count - r), n))
        for k, row in enumerate(xi, r):
            fresh["state"]["key"] = (derive_seed(master_seed, k), 0)
            rng.bit_generator.state = fresh
            row[:] = _draw(rng, kind, n)
        yield xi


def simulate_ensemble(count: int, master_seed: int, kind: NoiseKind | str,
                      p: HurstParams | None, process_tag: ProcessTag | str,
                      n: int) -> PathEnsemble:
    """count independent paths; member k is seeded by derive_seed(master_seed, k).

    Row k is driven by ``make_noise(n, kind, derive_seed(master_seed,
    k)).values`` bit for bit.  The noise is drawn, passed through the walk
    and summed one slab of ``_SLAB`` rows at a time, so besides the (count,
    n + 1) values the ensemble holds one slab's noise and increments, never
    a (count, n) matrix.
    """
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    if n < 1:
        raise DomainError(f"grid size n must be at least 1, got {n}")
    kind = NoiseKind(kind)
    process_tag = ProcessTag(process_tag)
    if process_tag is not ProcessTag.WALK and p is None:
        raise DomainError("fbm and rosenblatt ensembles need Hurst parameters")
    values = _walks(_noise_slabs(count, master_seed, kind, n), count, n, kind, p,
                    process_tag)
    return PathEnsemble(drawn=values, n=n, process_tag=process_tag, kind=kind,
                        master_seed=master_seed, params=p)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def ensemble_to_csv(ens: PathEnsemble, path: str | Path) -> None:
    """Long-format CSV: header path_id,m,t,value; one row per path per grid time.

    Every number is its shortest round-trip repr; each path is one write,
    its lines built from the cached ",m,t," middles.
    """
    n = ens.n
    middles = [f",{m},{m / n!r}," for m in range(n + 1)]
    with open(path, "w") as fh:
        fh.write("path_id,m,t,value\n")
        for k, row in enumerate(ens.values):
            fh.write("".join([f"{k}{mid}{v!r}\n"
                              for mid, v in zip(middles, row.tolist())]))


def ensemble_metadata(ens: PathEnsemble) -> dict:
    return {
        "H": None if ens.params is None else ens.params.H,
        "n": ens.n,
        "M": ens.count,
        "kind": ens.kind.value,
        "seed": ens.master_seed,
        "process": ens.process_tag.value,
    }


def write_json(path: str | Path, payload: dict) -> None:
    """The one JSON layout of every file the package writes: sorted keys,
    two-space indent, trailing newline; strict JSON, so a NaN or an infinity
    raises ValueError before anything is written."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def write_ensemble(ens: PathEnsemble, csv_path: str | Path) -> list[str]:
    """CSV plus its JSON metadata sidecar; returns the files written."""
    csv_path = Path(csv_path)
    ensemble_to_csv(ens, csv_path)
    meta_path = csv_path.with_suffix(csv_path.suffix + ".meta.json")
    write_json(meta_path, ensemble_metadata(ens))
    return [str(csv_path), str(meta_path)]
