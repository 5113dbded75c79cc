"""Coupled random walks on the grid t_m = m/n, m = 0..n.

Three processes share one noise sequence xi_1..xi_n, each defined in one
place, its record ``ProcessTag.form`` (a ``WalkForm``), whose form the draw
applies and every exact law reads; nothing else branches on the process:

    walk        W(m/n) = sum_{i<=m} xi_i / sqrt(n)
    fbm         B(m/n) = sum_{i<=m} [n int_{cell_i} K(m/n, s) ds] xi_i / sqrt(n)
    rosenblatt  Z(m/n) = sum_{i != j <= m} c_ij(m) xi_i xi_j

A path is one row of n + 1 grid values, cadlag between grid points; a noise
is one row of n values.  The Rosenblatt walk sums the engine's panel
increments (O(n^2) per path), the noise picking the pass; it never forms
the full weight table.  The fbm walk reads ``kernel.fbm_matrix``, no engine.

Ensemble member k draws its noise from Philox keyed by derive_seed(master, k).
``path_slabs`` keeps one Philox generator per ensemble and, before each
row, resets it to the state a fresh ``Philox(key=...)`` starts in (key
[seed, 0], counter 0, empty output buffer, no cached 32-bit half), which skips
the per-row construction cost; ``make_noise`` builds the fresh generator and
is the oracle the reused one is tested against.

Paths are generated one slab of 128 rows (``_SLAB``) at a time by the one
generator ``path_slabs``: each slab's noise is drawn and run through the
walk (for the Rosenblatt walk, one call of the engine's
``quadratic_increments``), and only then is the next slab drawn.  No (M, n)
noise or increment matrix exists, and no row's bits depend on the slab it
went through (``cumsum`` runs along rows, ``_matmul`` and the panel pass
keep them apart).  A reader that needs only some numbers of each path
(``stats.reduce_slabs``, the CSV writer) takes the slabs as they come and
holds no (M, .) array at all; ``simulate_ensemble`` copies them into one
read-only (M, n + 1) array.  Many paths are that array (or its slabs) plus
the ``WalkLaw`` of their grid, and a coarser grid is read off them by
``scale_to_grid``, which scales only what it is given (a column, a slab of
rows, or all of them).
"""
from __future__ import annotations

import errno
import json
import math
import shutil
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .kernel import DomainError, HurstParams, _matmul, _padded, fbm_matrix, get_engine


class NoiseKind(str, Enum):
    """Law of the driving noise: fair +-1 signs or standard Gaussians."""

    RADEMACHER = "rademacher"
    GAUSSIAN = "gaussian"


class ProcessTag(str, Enum):
    """Which walk a path is: the simple walk, the fbm walk or the Rosenblatt walk."""

    WALK = "walk"
    FBM = "fbm"
    ROSENBLATT = "rosenblatt"

    @property
    def form(self) -> WalkForm:
        """The walk's ``WalkForm``, the one place it is defined."""
        return _FORMS[self]


# Noise rows per slab of an ensemble, which is drawn, passed and summed one
# slab at a time: the slab bounds the noise, GEMM temporaries, increments and
# paths held at once.  No row's bits depend on its slab.  128 is the knee of
# a sweep over 512 / 256 / 128 / 64 / 32 rows (2-vCPU Xeon, OpenBLAS):
# validate's pass (5000 Gaussian paths, n = 256) peaks at 7.6 / 4.0 / 2.1 /
# 1.2 / 0.8 MiB traced, and the command at 75.6 / 71.5 / 70.1 / 70.2 /
# 70.4 MiB RSS; below 128 rows the per-slab Python work costs time (warm
# pass, median of 9: Gaussian n = 256, 5000 paths 0.214 / 0.236 / 0.208 /
# 0.247 / 0.305 s; Rademacher n = 128, 10 000 paths 0.438 / 0.389 / 0.378 /
# 0.425 / 0.459 s).
_SLAB = 128

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


def require_addressable(*shape: int) -> None:
    """MemoryError, not numpy's ValueError, for a float array of this shape
    whose bytes exceed the address space, as for one beyond free memory."""
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"an array of shape {shape} exceeds the address space")


def _draw(rng: np.random.Generator, kind: NoiseKind, n: int) -> np.ndarray:
    if kind is NoiseKind.RADEMACHER:
        return rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
    return rng.standard_normal(n)


def make_noise(n: int, kind: NoiseKind | str, seed: int) -> np.ndarray:
    """xi_1..xi_n, a read-only (n,) array drawn from a counter-based generator
    (Philox) keyed by seed."""
    if n < 1:
        raise DomainError(f"noise length must be positive, got {n}")
    kind = NoiseKind(kind)
    require_addressable(n)
    xi = _draw(np.random.Generator(np.random.Philox(key=seed & _MASK)), kind, n)
    xi.setflags(write=False)
    return xi


def grid_index(n: int, t: float) -> int:
    """Index of the grid point at or before t in [0, 1]: the largest m in
    0..n whose grid time m / n, as the CSV writes it, is at most t.

    floor(n t) rounds the product first, so it can land one step off (n = 100,
    t = 0.29 gives 28, though 29 / 100 == 0.29); one step corrects it.
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    m = math.floor(n * t)
    if m < n and (m + 1) / n <= t:
        return m + 1
    if m > 0 and m / n > t:
        return m - 1
    return m


def scale_to_grid(part: np.ndarray, N: int, n: int, h: float) -> np.ndarray:
    """``part`` of paths drawn on grid N, read on the grid n <= N: a new array
    of it times (N / n)^h (exactly 1.0 when n = N, keeping ``part``'s bits).

    The walks are discretely self-similar: the noise is prefix-consistent (a
    row's first n values do not depend on its length), and every grid-n
    coefficient, the 1/sqrt(n) of walk and fbm included, is n^(-h) times one
    that does not depend on n.  So Z_n(m/n) = (N/n)^h Z_N(m/N) for m <= n,
    and the first n + 1 columns of a grid-N draw, scaled, equal a direct draw
    on grid n to a few ulp.  This is the one place a grid is read off a
    finer draw.
    """
    return (N / n) ** h * part


def _simple_form(N: int, p: HurstParams | None) -> tuple:
    return (1 / N, lambda m: (np.arange(N) < m) * 1.0,
            lambda x: np.cumsum(x, axis=1) / np.sqrt(N))


def _fbm_form(N: int, p: HurstParams) -> tuple:
    T = fbm_matrix(N, p)
    # the copy ``_matmul`` would make of T.T for every slab, made once
    Tt = _padded(T.T)
    return (1 / N, lambda m: T[m - 1] if m else np.zeros(N),
            lambda x: _matmul(x, Tt)[:, :N] / np.sqrt(N))


def _rosenblatt_form(N: int, p: HurstParams) -> tuple:
    eng = get_engine(N, p)
    return 2.0, eng.table_matrix, lambda x: np.cumsum(eng.quadratic_increments(x), axis=1)


class WalkForm(NamedTuple):
    """One process's walk: is its form ``quadratic`` in the noise (else
    linear), the self-similarity ``index(p)`` of its limit, how its own Hurst
    index becomes ``HurstParams`` (None: the walk reads none), and its form
    on grid N, ``read(N, p)`` = (c, A, paths): the coefficients A(m) at grid
    point m with their scale c (``stats.discrete_moment``), and paths(x),
    the values at grid points 1..N of (rows, N) noise x of one kind.
    """

    quadratic: bool
    index: Callable[[HurstParams | None], float]
    from_hurst: Callable[[float], HurstParams] | None
    read: Callable[[int, HurstParams | None], tuple]


_FORMS = {
    ProcessTag.WALK: WalkForm(False, lambda p: 0.5, None, _simple_form),
    ProcessTag.FBM: WalkForm(False, lambda p: p.Hp, HurstParams.from_kernel_hurst, _fbm_form),
    ProcessTag.ROSENBLATT: WalkForm(True, lambda p: p.H, HurstParams, _rosenblatt_form),
}


@dataclass(frozen=True)
class WalkLaw:
    """What the exact law of a walk on grid n depends on besides its paths.

    ``drawn_n`` >= n is the grid the paths were drawn on: the exact references
    read its engine at the grid-n times, so a grid read off a finer draw
    needs no engine of its own.  ``process_tag`` may be given as its string
    value, as to ``path_slabs``; it is stored as the ``ProcessTag``.
    """

    process_tag: ProcessTag
    params: HurstParams | None
    n: int
    drawn_n: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "process_tag", ProcessTag(self.process_tag))
        except ValueError as exc:
            raise DomainError(f"unknown process {self.process_tag!r}") from exc
        if self.process_tag.form.from_hurst is not None and self.params is None:
            raise DomainError(f"{self.process_tag.value} ensembles need Hurst parameters")
        if not 1 <= self.n <= self.drawn_n:
            raise DomainError(f"grid size n must be at least 1 and at most the drawn "
                              f"grid {self.drawn_n}, got {self.n}")

    @property
    def hurst_index(self) -> float:
        """Self-similarity index h of the limit process, the record's ``index``."""
        return self.process_tag.form.index(self.params)


# ---------------------------------------------------------------------------
# path generation
# ---------------------------------------------------------------------------

def _noise_slabs(count: int, master_seed: int, kind: NoiseKind,
                 n: int) -> Iterator[np.ndarray]:
    """The count noise rows, (rows, n) slabs of ``_SLAB`` rows, drawn lazily.

    Row k is ``make_noise(n, kind, derive_seed(master_seed, k))`` bit for
    bit, drawn from one generator reset per row.
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


def path_slabs(count: int, master_seed: int, kind: NoiseKind | str,
               p: HurstParams | None, process_tag: ProcessTag | str,
               n: int) -> Iterator[np.ndarray]:
    """count independent paths on grid n, yielded in row order as new (rows,
    n + 1) slabs of ``_SLAB`` rows (the last one partial), each drawn and run
    through the walk's form, read once, when the one before it has been taken
    (module docstring).  Row k is driven by ``make_noise(n, kind,
    derive_seed(master_seed, k))`` bit for bit.  The arguments are checked
    when this is called; the grid, the process and its parameters by ``WalkLaw``.
    """
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    kind = NoiseKind(kind)
    law = WalkLaw(process_tag, p, n, n)
    require_addressable(min(count, _SLAB), n + 1)
    *_, paths = law.process_tag.form.read(n, p)
    return (np.pad(paths(x), ((0, 0), (1, 0)))
            for x in _noise_slabs(count, master_seed, kind, n))


def simulate_ensemble(count: int, master_seed: int, kind: NoiseKind | str,
                      p: HurstParams | None, process_tag: ProcessTag | str,
                      n: int) -> np.ndarray:
    """The ``path_slabs`` paths held whole, a read-only (count, n + 1) array:
    each slab is copied into its rows as it comes, so besides the array the
    draw costs one slab at a time."""
    slabs = path_slabs(count, master_seed, kind, p, process_tag, n)
    require_addressable(count, n + 1)
    values = np.empty((count, n + 1))
    r = 0
    for slab in slabs:
        values[r: r + slab.shape[0]] = slab
        r += slab.shape[0]
    values.setflags(write=False)
    return values


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def ensemble_metadata(count: int, master_seed: int, kind: NoiseKind | str,
                      p: HurstParams | None, process_tag: ProcessTag | str,
                      n: int) -> dict:
    """The metadata of the ensemble these ``path_slabs`` arguments draw; "H"
    is the process's own index (``WalkLaw.hurst_index``), None for the walk."""
    law = WalkLaw(process_tag, p, n, n)
    return {
        "H": None if law.process_tag.form.from_hurst is None else law.hurst_index,
        "n": n,
        "M": count,
        "kind": NoiseKind(kind).value,
        "seed": master_seed,
        "process": law.process_tag.value,
    }


def write_json(path: str | Path, payload: dict) -> None:
    """The one JSON layout of every file the package writes: sorted keys,
    two-space indent, trailing newline; strict JSON, so a NaN or an infinity
    raises ValueError before anything is written."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


# Bytes of the shortest CSV line, "k,m,t,v\n" with a one-digit path id and
# grid index and three-character reprs ("0.0") of t and the value.
_MIN_CSV_LINE = 12


def write_ensemble(slabs: Iterable[np.ndarray], meta: dict, csv_path: str | Path) -> None:
    """Long-format CSV of the paths in ``slabs``, (rows, n + 1) arrays in row
    order, of the ensemble ``meta`` (``ensemble_metadata``) describes: header
    path_id,m,t,value; one row per path per grid time.

    Every number is its shortest round-trip repr; each path is one write, its
    lines built from the slab's ",m,t," middles, and a slab is written before
    the next is asked for, so no memory bound stops an ensemble too large to
    write.  Hence a CSV that could not fit in the free space of its directory
    (at least ``_MIN_CSV_LINE`` bytes per line) is refused before it is opened.
    """
    need = _MIN_CSV_LINE * meta["M"] * (meta["n"] + 1)
    free = shutil.disk_usage(Path(csv_path).absolute().parent).free
    if need > free:
        raise OSError(errno.ENOSPC, f"the CSV of {meta['M']} paths on grid {meta['n']} "
                      f"needs at least {need} bytes; {free} are free", str(csv_path))
    k = 0
    with open(csv_path, "w") as fh:
        fh.write("path_id,m,t,value\n")
        for slab in slabs:
            n = slab.shape[1] - 1
            middles = [f",{m},{m / n!r}," for m in range(n + 1)]
            for row in slab:
                fh.write("".join([f"{k}{mid}{v!r}\n"
                                  for mid, v in zip(middles, row.tolist())]))
                k += 1
