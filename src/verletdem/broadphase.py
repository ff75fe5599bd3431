"""Candidate-pair generation: uniform linked-cell grid, brute-force oracle,
and the per-particle Verlet-buffer layer.

The buffer inflates each particle's search radius by a skin proportional to
its own speed (``k_factor * |v| * dt``), capped by the cell geometry, and
freezes both the skins and the positions at build time.  The cached pair
list stays valid until some particle's straight-line displacement since the
build exceeds its frozen skin; only then is a new broad-phase required.
The same argument caches, per wall plane, the particles within radius + skin
of it, so the narrow phase tests only those against that wall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .core import (
    Particle, Particles, SimConfig, SimulationError, as_particles, row_norm_sq,
)

__all__ = [
    "CellGrid", "PairList", "VerletState",
    "CapNegative", "SearchRadiusExceedsCell", "SizeMismatch",
    "compute_skin", "build_grid", "linked_cell_pairs", "brute_force_pairs",
    "wall_candidates", "verlet_build", "verlet_needs_rebuild",
]


class CapNegative(SimulationError):
    """cell_size/2 is smaller than a particle cutoff: the grid is invalid."""


class SearchRadiusExceedsCell(SimulationError):
    """A search radius above cell_size/2 would defeat adjacent-cell search."""


class SizeMismatch(SimulationError):
    """Particle count differs from the one the Verlet state was built for."""


_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class PairList:
    """Canonical list of candidate pairs.

    ``pairs`` is an (m, 2) int64 array with id_a < id_b on every row, rows
    sorted lexicographically, no duplicates.  Canonical ordering is the
    determinism contract: equal inputs must give byte-equal pair lists no
    matter how the search iterated internally.
    """

    pairs: np.ndarray

    @classmethod
    def empty(cls) -> "PairList":
        return cls(_EMPTY_PAIRS)

    @classmethod
    def from_pairs(cls, raw) -> "PairList":
        """Canonicalize an arbitrary iterable of index pairs (test helper)."""
        arr = np.asarray(list(raw), dtype=np.int64).reshape(-1, 2)
        return cls(_canonicalize(arr))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return (tuple(row) for row in self.pairs.tolist())

    def __contains__(self, pair) -> bool:
        a, b = (int(pair[0]), int(pair[1]))
        if a > b:
            a, b = b, a
        idx = np.searchsorted(self.keys(), _key(a, b))
        return bool(idx < len(self.pairs) and self.keys()[idx] == _key(a, b))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairList):
            return NotImplemented
        return np.array_equal(self.pairs, other.pairs)

    def keys(self) -> np.ndarray:
        """Sorted scalar keys (a << 32 | b) for fast membership checks."""
        return _keys(self.pairs)

    def issubset(self, other: "PairList") -> bool:
        if len(self) == 0:
            return True
        idx = np.searchsorted(other.keys(), self.keys())
        idx = np.minimum(idx, max(len(other) - 1, 0))
        return bool(len(other)) and bool(np.all(other.keys()[idx] == self.keys()))


def _key(a, b):
    return (np.int64(a) << np.int64(32)) | np.int64(b)


def _keys(pairs: np.ndarray) -> np.ndarray:
    return (pairs[:, 0] << np.int64(32)) | pairs[:, 1]


def _canonicalize(pairs: np.ndarray) -> np.ndarray:
    if len(pairs) == 0:
        return _EMPTY_PAIRS
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keys = np.unique((lo << np.int64(32)) | hi)
    out = np.empty((len(keys), 2), dtype=np.int64)
    out[:, 0] = keys >> np.int64(32)
    out[:, 1] = keys & np.int64(0xFFFFFFFF)
    return out


@dataclass(frozen=True)
class CellGrid:
    """Uniform spatial decomposition of the domain box.

    Particles outside the box are clamped into boundary cells rather than
    rejected: scenario chutes let particles exit and the broad-phase must
    keep working on whatever is left.
    """

    origin: np.ndarray
    cell_size: float
    dims: np.ndarray
    cell_of: np.ndarray = field(repr=False)   # (n,) linear cell index per particle
    order: np.ndarray = field(repr=False)     # particle ids sorted by cell index
    sorted_cells: np.ndarray = field(repr=False)

    @property
    def cells(self) -> dict[int, np.ndarray]:
        """Map linear cell index -> array of resident particle ids."""
        uniq, starts = np.unique(self.sorted_cells, return_index=True)
        bounds = np.append(starts, len(self.sorted_cells))
        return {
            int(c): self.order[bounds[i]:bounds[i + 1]]
            for i, c in enumerate(uniq)
        }

    def coords_of(self, positions: np.ndarray) -> np.ndarray:
        """Clamped integer cell coordinates for an (n, 3) position array."""
        ijk = np.floor((positions - self.origin) / self.cell_size).astype(np.int64)
        return np.clip(ijk, 0, self.dims - 1)

    def linearize(self, ijk: np.ndarray) -> np.ndarray:
        return (ijk[..., 0] * self.dims[1] + ijk[..., 1]) * self.dims[2] + ijk[..., 2]


def compute_skin(p: Particle, k_factor: int, dt: float, cell_size: float) -> float:
    """Skin margin for one particle: min(k * |v| * dt, cell_size/2 - cutoff).

    The first term provisions for ``k_factor`` steps of travel at the
    particle's build-time speed.  The cap keeps the inflated search radius
    within half a cell so that searching the immediate neighbour cells is
    provably sufficient.  Static particles get skin 0.
    """
    cap = 0.5 * cell_size - p.cutoff
    if cap < 0:
        raise CapNegative(
            f"cell_size/2 = {0.5 * cell_size} < cutoff {p.cutoff} of particle {p.id}"
        )
    if p.is_static:
        return 0.0
    speed = float(np.sqrt(np.dot(p.velocity, p.velocity)))
    return min(k_factor * speed * dt, cap)


def _skins(pset: Particles, k_factor: int, dt: float, cell_size: float) -> np.ndarray:
    caps = 0.5 * cell_size - pset.cutoff
    if len(pset) and caps.min() < 0:
        bad = int(np.argmin(caps))
        raise CapNegative(
            f"cell_size/2 = {0.5 * cell_size} < cutoff {pset.cutoff[bad]} of particle {bad}"
        )
    speed = np.sqrt(row_norm_sq(pset.velocity))
    skins = np.minimum(k_factor * speed * dt, caps)
    skins[pset.is_static] = 0.0
    return skins


def build_grid(particles, cfg: SimConfig) -> CellGrid:
    """Decompose the domain into uniform cells and bin every particle."""
    pset = as_particles(particles)
    extent = cfg.domain_max - cfg.domain_min
    dims = np.maximum(np.ceil(extent / cfg.cell_size).astype(np.int64), 1)
    ijk = np.floor((pset.position - cfg.domain_min) / cfg.cell_size).astype(np.int64)
    ijk = np.clip(ijk, 0, dims - 1)
    cell_of = (ijk[:, 0] * dims[1] + ijk[:, 1]) * dims[2] + ijk[:, 2]
    order = np.argsort(cell_of, kind="stable")
    return CellGrid(
        origin=cfg.domain_min.copy(),
        cell_size=float(cfg.cell_size),
        dims=dims,
        cell_of=cell_of,
        order=order,
        sorted_cells=cell_of[order],
    )


# The 13 neighbour offsets whose linearized index is strictly below the home
# cell, plus the home cell handled separately: every unordered cell pair is
# visited exactly once.
_HALF_STENCIL = np.array([
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) < (0, 0, 0)
], dtype=np.int64)


def _ragged_take(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ranges [lo[i], lo[i]+counts[i]) into one index array."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.repeat(lo, counts)
    head = np.concatenate(([0], np.cumsum(counts[:-1])))
    within = np.arange(total, dtype=np.int64) - np.repeat(head, counts)
    return starts + within


def _candidate_pairs(grid: CellGrid, positions: np.ndarray):
    """All particle pairs sharing a cell or sitting in adjacent cells.

    Returns (a_idx, b_idx, n_tested) where n_tested counts every candidate
    pair exactly once.
    """
    n = len(positions)
    if n < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64), 0
    ids = np.arange(n, dtype=np.int64)
    coords = grid.coords_of(positions)
    home = grid.linearize(coords)

    # home cell: id ordering inside the cell keeps each pair once
    lo = np.searchsorted(grid.sorted_cells, home, side="left")
    hi = np.searchsorted(grid.sorted_cells, home, side="right")
    counts = hi - lo
    b_pos = _ragged_take(lo, counts)
    a_idx = np.repeat(ids, counts)
    b_idx = grid.order[b_pos]
    keep = b_idx > a_idx
    a_home, b_home = a_idx[keep], b_idx[keep]

    # all 13 lower-index neighbour offsets in one pass
    nbr = coords[None, :, :] + _HALF_STENCIL[:, None, :]          # (13, n, 3)
    valid = np.all((nbr >= 0) & (nbr < grid.dims), axis=2).ravel()
    ncell = grid.linearize(nbr).ravel()[valid]
    a_all = np.broadcast_to(ids, (len(_HALF_STENCIL), n)).ravel()[valid]
    lo = np.searchsorted(grid.sorted_cells, ncell, side="left")
    hi = np.searchsorted(grid.sorted_cells, ncell, side="right")
    counts = hi - lo
    b_pos = _ragged_take(lo, counts)
    a_nbr = np.repeat(a_all, counts)
    b_nbr = grid.order[b_pos]

    a_idx = np.concatenate([a_home, a_nbr])
    b_idx = np.concatenate([b_home, b_nbr])
    return a_idx, b_idx, len(a_idx)


def _pairs_with_stats(grid: CellGrid, pset: Particles, search_radius: np.ndarray):
    sr = np.asarray(search_radius, dtype=np.float64)
    if sr.ndim == 0:
        sr = np.full(len(pset), float(sr))
    if len(sr) != len(pset):
        raise SizeMismatch(f"{len(sr)} search radii for {len(pset)} particles")
    if len(pset) and sr.max() > 0.5 * grid.cell_size:
        bad = int(np.argmax(sr))
        raise SearchRadiusExceedsCell(
            f"search radius {sr[bad]} of particle {bad} exceeds cell_size/2 = "
            f"{0.5 * grid.cell_size}"
        )
    a_idx, b_idx, tested = _candidate_pairs(grid, pset.position)
    if tested == 0:
        return PairList.empty(), 0
    diff = pset.position[a_idx] - pset.position[b_idx]
    d2 = row_norm_sq(diff)
    reach = sr[a_idx] + sr[b_idx]
    hit = d2 <= reach * reach
    pairs = np.stack([a_idx[hit], b_idx[hit]], axis=1)
    return PairList(_canonicalize(pairs)), tested


def linked_cell_pairs(grid: CellGrid, particles, search_radius) -> PairList:
    """Pairs (a, b) with |X_a - X_b| <= search_radius[a] + search_radius[b].

    Candidates come from each particle's own cell and the immediate
    neighbour cells, so every radius must be at most cell_size/2.
    """
    result, _ = _pairs_with_stats(grid, as_particles(particles), search_radius)
    return result


def brute_force_pairs(particles, search_radius) -> PairList:
    """Exhaustive O(n^2) pair enumeration: the oracle for the grid search."""
    pset = as_particles(particles)
    n = len(pset)
    if n < 2:
        return PairList.empty()
    sr = np.asarray(search_radius, dtype=np.float64)
    if sr.ndim == 0:
        sr = np.full(n, float(sr))
    ia, ib = np.triu_indices(n, k=1)
    diff = pset.position[ia] - pset.position[ib]
    d2 = row_norm_sq(diff)
    reach = sr[ia] + sr[ib]
    hit = d2 <= reach * reach
    pairs = np.stack([ia[hit], ib[hit]], axis=1).astype(np.int64)
    # triu_indices already yields lexicographic (a < b) order
    return PairList(pairs)


def wall_candidates(particles, walls, reach) -> tuple[np.ndarray, ...]:
    """Per wall, the sorted ids of the particles with signed distance <= reach.

    With ``reach = radius + skin`` this is the wall counterpart of the pair
    list.  A particle left out can reach a signed distance below its radius
    (a contact) or below zero (behind the wall) only by moving further than
    its skin, which triggers a rebuild first.  The bound carries a relative
    1e-9 pad so that rounding can never drop such a particle.
    """
    pset = as_particles(particles)
    reach = np.asarray(reach, dtype=np.float64)
    bound = reach + 1e-9 * (1.0 + reach)
    return tuple(np.flatnonzero(w.signed_distance(pset.position) <= bound) for w in walls)


@dataclass(frozen=True)
class VerletState:
    """Snapshot of one broad-phase build.

    ``frozen_skins`` are the margins used to inflate the search radii that
    produced ``list``; the rebuild test compares displacements against these
    frozen values, never against skins recomputed from current velocities,
    because the cached list is only guaranteed to cover motion within the
    margins it was built with.  ``wall_rows`` holds, per wall of the
    configuration, the particles within radius + frozen skin of it at the
    build (see :func:`wall_candidates`); None stands for every particle.
    """

    list: PairList
    reference_positions: np.ndarray
    frozen_skins: np.ndarray
    build_step: int
    wall_rows: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self.reference_positions)


def _verlet_build_stats(particles, cfg: SimConfig, step: int, skins=None):
    pset = as_particles(particles)
    if skins is None:
        skins = _skins(pset, cfg.k_factor, cfg.dt, cfg.cell_size)
    else:
        skins = np.asarray(skins, dtype=np.float64)
    grid = build_grid(pset, cfg)
    radii = pset.cutoff + skins
    pair_list, tested = _pairs_with_stats(grid, pset, radii)
    state = VerletState(
        list=pair_list,
        reference_positions=pset.position.copy(),
        frozen_skins=skins,
        build_step=int(step),
        wall_rows=wall_candidates(pset, cfg.walls, pset.radius + skins),
    )
    return state, tested


def verlet_build(particles, cfg: SimConfig, step: int = 0) -> VerletState:
    """Run the broad-phase with skin-inflated radii and snapshot positions.

    The per-wall candidates of ``cfg.walls`` are cached with the pair list.
    """
    state, _ = _verlet_build_stats(particles, cfg, step)
    return state


def verlet_needs_rebuild(state: VerletState, particles) -> bool:
    """True when any particle moved further than its frozen skin.

    Displacement is the straight-line distance since the build, not the
    accumulated path length, and the condition is a strict inequality: a
    particle sitting exactly at its skin distance keeps the list valid.
    """
    pset = as_particles(particles)
    if len(pset) != len(state):
        raise SizeMismatch(
            f"state built for {len(state)} particles, got {len(pset)}"
        )
    if len(pset) == 0:
        return False
    diff = pset.position - state.reference_positions
    disp2 = row_norm_sq(diff)
    return bool(np.any(disp2 > state.frozen_skins * state.frozen_skins))
