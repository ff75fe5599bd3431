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
    """Uniform spatial decomposition of the domain box, in counting-sort form.

    Particles outside the box are clamped into boundary cells rather than
    rejected: scenario chutes let particles exit and the broad-phase must
    keep working on whatever is left.

    The search runs on a padded box: the bounding box of the occupied cells
    plus an empty ghost layer per face, ``shape`` cells per axis with cell
    ``ijk`` at ``ijk - corner``, so every neighbour of an occupied cell is a
    fixed offset of its padded id.  ``order`` lists the ids by padded cell,
    ascending within a cell; the CSR cell ``starts`` put the residents of
    padded cell ``c`` at ``order[starts[c]:starts[c + 1]]`` (Green,
    "Particle Simulation using CUDA", 2010).  ``dims``, :attr:`cells`,
    :meth:`coords_of` and :meth:`linearize` speak of the domain's cells.
    """

    origin: np.ndarray
    cell_size: float
    dims: np.ndarray
    corner: np.ndarray = field(repr=False)    # cell coordinates of padded cell 0
    shape: np.ndarray = field(repr=False)     # padded cells per axis
    cell_of: np.ndarray = field(repr=False)   # (n,) padded cell id per particle
    order: np.ndarray = field(repr=False)     # particle ids sorted by padded cell id
    starts: np.ndarray = field(repr=False)    # (padded cells + 1,) CSR cell starts

    @property
    def cells(self) -> dict[int, np.ndarray]:
        """Map linear cell index -> array of resident particle ids."""
        occupied = np.flatnonzero(np.diff(self.starts))
        ijk = np.stack(np.unravel_index(occupied, tuple(self.shape)), axis=1) + self.corner
        return {
            int(c): self.order[self.starts[p]:self.starts[p + 1]]
            for c, p in zip(self.linearize(ijk), occupied)
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
    """Bin every particle by a counting sort: ``starts[1:] = cumsum(bincount)``."""
    pset = as_particles(particles)
    extent = cfg.domain_max - cfg.domain_min
    dims = np.maximum(np.ceil(extent / cfg.cell_size).astype(np.int64), 1)
    ijk = np.floor((pset.position - cfg.domain_min) / cfg.cell_size).astype(np.int64)
    axes = np.ascontiguousarray(np.clip(ijk, 0, dims - 1).T)   # (3, n): fast row reductions
    box = axes if len(pset) else np.zeros((3, 1), dtype=np.int64)
    corner = box.min(axis=1) - 1
    shape = box.max(axis=1) - corner + 2
    cell_of = np.ravel_multi_index(tuple(axes - corner[:, None]), tuple(shape))
    starts = np.zeros(int(shape.prod()) + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell_of, minlength=len(starts) - 1), out=starts[1:])
    return CellGrid(
        origin=cfg.domain_min.copy(),
        cell_size=float(cfg.cell_size),
        dims=dims,
        corner=corner,
        shape=shape,
        cell_of=cell_of,
        order=np.argsort(cell_of, kind="stable"),
        starts=starts,
    )


# The 13 neighbour offsets whose linearized index is strictly below the home
# cell; with the home cell handled separately, every unordered cell pair is
# visited exactly once.
_HALF_STENCIL = np.array([
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) < (0, 0, 0)
], dtype=np.int64)


def _candidate_pairs(grid: CellGrid):
    """All pairs of sorted slots sharing a cell or sitting in adjacent cells.

    Slot s holds particle ``grid.order[s]``.  It pairs with the later slots
    of its own cell and with every slot of the 13 lower-index neighbour
    cells, whose ranges are read straight off ``grid.starts``: ghost cells
    are empty, so no neighbour needs a validity test.  Returns
    (slot_a, slot_b), each candidate pair exactly once.
    """
    slots = np.arange(len(grid.order), dtype=np.int64)
    home = grid.cell_of[grid.order]
    offsets = _HALF_STENCIL @ np.array([grid.shape[1] * grid.shape[2], grid.shape[2], 1])
    nbr = home + offsets[:, None]                 # (13, n) neighbour cell ids
    lo = np.concatenate([slots + 1, grid.starts[nbr].ravel()])
    hi = np.concatenate([grid.starts[home + 1], grid.starts[nbr + 1].ravel()])
    counts = hi - lo
    # slot_b runs through [lo[i], hi[i]) for every range i in turn
    shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    slot_a = np.repeat(np.tile(slots, len(_HALF_STENCIL) + 1), counts)
    return slot_a, shift + np.arange(len(shift), dtype=np.int64)


def _pairs_with_stats(grid: CellGrid, pset: Particles, search_radius: np.ndarray):
    sr = np.asarray(search_radius, dtype=np.float64)
    if sr.ndim == 0:
        sr = np.full(len(pset), float(sr))
    if len(sr) != len(pset):
        raise SizeMismatch(f"{len(sr)} search radii for {len(pset)} particles")
    if len(grid.cell_of) != len(pset):
        raise SizeMismatch(f"grid built for {len(grid.cell_of)} particles, got {len(pset)}")
    if len(pset) and sr.max() > 0.5 * grid.cell_size:
        bad = int(np.argmax(sr))
        raise SearchRadiusExceedsCell(
            f"search radius {sr[bad]} of particle {bad} exceeds cell_size/2 = "
            f"{0.5 * grid.cell_size}"
        )
    sa, sb = _candidate_pairs(grid)
    tested = len(sa)
    # np.take copies whole rows, several times faster than indexing with [idx]
    pos = np.take(pset.position, grid.order, axis=0)
    rad = np.take(sr, grid.order)
    reach = np.take(rad, sa) + np.take(rad, sb)
    reach2 = reach * reach
    # exact x-gap prefilter: a rounded sum of non-negative squares is never
    # below one of its rounded terms, so every pair the full test accepts passes
    x = np.ascontiguousarray(pos[:, 0])
    dx = np.take(x, sa) - np.take(x, sb)
    keep = np.flatnonzero(dx * dx <= reach2)
    sa, sb = sa[keep], sb[keep]
    diff = np.take(pos, sa, axis=0) - np.take(pos, sb, axis=0)
    hit = row_norm_sq(diff) <= reach2[keep]
    pairs = np.take(grid.order, np.stack([sa[hit], sb[hit]], axis=1))
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
