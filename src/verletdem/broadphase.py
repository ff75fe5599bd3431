"""Candidate-pair generation: uniform linked-cell grid, brute-force oracle,
and the per-particle Verlet-buffer layer.

A pair list is a sorted array of int64 keys ``id_a << 32 | id_b`` with
id_a < id_b.  The grid is only the cell layout the search reads, and each
search builds its own.

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
from functools import cached_property

import numpy as np

from .core import Particles, SimConfig, SimulationError, grid_dims, row_norm_sq

__all__ = [
    "CellGrid", "PairList", "VerletState",
    "CapNegative", "SearchRadiusExceedsCell", "SizeMismatch",
    "SKIN_LOCAL", "SKIN_UNIFORM_RADIUS",
    "build_grid", "linked_cell_pairs", "brute_force_pairs",
    "wall_candidates", "verlet_build", "verlet_displacement_sq",
    "verlet_needs_rebuild", "verlet_gate",
]


class CapNegative(SimulationError):
    """cell_size/2 is smaller than a particle cutoff: the grid is invalid."""


class SearchRadiusExceedsCell(SimulationError):
    """A search radius above cell_size/2 would defeat adjacent-cell search."""


class SizeMismatch(SimulationError):
    """Search radii or a Verlet state do not match the particle count."""


_EMPTY_KEYS = np.empty(0, dtype=np.int64)

SKIN_LOCAL = "local"                    # per-particle k * |v| * dt, capped
SKIN_UNIFORM_RADIUS = "uniform-radius"  # skin = particle radius, capped


@dataclass(frozen=True, eq=False)
class PairList:
    """Canonical list of candidate pairs: sorted, unique int64 ``keys``.

    Each key is ``id_a << 32 | id_b`` with id_a < id_b, so key order is the
    lexicographic order of the pairs, from which :attr:`columns` is
    derived.  Canonical ordering is the determinism contract: equal inputs
    must give byte-equal pair lists no matter how the search iterated
    internally.
    """

    keys: np.ndarray

    @classmethod
    def empty(cls) -> "PairList":
        return cls(_EMPTY_KEYS)

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, pair) -> bool:
        a, b = sorted((int(pair[0]), int(pair[1])))
        key = (a << 32) | b
        idx = np.searchsorted(self.keys, key)
        return bool(idx < len(self) and self.keys[idx] == key)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairList):
            return NotImplemented
        return np.array_equal(self.keys, other.keys)

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The id_a and id_b columns, contiguous, shifted and masked out of the keys."""
        return self.keys >> np.int64(32), self.keys & np.int64(0xFFFFFFFF)


def _oriented_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (np.minimum(a, b) << np.int64(32)) | np.maximum(a, b)


@dataclass(frozen=True)
class CellGrid:
    """The pair search's cell layout, in counting-sort form.

    Each particle is binned into the domain cell that holds it; particles
    outside the domain are clamped into boundary cells rather than
    rejected: scenario chutes let particles exit and the broad-phase must
    keep working on whatever is left.

    The layout is a padded box: the bounding box of the occupied cells plus
    an empty ghost layer per face, ``shape`` cells per axis with domain cell
    ``ijk`` at ``ijk - corner``, so every neighbour of an occupied cell is a
    fixed offset of its padded id.  ``cell_of`` is each particle's padded
    cell id, ``order`` lists the ids by padded cell, ascending within a
    cell, and the CSR cell ``starts`` put the residents of padded cell ``c``
    at ``order[starts[c]:starts[c + 1]]`` (Green's 2010 CUDA particles
    whitepaper).
    """

    cell_size: float
    corner: np.ndarray = field(repr=False)    # domain cell coordinates of padded cell 0
    shape: np.ndarray = field(repr=False)     # padded cells per axis
    cell_of: np.ndarray = field(repr=False)   # (n,) padded cell id per particle
    order: np.ndarray = field(repr=False)     # particle ids sorted by padded cell id
    starts: np.ndarray = field(repr=False)    # (padded cells + 1,) CSR cell starts


def _skins(pset: Particles, cfg: SimConfig, mode: str = SKIN_LOCAL) -> np.ndarray:
    """Per-particle skins: min(raw, cell_size/2 - cutoff), zero for static particles.

    ``raw`` is ``k_factor * |v| * dt`` in the local mode (``k_factor`` steps
    of travel at the build-time speed) and the radius in the uniform-radius
    mode.  The cap keeps every inflated search radius within half a cell,
    so that searching the immediate neighbour cells is provably sufficient.
    A cap whose sum ``cutoff + cap`` rounds above half a cell is stepped
    down by ulps until the sum, as the pair search computes it, fits.
    With the buffer disabled every skin is zero: the list is rebuilt at
    every evaluation and needs no margin.
    """
    if not cfg.verlet_enabled:
        return np.zeros(len(pset))
    half = 0.5 * cfg.cell_size
    caps = half - pset.cutoff
    if len(pset) and caps.min() < 0:
        bad = int(np.argmin(caps))
        raise CapNegative(
            f"cell_size/2 = {half} < cutoff {pset.cutoff[bad]} of particle {bad}"
        )
    high = np.flatnonzero(pset.cutoff + caps > half)
    while len(high):
        caps[high] = np.nextafter(caps.take(high), -np.inf)
        high = high[pset.cutoff.take(high) + caps.take(high) > half]
    if mode == SKIN_LOCAL:
        raw = cfg.k_factor * np.sqrt(row_norm_sq(pset.velocity)) * cfg.dt
    elif mode == SKIN_UNIFORM_RADIUS:
        raw = pset.radius
    else:
        raise SimulationError(f"unknown skin mode {mode!r}")
    skins = np.minimum(raw, caps)
    skins[pset.is_static] = 0.0
    return skins


def build_grid(particles: Particles, cfg: SimConfig) -> CellGrid:
    """Bin every particle by a counting sort: ``starts[1:] = cumsum(bincount)``."""
    cell = np.floor((particles.position - cfg.domain_min) / cfg.cell_size)
    # clamp before the int64 cast, so no coordinate overflows it; a NaN lands in cell 0
    ijk = np.fmin(np.fmax(cell, 0.0), grid_dims(cfg) - 1.0).astype(np.int64)
    axes = np.ascontiguousarray(ijk.T)   # (3, n): fast row reductions
    box = axes if len(particles) else np.zeros((3, 1), dtype=np.int64)
    corner = box.min(axis=1) - 1
    shape = box.max(axis=1) - corner + 2
    cell_of = np.ravel_multi_index(tuple(axes - corner[:, None]), tuple(shape))
    starts = np.zeros(int(shape.prod()) + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell_of, minlength=len(starts) - 1), out=starts[1:])
    return CellGrid(
        cell_size=float(cfg.cell_size),
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


def _search_radii(pset: Particles, search_radius) -> np.ndarray:
    sr = np.asarray(search_radius, dtype=np.float64)
    if sr.shape != (len(pset),):
        raise SizeMismatch(f"search radii of shape {sr.shape} for {len(pset)} particles")
    return sr


def _pairs_with_stats(pset: Particles, cfg: SimConfig, radii):
    """(pair list, candidates tested, squared distance of every listed pair)."""
    sr = _search_radii(pset, radii)
    grid = build_grid(pset, cfg)
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
    keep = (dx * dx <= reach2).nonzero()[0]
    sa, sb = sa[keep], sb[keep]
    diff = np.take(pos, sa, axis=0) - np.take(pos, sb, axis=0)
    d2 = row_norm_sq(diff)
    hit = (d2 <= reach2[keep]).nonzero()[0]
    keys = _oriented_keys(np.take(grid.order, sa[hit]), np.take(grid.order, sb[hit]))
    # the grid emits every unordered pair once, so a sort canonicalizes
    by_key = np.argsort(keys)
    return PairList(keys[by_key]), tested, np.take(d2, hit[by_key])


def linked_cell_pairs(particles: Particles, cfg: SimConfig, search_radius) -> PairList:
    """Pairs (a, b) with |X_a - X_b| <= search_radius[a] + search_radius[b].

    Candidates come from each particle's own cell of the grid the search
    builds from ``cfg`` and the immediate neighbour cells, so every radius,
    one per particle, must be at most cell_size/2.
    """
    result, _, _ = _pairs_with_stats(particles, cfg, search_radius)
    return result


def brute_force_pairs(particles: Particles, search_radius) -> PairList:
    """Exhaustive O(n^2) pair enumeration: the oracle for the grid search."""
    sr = _search_radii(particles, search_radius)
    ia, ib = np.triu_indices(len(particles), k=1)
    diff = particles.position[ia] - particles.position[ib]
    d2 = row_norm_sq(diff)
    reach = sr[ia] + sr[ib]
    hit = d2 <= reach * reach
    # triu_indices already yields lexicographic (a < b) order
    return PairList(_oriented_keys(ia[hit], ib[hit]))


def wall_candidates(particles: Particles, walls, reach) -> tuple[np.ndarray, ...]:
    """Per wall, the sorted ids of the particles with signed distance <= reach.

    With ``reach = radius + skin`` this is the wall counterpart of the pair
    list.  A particle left out can reach a signed distance below its radius
    (a contact) or below zero (behind the wall) only by moving further than
    its skin, which triggers a rebuild first.  The bound carries a relative
    1e-9 pad so that rounding can never drop such a particle.
    """
    reach = np.asarray(reach, dtype=np.float64)
    bound = reach + 1e-9 * (1.0 + reach)
    return tuple((w.signed_distance(particles.position) <= bound).nonzero()[0] for w in walls)


@dataclass(frozen=True)
class VerletState:
    """Snapshot of one broad-phase build.

    ``frozen_skins`` are the margins used to inflate the search radii that
    produced ``list``; the rebuild test compares displacements against these
    frozen values, never against skins recomputed from current velocities,
    because the cached list is only guaranteed to cover motion within the
    margins it was built with.  ``pairs_tested`` is the number of candidate
    pairs the build's search tested.  ``wall_rows`` holds, per wall of the
    configuration, the particles within radius + frozen skin of it at the
    build (see :func:`wall_candidates`).  ``pair_slack`` holds, per row of
    ``list``, the build distance minus the radii sum, less a relative pad
    (see :func:`verlet_gate`).
    """

    list: PairList
    reference_positions: np.ndarray
    frozen_skins: np.ndarray
    pairs_tested: int
    wall_rows: tuple
    pair_slack: np.ndarray

    def __len__(self) -> int:
        return len(self.reference_positions)


def verlet_build(particles: Particles, cfg: SimConfig, skins=None) -> VerletState:
    """Run the broad-phase with skin-inflated radii and snapshot positions.

    ``skins`` defaults to the local-mode skins.  The per-row slack, the
    per-wall candidates of ``cfg.walls`` and the candidate count are cached
    with the pair list.
    """
    skins = _skins(particles, cfg) if skins is None else np.asarray(skins, dtype=np.float64)
    pair_list, tested, d2 = _pairs_with_stats(particles, cfg, particles.cutoff + skins)
    ia, ib = pair_list.columns
    d0 = np.sqrt(d2)
    rsum = particles.radius.take(ia) + particles.radius.take(ib)
    return VerletState(
        list=pair_list,
        reference_positions=particles.position.copy(),
        frozen_skins=skins,
        pairs_tested=tested,
        wall_rows=wall_candidates(particles, cfg.walls, particles.radius + skins),
        pair_slack=d0 - rsum - 1e-9 * (1.0 + d0),
    )


def verlet_displacement_sq(state: VerletState, particles: Particles) -> np.ndarray:
    """Squared straight-line displacement of every particle since the build."""
    if len(particles) != len(state):
        raise SizeMismatch(
            f"state built for {len(state)} particles, got {len(particles)}"
        )
    return row_norm_sq(particles.position - state.reference_positions)


def verlet_needs_rebuild(state: VerletState, particles: Particles, disp2=None) -> bool:
    """True when any particle moved further than its frozen skin.

    Displacement is the straight-line distance since the build, not the
    accumulated path length, and the condition is a strict inequality: a
    particle sitting exactly at its skin distance keeps the list valid.
    ``disp2`` may pass in :func:`verlet_displacement_sq` already computed.
    """
    if disp2 is None:
        disp2 = verlet_displacement_sq(state, particles)
    return bool((disp2 > state.frozen_skins * state.frozen_skins).any())


def verlet_gate(state: VerletState, disp: np.ndarray) -> np.ndarray:
    """Rows of the cached list that displacements ``disp`` cannot rule out.

    By the triangle inequality the pair's distance now is at least its build
    distance minus ``disp_a + disp_b``, so a row with ``disp_a + disp_b``
    below ``pair_slack`` (build distance minus the radii sum, less a pad of
    1e-9 * (1 + build distance) against rounding) cannot overlap and needs no
    test.  The pad exceeds the coincidence tolerance, so a pair that has
    closed onto itself is always kept.
    """
    ia, ib = state.list.columns
    return (disp.take(ia) + disp.take(ib) >= state.pair_slack).nonzero()[0]
