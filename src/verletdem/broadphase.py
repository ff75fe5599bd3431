"""Candidate-pair generation: uniform linked-cell grid, brute-force oracle,
and the per-particle Verlet-buffer layer.

A pair list is a sorted array of int64 keys ``id_a << 32 | id_b`` with
id_a < id_b.  The grid is the cell each particle sits in, and each search
builds its own and indexes it by the sorted cell ids.  A search given a
previous stencil, its candidate pairs and their squared reaches, reuses it
whole while no particle has changed cell and no search radius has changed;
otherwise it enumerates afresh.  A build keeps its stencil only when every
skin is zero, the one case in which the next build's radii can be equal.

The buffer inflates each particle's search radius by a skin proportional to
its own speed (``k_factor * |v| * dt``), capped by the cell geometry, and
freezes both the skins and the positions at build time.  The cached pair
list stays valid until some particle's straight-line displacement since the
build exceeds its frozen skin; only then is a new broad-phase required.
The same argument caches, per wall plane, the particles within radius + skin
of it, so the narrow phase tests only those against that wall.
"""

from __future__ import annotations

import itertools
import math
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
    """cell_size/2 is smaller than a particle radius: the grid is invalid."""


class SearchRadiusExceedsCell(SimulationError):
    """A search radius above cell_size/2 would defeat adjacent-cell search."""


class SizeMismatch(SimulationError):
    """Search radii or a Verlet state do not match the particle count."""


SKIN_LOCAL = "local"                    # per-particle k * |v| * dt, capped
SKIN_UNIFORM_RADIUS = "uniform-radius"  # skin = particle radius, capped
_SKIN_MODES = (SKIN_LOCAL, SKIN_UNIFORM_RADIUS)


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


@dataclass(frozen=True, eq=False)
class CellGrid:
    """The pair search's cell layout: the cell each particle sits in.

    Each particle is binned into the domain cell that holds it; particles
    outside the domain are clamped into boundary cells rather than
    rejected: scenario chutes let particles exit and the broad-phase must
    keep working on whatever is left.

    The layout is a padded box: the bounding box of the occupied cells plus
    an empty ghost layer per face, ``shape`` cells per axis, numbered in C
    order.  ``cell_of`` is each particle's padded cell id, so every
    neighbour of an occupied cell is a fixed offset of its id.  Nothing is
    stored per cell.
    """

    shape: np.ndarray = field(repr=False)     # padded cells per axis
    cell_of: np.ndarray = field(repr=False)   # (n,) padded cell id per particle


@dataclass(frozen=True, eq=False)
class _Stencil:
    """A build's grid and search radii, the (id_a, id_b) columns of every
    candidate pair the grid yields and each candidate's squared reach
    ``(sr_a + sr_b)**2``: the candidates are a function of the grid's
    ``shape`` and ``cell_of``, the squared reaches of the radii too."""

    grid: CellGrid
    radii: np.ndarray
    candidates: tuple
    reach2: np.ndarray


def _skins(pset: Particles, cfg: SimConfig, mode: str = SKIN_LOCAL) -> np.ndarray:
    """Per-particle skins: min(raw, cell_size/2 - radius), zero for static particles.

    ``raw`` is ``k_factor * |v| * dt`` in the local mode (``k_factor`` steps
    of travel at the build-time speed) and the radius in the uniform-radius
    mode; ``run`` rejects any other mode before its first evaluation.  The
    cap keeps every inflated search radius within half a cell, so that
    searching the immediate neighbour cells is provably sufficient.
    A cap whose sum ``radius + cap`` rounds above half a cell is stepped
    down by ulps until the sum, as the pair search computes it, fits.
    With the buffer disabled every skin is zero: the list is rebuilt at
    every evaluation and needs no margin.
    """
    if not cfg.verlet_enabled:
        return np.zeros(len(pset))
    half = 0.5 * cfg.cell_size
    caps = half - pset.radius
    if len(pset) and caps.min() < 0:
        bad = int(np.argmin(caps))
        raise CapNegative(
            f"cell_size/2 = {half} < radius {pset.radius[bad]} of particle {bad}"
        )
    high = np.flatnonzero(pset.radius + caps > half)
    while len(high):
        caps[high] = np.nextafter(caps.take(high), -np.inf)
        high = high[pset.radius.take(high) + caps.take(high) > half]
    if mode == SKIN_LOCAL:
        # K = 0 gives no skin even where |v|^2 overflows to inf (0 * inf is NaN)
        raw = cfg.k_factor * np.sqrt(row_norm_sq(pset.velocity)) * cfg.dt if cfg.k_factor else 0.0
    else:
        raw = pset.radius
    skins = np.minimum(raw, caps)
    skins[pset.is_static] = 0.0
    return skins


def build_grid(particles: Particles, cfg: SimConfig) -> CellGrid:
    """Bin every particle into its clamped domain cell of a padded layout.

    A layout of more cells than int64 ids can number raises SimulationError.
    Below that bound, the C-order id ``(i * shape[1] + j) * shape[2] + k``
    and each partial sum are below the cell count, so the integer arithmetic
    gives the ids of ``np.ravel_multi_index`` without its per-call checks.
    """
    cell = np.floor((particles.position - cfg.domain_min) / cfg.cell_size)
    # clamp before the int64 cast, so no coordinate overflows it; a NaN lands in cell 0
    ijk = np.fmin(np.fmax(cell, 0.0), grid_dims(cfg) - 1.0).astype(np.int64)
    axes = np.ascontiguousarray(ijk.T)   # (3, n): fast row reductions
    box = axes if len(particles) else np.zeros((3, 1), dtype=np.int64)
    corner = box.min(axis=1) - 1
    shape = box.max(axis=1) - corner + 2
    if math.prod(shape.tolist()) >= 2**63:
        raise SimulationError(f"a padded box of {shape.tolist()} cells exceeds int64 cell ids")
    i, j, k = axes - corner[:, None]
    cell_of = (i * shape[1] + j) * shape[2] + k
    return CellGrid(shape=shape, cell_of=cell_of)


def _candidate_pairs(grid: CellGrid):
    """All pairs of particles sharing a cell or sitting in adjacent cells.

    A stable sort lays the particles out by cell: slot s holds particle
    ``order[s]``, ids ascending within a cell, and the sorted cell ids
    ``home`` are the index, the slots of cell ``c`` running from
    ``searchsorted(home, c, "left")`` to ``searchsorted(home, c, "right")``.
    A slot pairs with the later slots of its own cell and with every slot of
    the 13 neighbour cells of lower id.  The ghost layer keeps ``c ± 1`` in
    the z-column of ``c``, so these are 5 runs of consecutive ids: ``c - 1``,
    and in each of the columns (dx, dy) = (-1, -1), (-1, 0), (-1, 1), (0, -1)
    the cells from one below the height of ``c`` to one above.  Ghost cells
    are empty, so no run needs a validity test.  The runs are looked up once
    per occupied cell and their bounds repeated over its residents.  No
    array is sized by the box, only by n and the candidate count.  Returns
    (id_a, id_b), the particle ids of each candidate pair exactly once, in
    slot order.
    """
    order = np.argsort(grid.cell_of, kind="stable")
    home = grid.cell_of.take(order)
    # the first slot of each occupied cell (every padded id is > 0) and its residents
    start = np.flatnonzero(np.diff(home, prepend=-1))
    size = np.diff(start, append=len(home))
    plane, row = grid.shape[1] * grid.shape[2], grid.shape[2]
    # per neighbour run: the centre's id offset below the cell and the run's half-width
    below = np.array([1, plane + row, plane, plane - row, row])[:, None]
    width = np.array([0, 1, 1, 1, 1])[:, None]
    centre = home.take(start) - below             # (5, occupied cells)
    # run 0 is the own cell: a slot pairs with the later slots up to its cell's end
    lo = np.concatenate([np.arange(1, len(home) + 1)[None], np.repeat(
        np.searchsorted(home, centre - width, "left"), size, axis=1)])
    hi = np.repeat(np.concatenate([(start + size)[None],
                                   np.searchsorted(home, centre + width, "right")]),
                   size, axis=1)
    counts = (hi - lo).ravel()
    id_a = np.repeat(np.tile(order, len(lo)), counts)
    # slot_b runs through [lo[i], hi[i]) for every run i in turn
    id_b = np.repeat(lo.ravel() - (np.cumsum(counts) - counts), counts)
    id_b += np.arange(len(id_b), dtype=np.int64)
    # slots to ids in place: every slot is in range, and "clip" skips the
    # copy of ``out`` that the default mode makes
    np.take(order, id_b, out=id_b, mode="clip")
    return id_a, id_b


def _lengths(pset: Particles, values, what: str) -> np.ndarray:
    """``values`` copied as one float64 length per particle: another shape
    raises SizeMismatch, a negative or NaN length SimulationError.  The copy
    keeps what a build caches by value from changing with the caller's array."""
    a = np.array(values, dtype=np.float64)
    if a.shape != (len(pset),):
        raise SizeMismatch(f"{what} of shape {a.shape} for {len(pset)} particles")
    if len(a) and not a.min() >= 0:   # a NaN minimum fails the test too
        bad = int(np.argmin(a >= 0))
        raise SimulationError(f"{what} {a[bad]} of particle {bad} is not >= 0")
    return a


def _pairs_with_stats(pset: Particles, cfg: SimConfig, radii, stencil=None):
    """(pair list, squared distance of every listed pair, stencil).

    A given ``stencil`` is reused whole when the new grid has the same
    ``shape`` and ``cell_of`` and the search radii are equal in value;
    otherwise the candidates are enumerated and their squared reaches
    computed afresh.  Every candidate is tested either way: an exact x-gap
    filter, an exact y-gap filter on its survivors, and the full
    squared-distance test on theirs.
    """
    sr = _lengths(pset, radii, "search radius")
    grid = build_grid(pset, cfg)
    if len(pset) and sr.max() > 0.5 * cfg.cell_size:
        bad = int(np.argmax(sr))
        raise SearchRadiusExceedsCell(
            f"search radius {sr[bad]} of particle {bad} exceeds cell_size/2 = "
            f"{0.5 * cfg.cell_size}"
        )
    if stencil is None or not (np.array_equal(grid.shape, stencil.grid.shape)
                               and np.array_equal(grid.cell_of, stencil.grid.cell_of)
                               and np.array_equal(sr, stencil.radii)):
        ia, ib = _candidate_pairs(grid)
        # computed in place: the build's peak memory holds the previous
        # build's candidates too
        reach2 = np.take(sr, ia)
        reach2 += np.take(sr, ib)
        reach2 *= reach2
        stencil = _Stencil(grid, sr, (ia, ib), reach2)
    (ia, ib), reach2 = stencil.candidates, stencil.reach2
    # exact x- and y-gap filters: a rounded sum of non-negative squares is
    # never below one of its rounded terms, so every pair the full test
    # accepts passes both
    for axis in (0, 1):
        coord = np.ascontiguousarray(pset.position[:, axis])
        gap2 = np.take(coord, ia)
        gap2 -= np.take(coord, ib)
        gap2 *= gap2
        keep = (gap2 <= reach2).nonzero()[0]
        del gap2
        ia, ib, reach2 = np.take(ia, keep), np.take(ib, keep), np.take(reach2, keep)
    # np.take copies whole rows, several times faster than indexing with [idx]
    diff = np.take(pset.position, ia, axis=0) - np.take(pset.position, ib, axis=0)
    d2 = row_norm_sq(diff)
    hit = (d2 <= reach2).nonzero()[0]
    keys = _oriented_keys(np.take(ia, hit), np.take(ib, hit))
    # the grid emits every unordered pair once, so a sort canonicalizes
    by_key = np.argsort(keys)
    return PairList(keys[by_key]), np.take(d2, hit[by_key]), stencil


def linked_cell_pairs(particles: Particles, cfg: SimConfig, search_radius) -> PairList:
    """Pairs (a, b) with |X_a - X_b| <= search_radius[a] + search_radius[b].

    Candidates come from each particle's own cell of the grid the search
    builds from ``cfg`` and the immediate neighbour cells, so every radius,
    one per particle, must be at most cell_size/2.  A radius count other
    than one per particle raises SizeMismatch, and a negative or NaN radius
    SimulationError.
    """
    return _pairs_with_stats(particles, cfg, search_radius)[0]


def brute_force_pairs(particles: Particles, search_radius) -> PairList:
    """Exhaustive O(n^2) pair enumeration: the oracle for the grid search."""
    sr = _lengths(particles, search_radius, "search radius")
    ia, ib = np.triu_indices(len(particles), k=1)
    diff = particles.position[ia] - particles.position[ib]
    d2 = row_norm_sq(diff)
    reach = sr[ia] + sr[ib]
    hit = d2 <= reach * reach
    # triu_indices already yields lexicographic (a < b) order
    return PairList(_oriented_keys(ia[hit], ib[hit]))


@dataclass(frozen=True, eq=False)
class _WallRows:
    """The rows of every wall of ``walls``, wall after wall: sorted particle
    ``ids``, the index of each row's wall (``wall_of``) and its contact
    normal, the negated outward normal of its wall (``inward``, (rows, 3),
    C-contiguous); ``bounds`` is ``(wall, start, stop)`` per wall with rows."""

    walls: tuple
    ids: np.ndarray
    wall_of: np.ndarray
    inward: np.ndarray
    bounds: tuple


def wall_candidates(particles: Particles, walls, reach) -> _WallRows:
    """The rows of each wall: the particles with signed distance <= reach.

    With ``reach = radius + skin`` this is the wall counterpart of the pair
    list.  A particle left out can reach a signed distance below its radius
    (a contact) or below zero (behind the wall) only by moving further than
    its skin, which triggers a rebuild first.  The bound carries a relative
    1e-9 pad so that rounding can never drop such a particle.  ``reach`` is
    one length >= 0 per particle, as for :func:`linked_cell_pairs`.
    """
    reach = _lengths(particles, reach, "reach")
    bound = reach + 1e-9 * (1.0 + reach)
    walls = tuple(walls)
    rows = [(w.signed_distance(particles.position) <= bound).nonzero()[0] for w in walls]
    sizes = [len(r) for r in rows]
    stops = [0, *itertools.accumulate(sizes)]
    wall_of = np.repeat(np.arange(len(walls)), sizes)
    inward = -np.array([w.outward_normal for w in walls]).reshape(-1, 3)
    return _WallRows(walls, np.concatenate(rows or [np.empty(0, np.intp)]), wall_of,
                     inward.take(wall_of, axis=0),
                     tuple((k, stops[k], stops[k + 1]) for k in range(len(walls)) if sizes[k]))


@dataclass(frozen=True, eq=False)
class VerletState:
    """Snapshot of one broad-phase build.

    ``frozen_skins`` are the margins used to inflate the search radii that
    produced ``list``; the rebuild test compares displacements against these
    frozen values, never against skins recomputed from current velocities,
    because the cached list is only guaranteed to cover motion within the
    margins it was built with.  ``wall_rows`` holds the particles within
    radius + frozen skin of each wall of the configuration at the build
    (see :func:`wall_candidates`).  ``pair_slack`` holds, per row of
    ``list``, the build distance minus the radii sum, less a relative pad
    (see :func:`verlet_gate`).  ``pairs_tested`` counts the candidate pairs
    the search tested.  ``stencil`` is the build's grid, search radii,
    candidate pairs and their squared reaches, kept only when every skin is
    zero (else None), for the next build to reuse (see :func:`verlet_build`).
    """

    list: PairList
    reference_positions: np.ndarray
    frozen_skins: np.ndarray
    wall_rows: _WallRows
    pair_slack: np.ndarray
    pairs_tested: int
    stencil: _Stencil | None

    def __len__(self) -> int:
        return len(self.reference_positions)


def verlet_build(particles: Particles, cfg: SimConfig, skins=None,
                 previous: VerletState | None = None) -> VerletState:
    """Run the broad-phase with skin-inflated radii and snapshot positions.

    Each particle reaches radius + skin, for pairs and for walls alike.
    ``skins`` defaults to the local-mode skins; given skins must be one
    length >= 0 per particle, else SizeMismatch or SimulationError, as for
    the radii of :func:`linked_cell_pairs`.  The per-row slack, the per-wall
    candidates of ``cfg.walls`` and, when every skin is zero, the stencil
    are cached with the pair list: skins follow the velocities, so only zero
    skins give the next build equal search radii.  While every particle
    sits in the cell of the same layout as at the ``previous`` build and the
    radii are equal, its stencil is tested again instead of enumerated anew;
    the result is the same either way.
    """
    skins = _skins(particles, cfg) if skins is None else _lengths(particles, skins, "skin")
    reach = particles.radius + skins
    pair_list, d2, stencil = _pairs_with_stats(
        particles, cfg, reach, None if previous is None else previous.stencil)
    ia, ib = pair_list.columns
    d0 = np.sqrt(d2)
    rsum = particles.radius.take(ia) + particles.radius.take(ib)
    return VerletState(
        list=pair_list,
        reference_positions=particles.position.copy(),
        frozen_skins=skins,
        wall_rows=wall_candidates(particles, cfg.walls, reach),
        pair_slack=d0 - rsum - 1e-9 * (1.0 + d0),
        pairs_tested=len(stencil.reach2),
        stencil=None if skins.any() else stencil,
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
