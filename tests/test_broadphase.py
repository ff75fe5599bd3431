import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import pair_list, spheres
from verletdem.broadphase import (
    CapNegative, SearchRadiusExceedsCell, SizeMismatch,
    SKIN_UNIFORM_RADIUS, _pairs_with_stats, _skins, brute_force_pairs, build_grid,
    linked_cell_pairs, verlet_build, verlet_needs_rebuild,
)
from verletdem.core import ContactParams, Particles, SimConfig, vec3


IDS = st.integers(0, 12) | st.integers(0, 2**31 - 1)


def config(cell_size, lo=(0, 0, 0), hi=(10, 10, 10), k_factor=0, dt=1e-4):
    return SimConfig(
        dt=dt, k_factor=k_factor, gravity=vec3(0, 0, 0), cell_size=cell_size,
        domain_min=vec3(*lo), domain_max=vec3(*hi),
        contact=ContactParams(k_n=1.0), steps=1,
    )


def random_set(rng, n, hi=(10, 10, 10), r_range=(0.1, 0.3), with_velocity=False):
    pos = rng.uniform(np.zeros(3), np.array(hi), (n, 3))
    r = rng.uniform(*r_range, n)
    vel = rng.normal(0, 1, (n, 3)) if with_velocity else np.zeros((n, 3))
    return Particles(pos, vel, r, r, np.ones(n), np.zeros(n, bool))


def clamped_cloud(seed, n, thin_axis):
    """Particles in and around a domain, one axis optionally thinner than a cell.

    About a third of the particles are thrown around the domain, most of
    them outside it, where the grid clamps them into its boundary cells.
    """
    rng = np.random.default_rng(seed)
    cell = 0.9
    hi = np.array([5.0, 4.0, 6.0])
    if thin_axis is not None:
        hi[thin_axis] = rng.uniform(0.05, 0.85)
    pos = rng.uniform(0.0, hi, (n, 3))
    out = rng.uniform(size=n) < 1 / 3
    pos[out] = rng.uniform(-0.25 * hi - 0.5, 1.25 * hi + 0.5, (int(out.sum()), 3))
    r = rng.uniform(0.05, 0.35, n)
    pset = Particles(pos, np.zeros((n, 3)), r, r, np.ones(n), np.zeros(n, bool))
    return pset, config(cell_size=cell, hi=tuple(hi)), rng.uniform(0.01, 0.45, n)


def domain_cells(grid):
    """Each particle's domain cell (i, j, k), read off the padded layout."""
    return grid.corner + np.stack(np.unravel_index(grid.cell_of, tuple(grid.shape)), axis=1)


def cell_residents(grid, padded_cell):
    return grid.order[grid.starts[padded_cell]:grid.starts[padded_cell + 1]].tolist()


def searchsorted_tested(positions, cfg):
    """Candidate count of the searchsorted search the CSR cell starts replaced.

    Each particle is binned into its clamped domain cell, computed here from
    ``cfg``.  It is counted against the other residents of its own cell (each
    pair once) and against every resident of the 13 lower-index neighbour
    cells that lie inside the domain.
    """
    dims = np.maximum(np.ceil((cfg.domain_max - cfg.domain_min) / cfg.cell_size), 1)
    dims = dims.astype(np.int64)
    coords = np.floor((positions - cfg.domain_min) / cfg.cell_size).astype(np.int64)
    coords = np.clip(coords, 0, dims - 1)

    def linearize(ijk):
        return (ijk[:, 0] * dims[1] + ijk[:, 1]) * dims[2] + ijk[:, 2]

    home = linearize(coords)
    sorted_cells = np.sort(home)

    def residents(cells):
        return (np.searchsorted(sorted_cells, cells, side="right")
                - np.searchsorted(sorted_cells, cells, side="left"))

    tested = int((residents(home) - 1).sum()) // 2
    for off in [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                for dz in (-1, 0, 1) if (dx, dy, dz) < (0, 0, 0)]:
        nbr = coords + np.array(off)
        valid = np.all((nbr >= 0) & (nbr < dims), axis=1)
        tested += int(residents(linearize(nbr[valid])).sum())
    return tested


def skin_of(p, k_factor, dt, cell_size, **kwargs):
    """The skin ``_skins`` gives the one particle of set ``p``."""
    cfg = dataclasses.replace(config(cell_size, k_factor=k_factor, dt=dt), **kwargs)
    return float(_skins(p, cfg)[0])


def all_in(small, big):
    """True when every pair of list ``small`` is in list ``big``."""
    return bool(np.isin(small.keys, big.keys).all())


class TestComputeSkin:
    def test_cap_inactive(self):
        p = spheres([(1, 1, 1)], [(1, 0, 0)], radius=0.005)
        assert skin_of(p, 200, 1e-5, 0.05) == pytest.approx(0.002)

    def test_cap_binds(self):
        p = spheres([(1, 1, 1)], [(1, 0, 0)], radius=0.005)
        assert skin_of(p, 5000, 1e-5, 0.02) == pytest.approx(0.005)

    def test_k_zero(self):
        p = spheres([(1, 1, 1)], [(3, -2, 9)], radius=0.005)
        assert skin_of(p, 0, 1e-5, 0.05) == 0.0

    def test_static_gets_zero(self):
        p = spheres([(1, 1, 1)], radius=0.005, is_static=True)
        assert skin_of(p, 5000, 1e-5, 0.05) == 0.0

    def test_cap_negative_raises(self):
        p = spheres([(1, 1, 1)], radius=0.05)
        with pytest.raises(CapNegative):
            skin_of(p, 10, 1e-5, 0.08)

    def test_capped_search_radius_fits_half_a_cell(self):
        # cutoff + (cell/2 - cutoff) rounds one ulp above cell/2 here, which
        # made the build's guard raise SearchRadiusExceedsCell on a valid config
        cut, cell = 0.004524571004753451, 0.04592666450280474
        assert cut + (0.5 * cell - cut) > 0.5 * cell
        pair = spheres([(0.1, 0.1, 0.1), (0.3, 0.3, 0.3)], [(5, 0, 0), (0, 0, 0)], radius=cut)
        state = verlet_build(pair, config(cell, hi=(1, 1, 1), k_factor=1000, dt=1e-4))
        skin = state.frozen_skins[0]
        assert cut + skin <= 0.5 * cell
        assert skin == np.nextafter(0.5 * cell - cut, 0.0)    # one ulp below the plain cap

    def test_buffer_off_gives_zero(self):
        p = spheres([(1, 1, 1)], [(1, 0, 0)], radius=0.005)
        assert skin_of(p, 200, 1e-5, 0.05, verlet_enabled=False) == 0.0

    def test_bits_of_each_mode(self):
        # np.minimum(raw, caps), raw = k |v| dt or the radius, then static -> 0
        rng = np.random.default_rng(4)
        pset = random_set(rng, 50, r_range=(0.1, 0.45), with_velocity=True)
        pset.is_static[::7] = True
        pset.velocity[pset.is_static] = 0.0
        cfg = config(cell_size=1.0, k_factor=3000, dt=1e-4)
        caps = 0.5 * cfg.cell_size - pset.cutoff
        speed = np.sqrt(np.einsum("ij,ij->i", pset.velocity, pset.velocity))
        for skins, raw in ((_skins(pset, cfg), cfg.k_factor * speed * cfg.dt),
                           (_skins(pset, cfg, SKIN_UNIFORM_RADIUS), pset.radius)):
            expected = np.minimum(raw, caps)
            expected[pset.is_static] = 0.0
            assert skins.tobytes() == expected.tobytes()
            assert 0 < np.count_nonzero(skins == caps) < np.count_nonzero(~pset.is_static)


class TestBuildGrid:
    def test_single_particle_center(self):
        cfg = config(cell_size=2.5, hi=(10, 10, 10))   # 4 x 4 x 4 domain cells
        grid = build_grid(spheres([(5, 5, 5)]), cfg)
        assert domain_cells(grid).tolist() == [[2, 2, 2]]
        assert tuple(grid.shape) == (3, 3, 3)          # one cell and its ghost layer
        assert np.count_nonzero(np.diff(grid.starts)) == 1

    def test_coincident_particles_share_cell(self):
        cfg = config(cell_size=2.5)
        grid = build_grid(spheres([(3, 3, 3), (3, 3, 3)]), cfg)
        assert grid.cell_of[0] == grid.cell_of[1]
        assert np.count_nonzero(np.diff(grid.starts)) == 1
        assert cell_residents(grid, grid.cell_of[0]) == [0, 1]

    def test_outside_positions_clamp_to_boundary_cells(self):
        cfg = config(cell_size=2.5)
        grid = build_grid(spheres([(-4, 5, 5), (5, 5, 99)]), cfg)
        assert domain_cells(grid).tolist() == [[0, 2, 2], [2, 2, 3]]

    def test_reinsertion_oracle(self):
        # independent per-particle recomputation of the cell index
        rng = np.random.default_rng(3)
        pset = random_set(rng, 100)
        cfg = config(cell_size=1.5)
        grid = build_grid(pset, cfg)
        cells = domain_cells(grid)
        dims = [7, 7, 7]
        for i in range(len(pset)):
            ijk = [
                min(max(int(np.floor((pset.position[i, d] - cfg.domain_min[d])
                                     / cfg.cell_size)), 0), dims[d] - 1)
                for d in range(3)
            ]
            assert cells[i].tolist() == ijk
            assert i in cell_residents(grid, grid.cell_of[i])

    def test_ghost_layer_is_empty(self):
        # every particle, outside the domain too, lands inside the ghost layer
        pset, cfg, _ = clamped_cloud(5, 200, thin_axis=1)
        grid = build_grid(pset, cfg)
        counts = np.diff(grid.starts).reshape(tuple(grid.shape))
        assert counts[1:-1, 1:-1, 1:-1].sum() == len(pset) == counts.sum()

    def test_starts_span_the_occupied_box_not_the_domain(self):
        # a million domain cells, three particles in two adjacent cells
        cfg = config(cell_size=0.1, hi=(100, 100, 100))
        pset = spheres([(50.02, 50.05, 50.05), (50.09, 50.05, 50.05), (50.15, 50.05, 50.05)],
                       radius=0.04)
        grid = build_grid(pset, cfg)
        assert tuple(grid.shape) == (4, 3, 3)
        assert len(grid.starts) == 4 * 3 * 3 + 1
        assert linked_cell_pairs(pset, cfg, [0.04] * 3) == pair_list((0, 1), (1, 2))


class TestLinkedCellPairs:
    def test_boundary_inclusive(self):
        pset = spheres([(2, 2, 2), (3, 2, 2)])
        cfg = config(cell_size=2.0)
        assert linked_cell_pairs(pset, cfg, [0.5, 0.5]) == pair_list((0, 1))

    def test_just_outside_range(self):
        pset = spheres([(2, 2, 2), (3.000001, 2, 2)])
        cfg = config(cell_size=2.0)
        assert len(linked_cell_pairs(pset, cfg, [0.5, 0.5])) == 0

    def test_search_radius_precondition(self):
        pset = spheres([(2, 2, 2), (3, 2, 2)])
        cfg = config(cell_size=2.0)
        with pytest.raises(SearchRadiusExceedsCell):
            linked_cell_pairs(pset, cfg, [1.5, 0.5])

    def test_matches_brute_force_on_random_200(self):
        rng = np.random.default_rng(7)
        pset = random_set(rng, 200)
        cfg = config(cell_size=0.8)
        sr = pset.cutoff
        assert linked_cell_pairs(pset, cfg, sr) == brute_force_pairs(pset, sr)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 120),
           st.sampled_from([None, 0, 1, 2]))
    @example(seed=0, n=0, thin_axis=None)
    @example(seed=1, n=1, thin_axis=2)
    @example(seed=2, n=2, thin_axis=0)
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence_property(self, seed, n, thin_axis):
        pset, cfg, sr = clamped_cloud(seed, n, thin_axis)
        assert linked_cell_pairs(pset, cfg, sr) == brute_force_pairs(pset, sr)

    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.0, 1e-12, 1e-6, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence_at_touching_distance(self, seed, tilt):
        # pairs within a few ulps of their reach, tilted off the x axis by
        # `tilt`: where the grid's x-gap prefilter and the full distance
        # test differ by a rounding, the prefilter must not drop the pair
        rng = np.random.default_rng(seed)
        m = 40
        sr = rng.uniform(0.05, 0.45, 2 * m)
        direction = np.column_stack([np.ones(m), tilt * rng.normal(size=(m, 2))])
        direction *= np.sign(rng.normal(size=(m, 1)))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        reach = sr[:m] + sr[m:]
        dist = reach * (1.0 + rng.integers(-4, 5, m) * np.finfo(float).eps)
        first = rng.uniform(1.0, 9.0, (m, 3))
        pos = np.concatenate([first, first + direction * dist[:, None]])
        pset = Particles(pos, np.zeros((2 * m, 3)), sr, sr, np.ones(2 * m), np.zeros(2 * m, bool))
        assert linked_cell_pairs(pset, config(cell_size=1.0), sr) == brute_force_pairs(pset, sr)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 120),
           st.sampled_from([None, 0, 1, 2]))
    @example(seed=3, n=2, thin_axis=1)
    @settings(max_examples=40, deadline=None)
    def test_tested_equals_searchsorted_count(self, seed, n, thin_axis):
        # pairs_tested is a contract number (the opcount "broad" column)
        pset, cfg, sr = clamped_cloud(seed, n, thin_axis)
        _, tested, _ = _pairs_with_stats(pset, cfg, sr)
        assert tested == searchsorted_tested(pset.position, cfg)

    @pytest.mark.parametrize("radius", [0.5, [0.5], [0.5] * 3, [[0.5, 0.5]]])
    def test_both_searches_reject_a_radius_not_one_per_particle(self, radius):
        pset = spheres([(2, 2, 2), (3, 2, 2)])
        with pytest.raises(SizeMismatch):
            linked_cell_pairs(pset, config(cell_size=2.0), radius)
        with pytest.raises(SizeMismatch):
            brute_force_pairs(pset, radius)

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(11)
        pset = random_set(rng, 150)
        cfg = config(cell_size=1.0)
        a = linked_cell_pairs(pset, cfg, pset.cutoff)
        b = linked_cell_pairs(pset, cfg, pset.cutoff)
        assert a.keys.tobytes() == b.keys.tobytes()


class TestBruteForce:
    def test_empty(self):
        assert len(brute_force_pairs(Particles.empty(), np.empty(0))) == 0

    def test_three_collinear(self):
        pset = spheres([(float(i), 0, 0) for i in range(3)], radius=0.6)
        assert brute_force_pairs(pset, [0.6] * 3) == pair_list((0, 1), (1, 2))


class TestPairList:
    def test_contains(self):
        pl = pair_list((0, 2), (1, 3))
        assert (2, 0) in pl
        assert (0, 1) not in pl

    @given(st.lists(st.tuples(IDS, IDS).filter(lambda p: p[0] != p[1]), max_size=40),
           st.lists(st.tuples(IDS, IDS).filter(lambda p: p[0] != p[1]), max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_a_set(self, raw, extra):
        # the list of a set of (low, high) pairs: its columns, membership in
        # either orientation and equality agree with the set
        def ref_of(pairs):
            return {(min(a, b), max(a, b)) for a, b in pairs}

        ref = ref_of(raw)
        expected = sorted(ref)
        pl = pair_list(*expected)
        assert len(pl) == len(ref)
        assert pl.keys.tolist() == [a * 2**32 + b for a, b in expected]
        assert [c.tolist() for c in pl.columns] == [[p[i] for p in expected] for i in (0, 1)]
        for a, b in raw + extra:
            assert ((a, b) in pl) == ((b, a) in pl) == ((min(a, b), max(a, b)) in ref)
        for other_raw in (raw[::2], raw[::-1], extra, raw + extra):
            other_ref = ref_of(other_raw)
            assert (pl == pair_list(*sorted(other_ref))) == (ref == other_ref)


class TestVerletBuild:
    def _resting_set(self, rng, n=40):
        return random_set(rng, n, hi=(5, 5, 5))

    def test_at_rest_equals_plain_broadphase(self):
        rng = np.random.default_rng(1)
        pset = self._resting_set(rng)
        cfg = config(cell_size=1.0, hi=(5, 5, 5), k_factor=500)
        state = verlet_build(pset, cfg)
        assert np.all(state.frozen_skins == 0.0)
        assert state.list == linked_cell_pairs(pset, cfg, pset.cutoff)
        assert state.pairs_tested == searchsorted_tested(pset.position, cfg)

    def test_k_zero_ignores_velocities(self):
        rng = np.random.default_rng(2)
        pset = random_set(rng, 40, hi=(5, 5, 5), with_velocity=True)
        cfg = config(cell_size=1.0, hi=(5, 5, 5), k_factor=0)
        state = verlet_build(pset, cfg)
        assert np.all(state.frozen_skins == 0.0)
        assert state.list == linked_cell_pairs(pset, cfg, pset.cutoff)

    def test_k_monotone_membership(self):
        rng = np.random.default_rng(5)
        pset = random_set(rng, 80, hi=(5, 5, 5), with_velocity=True)
        cfg0 = config(cell_size=1.0, hi=(5, 5, 5), k_factor=0, dt=1e-3)
        cfg1 = config(cell_size=1.0, hi=(5, 5, 5), k_factor=100, dt=1e-3)
        cfg2 = config(cell_size=1.0, hi=(5, 5, 5), k_factor=400, dt=1e-3)
        l0 = verlet_build(pset, cfg0).list
        l1 = verlet_build(pset, cfg1).list
        l2 = verlet_build(pset, cfg2).list
        assert all_in(l0, l1)
        assert all_in(l1, l2)
        assert len(l1) > len(l0)   # velocities are O(1), skins grow

    def test_build_freshness(self):
        rng = np.random.default_rng(6)
        pset = random_set(rng, 30, hi=(5, 5, 5), with_velocity=True)
        cfg = config(cell_size=1.0, hi=(5, 5, 5), k_factor=50)
        state = verlet_build(pset, cfg)
        assert not verlet_needs_rebuild(state, pset)

    def test_canonical_ordering_contract(self):
        rng = np.random.default_rng(8)
        pset = random_set(rng, 120, hi=(5, 5, 5))
        cfg = config(cell_size=1.0, hi=(5, 5, 5))
        pl = verlet_build(pset, cfg).list
        ia, ib = pl.columns
        assert np.all(ia < ib)
        assert np.array_equal(pl.keys, (ia << np.int64(32)) | ib)
        assert np.all(np.diff(pl.keys) > 0)    # strictly sorted, no duplicates

    @given(st.integers(0, 2**31 - 1), st.integers(2, 80), st.integers(1, 400))
    @settings(max_examples=40, deadline=None)
    def test_list_stays_safe_while_displacements_within_skins(self, seed, n, k):
        # the heart of the buffer: as long as nobody outruns their frozen
        # skin, the cached list still contains every pair of particles whose
        # cutoffs overlap, with no rebuild required
        rng = np.random.default_rng(seed)
        pset = random_set(rng, n, hi=(5, 5, 5), with_velocity=True)
        cfg = config(cell_size=1.0, hi=(5, 5, 5), k_factor=k, dt=1e-3)
        state = verlet_build(pset, cfg)

        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        dist = rng.uniform(0.0, 0.999, n) * state.frozen_skins
        moved = pset.copy()
        moved.position += direction * dist[:, None]

        assert not verlet_needs_rebuild(state, moved)
        colliding = brute_force_pairs(moved, moved.cutoff)
        assert all_in(colliding, state.list)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 120), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_rebuild_invariant_for_arbitrary_skins(self, seed, n, zero_share):
        # skins drawn independently of velocity (some exactly zero, as for
        # static particles), mixed cutoffs: moving each particle by at most
        # its frozen skin keeps every zero-skin pair in the cached list
        rng = np.random.default_rng(seed)
        cell = 1.0
        pos = rng.uniform(0.0, 5.0, (n, 3))
        cutoff = rng.uniform(0.05, 0.3, n)
        pset = Particles(pos, np.zeros((n, 3)), cutoff, cutoff, np.ones(n), np.zeros(n, bool))
        skins = rng.uniform(1e-3, 1.0, n) * (0.5 * cell - cutoff)
        skins[rng.uniform(size=n) < zero_share] = 0.0
        state = verlet_build(pset, config(cell_size=cell, hi=(5, 5, 5)), skins=skins)

        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        moved = pset.copy()
        moved.position += direction * (rng.uniform(0.0, 1.0 - 1e-6, n) * skins)[:, None]

        assert not verlet_needs_rebuild(state, moved)
        assert all_in(brute_force_pairs(moved, moved.cutoff), state.list)


class TestNeedsRebuild:
    def _state(self, skin=0.002):
        # x starts at 0 so that "displacement exactly equal to the skin"
        # is exact in floating point
        pset = Particles(
            position=np.array([[0.0, 1.0, 1.0]]), velocity=np.zeros((1, 3)),
            radius=[0.005], cutoff=[0.005], mass=[1.0], is_static=[False],
        )
        cfg = config(cell_size=0.05, hi=(2, 2, 2))
        state = verlet_build(pset, cfg)
        object.__setattr__(state, "frozen_skins", np.array([skin]))
        return state, pset

    def test_no_motion(self):
        state, pset = self._state()
        assert verlet_needs_rebuild(state, pset) is False

    def test_exact_boundary_is_valid(self):
        state, pset = self._state(skin=0.002)
        pset.position[0, 0] += 0.002
        assert verlet_needs_rebuild(state, pset) is False

    def test_beyond_skin(self):
        state, pset = self._state(skin=0.002)
        pset.position[0, 0] += 0.003
        assert verlet_needs_rebuild(state, pset) is True

    def test_straight_line_displacement_not_path_length(self):
        # out and back: accumulated path exceeds the skin, displacement = 0
        state, pset = self._state(skin=0.002)
        pset.position[0, 0] += 0.0015
        assert verlet_needs_rebuild(state, pset) is False
        pset.position[0, 0] -= 0.0015
        assert verlet_needs_rebuild(state, pset) is False

    def test_size_mismatch(self):
        state, _ = self._state()
        two = Particles(
            position=np.zeros((2, 3)), velocity=np.zeros((2, 3)),
            radius=[0.1, 0.1], cutoff=[0.1, 0.1], mass=[1, 1],
            is_static=[False, False],
        )
        with pytest.raises(SizeMismatch):
            verlet_needs_rebuild(state, two)
