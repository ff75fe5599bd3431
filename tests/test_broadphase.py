import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import pair_list, spheres
from verletdem.broadphase import (
    CapNegative, SearchRadiusExceedsCell, SizeMismatch,
    SKIN_UNIFORM_RADIUS, _candidate_pairs, _oriented_keys, _pairs_with_stats, _skins,
    brute_force_pairs, build_grid,
    linked_cell_pairs, verlet_build, verlet_needs_rebuild, wall_candidates,
)
from verletdem.core import (
    ContactParams, Particles, SimConfig, SimulationError, WallPlane, vec3,
)
from verletdem.engine import run


IDS = st.integers(0, 12) | st.integers(0, 2**31 - 1)
FLOOR = WallPlane(vec3(0, 0, 0), vec3(0, 0, 1))


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
    return Particles(pos, vel, r, np.ones(n), np.zeros(n, bool))


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
    pset = Particles(pos, np.zeros((n, 3)), r, np.ones(n), np.zeros(n, bool))
    return pset, config(cell_size=cell, hi=tuple(hi)), rng.uniform(0.01, 0.45, n)


def far_outlier(seed):
    """499 particles in a 0.2 m corner of a 2 m domain of 1 cm cells, one in the far corner.

    The occupied box spans the whole domain: 200**3 cells for 500
    particles, which the candidate enumeration must not allocate.
    """
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 0.2, (500, 3))
    pos[-1] = 1.995
    r = rng.uniform(0.001, 0.004, 500)
    pset = Particles(pos, np.zeros((500, 3)), r, np.ones(500), np.zeros(500, bool))
    return pset, config(cell_size=0.01, hi=(2, 2, 2)), rng.uniform(0.0, 0.005, 500)


def all_outside(seed):
    """A cloud with every particle outside the domain, clamped into its boundary cells.

    60 particles sit below the domain's lower corner on every axis, so all
    of them share one clamped cell; the other 90 sit beyond its upper x
    face, spread over that face's cells.
    """
    rng = np.random.default_rng(seed)
    hi = np.array([5.0, 4.0, 6.0])
    pos = np.concatenate([rng.uniform(-1.5, 0.0, (60, 3)),
                          rng.uniform([5.01, 0.0, 0.0], [6.5, 4.0, 6.0], (90, 3))])
    r = rng.uniform(0.05, 0.35, 150)
    pset = Particles(pos, np.zeros((150, 3)), r, np.ones(150), np.zeros(150, bool))
    return pset, config(cell_size=0.9, hi=tuple(hi)), rng.uniform(0.01, 0.45, 150)


def clamped_cells(positions, cfg):
    """Each position's clamped domain cell (i, j, k), computed from ``cfg`` alone."""
    dims = np.maximum(np.ceil((cfg.domain_max - cfg.domain_min) / cfg.cell_size), 1)
    coords = np.floor((positions - cfg.domain_min) / cfg.cell_size).astype(np.int64)
    return np.clip(coords, 0, dims.astype(np.int64) - 1)


def assert_layout(grid, cells):
    """``grid`` lays out domain ``cells``: their occupied box and one ghost layer per face.

    ``cell_of`` and ``shape`` hold no absolute origin, so the padded cell of
    each particle is its domain cell less the lowest occupied one, plus one.
    """
    cells = np.asarray(cells)
    low = cells.min(axis=0)
    padded = np.stack(np.unravel_index(grid.cell_of, tuple(grid.shape)), axis=1)
    assert padded.tolist() == (cells - low + 1).tolist()
    assert grid.shape.tolist() == (cells.max(axis=0) - low + 3).tolist()


def reference_cell_ids(pos, cfg, shape):
    """The padded cell id of each position by ``np.ravel_multi_index``: its
    clamped domain cell less the lowest occupied one, plus one, in C order
    over ``shape``, the occupied box and its ghost layer."""
    ijk = clamped_cells(pos, cfg)
    low = ijk.min(axis=0)
    assert shape.tolist() == (ijk.max(axis=0) - low + 3).tolist()
    return np.ravel_multi_index(tuple((ijk - low + 1).T), tuple(shape))


def cell_residents(grid, padded_cell):
    return np.flatnonzero(grid.cell_of == padded_cell).tolist()


def searchsorted_candidates(positions, cfg):
    """Sorted candidate keys of a search over domain cell ids: the oracle of the grid's.

    Each particle is binned into its clamped domain cell, computed here from
    ``cfg``, and numbered over the whole domain.  It is paired with the
    residents of its own cell of higher id and with every resident of the 13
    lower-index neighbour cells that lie inside the domain, found by
    ``searchsorted`` over the sorted cell ids.  A key repeats if the search
    would test its pair twice.
    """
    dims = np.maximum(np.ceil((cfg.domain_max - cfg.domain_min) / cfg.cell_size), 1)
    dims = dims.astype(np.int64)
    coords = clamped_cells(positions, cfg)

    def linearize(ijk):
        return (ijk[:, 0] * dims[1] + ijk[:, 1]) * dims[2] + ijk[:, 2]

    home = linearize(coords)
    order = np.argsort(home, kind="stable")
    sorted_cells = home[order]
    keys = []
    for off in [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                for dz in (-1, 0, 1) if (dx, dy, dz) <= (0, 0, 0)]:
        nbr = coords + np.array(off)
        valid = np.all((nbr >= 0) & (nbr < dims), axis=1)
        cells = linearize(nbr[valid])
        first = np.searchsorted(sorted_cells, cells, side="left")
        last = np.searchsorted(sorted_cells, cells, side="right")
        a = np.repeat(np.flatnonzero(valid), last - first)
        slots = [np.arange(f, e) for f, e in zip(first, last)]
        b = order[np.concatenate(slots + [np.zeros(0, np.int64)])]
        if off == (0, 0, 0):
            a, b = a[a < b], b[a < b]
        keys.append((np.minimum(a, b) << 32) | np.maximum(a, b))
    return np.sort(np.concatenate(keys))


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

    @pytest.mark.parametrize("k, expected", [(0, 0.0), (200, 0.02)])
    def test_overflowing_speed_gives_a_valid_skin(self, k, expected):
        # |v|^2 overflows to inf: K = 0 must give no skin, not 0 * inf = NaN
        p = spheres([(1, 1, 1)], [(1e200, 0, 0)], radius=0.005)
        assert skin_of(p, k, 1e-5, 0.05) == expected

    def test_static_gets_zero(self):
        p = spheres([(1, 1, 1)], radius=0.005, is_static=True)
        assert skin_of(p, 5000, 1e-5, 0.05) == 0.0

    def test_cap_negative_raises(self):
        p = spheres([(1, 1, 1)], radius=0.05)
        with pytest.raises(CapNegative):
            skin_of(p, 10, 1e-5, 0.08)

    def test_capped_search_radius_fits_half_a_cell(self):
        # radius + (cell/2 - radius) rounds one ulp above cell/2 here, which
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
        pset = Particles(pset.position, pset.velocity, pset.radius, pset.mass,
                         np.arange(50) % 7 == 0)
        pset.velocity[pset.is_static] = 0.0
        cfg = config(cell_size=1.0, k_factor=3000, dt=1e-4)
        caps = 0.5 * cfg.cell_size - pset.radius
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
        assert_layout(grid, [[2, 2, 2]])
        assert tuple(grid.shape) == (3, 3, 3)          # one cell and its ghost layer

    def test_coincident_particles_share_cell(self):
        cfg = config(cell_size=2.5)
        grid = build_grid(spheres([(3, 3, 3), (3, 3, 3)]), cfg)
        assert grid.cell_of[0] == grid.cell_of[1]
        assert cell_residents(grid, grid.cell_of[0]) == [0, 1]

    def test_outside_positions_clamp_to_boundary_cells(self):
        cfg = config(cell_size=2.5)
        grid = build_grid(spheres([(-4, 5, 5), (5, 5, 99)]), cfg)
        assert_layout(grid, [[0, 2, 2], [2, 2, 3]])

    def test_reinsertion_oracle(self):
        # independent per-particle recomputation of the cell index
        rng = np.random.default_rng(3)
        pset = random_set(rng, 100)
        cfg = config(cell_size=1.5)
        grid = build_grid(pset, cfg)
        dims = [7, 7, 7]
        cells = [
            [min(max(int(np.floor((pset.position[i, d] - cfg.domain_min[d])
                                  / cfg.cell_size)), 0), dims[d] - 1)
             for d in range(3)]
            for i in range(len(pset))
        ]
        assert_layout(grid, cells)
        for i in range(len(pset)):
            assert i in cell_residents(grid, grid.cell_of[i])

    def test_ghost_layer_is_empty(self):
        # every particle, outside the domain too, lands inside the ghost layer
        pset, cfg, _ = clamped_cloud(5, 200, thin_axis=1)
        grid = build_grid(pset, cfg)
        counts = np.bincount(grid.cell_of, minlength=int(np.prod(grid.shape)))
        counts = counts.reshape(tuple(grid.shape))
        assert counts[1:-1, 1:-1, 1:-1].sum() == len(pset) == counts.sum()

    @given(st.integers(0, 2**31 - 1), st.integers(1, 60), st.integers(0, 2**19))
    @settings(max_examples=60, deadline=None)
    def test_cell_ids_are_those_of_ravel_multi_index(self, seed, n, span):
        # padded boxes from a few cells to ~2**57 of them, particles clamped
        # in from outside the domain too
        rng = np.random.default_rng(seed)
        extent = rng.integers(1, span + 2, 3)
        cfg = config(cell_size=1.0, hi=tuple(extent.tolist()))
        pos = rng.uniform(-2.0, extent + 2.0, (n, 3))
        grid = build_grid(Particles(pos, np.zeros((n, 3)), np.full(n, 0.1), np.ones(n),
                                    np.zeros(n, bool)), cfg)
        assert grid.cell_of.dtype == np.int64
        assert grid.cell_of.tolist() == reference_cell_ids(pos, cfg, grid.shape).tolist()

    def test_cell_ids_of_a_box_just_below_int64_ids(self):
        # corners 2**21 - 3 cells apart on two axes and 2**21 - 4 on the
        # third: a padded box of 2**63 - 2**42 cells
        far = (2**21 - 3 + 0.5, 2**21 - 3 + 0.5, 2**21 - 4 + 0.5)
        cfg = config(cell_size=1.0, hi=(2**22, 2**22, 2**22))
        pos = np.array([(0.5, 0.5, 0.5), far, (0.5, far[1], 0.5), (far[0], 0.5, far[2])])
        grid = build_grid(spheres(pos), cfg)
        assert grid.shape.tolist() == [2**21, 2**21, 2**21 - 1]
        assert grid.cell_of.max() > 2**62
        assert grid.cell_of.tolist() == reference_cell_ids(pos, cfg, grid.shape).tolist()
        beyond = spheres([(0.5, 0.5, 0.5), (far[0], far[1], far[2] + 1.0)])
        with pytest.raises(SimulationError, match="exceeds int64 cell ids"):
            build_grid(beyond, cfg)

    def test_layout_spans_the_occupied_box_not_the_domain(self):
        # a million domain cells, three particles in two adjacent cells
        cfg = config(cell_size=0.1, hi=(100, 100, 100))
        pset = spheres([(50.02, 50.05, 50.05), (50.09, 50.05, 50.05), (50.15, 50.05, 50.05)],
                       radius=0.04)
        grid = build_grid(pset, cfg)
        assert tuple(grid.shape) == (4, 3, 3)
        assert linked_cell_pairs(pset, cfg, [0.04] * 3) == pair_list((0, 1), (1, 2))


class TestIndexSize:
    def test_enumeration_memory_is_bounded_by_n(self):
        # the far outlier's padded box holds 202**3 cells; the index holds none of them
        pset, cfg, _ = far_outlier(0)
        grid = build_grid(pset, cfg)
        tracemalloc.start()
        try:
            id_a, _ = _candidate_pairs(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1024 * len(pset) + 64 * len(id_a)

    def test_a_run_across_a_sparse_domain_finishes(self):
        # two particles at opposite corners of 10**12 domain cells, moving
        # across a cell face now and then so that builds enumerate afresh
        cfg = dataclasses.replace(config(cell_size=0.01, hi=(100, 100, 100), dt=1e-3),
                                  steps=40)
        pset = spheres([(0.005, 0.005, 0.005), (99.995, 99.995, 99.995)],
                       [(1, 0, 0), (0, 0, -1)], radius=0.004)
        result = run(cfg, pset)
        assert result.metrics.total_steps == 40
        assert result.metrics.broad_executions == result.metrics.force_evaluations


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
        sr = pset.radius
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

    @pytest.mark.parametrize("layout", [far_outlier, all_outside])
    def test_oracle_equivalence_on_outlying_layouts(self, layout):
        pset, cfg, sr = layout(0)
        found = linked_cell_pairs(pset, cfg, sr)
        assert len(found) > 10
        assert found == brute_force_pairs(pset, sr)
        candidates = _candidate_pairs(build_grid(pset, cfg))
        oracle = searchsorted_candidates(pset.position, cfg)
        assert np.sort(_oriented_keys(*candidates)).tolist() == oracle.tolist()

    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.0, 1e-12, 1e-6, 1.0]),
           st.sampled_from([0, 1, 2]))
    @example(seed=0, tilt=0.0, axis=0)
    @example(seed=0, tilt=0.0, axis=1)
    @example(seed=0, tilt=0.0, axis=2)
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence_at_touching_distance(self, seed, tilt, axis):
        # pairs within a few ulps of their reach, along `axis` and tilted off
        # it by `tilt`: along x or y (tilt 0) the x- or y-gap filter is the
        # binding test, along z the full one; where a filter and the full
        # test differ by a rounding, the filter must not drop the pair
        rng = np.random.default_rng(seed)
        m = 40
        sr = rng.uniform(0.05, 0.45, 2 * m)
        direction = tilt * rng.normal(size=(m, 3))
        direction[:, axis] = 1.0
        direction *= np.sign(rng.normal(size=(m, 1)))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        reach = sr[:m] + sr[m:]
        dist = reach * (1.0 + rng.integers(-4, 5, m) * np.finfo(float).eps)
        first = rng.uniform(1.0, 9.0, (m, 3))
        pos = np.concatenate([first, first + direction * dist[:, None]])
        pset = Particles(pos, np.zeros((2 * m, 3)), sr, np.ones(2 * m), np.zeros(2 * m, bool))
        assert linked_cell_pairs(pset, config(cell_size=1.0), sr) == brute_force_pairs(pset, sr)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 120),
           st.sampled_from([None, 0, 1, 2]))
    @example(seed=3, n=2, thin_axis=1)
    @settings(max_examples=40, deadline=None)
    def test_tested_equals_searchsorted_count(self, seed, n, thin_axis):
        # pairs_tested is a contract number (the opcount "broad" column)
        pset, cfg, sr = clamped_cloud(seed, n, thin_axis)
        candidates = _pairs_with_stats(pset, cfg, sr)[2].candidates
        oracle = searchsorted_candidates(pset.position, cfg)
        assert len(candidates[0]) == len(oracle)
        assert np.sort(_oriented_keys(*candidates)).tolist() == oracle.tolist()


    @pytest.mark.parametrize("radius", [0.5, [0.5], [0.5] * 3, [[0.5, 0.5]]])
    def test_both_searches_reject_a_radius_not_one_per_particle(self, radius):
        # the wall search's reach too, which numpy would broadcast or refuse
        pset = spheres([(2, 2, 2), (3, 2, 2)])
        with pytest.raises(SizeMismatch):
            linked_cell_pairs(pset, config(cell_size=2.0), radius)
        with pytest.raises(SizeMismatch):
            brute_force_pairs(pset, radius)
        with pytest.raises(SizeMismatch, match="reach of shape"):
            wall_candidates(pset, (FLOOR,), radius)

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(11)
        pset = random_set(rng, 150)
        cfg = config(cell_size=1.0)
        a = linked_cell_pairs(pset, cfg, pset.radius)
        b = linked_cell_pairs(pset, cfg, pset.radius)
        assert a.keys.tobytes() == b.keys.tobytes()


class TestLengthChecks:
    """Radii and skins are one length >= 0 per particle, or the search refuses them."""

    @staticmethod
    def overlapping_pair():
        # radius 4 mm, centres 5 mm apart: the spheres overlap
        return spheres([(0.1, 0.1, 0.1), (0.105, 0.1, 0.1)], radius=0.004), \
            config(cell_size=0.02, hi=(1, 1, 1))

    @pytest.mark.parametrize("skin", [-0.003, np.nan])
    def test_verlet_build_rejects_a_negative_or_nan_skin(self, skin):
        pset, cfg = self.overlapping_pair()
        with pytest.raises(SimulationError, match=f"skin {skin} of particle 0 is not >= 0"):
            verlet_build(pset, cfg, skins=[skin, skin])

    @pytest.mark.parametrize("skins", [[0.001], [0.001] * 3, 0.001])
    def test_verlet_build_rejects_skins_not_one_per_particle(self, skins):
        pset, cfg = self.overlapping_pair()
        with pytest.raises(SizeMismatch):
            verlet_build(pset, cfg, skins=skins)

    @pytest.mark.parametrize("radius", [[0.004, -0.004], [0.004, np.nan]])
    def test_both_searches_reject_a_negative_or_nan_radius(self, radius):
        # the wall search's reach too: a NaN bound would select no rows
        pset, cfg = self.overlapping_pair()
        message = f"search radius {radius[1]} of particle 1 is not >= 0"
        with pytest.raises(SimulationError, match=message):
            linked_cell_pairs(pset, cfg, radius)
        with pytest.raises(SimulationError, match=message):
            brute_force_pairs(pset, radius)
        with pytest.raises(SimulationError, match=f"^reach {radius[1]} of particle 1 is not"):
            wall_candidates(pset, (FLOOR,), radius)

    def test_zero_skins_keep_the_overlapping_pair(self):
        pset, cfg = self.overlapping_pair()
        state = verlet_build(pset, cfg, skins=[0.0, 0.0])
        assert state.list == pair_list((0, 1))
        pset.position[1, 0] -= 0.0005
        assert verlet_needs_rebuild(state, pset)


class TestBruteForce:
    def test_empty(self):
        assert len(brute_force_pairs(spheres([]), np.empty(0))) == 0

    def test_three_collinear(self):
        pset = spheres([(float(i), 0, 0) for i in range(3)], radius=0.6)
        assert brute_force_pairs(pset, [0.6] * 3) == pair_list((0, 1), (1, 2))


class TestPairList:
    def test_contains(self):
        pl = pair_list((0, 2), (1, 3))
        assert (2, 0) in pl
        assert (0, 1) not in pl
        assert pl != [(0, 2), (1, 3)]      # a list of pairs is not a PairList

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
        assert state.list == linked_cell_pairs(pset, cfg, pset.radius)
        assert state.pairs_tested == len(searchsorted_candidates(pset.position, cfg))

    def test_k_zero_ignores_velocities(self):
        rng = np.random.default_rng(2)
        pset = random_set(rng, 40, hi=(5, 5, 5), with_velocity=True)
        cfg = config(cell_size=1.0, hi=(5, 5, 5), k_factor=0)
        state = verlet_build(pset, cfg)
        assert np.all(state.frozen_skins == 0.0)
        assert state.list == linked_cell_pairs(pset, cfg, pset.radius)

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

    def test_grid_and_build_compare_by_identity(self):
        # their array fields have no truth value, so == must not compare them
        pset, cfg, _ = clamped_cloud(5, 20, thin_axis=1)
        for make in (build_grid, verlet_build):
            first, second = make(pset, cfg), make(pset, cfg)
            assert first == first
            assert first != second

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
        # spheres overlap, with no rebuild required
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
        colliding = brute_force_pairs(moved, moved.radius)
        assert all_in(colliding, state.list)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 120), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_rebuild_invariant_for_arbitrary_skins(self, seed, n, zero_share):
        # skins drawn independently of velocity (some exactly zero, as for
        # static particles), mixed radii: moving each particle by at most
        # its frozen skin keeps every zero-skin pair in the cached list
        rng = np.random.default_rng(seed)
        cell = 1.0
        pos = rng.uniform(0.0, 5.0, (n, 3))
        radius = rng.uniform(0.05, 0.3, n)
        pset = Particles(pos, np.zeros((n, 3)), radius, np.ones(n), np.zeros(n, bool))
        skins = rng.uniform(1e-3, 1.0, n) * (0.5 * cell - radius)
        skins[rng.uniform(size=n) < zero_share] = 0.0
        state = verlet_build(pset, config(cell_size=cell, hi=(5, 5, 5)), skins=skins)

        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        moved = pset.copy()
        moved.position += direction * (rng.uniform(0.0, 1.0 - 1e-6, n) * skins)[:, None]

        assert not verlet_needs_rebuild(state, moved)
        assert all_in(brute_force_pairs(moved, moved.radius), state.list)


def moved_cloud(pset, cfg, rng, crossing):
    """``pset`` with every particle moved part of the way to its cell's centre.

    Such a move keeps each particle in its (clamped) cell: the cell index is
    monotone along the way.  With ``crossing``, about a third of the
    particles then jump up to 1.5 cells along each axis, so most of them
    cross a face.
    """
    centre = cfg.domain_min + (clamped_cells(pset.position, cfg) + 0.5) * cfg.cell_size
    moved = pset.copy()
    moved.position += rng.uniform(0.0, 1.0, (len(pset), 1)) * (centre - pset.position)
    if crossing:
        jump = rng.uniform(size=len(pset)) < 1 / 3
        moved.position[jump] += rng.uniform(-1.5, 1.5, (int(jump.sum()), 3)) * cfg.cell_size
    return moved


def assert_same_stencil(ours, theirs):
    assert [a.tobytes() for a in (ours.grid.shape, ours.grid.cell_of, ours.radii,
                                  *ours.candidates, ours.reach2)] == [
        a.tobytes() for a in (theirs.grid.shape, theirs.grid.cell_of, theirs.radii,
                              *theirs.candidates, theirs.reach2)]


def assert_same_search(got, fresh):
    """Two ``_pairs_with_stats`` results are equal byte for byte."""
    assert got[0].keys.tobytes() == fresh[0].keys.tobytes()
    assert got[1].tobytes() == fresh[1].tobytes()
    assert_same_stencil(got[2], fresh[2])


def assert_same_build(state, fresh):
    assert state.list.keys.tobytes() == fresh.list.keys.tobytes()
    assert state.pairs_tested == fresh.pairs_tested
    assert state.pair_slack.tobytes() == fresh.pair_slack.tobytes()
    ours, theirs = state.wall_rows, fresh.wall_rows
    assert ours.walls == theirs.walls and ours.bounds == theirs.bounds
    assert [a.tobytes() for a in (ours.ids, ours.wall_of, ours.inward)] == [
        a.tobytes() for a in (theirs.ids, theirs.wall_of, theirs.inward)]
    assert_same_stencil(state.stencil, fresh.stencil)


class TestStencilReuse:
    @given(st.integers(0, 2**31 - 1), st.integers(0, 120),
           st.sampled_from([None, 0, 1, 2]), st.booleans(), st.booleans())
    @example(seed=0, n=0, thin_axis=None, crossing=False, reskin=False)
    @example(seed=4, n=2, thin_axis=1, crossing=True, reskin=False)
    @example(seed=5, n=60, thin_axis=None, crossing=False, reskin=False)
    @example(seed=5, n=60, thin_axis=None, crossing=False, reskin=True)
    @settings(max_examples=60, deadline=None)
    def test_reused_stencil_equals_a_fresh_build(self, seed, n, thin_axis, crossing, reskin):
        # a stencil is a function of the grid's shape and cell_of and of the
        # search radii: a search that reuses it must equal one that does not,
        # byte for byte, and it is reused whole or not at all, so a changed
        # skin on the same cells enumerates afresh.  Only a build with zero
        # skins keeps its stencil, and a build that reuses it equals a fresh one
        pset, cfg, _ = clamped_cloud(seed, n, thin_axis)
        hi = cfg.domain_max
        cfg = dataclasses.replace(cfg, walls=(
            WallPlane(vec3(0, 0, 0), vec3(0, 0, 1)), WallPlane(hi, vec3(-1, 0, 0))))
        rng = np.random.default_rng(seed + 1)
        cap = 0.5 * cfg.cell_size - pset.radius
        skins = rng.uniform(0.0, 1.0, n) * cap
        first = _pairs_with_stats(pset, cfg, pset.radius + skins)[2]
        moved = moved_cloud(pset, cfg, rng, crossing)
        if reskin:
            skins = rng.uniform(0.0, 1.0, n) * cap
        got = _pairs_with_stats(moved, cfg, moved.radius + skins, first)
        assert_same_search(got, _pairs_with_stats(moved, cfg, moved.radius + skins))
        reused = got[2] is first
        if reskin and n:
            assert not reused
        elif not crossing:
            assert reused
        zero = np.zeros(n)
        built = verlet_build(pset, cfg, zero)
        state = verlet_build(moved, cfg, zero, previous=built)
        assert_same_build(state, verlet_build(moved, cfg, zero))
        before, after = build_grid(pset, cfg), build_grid(moved, cfg)
        assert (state.stencil is built.stencil) == (
            np.array_equal(before.shape, after.shape)
            and np.array_equal(before.cell_of, after.cell_of))
        assert (verlet_build(moved, cfg, skins).stencil is None) == bool(skins.any())

    def test_stencil_is_keyed_on_radius_values(self):
        # radii changed in place after a build must not pass for the stored
        # ones, and an equal copy must
        pset, cfg, radii = clamped_cloud(3, 80, thin_axis=None)
        pairs, _, stencil = _pairs_with_stats(pset, cfg, radii)
        again = _pairs_with_stats(pset, cfg, radii.copy(), stencil)
        assert again[0] == pairs and again[2] is stencil
        radii *= 0.5
        again = _pairs_with_stats(pset, cfg, radii, stencil)
        fresh = _pairs_with_stats(pset, cfg, radii)
        assert again[2] is not stencil
        assert_same_search(again, fresh)
        assert len(again[0]) < len(pairs)

    @pytest.mark.parametrize("other", ["one particle fewer", "other radii"])
    def test_a_build_of_another_particle_set_is_not_reused(self, other):
        # a previous build of another particle set, on the same positions
        # less the last one or with the radii halved, must give the build
        # made without it
        pset, cfg, _ = clamped_cloud(6, 60, thin_axis=None)
        keep = slice(0, 59) if other == "one particle fewer" else slice(None)
        scale = 0.5 if other == "other radii" else 1.0
        before = Particles(pset.position[keep], pset.velocity[keep],
                           pset.radius[keep] * scale, pset.mass[keep], pset.is_static[keep])
        first = verlet_build(before, cfg, np.zeros(len(before)))
        state = verlet_build(pset, cfg, np.zeros(60), previous=first)
        assert state.stencil is not first.stencil
        assert_same_build(state, verlet_build(pset, cfg, np.zeros(60)))

    def test_far_outlier_build_reuses_its_stencil(self):
        pset, cfg, _ = far_outlier(1)
        rng = np.random.default_rng(2)
        radii = pset.radius + rng.uniform(0.0, 1.0, len(pset)) * (0.5 * cfg.cell_size - pset.radius)
        first = _pairs_with_stats(pset, cfg, radii)[2]
        moved = moved_cloud(pset, cfg, rng, crossing=False)
        got = _pairs_with_stats(moved, cfg, radii, first)
        assert got[2] is first
        assert len(got[0]) > 10
        assert_same_search(got, _pairs_with_stats(moved, cfg, radii))

    def test_a_face_crossing_into_touching_range_is_found(self):
        # particle 1 moves from cell 2 into cell 1, overlapping particle 0 in
        # cell 0; particle 2 keeps the particle count and the grid's shape,
        # so only cell_of tells that the old candidates are stale
        cfg = config(cell_size=1.0, hi=(5, 5, 5))
        pset = spheres([(0.5, 0.5, 0.5), (2.5, 0.5, 0.5), (3.5, 0.5, 0.5)], radius=0.3)
        first = verlet_build(pset, cfg)
        assert (0, 1) not in first.list
        moved = pset.copy()
        moved.position[1, 0] = 1.05
        state = verlet_build(moved, cfg, previous=first)
        assert tuple(state.stencil.grid.shape) == tuple(first.stencil.grid.shape)
        assert (0, 1) in state.list
        assert_same_build(state, verlet_build(moved, cfg))


class TestNeedsRebuild:
    def _state(self, skin=0.002):
        # x starts at 0 so that "displacement exactly equal to the skin"
        # is exact in floating point
        pset = Particles(
            position=np.array([[0.0, 1.0, 1.0]]), velocity=np.zeros((1, 3)),
            radius=[0.005], mass=[1.0], is_static=[False],
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
            radius=[0.1, 0.1], mass=[1, 1],
            is_static=[False, False],
        )
        with pytest.raises(SizeMismatch):
            verlet_needs_rebuild(state, two)
