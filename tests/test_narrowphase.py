import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import pair_list, spheres
from verletdem.broadphase import (
    PairList, VerletState, _WallRows, brute_force_pairs, verlet_build,
    verlet_displacement_sq, verlet_gate, verlet_needs_rebuild, wall_candidates,
)
from verletdem.core import (
    ContactParams, Particles, SimConfig, SimulationError, WallPlane, row_norm_sq, vec3,
)
from verletdem.narrowphase import CoincidentCenters, Contacts, resolve_contacts, wall_sentinel

FLOOR = WallPlane(vec3(0, 0, 0), vec3(0, 0, 1))
NO_PAIRS = PairList(np.empty(0, np.int64))


def pair_contact(pset):
    """The contact ``resolve_contacts`` finds between particles 0 and 1, or None.

    Returned as (overlap, normal).
    """
    contacts = resolve_contacts(pair_list((0, 1)), pset)
    return (contacts.overlap[0], contacts.normal[0]) if len(contacts) else None


class BehindWall(Exception):
    """The scalar reference's report of a center behind the wall."""


def sphere_plane_overlap(position, radius, w, wall_index=0):
    """The scalar reference for one sphere against one wall plane.

    Returns (id_b, overlap, normal), or None when the sphere does not
    touch the plane; raises :class:`BehindWall` when the center has signed
    distance below zero.  ``d`` is the batch :meth:`WallPlane.signed_distance`
    of the row taken twice, so it has the bits :func:`resolve_contacts`
    computes.
    """
    d = float(w.signed_distance(np.stack([position, position]))[0])
    if d < 0.0:
        raise BehindWall(f"center {abs(d):.3e} m behind wall {wall_index}")
    overlap = radius - d
    if overlap <= 0.0:
        return None
    return wall_sentinel(wall_index), overlap, -w.outward_normal


class TestSphereOverlap:
    def test_overlapping(self):
        overlap, _ = pair_contact(spheres([(0, 0, 0), (0.8, 0, 0)]))
        assert overlap == pytest.approx(0.2, abs=1e-12)

    def test_exact_touch_is_no_contact(self):
        assert pair_contact(spheres([(0, 0, 0), (1.0, 0, 0)])) is None

    def test_unequal_radii_overlap_and_normal(self):
        # overlap segment on the x axis runs from 0.2 (surface of b) to 0.3
        # (surface of a)
        overlap, normal = pair_contact(spheres([(0, 0, 0), (0.9, 0, 0)], radius=[0.3, 0.7]))
        assert overlap == pytest.approx(0.1, abs=1e-12)
        np.testing.assert_allclose(normal, [1, 0, 0], atol=1e-12)

    def test_coincident_centers(self):
        with pytest.raises(CoincidentCenters):
            pair_contact(spheres([(1, 1, 1), (1, 1, 1)]))

    def test_symmetry(self):
        a, b = (0.1, 0.2, 0.3), (0.5, 0.1, 0.4)
        ab = pair_contact(spheres([a, b], radius=[0.4, 0.35]))
        ba = pair_contact(spheres([b, a], radius=[0.35, 0.4]))
        assert ab[0] == ba[0]
        np.testing.assert_array_equal(ab[1], -ba[1])

    @given(
        st.lists(st.floats(-1, 1), min_size=3, max_size=3),
        st.lists(st.floats(-0.01, 0.01), min_size=3, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_overlap_is_lipschitz_in_center(self, pos_b, eps):
        moved = np.asarray(pos_b, dtype=float) + eps
        try:
            c0 = pair_contact(spheres([(0, 0, 0), pos_b], radius=1.2))
            c1 = pair_contact(spheres([(0, 0, 0), moved], radius=1.2))
        except CoincidentCenters:
            return
        ov0 = c0[0] if c0 else 0.0
        ov1 = c1[0] if c1 else 0.0
        step = float(np.linalg.norm(eps))
        assert abs(ov1 - ov0) <= step * (1 + 1e-9) + 1e-12


class TestSpherePlane:
    def test_overlapping_floor(self):
        id_b, overlap, normal = sphere_plane_overlap(vec3(0, 0, 0.4), 0.5, FLOOR)
        assert overlap == pytest.approx(0.1, abs=1e-12)
        np.testing.assert_array_equal(normal, [0, 0, -1])
        assert id_b == wall_sentinel(0) == -1

    def test_exact_touch(self):
        assert sphere_plane_overlap(vec3(0, 0, 0.5), 0.5, FLOOR) is None

    def test_behind_wall_raises(self):
        with pytest.raises(BehindWall):
            sphere_plane_overlap(vec3(0, 0, -0.1), 0.5, FLOOR)

    def test_twin_equals_resolve_contacts_near_a_tilted_wall(self):
        # centres within rounding of touching (d = r) or of the plane
        # (d = 0), on a tilted normal where numpy's one-row and batched
        # products round differently; near touch r - d is exact, so equal
        # overlaps mean equal distances
        rng = np.random.default_rng(21)
        normal = vec3(0.3, 0.1, 0.9) / np.linalg.norm(vec3(0.3, 0.1, 0.9))
        wall = WallPlane(vec3(0.1, -0.2, 0.3), normal)
        n = 400
        radius = rng.uniform(0.05, 0.2, n)
        level = np.where(np.arange(n) % 2 == 0, radius, 0.0) + rng.normal(0, 1e-16, n)
        tangent = np.cross(normal, rng.normal(size=(n, 3)))
        pos = wall.point + level[:, None] * normal + tangent
        pset = Particles(pos, np.zeros((n, 3)), radius, np.ones(n), np.zeros(n, bool))
        reports = []
        batch = resolve_contacts(NO_PAIRS, pset, [wall], tunneling=reports)
        d = wall.signed_distance(pos)
        behind = {i for i, _ in reports}
        assert behind == set(np.flatnonzero(d < 0.0).tolist())
        row_of = {i: k for k, i in enumerate(batch.id_a.tolist())}
        assert 0 < len(behind) and 0 < len(row_of) < n - len(behind)
        for i in range(n):
            if i in behind:
                with pytest.raises(BehindWall):
                    sphere_plane_overlap(pos[i], float(radius[i]), wall)
                continue
            twin = sphere_plane_overlap(pos[i], float(radius[i]), wall)
            if i not in row_of:
                assert twin is None
                continue
            k = row_of[i]
            id_b, overlap, normal = twin
            assert id_b == batch.id_b[k]
            assert overlap == batch.overlap[k] == radius[i] - d[i]
            assert normal.tobytes() == batch.normal[k].tobytes()


def random_cluster(seed, n=200, box=2.0, radius_range=(0.08, 0.16)):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, box, (n, 3))
    r = rng.uniform(*radius_range, n)
    vel = rng.normal(0, 0.5, (n, 3))
    return Particles(pos, vel, r, np.ones(n), np.zeros(n, bool))


class TestResolveContacts:
    def test_far_apart_candidates_resolve_to_nothing(self):
        pset = spheres([(0, 0, 1), (5, 5, 1)])
        contacts = resolve_contacts(pair_list((0, 1)), pset)
        assert len(contacts) == 0

    def test_single_particle_resting_on_floor(self):
        pset = spheres([(0.3, 0.3, 0.4)])
        contacts = resolve_contacts(NO_PAIRS, pset, walls=(FLOOR,))
        assert len(contacts) == 1
        assert (contacts.id_a[0], contacts.id_b[0]) == (0, -1)
        assert contacts.overlap[0] == pytest.approx(0.1, abs=1e-12)

    def test_brute_list_and_buffered_list_give_identical_contacts(self):
        # the candidate list only has to be a superset of the true contact
        # set; resolving a brute-force list and an inflated buffered list
        # must produce the same contacts, bit for bit
        pset = random_cluster(99)
        cfg = SimConfig(
            dt=1e-3, k_factor=300, gravity=vec3(0, 0, 0), cell_size=0.8,
            domain_min=vec3(0, 0, 0), domain_max=vec3(2, 2, 2),
            contact=ContactParams(k_n=1.0), steps=1,
        )
        exact = brute_force_pairs(pset, pset.radius)
        inflated = verlet_build(pset, cfg).list
        assert len(inflated) > len(exact)
        assert resolve_contacts(exact, pset) == resolve_contacts(inflated, pset)

    def test_superset_filter_idempotence(self):
        pset = random_cluster(5, n=60)
        exact = brute_force_pairs(pset, pset.radius)
        everything = brute_force_pairs(pset, np.full(len(pset), 10.0))
        assert resolve_contacts(exact, pset) == resolve_contacts(everything, pset)

    def test_output_ordered_by_ids_with_wall_sentinels_first(self):
        # particle 1 overlaps particle 0 and the floor
        pset = spheres([(0.0, 0, 0.4), (0.8, 0, 0.4)])
        contacts = resolve_contacts(pair_list((0, 1)), pset, walls=(FLOOR,))
        keys = list(zip(contacts.id_a.tolist(), contacts.id_b.tolist()))
        assert keys == [(0, -1), (0, 1), (1, -1)]
        assert keys == sorted(keys)

    def test_behind_wall_reported_not_fatal(self):
        pset = spheres([(0.3, 0.3, -0.2)])
        reports = []
        contacts = resolve_contacts(NO_PAIRS, pset, walls=(FLOOR,),
                                    tunneling=reports)
        assert len(contacts) == 0
        assert reports == [(0, 0)]

    def test_behind_wall_logged_without_a_report_list(self, caplog):
        # particle 0 is behind wall 1 and particle 1 behind wall 0: one
        # warning lists both, in (wall, particle) order
        side = WallPlane(vec3(0, 0, 0), vec3(1, 0, 0))
        pset = spheres([(-0.2, 0.3, 2.0), (2.0, 0.3, -0.2)])
        with caplog.at_level("WARNING", logger="verletdem.narrowphase"):
            contacts = resolve_contacts(NO_PAIRS, pset, walls=(FLOOR, side))
        assert len(contacts) == 0
        [record] = caplog.records
        assert record.name == "verletdem.narrowphase"
        assert record.getMessage() == (
            "particle(s) behind a wall, as (particle, wall): [(1, 0), (0, 1)]")

    def test_coincident_centers_propagates_ids(self):
        pset = spheres([(1, 1, 1), (1, 1, 1)])
        with pytest.raises(CoincidentCenters, match="0 and 1"):
            resolve_contacts(pair_list((0, 1)), pset)


class TestDistanceFirstPairs:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_contacts_equal_sqrt_of_every_row(self, seed, n):
        # pairs placed within a few ulps of touching, on both sides: the
        # contacts are exactly the rows with rsum - sqrt(d^2) > 0
        rng = np.random.default_rng(seed)
        ra = rng.uniform(0.05, 0.2, n)
        rb = rng.uniform(0.05, 0.2, n)
        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        gap = (ra + rb) * (1.0 + rng.integers(-8, 9, n) * 2.0**-52)
        a_pos = rng.uniform(0.0, 2.0, (n, 3))
        pos = np.concatenate([a_pos, a_pos + direction * gap[:, None]])
        radius = np.concatenate([ra, rb])
        pset = Particles(pos, np.zeros((2 * n, 3)), radius,
                         np.ones(2 * n), np.zeros(2 * n, bool))
        pairs = pair_list(*((i, n + i) for i in range(n)))

        ia, ib = pairs.columns
        diff = pos[ib] - pos[ia]
        d = np.sqrt(row_norm_sq(diff))
        overlap = radius[ia] + radius[ib] - d
        hit = overlap > 0.0
        contacts = resolve_contacts(pairs, pset)
        np.testing.assert_array_equal(contacts.id_a, ia[hit])
        np.testing.assert_array_equal(contacts.id_b, ib[hit])
        assert contacts.overlap.tobytes() == overlap[hit].tobytes()
        assert contacts.normal.tobytes() == (diff[hit] / d[hit][:, None]).tobytes()


def per_wall_reference(candidates, pset, walls, tunneling, per_wall=None, pair_rows=None):
    """A per-wall loop and an ``np.lexsort``: the reference for the wall pass.

    ``per_wall[k]`` holds the sorted ids tested against wall k (None: every
    particle against every wall).  The pair rows come from
    :func:`resolve_contacts` without walls; each wall is resolved on its
    own, and everything is sorted by (id_a, id_b).
    """
    pairs = resolve_contacts(candidates, pset, pair_rows=pair_rows)
    cols = [(pairs.id_a, pairs.id_b, pairs.overlap, pairs.normal)]
    for k, wall in enumerate(walls):
        rows = np.arange(len(pset)) if per_wall is None else per_wall[k]
        if len(rows) == 0:
            continue
        d = wall.signed_distance(pset.position, rows)
        behind = d < 0.0
        tunneling.extend((int(i), k) for i in rows[behind])
        overlap = pset.radius[rows] - d
        hit = (overlap > 0.0) & ~behind
        ids = rows[hit]
        cols.append((ids, np.full(len(ids), wall_sentinel(k)), overlap[hit],
                     np.broadcast_to(-wall.outward_normal, (len(ids), 3))))
    id_a, id_b, overlap, normal = (np.concatenate(c) for c in zip(*cols))
    order = np.lexsort((id_b, id_a))
    return Contacts(id_a[order], id_b[order], overlap[order], normal[order])


def wall_rows_of(walls, per_wall):
    """The wall-row value of the sorted ids ``per_wall[k]`` of each wall k,
    assembled column by column from those rows."""
    sizes = [len(rows) for rows in per_wall]
    stops = np.cumsum([0] + sizes)
    wall_of = np.repeat(np.arange(len(walls)), sizes)
    normals = np.array([-w.outward_normal for w in walls]).reshape(-1, 3)
    return _WallRows(
        walls=tuple(walls), ids=np.concatenate([np.empty(0, np.intp), *per_wall]),
        wall_of=wall_of, inward=np.ascontiguousarray(normals[wall_of]),
        bounds=tuple((k, int(stops[k]), int(stops[k + 1]))
                     for k in range(len(walls)) if sizes[k]))


def per_wall_of(wall_rows, n_walls):
    """The sorted ids of each wall's rows in ``wall_rows``, empty for a wall without."""
    per_wall = [np.empty(0, np.intp)] * n_walls
    for k, start, stop in wall_rows.bounds:
        per_wall[k] = wall_rows.ids[start:stop]
    return per_wall


def random_walls(rng, n_walls, spread):
    normals = rng.normal(size=(n_walls, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    points = rng.uniform(0.0, spread, (n_walls, 3))
    return normals, points, tuple(WallPlane(p, nrm) for p, nrm in zip(points, normals))


def near_walls(rng, normals, points, along, lateral_half_width):
    """Positions ``along`` the normal of a random wall each, spread sideways."""
    n = len(along)
    home = rng.integers(0, len(normals), n)
    lateral = rng.uniform(-lateral_half_width, lateral_half_width, (n, 3))
    lateral -= np.einsum("ij,ij->i", lateral, normals[home])[:, None] * normals[home]
    return points[home] + normals[home] * along[:, None] + lateral


class TestWallCache:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 60), st.integers(1, 4),
           st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_cached_rows_equal_every_row(self, seed, n, n_walls, zero_share):
        # particles start near random walls, some behind one; skins are
        # arbitrary, some zero.  After each particle moves by less than its
        # skin, testing only the cached rows gives the exhaustive result
        rng = np.random.default_rng(seed)
        normals, points, walls = random_walls(rng, n_walls, 2.0)
        radius = rng.uniform(0.05, 0.2, n)
        skins = rng.uniform(0.0, 0.3, n)
        skins[rng.uniform(size=n) < zero_share] = 0.0
        along = radius * rng.uniform(-1.0, 2.0, n) + skins * rng.uniform(0.0, 2.0, n)
        pos = near_walls(rng, normals, points, along, 1.0)
        pset = Particles(pos, np.zeros((n, 3)), radius, np.ones(n), np.zeros(n, bool))
        state = VerletState(
            list=NO_PAIRS, reference_positions=pos.copy(), frozen_skins=skins,
            wall_rows=wall_candidates(pset, walls, radius + skins), pair_slack=np.empty(0),
            pairs_tested=0, stencil=None,
        )

        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        moved = pset.copy()
        moved.position += direction * (rng.uniform(0.0, 1.0 - 1e-6, n) * skins)[:, None]
        assert not verlet_needs_rebuild(state, moved)

        pairs = brute_force_pairs(moved, moved.radius)
        every_row, cached, looped = [], [], []
        full = resolve_contacts(pairs, moved, walls, tunneling=every_row)
        fast = resolve_contacts(pairs, moved, walls, tunneling=cached,
                                wall_rows=state.wall_rows)
        assert fast.tobytes() == full.tobytes()
        assert cached == every_row
        reference = per_wall_reference(pairs, moved, walls, looped,
                                       per_wall_of(state.wall_rows, n_walls))
        assert fast.tobytes() == reference.tobytes()
        assert cached == looped

    @given(st.integers(0, 2**31 - 1), st.integers(2, 40), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_wall_pass_equals_the_per_wall_loop(self, seed, n, n_walls):
        # crowded particles near random walls, some behind one.  Each wall
        # tests an empty, a one-row or a random set of rows, and a random
        # sorted subset of the pair rows is tested.  Particle 0 touches wall
        # 0 and overlaps particle 1, so it has both kinds of contact
        rng = np.random.default_rng(seed)
        normals, points, walls = random_walls(rng, n_walls, 0.5)
        radius = rng.uniform(0.05, 0.2, n)
        pos = near_walls(rng, normals, points, radius * rng.uniform(-1.0, 2.0, n), 0.3)
        pos[0] = points[0] + normals[0] * 0.5 * radius[0]
        pos[1] = pos[0] + normals[0] * 0.5 * (radius[0] + radius[1])
        pset = Particles(pos, np.zeros((n, 3)), radius, np.ones(n), np.zeros(n, bool))
        wall_rows = []
        for k in range(n_walls):
            size = rng.integers(0 if k else 1, 3)
            if size < 2:
                rows = np.arange(size) if k == 0 else rng.integers(0, n, size)
            else:
                mask = rng.uniform(size=n) < 0.5
                mask[0] |= k == 0
                rows = np.flatnonzero(mask)
            wall_rows.append(rows)
        pairs = brute_force_pairs(pset, pset.radius)
        keep = rng.uniform(size=len(pairs)) < 0.6
        keep[0] = True                   # (0, 1), the smallest row
        pair_rows = np.flatnonzero(keep)

        fused, looped = [], []
        got = resolve_contacts(pairs, pset, walls, tunneling=fused,
                               wall_rows=wall_rows_of(walls, wall_rows), pair_rows=pair_rows)
        reference = per_wall_reference(pairs, pset, walls, looped, wall_rows, pair_rows)
        assert got.tobytes() == reference.tobytes()
        assert fused == looped
        keys = list(zip(got.id_a.tolist(), got.id_b.tolist()))
        assert (0, -1) in keys and (0, 1) in keys


SIDE = WallPlane(vec3(0, 0, 0), vec3(1, 0, 0))
# particle 0 touches the floor, the side wall and particle 1; particle 1 the
# floor; particle 2 nothing, and only particle 0 is within reach of the side
TRIO = [(0.0, 0, 0.4), (0.8, 0, 0.4), (3.0, 0, 3.0)]


class TestContactColumns:
    @pytest.mark.parametrize("positions, pairs, walls, cached, expected", [
        ([(0, 0, 1), (5, 5, 1)], ((0, 1),), (), False, []),
        ([(0, 0, 1), (0.8, 0, 1)], ((0, 1),), (), False, [(0, 1)]),
        ([(0.3, 0.3, 0.4)], (), (FLOOR,), False, [(0, -1)]),
        ([(0.0, 0, 0.4), (0.8, 0, 0.4)], ((0, 1),), (FLOOR,), False,
         [(0, -1), (0, 1), (1, -1)]),
        (TRIO, ((0, 1),), (FLOOR, SIDE), True, [(0, -2), (0, -1), (0, 1), (1, -1)]),
    ], ids=["no contacts", "pairs only", "walls only", "pairs and walls",
            "one cached wall row"])
    def test_columns_are_those_of_the_public_constructor(
            self, positions, pairs, walls, cached, expected):
        pset = spheres(positions)
        candidates = pair_list(*pairs) if pairs else NO_PAIRS
        wall_rows = wall_candidates(pset, walls, pset.radius) if cached else None
        if cached:
            assert [stop - start for _, start, stop in wall_rows.bounds] == [2, 1]
        got = resolve_contacts(candidates, pset, walls, wall_rows=wall_rows)
        assert list(zip(got.id_a.tolist(), got.id_b.tolist())) == expected
        m = len(got)
        for column, dtype in ((got.id_a, np.int64), (got.id_b, np.int64),
                              (got.overlap, np.float64)):
            assert column.dtype == dtype and column.shape == (m,)
        assert got.normal.dtype == np.float64 and got.normal.shape == (m, 3)
        assert got.normal.flags.c_contiguous
        public = Contacts(got.id_a.tolist(), got.id_b.tolist(), got.overlap.tolist(),
                          got.normal.tolist())
        assert got == public and got.tobytes() == public.tobytes()
        assert got != public.tobytes()      # bytes are not Contacts
        per_wall = None if wall_rows is None else per_wall_of(wall_rows, len(walls))
        assert got.tobytes() == per_wall_reference(candidates, pset, walls, [],
                                                   per_wall).tobytes()

    def test_every_wall_row_form_gives_the_exhaustive_contacts(self):
        # particle 3 sits behind both walls.  None, the rows wall_candidates
        # returns and a build's rows give the contacts and the tunnelling
        # reports of the per-wall loop over every particle
        pset = spheres(TRIO + [(-0.1, 0, -0.1)])
        walls = (FLOOR, SIDE)
        cfg = SimConfig(dt=1e-4, k_factor=0, gravity=vec3(0, 0, 0), cell_size=2.0,
                        domain_min=vec3(-1, -1, -1), domain_max=vec3(4, 4, 4),
                        contact=ContactParams(k_n=1.0), steps=1, walls=walls)
        expected_reports = []
        expected = per_wall_reference(NO_PAIRS, pset, walls, expected_reports)
        assert expected_reports == [(3, 0), (3, 1)]
        for wall_rows in (None, wall_candidates(pset, walls, pset.radius),
                          verlet_build(pset, cfg).wall_rows):
            reports = []
            got = resolve_contacts(NO_PAIRS, pset, walls, tunneling=reports, wall_rows=wall_rows)
            assert got.tobytes() == expected.tobytes()
            assert reports == expected_reports

    @pytest.mark.parametrize("form", ["per-wall tuple", "list", "rows of other walls"])
    def test_any_other_wall_rows_raise_the_library_error(self, form):
        # rows built for the floor alone, resolved for (SIDE, FLOOR), would
        # give one "wall 0" contact with the floor's normal where two are due
        pset = spheres(TRIO[:1])
        rows = wall_candidates(pset, (FLOOR,), pset.radius)
        wall_rows, walls = {
            "per-wall tuple": ((np.array([0]),), (FLOOR,)),
            "list": ([np.array([0])], (FLOOR,)),
            "rows of other walls": (rows, (SIDE, FLOOR)),
        }[form]
        assert len(resolve_contacts(NO_PAIRS, pset, walls)) == len(walls)
        with pytest.raises(SimulationError, match="wall_rows"):
            resolve_contacts(NO_PAIRS, pset, walls, wall_rows=wall_rows)


def box_config(cell, hi):
    return SimConfig(
        dt=1e-4, k_factor=0, gravity=vec3(0, 0, 0), cell_size=cell,
        domain_min=vec3(-hi, -hi, -hi), domain_max=vec3(hi, hi, hi),
        contact=ContactParams(k_n=1.0), steps=1,
    )


def outcome(pairs, pset, pair_rows=None):
    """Contact bytes, or the message of the CoincidentCenters raised."""
    try:
        return resolve_contacts(pairs, pset, pair_rows=pair_rows).tobytes()
    except CoincidentCenters as exc:
        return str(exc)


def gated_and_full(state, moved):
    disp = np.sqrt(verlet_displacement_sq(state, moved))
    rows = verlet_gate(state, disp)
    return outcome(state.list, moved, rows), outcome(state.list, moved), rows


class TestPairGate:
    @given(st.integers(0, 2**31 - 1), st.integers(2, 80), st.floats(0.0, 1.0), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_gated_rows_equal_every_row(self, seed, n, zero_share, coincide):
        # mixed radii and skins (some zero); each particle moves by less than
        # its skin.  The build adds up to half a radius to each skin, so the
        # list also holds rows that never touch.  With ``coincide`` particle 1
        # starts within its skin of particle 0 and moves onto it: the gate
        # must keep that row
        rng = np.random.default_rng(seed)
        cell = 1.0
        radius = rng.uniform(0.05, 0.2, n)
        extra = radius * (rng.uniform(1.0, 1.5, n) - 1.0)
        skins = rng.uniform(0.0, 1.0, n) * (0.5 * cell - radius - extra)
        skins[rng.uniform(size=n) < zero_share] = 0.0
        pos = rng.uniform(0.0, 1.5, (n, 3))
        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        step = direction * (rng.uniform(0.0, 1.0 - 1e-6, n) * skins)[:, None]
        if coincide:
            pos[1] = pos[0] - step[1]
            step[0] = 0.0
        pset = Particles(pos, np.zeros((n, 3)), radius, np.ones(n), np.zeros(n, bool))
        state = verlet_build(pset, box_config(cell, 2.0), skins=skins + extra)
        moved = pset.copy()
        moved.position += step
        if coincide:
            moved.position[1] = moved.position[0]
        assert not verlet_needs_rebuild(state, moved)

        gated, full, _ = gated_and_full(state, moved)
        assert gated == full
        if coincide:
            assert "coincident" in full

    @given(st.integers(0, 2**31 - 1), st.integers(2, 80),
           st.sampled_from(["empty", "random", "every row", "None"]))
    @settings(max_examples=80, deadline=None)
    def test_build_radii_sums_give_the_gathered_contacts(self, seed, n, subset):
        # crowded mixed radii: many rows overlap.  Any sorted subset of a
        # build's rows gives the contacts of a list of those rows alone, each
        # tested against its radii sum r_a + r_b as the build forms it
        rng = np.random.default_rng(seed)
        radius = rng.uniform(0.05, 0.2, n)
        pset = Particles(rng.uniform(0.0, 0.6, (n, 3)), np.zeros((n, 3)), radius,
                         np.ones(n), np.zeros(n, bool))
        state = verlet_build(pset, box_config(1.0, 2.0), skins=0.5 * radius)
        rows = {"empty": np.empty(0, np.int64), "every row": np.arange(len(state.list)),
                "None": None,
                "random": np.flatnonzero(rng.uniform(size=len(state.list)) < 0.5)}[subset]
        kept = resolve_contacts(state.list, pset, pair_rows=rows)
        alone = state.list if rows is None else PairList(state.list.keys[rows])
        assert kept.tobytes() == resolve_contacts(alone, pset).tobytes()
        ia, ib = alone.columns
        d = np.sqrt(row_norm_sq(pset.position[ib] - pset.position[ia]))
        overlap = radius[ia] + radius[ib] - d
        assert kept.overlap.tobytes() == overlap[overlap > 0.0].tobytes()

    def test_pairs_closing_by_their_full_skins_end_near_touching(self):
        # a and b move straight toward each other by exactly their skins and
        # end 4 ulps inside to 4 ulps outside touching: only the pad keeps
        # the rounding of the build distance and the displacements from
        # ruling out the rows that end in contact
        rng = np.random.default_rng(2024)
        contacts = mismatches = 0
        for k in np.tile(np.arange(-4, 5), 60):
            radius = rng.uniform(0.01, 0.05, 2)
            skins = rng.uniform(1e-3, 0.05, 2)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            rsum = radius.sum()
            end = np.array([np.zeros(3), u * (rsum + k * np.spacing(rsum))])
            start = end + np.array([-skins[0] * u, skins[1] * u])
            pset = Particles(start, np.zeros((2, 3)), radius, np.ones(2), np.zeros(2, bool))
            # 5% of a radius beyond the skins lists the pair whatever the rounding
            state = verlet_build(pset, box_config(0.25, 1.0), skins=skins + 0.05 * radius)
            assert len(state.list) == 1
            moved = pset.copy()
            moved.position[:] = end
            gated, full, _ = gated_and_full(state, moved)
            contacts += len(resolve_contacts(state.list, moved))
            mismatches += gated != full
        assert mismatches == 0
        assert contacts > 100

    def test_far_rows_are_skipped_and_coincident_rows_kept(self):
        # spheres of radius 0.1 at x = 0, 0.3 and 0.45, built with skins 0.1
        # and never moved: at rest the gate rules out (0, 1), 0.1 clear of
        # touching, and keeps the overlapping (1, 2).  Moved onto particle 1,
        # particle 2 must be kept and raise (the triangle inequality holds
        # for any displacement)
        pos = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.45, 0.0, 0.0]])
        pset = Particles(pos, np.zeros((3, 3)), np.full(3, 0.1), np.ones(3), np.zeros(3, bool))
        state = verlet_build(pset, box_config(1.0, 2.0), skins=np.full(3, 0.1))
        assert state.list == pair_list((0, 1), (1, 2))
        gated, full, rows = gated_and_full(state, pset)
        assert rows.tolist() == [1]
        assert gated == full
        moved = pset.copy()
        moved.position[2] = moved.position[1]
        gated, full, rows = gated_and_full(state, moved)
        assert rows.tolist() == [1]
        assert gated == full == "particles 1 and 2 have coincident centers"
