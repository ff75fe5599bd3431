import dataclasses
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verletdem.engine
from builders import spheres
from verletdem.bench import make_scenario, run_sweep, validate_equivalence
from verletdem.broadphase import (
    SKIN_UNIFORM_RADIUS, PairList, VerletState, _skins, brute_force_pairs,
)
from verletdem.cli import EXIT_CONFIG, main
from verletdem.core import ConfigError, ContactParams, Particles, SimConfig, WallPlane, vec3
from verletdem.engine import (
    OPCOUNT, WALLTIME, PhaseMetrics, RunResult, SimState, SimulationUnstable, _Driver, run,
)


def open_config(steps, k_factor=100, cell=4.0, half=8.0, dt=1e-3, **contact_kw):
    contact = ContactParams(**({"k_n": 100.0} | contact_kw))
    return SimConfig(
        dt=dt, k_factor=k_factor, gravity=vec3(0, 0, 0), cell_size=cell,
        domain_min=vec3(-half, -half, -half), domain_max=vec3(half, half, half),
        contact=contact, steps=steps,
    )


def driver_for(state, cfg, **kwargs):
    """A driver of one run from ``state``, with a fresh opcount record."""
    return _Driver(RunResult(state, PhaseMetrics()), cfg, **kwargs)


class TestMaybeBroadphase:
    """The driver's rebuild-or-reuse decision, which writes ``state.verlet``."""

    def test_first_evaluation_executes(self):
        pset = spheres([(0, 0, 0)])
        driver = driver_for(SimState(particles=pset), open_config(1))
        driver.evaluate(pset)
        assert driver.result.rebuild_events == [(0, False)]    # built, not needed
        assert driver.metrics.broad_executions == 1
        assert len(driver.state.verlet.reference_positions) == 1

    def test_valid_list_is_reused(self):
        pset = spheres([(0, 0, 0)], [(1, 0, 0)])
        driver = driver_for(SimState(particles=pset), open_config(1, k_factor=100))
        driver.evaluate(pset)
        verlet = driver.state.verlet
        tested, pair_rows = driver._broadphase()
        assert tested == 0 and pair_rows is not None          # reused, gated rows
        assert driver.state.verlet is verlet
        assert driver.metrics.broad_executions == 1

    def test_disabled_buffer_rebuilds_every_time(self):
        pset = spheres([(0, 0, 0)])
        cfg = open_config(1)
        cfg = SimConfig(**{**cfg.__dict__, "verlet_enabled": False})
        driver = driver_for(SimState(particles=pset), cfg)
        driver.evaluate(pset)
        verlet = driver.state.verlet
        assert driver._broadphase()[1] is None                 # a fresh list: every row
        assert driver.state.verlet is not verlet               # no displacement, still rebuilt
        assert driver.metrics.broad_executions == 2
        assert np.all(driver.state.verlet.frozen_skins == 0.0)


class TestStaticOnly:
    def test_single_broadphase_for_static_scene(self):
        pset = spheres([(float(i), 0, 0) for i in range(5)], is_static=True)
        cfg = SimConfig(
            dt=1e-3, k_factor=200, gravity=vec3(0, 0, -9.81), cell_size=4.0,
            domain_min=vec3(-8, -8, -8), domain_max=vec3(8, 8, 8),
            contact=ContactParams(k_n=100.0), steps=1000,
        )
        result = run(cfg, pset)
        assert result.metrics.broad_executions == 1
        assert result.metrics.force_evaluations == 1001
        np.testing.assert_array_equal(result.state.particles.position, pset.position)


class TestApproachingPair:
    def test_contact_resolved_without_further_broadphase(self):
        # approach distance is far below each skin (K v dt = 2.0), so the
        # pair enters the list at step 0 and first touches ~600 steps later
        # with no rebuild in between
        pset = spheres([(-1.1, 0, 0), (1.1, 0, 0)], [(0.1, 0, 0), (-0.1, 0, 0)])
        cfg = open_config(steps=620, k_factor=2000, cell=10.0, half=20.0, dt=0.01)
        result = run(cfg, pset)
        assert result.metrics.broad_executions == 1
        assert result.metrics.model_time > 0      # opcount: contacts were resolved
        assert (0, 1) in result.state.verlet.list

    def test_rebuild_happens_once_skin_is_outrun(self):
        pset = spheres([(0, 0, 0)], [(1.0, 0, 0)])
        # skin = K v dt = 0.1; the particle covers it in 100 steps
        cfg = open_config(steps=150, k_factor=100, dt=1e-3)
        result = run(cfg, pset)
        assert result.metrics.broad_executions == 2
        events = result.rebuild_events
        assert events[0] == (0, False)
        assert events[1][1] is True


class TestDeterminismAndAccounting:
    def test_identical_runs_bit_identical(self):
        sc = make_scenario("settling-box", 80, 9)
        pset = sc.build_particles()
        cfg = sc.sim_config(k_factor=150, steps=400)
        a = run(cfg, pset, record_contact_digest=True)
        b = run(cfg, pset, record_contact_digest=True)
        assert a.contact_digest == b.contact_digest
        assert a.state.particles.position.tobytes() == b.state.particles.position.tobytes()
        assert a.state.particles.velocity.tobytes() == b.state.particles.velocity.tobytes()
        assert a.metrics.as_dict() == b.metrics.as_dict()

    def test_skip_accounting_and_rebuild_causality(self):
        sc = make_scenario("settling-box", 80, 9)
        cfg = sc.sim_config(k_factor=150, steps=400)
        result = run(cfg, sc.build_particles())
        m = result.metrics
        skipped = m.force_evaluations - m.broad_executions
        assert skipped >= 0
        assert m.broad_executions == len(result.rebuild_events)
        assert m.total_steps == 400
        assert m.force_evaluations == 401
        # every execution after the very first one was caused by a particle
        # outrunning its frozen skin
        first, *rest = result.rebuild_events
        assert first == (0, False)
        assert all(needed for _, needed in rest)
        assert m.broad_executions > 1   # the scene does move

    def test_k_zero_rebuilds_every_evaluation_once_moving(self):
        sc = make_scenario("settling-box", 40, 3)
        cfg = sc.sim_config(k_factor=0, steps=120)
        result = run(cfg, sc.build_particles())
        m = result.metrics
        assert m.broad_executions == m.force_evaluations

    def test_higher_k_executes_fewer_broadphases(self):
        sc = make_scenario("settling-box", 120, 5)
        lo = run(sc.sim_config(k_factor=50, steps=1200), sc.build_particles())
        hi = run(sc.sim_config(k_factor=200, steps=1200), sc.build_particles())
        assert hi.metrics.broad_executions < lo.metrics.broad_executions


class TestEquivalence:
    def test_buffered_equals_baseline_with_shadow_scan(self):
        sc = make_scenario("settling-box", 120, 11)
        report = validate_equivalence(sc, 150, steps=700)
        assert report.ok
        assert report.shadow_misses == 0
        assert report.contact_history_match
        assert report.final_state_match
        assert report.broad_executions_buffered < report.broad_executions_baseline

    def test_wall_contacts_equal_baseline(self):
        # spheres thrown at a floor and a tilted wall: the buffered run tests
        # only the wall rows cached at its builds, the baseline rebuilds (and
        # re-caches) at every evaluation; contacts must agree bit for bit
        rng = np.random.default_rng(12)
        n = 40
        pos = np.column_stack([rng.uniform(0.02, 0.38, n), rng.uniform(0.02, 0.38, n),
                               rng.uniform(0.03, 0.12, n)])
        vel = rng.normal(0.0, 0.3, (n, 3)) + vec3(-0.5, 0.0, -1.0)
        radius = np.full(n, 0.01)
        pset = Particles(pos, vel, radius, radius, np.full(n, 1e-3), np.zeros(n, bool))
        tilt = vec3(1.0, 0.0, 0.3) / np.linalg.norm([1.0, 0.0, 0.3])
        walls = (WallPlane(vec3(0, 0, 0), vec3(0, 0, 1)), WallPlane(vec3(0, 0, 0), tilt))
        results = [
            run(SimConfig(dt=1e-4, k_factor=200, gravity=vec3(0, 0, -9.81), cell_size=0.05,
                          domain_min=vec3(0, 0, 0), domain_max=vec3(0.4, 0.4, 0.4),
                          contact=ContactParams(k_n=500.0, gamma_n=0.01), steps=800,
                          walls=walls, verlet_enabled=enabled),
                pset, record_contact_digest=True)
            for enabled in (True, False)
        ]
        buffered, baseline = results
        assert buffered.metrics.broad_executions < baseline.metrics.broad_executions
        assert buffered.metrics.model_time > 0
        assert buffered.contact_digest == baseline.contact_digest
        assert buffered.tunneling == baseline.tunneling
        assert (buffered.state.particles.position.tobytes()
                == baseline.state.particles.position.tobytes())


    def test_gated_pair_contacts_equal_baseline(self, monkeypatch):
        # the buffered run gates the rows of every reused list, the baseline
        # rebuilds at every evaluation and tests every row
        pset = jostling_cluster()
        resolve_contacts = verletdem.engine.resolve_contacts
        offered: list = []     # (list length, rows tested or None) per evaluation

        def resolve_spy(candidates, *args, pair_rows=None, **kwargs):
            offered[-1].append((len(candidates), None if pair_rows is None else len(pair_rows)))
            return resolve_contacts(candidates, *args, pair_rows=pair_rows, **kwargs)

        monkeypatch.setattr(verletdem.engine, "resolve_contacts", resolve_spy)
        results = {}
        for enabled in (True, False):
            offered.append([])
            results[enabled] = run(cluster_config(600, enabled), pset,
                                   record_contact_digest=True)
        buffered, baseline = results[True], results[False]
        assert buffered.metrics.model_time > 10 * buffered.metrics.force_evaluations
        assert buffered.contact_digest == baseline.contact_digest
        assert (buffered.state.particles.position.tobytes()
                == baseline.state.particles.position.tobytes())
        # fresh lists (every baseline list) are tested in full, reused ones gated
        buffered_calls, baseline_calls = offered
        assert all(rows is None for _, rows in baseline_calls)
        assert sum(rows is None for _, rows in buffered_calls) == buffered.metrics.broad_executions
        gated = [(length, rows) for length, rows in buffered_calls if rows is not None]
        assert sum(rows for _, rows in gated) < 0.5 * sum(length for length, _ in gated)


def jostling_cluster():
    """A 5 x 5 x 5 cluster of slightly overlapping spheres with random velocities."""
    rng = np.random.default_rng(3)
    g = np.arange(5) * 0.019 + 0.05
    pos = np.array(np.meshgrid(g, g, g, indexing="ij")).reshape(3, -1).T
    n = len(pos)
    pos += rng.uniform(-1e-3, 1e-3, pos.shape)
    radius = np.full(n, 0.01)
    return Particles(pos, rng.normal(0.0, 0.2, (n, 3)), radius, radius, np.full(n, 1e-3),
                     np.zeros(n, bool))


def cluster_config(steps, verlet_enabled=True):
    """The jostling cluster's box, on a floor."""
    return SimConfig(dt=1e-4, k_factor=200, gravity=vec3(0, 0, -9.81), cell_size=0.05,
                     domain_min=vec3(0, 0, 0), domain_max=vec3(0.2, 0.2, 0.2),
                     contact=ContactParams(k_n=500.0, gamma_n=0.01), steps=steps,
                     walls=(WallPlane(vec3(0, 0, 0), vec3(0, 0, 1)),),
                     verlet_enabled=verlet_enabled)


class TestRunRecord:
    def test_one_run_keeps_counts_and_seconds(self, monkeypatch):
        # every run counts and times each phase; its counts equal a tally
        # kept outside the record, and its seconds are the run's own
        pset, cfg = jostling_cluster(), cluster_config(200)
        tally = dict.fromkeys(("broad_time", "narrow_time", "model_time"), 0)
        build, resolve = verletdem.engine.verlet_build, verletdem.engine.resolve_contacts

        def tallied_build(*args, **kwargs):
            verlet = build(*args, **kwargs)
            tally["broad_time"] += verlet.pairs_tested
            return verlet

        def tallied_resolve(candidates, *args, **kwargs):
            contacts = resolve(candidates, *args, **kwargs)
            tally["narrow_time"] += len(candidates)
            tally["model_time"] += len(contacts)
            return contacts

        monkeypatch.setattr(verletdem.engine, "verlet_build", tallied_build)
        monkeypatch.setattr(verletdem.engine, "resolve_contacts", tallied_resolve)
        t0 = time.perf_counter()
        m = run(cfg, pset).metrics
        elapsed = time.perf_counter() - t0
        tally["integrate_time"] = len(pset) * cfg.steps
        assert {name: getattr(m, name) for name in tally} == tally
        assert m.model_time > 10 * m.force_evaluations
        assert m.seconds.keys() == tally.keys()
        assert all(s > 0 for s in m.seconds.values())
        assert sum(m.seconds.values()) < elapsed
        counted, timed = m.as_dict(OPCOUNT), m.as_dict(WALLTIME)
        assert (counted["mode"], timed["mode"]) == (OPCOUNT, WALLTIME)
        assert counted.keys() == timed.keys()
        times = {"mode", "total_time", *tally}
        differ = {key for key in counted if counted[key] != timed[key]}
        assert differ == times
        assert timed["total_time"] == pytest.approx(sum(m.seconds.values()))
        assert counted["total_time"] == sum(tally.values())

    def test_unknown_mode_raises_before_any_step(self, monkeypatch, tmp_path):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(verletdem.engine._Driver, "__init__", no_run)
        with pytest.raises(ConfigError, match="wallclock"):
            PhaseMetrics().as_dict("wallclock")
        with pytest.raises(ConfigError, match="wallclock"):
            run_sweep(make_scenario("settling-box", 5, 1), [50], mode="wallclock", steps=5)
        doc = tmp_path / "run.json"
        doc.write_text(json.dumps({"scenario": {"name": "settling-box", "n": 5, "seed": 1},
                                   "mode": "wallclock"}))
        assert main(["run", "--config", str(doc)]) == EXIT_CONFIG


def audit(pset, live_keys):
    """Run one shadow scan of ``pset`` against the list ``live_keys`` (None: no list)."""
    verlet = None if live_keys is None else VerletState(
        PairList(live_keys), pset.position.copy(), np.zeros(len(pset)),
        pairs_tested=0, wall_rows=(), pair_slack=np.zeros(len(live_keys)))
    driver = driver_for(SimState(particles=pset, verlet=verlet), open_config(1),
                        validation=True)
    driver._shadow_scan()
    return driver.result


def assert_audit_equals_oracle(pset):
    oracle = brute_force_pairs(pset, pset.cutoff)
    # with nothing live, every close pair the scan finds is a miss ...
    empty = audit(pset, np.empty(0, dtype=np.int64))
    assert empty.shadow_misses == len(oracle)
    ia, ib = oracle.columns
    assert [ex[1:] for ex in empty.shadow_examples] == list(zip(ia[:5].tolist(), ib[:5].tolist()))
    # ... and against the oracle's own list none is: the two sets are equal
    assert audit(pset, oracle.keys).shadow_misses == 0


class TestShadowScan:
    def test_reports_pair_the_live_list_lacks(self):
        rng = np.random.default_rng(5)
        pos = rng.uniform(0.0, 2.0, (60, 3))
        r = np.full(60, 0.3)
        pset = Particles(pos, np.zeros((60, 3)), r, r, np.ones(60), np.zeros(60, bool))
        oracle = brute_force_pairs(pset, pset.cutoff)
        assert len(oracle) > 1
        k = len(oracle) // 2
        dropped = tuple(int(c[k]) for c in oracle.columns)
        live = np.delete(oracle.keys, k)
        result = audit(pset, live)
        assert result.shadow_misses == 1
        assert result.shadow_examples == [(0, *dropped)]

    def test_run_with_stale_list_reports_the_miss(self, monkeypatch):
        # the list built at step 0 holds no pair; with rebuilds switched off
        # the approaching spheres come within cutoff and the audit must say so
        monkeypatch.setattr(verletdem.engine, "verlet_needs_rebuild", lambda *a: False)
        pset = spheres([(-0.6, 0, 0), (0.6, 0, 0)], [(1.0, 0, 0), (-1.0, 0, 0)])
        result = run(open_config(steps=200, k_factor=0), pset, validation=True)
        assert len(result.state.verlet.list) == 0
        assert result.shadow_misses >= 1
        assert {(a, b) for _, a, b in result.shadow_examples} == {(0, 1)}

    def test_two_particles_touching_exactly(self):
        pset = spheres([(0, 0, 0), (1.0, 0, 0)])
        assert_audit_equals_oracle(pset)
        assert audit(pset, None).shadow_misses == 1

    def test_two_particles_apart(self):
        pset = spheres([(0, 0, 0), (0, 0, 1.0 + 1e-12)])
        assert_audit_equals_oracle(pset)
        assert audit(pset, None).shadow_misses == 0

    @given(st.integers(0, 2**31 - 1), st.integers(2, 200),
           st.sampled_from(["uniform", "ties", "flat", "line",
                            "straddle", "one-slab", "thin-slabs", "tied-slabs"]))
    @settings(max_examples=80, deadline=None)
    def test_close_set_equals_oracle(self, seed, n, layout):
        rng = np.random.default_rng(seed)
        if layout == "straddle":
            pos, cutoff = straddling_pairs(rng)
            n = len(pos)
        else:
            pos = rng.uniform(0.0, [4.0, 3.0, 2.0], (n, 3))
            cutoff = rng.uniform(0.05, 0.6, n)  # mixed cutoffs
        if layout == "ties":
            # few distinct values on the widest (sort) axis
            pos[:, 0] = rng.integers(0, 5, n) * 1.0
        elif layout == "flat":
            pos[:, 2] = 0.5                 # zero extent on one axis
        elif layout == "line":
            pos[:, 1:] = 1.0                # zero extent on two axes
        elif layout == "one-slab":
            pos[:, 1:] *= 0.025             # both narrow axes within one slab
        elif layout == "thin-slabs":
            pos *= [0.25, 0.2, 0.025]       # tens of slabs two cutoffs wide
            cutoff *= 0.04
        elif layout == "tied-slabs":
            # ties on the sweep axis, spread over several slabs
            pos[:, 0] = rng.integers(0, 5, n) * 1.0
            pos[:, 1:] *= [0.4, 0.1]
            cutoff *= 0.15
        pset = Particles(pos, np.zeros((n, 3)), cutoff, cutoff, np.ones(n), np.zeros(n, bool))
        assert_audit_equals_oracle(pset)

    def test_scan_shares_no_code_with_the_grid(self):
        # the audit must not call the search it audits
        names = set(_Driver._shadow_scan.__code__.co_names)
        assert "row_norm_sq" in names       # the decisive test is the shared predicate
        assert not names & {"build_grid", "_candidate_pairs", "_pairs_with_stats",
                            "linked_cell_pairs", "brute_force_pairs", "CellGrid"}

    def test_validated_step_raises_on_a_missing_pair(self):
        # skins of K |v| dt = 0.1: no rebuild
        pset = spheres([(0, 0, 0), (0.9, 0, 0), (0, 0.95, 0)], [(1, 0, 0)] * 3)
        cfg = open_config(steps=1)
        driver = driver_for(SimState(particles=pset), cfg, validation=True)
        state = driver.state
        state.forces = driver.evaluate(pset)
        driver.step_once()                          # a complete list passes
        assert driver.result.shadow_examples == []
        verlet = state.verlet
        drop = verlet.list.keys.tolist().index(0 << 32 | 2)     # the key of (0, 2)
        state.verlet = dataclasses.replace(
            verlet, list=PairList(np.delete(verlet.list.keys, drop)),
            pair_slack=np.delete(verlet.pair_slack, drop))
        driver.step_once()
        assert driver.result.shadow_misses == 1
        assert driver.result.shadow_examples == [(1, 0, 2)]


def straddling_pairs(rng):
    """Pairs one reach apart (+-4 ulps) across slab boundaries, equal cutoffs c.

    Particle 0 sits at the low end ``lo < 0`` of axis 1, the axis of middle
    extent, so the slab boundaries lie near ``lo + k * 2c``; shifting by a
    negative ``lo`` rounds, which a slab width without its pad does not
    survive.  At each boundary above 0.25, 9 particles sit within 4 ulps of
    it, each with two partners one reach higher on axis 1: the farthest one
    still within reach and the nearest one beyond it.
    """
    c = rng.uniform(0.1, 0.3)
    lo = rng.uniform(-1.0, -0.5)
    edge = lo + np.arange(1, int((3.0 - lo) / (2 * c))) * (2 * c)
    edge = edge[edge > 0.25]             # spacing(top) >= spacing(below)
    below = (edge[:, None] + np.arange(-4, 5) * np.spacing(edge)[:, None]).ravel()
    top = below + 2 * c
    above = top[:, None] + np.arange(-4, 5) * np.spacing(top)[:, None]
    gap = above - below[:, None]
    within = np.where(gap <= 2 * c, above, -np.inf).max(axis=1)
    beyond = np.where(gap > 2 * c, above, np.inf).min(axis=1)
    xz = rng.uniform([0.0, 0.0], [10.0, 0.5], (len(below), 2))
    pos = np.concatenate([[[5.0, lo, 0.25]]] + [
        np.column_stack([xz[:, 0], y, xz[:, 1]]) for y in (below, within, beyond)])
    return pos, np.full(len(pos), c)


class TestUniformSkin:
    def test_static_particles_get_zero_skin(self):
        sc = make_scenario("mini-hopper", 40, 3)
        pset = sc.build_particles()
        assert pset.is_static.any()
        skins = _skins(pset, sc.sim_config(0), SKIN_UNIFORM_RADIUS)
        assert np.all(skins[pset.is_static] == 0.0)
        assert np.all(skins[~pset.is_static] > 0.0)


class TestMirrorSymmetry:
    def test_trajectory_mirrors_through_x_plane(self):
        rng = np.random.default_rng(21)
        n = 12
        pos = rng.uniform([0.02, 0.02, 0.02], [0.28, 0.28, 0.2], (n, 3))
        vel = rng.normal(0, 0.5, (n, 3))
        r = np.full(n, 0.02)
        pset = Particles(pos, vel, r, r, np.full(n, 0.01), np.zeros(n, bool))

        mirrored = pset.copy()
        mirrored.position[:, 0] *= -1
        mirrored.velocity[:, 0] *= -1

        def cfg(lo, hi, walls):
            return SimConfig(
                dt=1e-4, k_factor=100, gravity=vec3(0, 0, -9.81), cell_size=0.06,
                domain_min=vec3(*lo), domain_max=vec3(*hi),
                contact=ContactParams(k_n=2000.0, gamma_n=0.5, mu_s=0.3, k_t=400.0),
                steps=300, walls=walls,
            )

        walls = (
            WallPlane(vec3(0, 0, 0), vec3(0, 0, 1)),
            WallPlane(vec3(0.0, 0, 0), vec3(1, 0, 0)),
            WallPlane(vec3(0.3, 0, 0), vec3(-1, 0, 0)),
        )
        mwalls = tuple(
            WallPlane(w.point * np.array([-1, 1, 1]), w.outward_normal * np.array([-1, 1, 1]))
            for w in walls
        )
        a = run(cfg((0, 0, 0), (0.3, 0.3, 0.3), walls), pset)
        b = run(cfg((-0.3, 0, 0), (0, 0.3, 0.3), mwalls), mirrored)
        flipped = b.state.particles.position * np.array([-1, 1, 1])
        np.testing.assert_array_equal(a.state.particles.position, flipped)
        vflipped = b.state.particles.velocity * np.array([-1, 1, 1])
        np.testing.assert_array_equal(a.state.particles.velocity, vflipped)


class TestEdgeCases:
    def test_zero_particle_run(self):
        cfg = open_config(steps=50)
        result = run(cfg, Particles.empty())
        m = result.metrics
        assert m.total_steps == 50
        assert m.broad_executions == 0
        assert m.broad_time == m.narrow_time == m.model_time == m.integrate_time == 0
        assert m.pair_list_length_sum == 0

    def test_nonfinite_state_aborts_with_step_and_id(self):
        # absurdly stiff contact: the acceleration of the overlapping pair
        # overflows on the first evaluation and the run must abort with the
        # offending step and particle rather than march on with inf/nan
        pset = spheres([(1.0, 1.0, 1.0), (1.9, 1.0, 1.0)], mass=1e-3)
        cfg = SimConfig(
            dt=1e-3, k_factor=0, gravity=vec3(0, 0, 0), cell_size=2.0,
            domain_min=vec3(0, 0, 0), domain_max=vec3(4, 4, 4),
            contact=ContactParams(k_n=1e308), steps=100,
        )
        for validation in (False, True):    # the audit too sees the bad state
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(SimulationUnstable) as err:
                    run(cfg, pset, validation=validation)
            assert err.value.particle in (0, 1)
            assert err.value.step == 1

    def test_huge_finite_state_that_overflows_the_sum_is_not_unstable(self):
        pset = spheres([(1.0, 1.0, 1.0 + 2 * i) for i in range(3)])
        pset.position[:, 0] = 1.5e308       # finite, but their sum overflows
        pset.velocity[1] = (-1e308, 1e308, 1e308)
        driver = driver_for(SimState(particles=pset), open_config(1))
        with np.errstate(over="ignore"):
            driver._check_finite()

    def test_nan_velocity_names_its_particle(self):
        pset = spheres([(1.0, 1.0, 1.0 + 2 * i) for i in range(4)])
        pset.velocity[2, 1] = np.nan
        state = SimState(particles=pset, step=7)
        with pytest.raises(SimulationUnstable) as err:
            driver_for(state, open_config(1))._check_finite()
        assert (err.value.step, err.value.particle) == (7, 2)

    def test_tunneling_is_reported_and_run_continues(self):
        pset = spheres([(0.1, 0.1, -0.05)], radius=0.02)
        cfg = SimConfig(
            dt=1e-4, k_factor=0, gravity=vec3(0, 0, 0), cell_size=0.1,
            domain_min=vec3(0, 0, 0), domain_max=vec3(0.2, 0.2, 0.2),
            contact=ContactParams(k_n=100.0), steps=5,
            walls=(WallPlane(vec3(0, 0, 0), vec3(0, 0, 1)),),
        )
        result = run(cfg, pset)
        assert result.metrics.total_steps == 5
        assert result.tunneling
        step_no, particle, wall = result.tunneling[0]
        assert (particle, wall) == (0, 0)

    def test_trajectory_sampling(self):
        sc = make_scenario("settling-box", 10, 1)
        cfg = sc.sim_config(k_factor=100, steps=40)
        result = run(cfg, sc.build_particles(), sample_every=10)
        steps_seen = sorted(set(result.trajectory[:, 0].astype(int)))
        assert steps_seen == [0, 10, 20, 30, 40]
        assert result.trajectory.shape[1] == 8
