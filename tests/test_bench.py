import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verletdem.engine
from verletdem.bench import (
    BASELINE_K, UNIFORM_SKIN_K, NonPositiveBaseline, PlacementError,
    SweepRow, UnknownScenario, emit_report, improvement, make_scenario,
    run_sweep, validate_equivalence,
)
from verletdem.core import ConfigError


class TestImprovement:
    def test_identity_case(self):
        assert improvement(123.4, 123.4) == 0.0

    def test_zero_time_is_full_gain(self):
        assert improvement(50.0, 0.0) == 100.0

    def test_against_published_style_pairs(self):
        assert improvement(5595.77, 1687.24) == pytest.approx(69.84, abs=0.02)
        assert improvement(962.90, 594.89) == pytest.approx(38.21, abs=0.02)

    def test_non_positive_baseline(self):
        with pytest.raises(NonPositiveBaseline):
            improvement(0.0, 1.0)
        with pytest.raises(NonPositiveBaseline):
            improvement(-5.0, 1.0)

    @given(st.floats(1e-3, 1e6), st.floats(0, 1e6), st.floats(1e-9, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_in_case_time(self, base, case, delta):
        assert improvement(base, case) > improvement(base, case + delta)


class TestMakeScenario:
    def test_unknown_name(self):
        with pytest.raises(UnknownScenario):
            make_scenario("fluidized-bed", 10, 0)

    def test_empty_scenario_is_valid(self):
        sc = make_scenario("settling-box", 0, 123)
        pset = sc.build_particles()
        assert len(pset) == 0

    def test_seeded_determinism(self):
        a = make_scenario("settling-box", 500, 42).build_particles()
        b = make_scenario("settling-box", 500, 42).build_particles()
        assert a.position.tobytes() == b.position.tobytes()
        assert a.velocity.tobytes() == b.velocity.tobytes()

    def test_different_seeds_differ(self):
        a = make_scenario("settling-box", 100, 1).build_particles()
        b = make_scenario("settling-box", 100, 2).build_particles()
        assert a.position.tobytes() != b.position.tobytes()

    def test_inclined_flow_static_layer_below_free(self):
        sc = make_scenario("inclined-flow", 300, 7)
        pset = sc.build_particles()
        static = pset.is_static
        assert static.sum() > 0
        assert pset.position[static, 2].max() < pset.position[~static, 2].min()

    def test_hopper_has_static_wedge(self):
        pset = make_scenario("mini-hopper", 50, 3).build_particles()
        assert pset.is_static.sum() > 100
        assert (~pset.is_static).sum() == 50

    def test_initial_placements_are_overlap_free(self):
        # no particle-particle overlap and no wall contact at step 0, so
        # the op-count tables start from a clean slate
        from verletdem.broadphase import brute_force_pairs
        from verletdem.narrowphase import resolve_contacts

        for name in ("settling-box", "mini-hopper", "inclined-flow"):
            sc = make_scenario(name, 200, 5)
            pset = sc.build_particles()
            candidates = brute_force_pairs(pset, pset.radius)
            assert len(resolve_contacts(candidates, pset, sc.config.walls)) == 0, name

    def test_placement_failure_for_absurd_count(self):
        # the limits README states: the largest count that fits, then one more
        for name, fits in (("mini-hopper", 1000), ("inclined-flow", 630)):
            pset = make_scenario(name, fits, 0).build_particles()
            assert int((~pset.is_static).sum()) == fits, name
            with pytest.raises(PlacementError):
                make_scenario(name, fits + 1, 0).build_particles()
        with pytest.raises(PlacementError):
            make_scenario("mini-hopper", 100_000, 0).build_particles()


def no_run(*args, **kwargs):
    raise AssertionError("a run started")


class TestScenarioCounts:
    """The scenario API takes whole counts only, never truncating them."""

    @pytest.mark.parametrize("n, seed", [(2.5, 1), (True, 1), (5, 1.5), (5, True)])
    def test_make_scenario_rejects_a_non_integer_count(self, n, seed):
        with pytest.raises(ConfigError, match="bad config value: scenario"):
            make_scenario("settling-box", n, seed)

    def test_integral_float_count_is_taken(self):
        sc = make_scenario("settling-box", 5.0, 1.0)
        assert (sc.n, sc.seed) == (5, 1) and type(sc.n) is int and type(sc.seed) is int

    @pytest.mark.parametrize("name", [[1], {}, None])
    def test_unhashable_or_non_string_name_is_unknown(self, name):
        with pytest.raises(UnknownScenario):
            make_scenario(name, 5, 1)

    @pytest.mark.parametrize("kwargs", [
        {"k_factor": 2.5}, {"k_factor": True}, {"k_factor": 0, "steps": 7.9},
        {"k_factor": 0, "steps": False},
    ])
    def test_sim_config_rejects_a_non_integer_count(self, kwargs):
        with pytest.raises(ConfigError, match="bad config value"):
            make_scenario("settling-box", 5, 1).sim_config(**kwargs)

    @pytest.mark.parametrize("change, message", [
        (dict(k_factor=2.5), "k_factor must be an integer"),
        (dict(steps=2.5), "steps must be an integer"),
    ])
    def test_run_rejects_a_replaced_non_integer_count(self, monkeypatch, change, message):
        # a count replaced past sim_config's check is refused before any step
        sc = make_scenario("settling-box", 5, 1)
        cfg = dataclasses.replace(sc.sim_config(5, steps=3), **change)
        monkeypatch.setattr(verletdem.engine._Driver, "__init__", no_run)
        with pytest.raises(ConfigError, match=message):
            verletdem.engine.run(cfg, sc.build_particles())

    def test_run_rejects_a_buffer_switch_that_is_not_a_bool(self, monkeypatch):
        sc = make_scenario("settling-box", 5, 1)
        cfg = sc.sim_config(5, verlet_enabled="false", steps=3)
        monkeypatch.setattr(verletdem.engine._Driver, "__init__", no_run)
        with pytest.raises(ConfigError, match="verlet_enabled must be True or False"):
            verletdem.engine.run(cfg, sc.build_particles())

    def test_sim_config_keeps_the_scenario_steps_by_default(self):
        sc = make_scenario("settling-box", 5, 1)
        cfg = sc.sim_config(3.0)
        assert (cfg.k_factor, cfg.steps) == (3, sc.config.steps)
        assert type(cfg.k_factor) is int

    @pytest.mark.parametrize("k, steps", [(2.5, None), (10, 3.7), (True, 3)])
    def test_validate_equivalence_rejects_before_any_run(self, monkeypatch, k, steps):
        monkeypatch.setattr(verletdem.engine._Driver, "__init__", no_run)
        with pytest.raises(ConfigError, match="bad config value"):
            validate_equivalence(make_scenario("settling-box", 5, 1), k, steps=steps)

    def test_validate_equivalence_reports_the_counts_it_ran(self):
        report = validate_equivalence(make_scenario("settling-box", 5, 1), 10.0, steps=3.0)
        assert (report.k_factor, report.steps) == (10, 3)
        assert report.ok


class TestValueTypesCompare:
    """Equal-built configuration values compare by identity, without raising."""

    def test_scenario_config_and_wall_compare_and_hash(self):
        a, b = make_scenario("settling-box", 5, 1), make_scenario("settling-box", 5, 1)
        for x, y in ((a, b), (a.config, b.config), (a.config.walls[0], b.config.walls[0])):
            assert x == x and x != y
            assert len({x, y, x}) == 2


@pytest.fixture(scope="module")
def small_sweep():
    sc = make_scenario("settling-box", 60, 8)
    return run_sweep(sc, [0, 50, 200], steps=400)


class TestRunSweep:
    def test_k_zero_matches_baseline_costs(self, small_sweep):
        by_k = {r.k: r for r in small_sweep}
        base = by_k[BASELINE_K]
        k0 = by_k[0]
        assert k0.broad_executed_pct == 100.0
        assert k0.total == base.total
        assert k0.broad == base.broad

    def test_broad_pct_non_increasing(self, small_sweep):
        by_k = {r.k: r for r in small_sweep}
        rows = [by_k[k] for k in (0, 50, 200)]
        pcts = [r.broad_executed_pct for r in rows]
        assert pcts == sorted(pcts, reverse=True)

    def test_mean_pairs_non_decreasing(self, small_sweep):
        by_k = {r.k: r for r in small_sweep}
        rows = [by_k[k] for k in (0, 50, 200)]
        means = [r.mean_pairs for r in rows]
        assert means == sorted(means)

    def test_baseline_improvement_zero(self, small_sweep):
        assert small_sweep[0].k == BASELINE_K
        assert small_sweep[0].improvement_pct == 0.0

    def test_final_states_identical_across_rows(self, small_sweep):
        digests = {row.state_digest for row in small_sweep}
        assert len(digests) == 1

    def test_empty_k_values_rejected(self, monkeypatch):
        monkeypatch.setattr(verletdem.engine._Driver, "__init__", no_run)
        sc = make_scenario("settling-box", 10, 1)
        with pytest.raises(ConfigError, match="K list is empty"):
            run_sweep(sc, [])

    @pytest.mark.parametrize("k_values, message", [
        ([-1], ">= 0"), ([-2], ">= 0"), ([10, -5], ">= 0"),
        ([2.5], "must be an integer"), ([True], "must be an integer"),
    ])
    def test_bad_k_values_rejected_before_any_run(self, monkeypatch, k_values, message):
        # -1 and -2 are the baseline and uniform-skin sentinels: a K list
        # must not be able to ask for those rows
        monkeypatch.setattr(verletdem.engine._Driver, "__init__", no_run)
        with pytest.raises(ConfigError, match=message):
            run_sweep(make_scenario("settling-box", 5, 1), k_values, steps=5)

    def test_uniform_skin_row(self):
        sc = make_scenario("settling-box", 40, 4)
        base, _, uni = rows = run_sweep(sc, [100], steps=200, uniform_skin_radius=True)
        assert [row.k for row in rows] == [BASELINE_K, 100, UNIFORM_SKIN_K]
        assert uni.state_digest == base.state_digest

    def test_uniform_skin_row_with_static_particles(self):
        # static particles get zero skin in the uniform mode too; the
        # buffered run, with contacts on the static roughness layer, must
        # still end bit-identical to the baseline
        sc = make_scenario("inclined-flow", 40, 4)
        base, _, uni = run_sweep(sc, [100], steps=3000, uniform_skin_radius=True)
        assert (base.k, uni.k) == (BASELINE_K, UNIFORM_SKIN_K)
        assert uni.model > 0
        assert uni.state_digest == base.state_digest

    def test_opcount_sweep_is_reproducible(self):
        sc = make_scenario("settling-box", 40, 4)
        a = run_sweep(sc, [0, 100], steps=200)
        b = run_sweep(sc, [0, 100], steps=200)
        assert a == b


class TestReportIO:
    HEADER = "k,total,broad,narrow,model,broad_executed_pct,mean_pairs,improvement_pct"

    def test_empty_report_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report((), str(path))
        assert path.read_text() == self.HEADER + "\n"

    def test_row_count(self, tmp_path, small_sweep):
        path = tmp_path / "report.csv"
        emit_report(small_sweep, str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + 4       # header + baseline + 3 K rows
        assert lines[0] == self.HEADER
        assert lines[1].startswith("-1,")

    def test_round_trip_exact(self, tmp_path):
        rows = (
            SweepRow(k=-1, total=1 / 3, broad=2 / 7, narrow=0.1, model=1e-17,
                     broad_executed_pct=100.0, mean_pairs=41.25,
                     improvement_pct=0.0),
            SweepRow(k=200, total=np.pi, broad=np.e, narrow=2.0 ** 0.5,
                     model=123456.789, broad_executed_pct=2.539,
                     mean_pairs=1640.3, improvement_pct=69.84),
        )
        path = tmp_path / "rt.csv"
        emit_report(rows, str(path))
        header, *records = path.read_text().splitlines()
        assert header == self.HEADER and len(records) == len(rows)
        for orig, line in zip(rows, records):
            k, *values = line.split(",")
            assert int(k) == orig.k
            # repr round-trips every float exactly
            assert [float(v) for v in values] == [
                orig.total, orig.broad, orig.narrow, orig.model,
                orig.broad_executed_pct, orig.mean_pairs, orig.improvement_pct]

    def test_emitted_bytes_reproducible(self, tmp_path, small_sweep):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(small_sweep, str(p1))
        emit_report(small_sweep, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
