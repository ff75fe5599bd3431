import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verletdem.bench import (
    BASELINE_K, UNIFORM_SKIN_K, NonPositiveBaseline, PlacementError,
    SweepReport, SweepRow, UnknownScenario, emit_report, improvement,
    make_scenario, run_sweep,
)


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
            assert len(resolve_contacts(candidates, pset, sc.walls)) == 0, name

    def test_placement_failure_for_absurd_count(self):
        with pytest.raises(PlacementError):
            make_scenario("mini-hopper", 100_000, 0).build_particles()


@pytest.fixture(scope="module")
def small_sweep():
    sc = make_scenario("settling-box", 60, 8)
    return run_sweep(sc, [0, 50, 200], steps=400)


class TestRunSweep:
    def test_k_zero_matches_baseline_costs(self, small_sweep):
        base = small_sweep.baseline
        k0 = small_sweep.row_for(0)
        assert k0.broad_executed_pct == 100.0
        assert k0.total == base.total
        assert k0.broad == base.broad

    def test_broad_pct_non_increasing(self, small_sweep):
        rows = [small_sweep.row_for(k) for k in (0, 50, 200)]
        pcts = [r.broad_executed_pct for r in rows]
        assert pcts == sorted(pcts, reverse=True)

    def test_mean_pairs_non_decreasing(self, small_sweep):
        rows = [small_sweep.row_for(k) for k in (0, 50, 200)]
        means = [r.mean_pairs for r in rows]
        assert means == sorted(means)

    def test_baseline_improvement_zero(self, small_sweep):
        assert small_sweep.baseline.improvement_pct == 0.0

    def test_final_states_identical_across_rows(self, small_sweep):
        digests = {row.state_digest for row in small_sweep.rows}
        assert len(digests) == 1

    def test_empty_k_values_rejected(self):
        sc = make_scenario("settling-box", 10, 1)
        with pytest.raises(Exception):
            run_sweep(sc, [])

    def test_uniform_skin_row(self):
        sc = make_scenario("settling-box", 40, 4)
        report = run_sweep(sc, [100], steps=200, uniform_skin_radius=True)
        ks = [row.k for row in report.rows]
        assert ks == [BASELINE_K, 100, UNIFORM_SKIN_K]
        uni = report.row_for(UNIFORM_SKIN_K)
        assert uni.state_digest == report.baseline.state_digest

    def test_uniform_skin_row_with_static_particles(self):
        # static particles get zero skin in the uniform mode too; the
        # buffered run, with contacts on the static roughness layer, must
        # still end bit-identical to the baseline
        sc = make_scenario("inclined-flow", 40, 4)
        report = run_sweep(sc, [100], steps=3000, uniform_skin_radius=True)
        uni = report.row_for(UNIFORM_SKIN_K)
        assert uni.model > 0
        assert uni.state_digest == report.baseline.state_digest

    def test_opcount_sweep_is_reproducible(self):
        sc = make_scenario("settling-box", 40, 4)
        a = run_sweep(sc, [0, 100], steps=200)
        b = run_sweep(sc, [0, 100], steps=200)
        assert a == b


class TestReportIO:
    HEADER = "k,total,broad,narrow,model,broad_executed_pct,mean_pairs,improvement_pct"

    def test_empty_report_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report(SweepReport(rows=()), str(path))
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
        report = SweepReport(rows=rows)
        path = tmp_path / "rt.csv"
        emit_report(report, str(path))
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
