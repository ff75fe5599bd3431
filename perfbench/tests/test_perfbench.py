"""Tests of the benchmark itself: workloads, failure accounting, self times.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import verletdem.bench  # noqa: E402
import verletdem.engine  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_N = 200   # all three start states have contacts at this size
TINY_STEPS = 20


def _tiny(name, warm_steps=None):
    wl = workloads.WORKLOADS[name]
    return wl, workloads.prepare(wl, seed=3, n=TINY_N, warm_steps=warm_steps)


def _per_layer_names():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in doc["per_layer"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_clean_traced_and_untraced(name):
    wl, start = _tiny(name)
    assert workloads.start_contacts(wl, start) > 0
    m = run.measure(wl, start, seconds=0.0, trace=True, steps=TINY_STEPS)
    assert m.traced == [False, True]
    ref = workloads.reference_digest(wl, start, TINY_STEPS)
    assert workloads.failed_ops(m.outcomes, ref) == []
    assert m.outcomes[0].final_digest == m.outcomes[1].final_digest
    metrics = run.layer_metrics(m.layer_ops, m.evals_ms)
    assert set(metrics) | {"trace.overhead_ratio"} == _per_layer_names()
    assert metrics["engine.evals"][0] == (TINY_STEPS + 1) * (1 + wl.audit)
    assert metrics["engine.eval_samples"][0] == TINY_STEPS * (1 + wl.audit)


def _part(digest="s0", outcomes=None, **extra):
    ok = dataclasses.asdict(workloads.Outcome("d0", '{"builds": 3}'))
    record = {
        "start_digest": digest, "start_contacts": 5, "setup_s": 2.0,
        "peak_rss_mb": 40.0, "reference_digest": "d0",
        "outcomes": outcomes or [ok, ok], "walls": [1.0, 2.0], "scales": [1.0, 0.5],
        "traced": [False, False], "layer_ops": [], "evals_ms": [],
    }
    record.update(extra)
    return record


def test_pool_reports_end_to_end_metrics_over_every_part():
    result = run.pool([_part(setup_s=1.0), _part(peak_rss_mb=45.0), _part(setup_s=3.0)],
                      op_steps=10, trace=False)
    assert result["correct"] and result["attempted"] == 6 and result["failed"] == 0
    assert {k: v["value"] for k, v in result["metrics"].items()} == {
        "steps_per_s": 10.0, "setup_s": 2.0, "peak_rss_mb": 45.0}


def test_pool_fails_a_run_whose_parts_disagree():
    odd = dataclasses.asdict(workloads.Outcome("d1", '{"builds": 3}'))
    assert run.pool([_part(), _part(outcomes=[odd])], 10, False)["failed"] == 1
    assert not run.pool([_part(), _part(digest="s1")], 10, False)["correct"]
    assert not run.pool([_part(start_contacts=0)], 10, False)["correct"]


def test_start_state_repeats_for_a_seed_and_differs_across_seeds():
    wl = workloads.WORKLOADS["box-nobuffer"]
    a = workloads.prepare(wl, seed=3, n=TINY_N, warm_steps=50)
    b = workloads.prepare(wl, seed=3, n=TINY_N, warm_steps=50)
    c = workloads.prepare(wl, seed=4, n=TINY_N, warm_steps=50)
    assert a.digest == b.digest != c.digest


def _audit_outcome(steps=TINY_STEPS):
    wl, start = _tiny("flow-audit")
    outcome, _ = workloads.run_op(wl, start, steps)
    return outcome


def test_doctored_twin_mismatch_is_a_failed_operation(monkeypatch):
    clean = _audit_outcome()
    assert clean.violations == []
    real_run = verletdem.bench.run

    def doctored(*args, **kwargs):
        result = real_run(*args, **kwargs)
        if not kwargs.get("validation"):
            v = result.state.particles.velocity
            v[0, 0] = np.nextafter(v[0, 0], np.inf)
        return result

    monkeypatch.setattr(verletdem.bench, "run", doctored)
    bad = _audit_outcome()
    assert "final states differ" in bad.violations
    assert "twin final-state digests differ" in bad.violations
    assert workloads.failed_ops([clean, bad, clean]) == [1]


def test_doctored_shadow_miss_is_a_failed_operation(monkeypatch):
    # a buffered twin that never rebuilds keeps a stale list: the shadow
    # scan must report the close pairs that list lacks
    monkeypatch.setattr(verletdem.engine, "verlet_needs_rebuild", lambda *a: False)
    bad = _audit_outcome(steps=400)
    assert any(v.endswith("shadow misses") for v in bad.violations)
    assert workloads.failed_ops([bad]) == [0]


def test_a_differing_final_state_or_count_fails_only_that_operation():
    ok = workloads.Outcome("d0", '{"builds": 3}')
    other_state = dataclasses.replace(ok, final_digest="d1")
    other_count = dataclasses.replace(ok, counts='{"builds": 4}')
    raised = workloads.Outcome()
    outcomes = [ok, other_state, ok, other_count, ok, raised]
    assert workloads.failed_ops(outcomes) == [1, 3, 5]
    assert workloads.failed_ops([ok, ok], reference_digest="d9") == [0, 1]
    layered = [dataclasses.replace(ok, layer_counts=f'{{"x": {n}}}') for n in (1, 1, 2)]
    assert workloads.failed_ops(layered) == [2]


def _spans(rows):
    names, start, end, parent = zip(*rows)
    return {
        "code": [tracing.SPAN_NAMES.index(n) for n in names],
        "start": list(start), "end": list(end), "parent": list(parent),
    }


def test_self_time_arithmetic_on_synthetic_spans():
    spans = _spans([
        ("op", 0.0, 20.0, -1),                    # 0
        ("physics.step", 0.0, 6.0, 0),            # 1
        ("engine.evaluate", 1.0, 4.0, 1),         # 2: reused the list
        ("broadphase.check", 1.0, 1.5, 2),        # 3
        ("narrowphase.resolve", 1.5, 2.5, 2),     # 4
        ("physics.step", 6.0, 16.0, 0),           # 5
        ("engine.evaluate", 7.0, 15.0, 5),        # 6: rebuilt
        ("broadphase.check", 7.0, 7.5, 6),        # 7
        ("broadphase.grid", 7.5, 8.5, 6),         # 8
        ("narrowphase.resolve", 10.0, 11.0, 6),   # 9
        ("physics.forces", 11.0, 11.5, 6),        # 10
    ])
    got = tracing.layer_times(**spans)
    # quiet evaluation self time 3 - 1.5 = 1.5 is the bookkeeping estimate;
    # the rebuilding one has self time 8 - 3 = 5, of which 3.5 is the search
    assert got == {
        "broadphase.build_s": 3.5 + 1.0,
        "broadphase.grid_s": 1.0,
        "broadphase.check_s": 1.0,
        "narrowphase.resolve_s": 2.0,
        "physics.integrate_s": (6.0 - 3.0) + (10.0 - 8.0),
        "physics.forces_s": 0.5,
        "engine.self_s": 1.5 + 1.5,
        "bench.buffered_twin_s": 0.0,
        "bench.baseline_twin_s": 0.0,
    }
    layers = sum(got[k] for k in ("broadphase.build_s", "broadphase.check_s",
                                  "narrowphase.resolve_s", "physics.forces_s",
                                  "engine.self_s"))
    assert layers == 3.0 + 8.0      # every evaluation second is attributed once
    np.testing.assert_array_equal(tracing.eval_durations(
        spans["code"], spans["start"], spans["end"]), [3.0, 8.0])


def test_bookkeeping_estimate_stays_within_its_own_run():
    # the baseline twin rebuilds at every evaluation, so the buffered twin's
    # shadow-scan self time must not be subtracted from its builds
    spans = _spans([
        ("op", 0.0, 30.0, -1),                    # 0
        ("bench.buffered_twin", 0.0, 10.0, 0),    # 1
        ("physics.step", 0.0, 10.0, 1),           # 2
        ("engine.evaluate", 0.0, 8.0, 2),         # 3: quiet, self 8
        ("bench.baseline_twin", 10.0, 30.0, 0),   # 4
        ("physics.step", 10.0, 30.0, 4),          # 5
        ("engine.evaluate", 10.0, 14.0, 5),       # 6: rebuilt, self 3
        ("broadphase.grid", 10.0, 11.0, 6),       # 7
    ])
    got = tracing.layer_times(**spans)
    assert got["broadphase.build_s"] == 3.0 + 1.0
    assert got["engine.self_s"] == 8.0
    assert got["bench.buffered_twin_s"] == 10.0
    assert got["bench.baseline_twin_s"] == 20.0


def test_tracer_restores_every_wrapped_name():
    before = (verletdem.engine.verlet_needs_rebuild, verletdem.engine.resolve_contacts,
              verletdem.engine.compute_forces, verletdem.engine.velocity_verlet_step,
              verletdem.broadphase.build_grid, verletdem.bench.run)
    with tracing.Tracer().installed():
        assert verletdem.engine.resolve_contacts is not before[1]
    after = (verletdem.engine.verlet_needs_rebuild, verletdem.engine.resolve_contacts,
             verletdem.engine.compute_forces, verletdem.engine.velocity_verlet_step,
             verletdem.broadphase.build_grid, verletdem.bench.run)
    assert after == before
