"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line.  Run with `pytest tests/test_acceptance.py
-v -s` to see the lines as they complete.  Criteria that share expensive
artifacts (the settling-box sweep) share a module-scoped fixture.
"""

import json
import math
import time

import numpy as np
import pytest

from builders import spheres
from verletdem.bench import emit_report, improvement, make_scenario, run_sweep, validate_equivalence
from verletdem.broadphase import brute_force_pairs, linked_cell_pairs
from verletdem.cli import EXIT_OK, main
from verletdem.core import ContactParams, Particles, SimConfig, vec3
from verletdem.engine import run
from verletdem.physics import velocity_verlet_step

SEED = 42
ACCEPT_N = 500
ACCEPT_STEPS = 5000
SWEEP_KS = (0, 10, 20, 50, 100, 200, 500, 1000)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)


@pytest.fixture(scope="module")
def settling_sweep():
    scenario = make_scenario("settling-box", ACCEPT_N, SEED)
    t0 = time.perf_counter()
    report = run_sweep(scenario, SWEEP_KS, mode="opcount")
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_criterion_1_buffer_safety():
    """Buffered runs never miss a colliding pair and match the baseline bitwise."""
    t0 = time.perf_counter()
    failures = []
    combos = 0
    for name in ("settling-box", "mini-hopper", "inclined-flow"):
        scenario = make_scenario(name, ACCEPT_N, SEED)
        for k in (50, 200, 1000):
            combos += 1
            rep = validate_equivalence(scenario, k, steps=ACCEPT_STEPS)
            if rep.shadow_misses != 0:
                failures.append(f"{name} K={k}: {rep.shadow_misses} missed pairs")
            if not rep.contact_history_match:
                failures.append(f"{name} K={k}: contact histories differ")
            if not rep.final_state_match:
                failures.append(f"{name} K={k}: final states differ")
    elapsed = time.perf_counter() - t0
    ok = not failures
    _report("criterion-1 buffer-safety", ok,
            f"{combos} scenario/K combos, 0 required misses, {elapsed:.0f}s"
            + ("" if ok else f"; failures: {failures}"))
    assert ok, failures
    assert elapsed < 600.0


def test_criterion_2_oracle_equivalence():
    """Grid pair search equals the brute-force oracle on 100 random configs."""
    t0 = time.perf_counter()
    mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 501))
        hi = rng.uniform(4.0, 8.0, 3)
        pos = rng.uniform(np.zeros(3), hi, (n, 3))
        radius = rng.uniform(0.05, 0.3, n)
        pset = Particles(pos, np.zeros((n, 3)), radius, radius,
                         np.ones(n), np.zeros(n, bool))
        cell = 0.9
        cfg = SimConfig(
            dt=1e-4, k_factor=0, gravity=vec3(0, 0, 0), cell_size=cell,
            domain_min=vec3(0, 0, 0), domain_max=vec3(*hi),
            contact=ContactParams(k_n=1.0), steps=1,
        )
        sr = rng.uniform(0.02, cell / 2.0, n)
        if linked_cell_pairs(pset, cfg, sr) != brute_force_pairs(pset, sr):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    _report("criterion-2 oracle-equivalence", ok,
            f"100 seeded configs (n up to 500), {mismatches} mismatches, {elapsed:.1f}s")
    assert ok
    assert elapsed < 60.0


# (baseline seconds, K=200 seconds) -> printed improvement column, one row
# per published test case
IMPROVEMENT_ROWS = [
    ("avalanche", 5595.77, 1687.24, 69.84),
    ("biomass", 962.90, 594.89, 38.21),
    ("granular-flows", 2084.74, 1206.19, 42.14),
    ("hopper-125k", 1164.40, 701.52, 39.75),
    ("hopper-250k", 1564.46, 945.67, 39.55),
    ("hopper-500k", 1614.37, 975.27, 39.58),
    ("powder-leveling", 733.98, 375.25, 48.87),
]


def test_criterion_3_improvement_metric():
    """The improvement formula reproduces the published column to +/-0.02."""
    worst = 0.0
    failures = []
    for name, base, k200, printed in IMPROVEMENT_ROWS:
        got = improvement(base, k200)
        err = abs(got - printed)
        worst = max(worst, err)
        if err > 0.02:
            failures.append(f"{name}: {got:.4f} vs {printed}")
    ok = not failures
    _report("criterion-3 improvement-metric", ok,
            f"7 rows, worst deviation {worst:.4f} pp (limit 0.02)"
            + ("" if ok else f"; failures: {failures}"))
    assert ok, failures


def test_criterion_4_skip_monotonicity(settling_sweep):
    """Executed-broad-phase fraction falls monotonically with K."""
    report, elapsed = settling_sweep
    pcts = [report.row_for(k).broad_executed_pct for k in SWEEP_KS]
    non_increasing = all(a >= b for a, b in zip(pcts, pcts[1:]))
    at_k0 = report.row_for(0).broad_executed_pct
    at_k1000 = report.row_for(1000).broad_executed_pct
    ok = non_increasing and at_k0 == 100.0 and at_k1000 <= 5.0
    _report("criterion-4 skip-monotonicity", ok,
            f"pct by K {[round(p, 3) for p in pcts]}, K=0 at {at_k0}%, "
            f"K=1000 at {at_k1000:.3f}% (limit 5%), sweep {elapsed:.0f}s")
    assert non_increasing, pcts
    assert at_k0 == 100.0
    assert at_k1000 <= 5.0
    assert elapsed < 300.0


def test_criterion_5_tradeoff_components(settling_sweep):
    """Broad-phase work falls with K while narrow-phase work grows."""
    report, _ = settling_sweep
    rows = [report.row_for(k) for k in SWEEP_KS]
    broad = [r.broad for r in rows]
    narrow = [r.narrow for r in rows]
    pairs = [r.mean_pairs for r in rows]
    broad_ok = all(a >= b for a, b in zip(broad, broad[1:]))
    narrow_ok = all(a <= b for a, b in zip(narrow, narrow[1:]))
    pairs_ok = all(a <= b for a, b in zip(pairs, pairs[1:]))
    ok = broad_ok and narrow_ok and pairs_ok
    _report("criterion-5 tradeoff-components", ok,
            f"broad ops {broad[0]:.3g}->{broad[-1]:.3g} non-increasing={broad_ok}, "
            f"narrow ops {narrow[0]:.3g}->{narrow[-1]:.3g} non-decreasing={narrow_ok}, "
            f"mean pairs {pairs[0]:.1f}->{pairs[-1]:.1f} non-decreasing={pairs_ok}")
    assert ok


def test_criterion_6_physics_sanity():
    """Momentum conservation, exact constant-force motion, bounded oscillator drift."""
    t0 = time.perf_counter()

    # momentum: 50-particle frictionless, dissipation-free gas, 1000 steps
    rng = np.random.default_rng(17)
    n = 50
    pos = rng.uniform(0.05, 0.35, (n, 3))
    vel = rng.normal(0, 1.0, (n, 3))
    gas = Particles(pos, vel, np.full(n, 0.04), np.full(n, 0.04),
                    np.full(n, 0.01), np.zeros(n, bool))
    cfg = SimConfig(
        dt=1e-4, k_factor=100, gravity=vec3(0, 0, 0), cell_size=0.1,
        domain_min=vec3(0, 0, 0), domain_max=vec3(0.4, 0.4, 0.4),
        contact=ContactParams(k_n=1000.0), steps=1000,
    )
    p0 = (gas.mass[:, None] * gas.velocity).sum(axis=0)
    out = run(cfg, gas)
    p1 = (out.state.particles.mass[:, None] * out.state.particles.velocity).sum(axis=0)
    momentum_drift = float(np.linalg.norm(p1 - p0) / np.linalg.norm(p0))

    # constant force: velocity-Verlet integrates a quadratic exactly
    g = np.array([0.0, 0.0, -9.81])
    ball = spheres([(0, 0, 10)], [(0.3, 0, 2)], radius=0.1)
    x0, v0 = ball.position.copy(), ball.velocity.copy()

    def const_force(ps):
        return ps.mass[:, None] * g[None, :]

    forces = const_force(ball)
    dt, steps = 0.01, 100
    for _ in range(steps):
        _, forces = velocity_verlet_step(ball, forces, const_force, dt)
    t = steps * dt
    const_err = float(np.abs(ball.position - (x0 + v0 * t + 0.5 * g * t * t)).max())

    # harmonic oscillator: energy drift < 1e-3 over 1e4 steps at dt = T/100
    k_spring = 4.0 * math.pi ** 2
    osc = spheres([(1, 0, 0)], radius=0.1)

    def spring(ps):
        return -k_spring * ps.position

    def energy():
        return 0.5 * float((osc.velocity ** 2).sum()) \
            + 0.5 * k_spring * float((osc.position ** 2).sum())

    e0 = energy()
    forces = spring(osc)
    for _ in range(10_000):
        _, forces = velocity_verlet_step(osc, forces, spring, 1.0 / 100.0)
    energy_drift = abs(energy() - e0) / e0

    elapsed = time.perf_counter() - t0
    ok = momentum_drift < 1e-9 and const_err < 1e-10 and energy_drift < 1e-3
    _report("criterion-6 physics-sanity", ok,
            f"momentum drift {momentum_drift:.2e} (limit 1e-9), "
            f"constant-force error {const_err:.2e} m, "
            f"oscillator drift {energy_drift:.2e} (limit 1e-3), {elapsed:.1f}s")
    assert momentum_drift < 1e-9
    assert const_err < 1e-10
    assert energy_drift < 1e-3
    assert elapsed < 60.0


def test_criterion_7_determinism(tmp_path):
    """Repeated runs and opcount sweeps emit byte-identical CSV/JSON."""
    t0 = time.perf_counter()
    cfg_doc = {
        "scenario": {"name": "settling-box", "n": 200, "seed": SEED},
        "config": {"steps": 1000, "k_factor": 200},
        "trajectory_every": 100,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg_doc))

    run_outputs = []
    for tag in ("a", "b"):
        metrics = tmp_path / f"metrics_{tag}.json"
        traj = tmp_path / f"traj_{tag}.csv"
        code = main(["run", "--config", str(cfg_path),
                     "--metrics", str(metrics), "--trajectory", str(traj)])
        assert code == EXIT_OK
        run_outputs.append((metrics.read_bytes(), traj.read_bytes()))
    run_ok = run_outputs[0] == run_outputs[1]

    scenario = make_scenario("settling-box", 100, 7)
    sweep_bytes = []
    for tag in ("a", "b"):
        rep = run_sweep(scenario, [0, 100, 500], mode="opcount", steps=500)
        path = tmp_path / f"sweep_{tag}.csv"
        emit_report(rep, str(path))
        sweep_bytes.append(path.read_bytes())
    sweep_ok = sweep_bytes[0] == sweep_bytes[1]

    elapsed = time.perf_counter() - t0
    ok = run_ok and sweep_ok
    _report("criterion-7 determinism", ok,
            f"run outputs identical={run_ok}, sweep outputs identical={sweep_ok}, "
            f"{elapsed:.0f}s")
    assert run_ok
    assert sweep_ok
    assert elapsed < 300.0
