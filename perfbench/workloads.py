"""The benchmark's workloads, the operation each one repeats, and its checks.

Every bundled scenario spends its first ~2700-4000 steps in free fall, with
an empty unbuffered pair list for the whole first 1000 steps.  Each workload
therefore starts from the state a K=200 run reaches after that phase; since
buffered and unbuffered runs are bit-identical, that start state does not
depend on K.  One operation is one run of ``op_steps`` steps from the start
state, so every operation does identical work and must give an identical
final state and identical operation counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

import verletdem.bench
import verletdem.engine
from verletdem import Particles, Scenario, make_scenario

from tracing import patched

N_FREE = 500      # free particles, as in the acceptance suite
WARM_K = 200      # skin factor of the warm-up run


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    k_factor: int
    verlet_enabled: bool
    warm_steps: int
    op_steps: int
    audit: bool = False   # buffered twin with shadow scan + baseline twin


WORKLOADS = {
    # the broad-phase runs at every evaluation on a settling bed
    "box-nobuffer": Workload("box-nobuffer", "settling-box", WARM_K, False, 3000, 400),
    # the buffer skips ~98% of builds during discharge: narrow-phase,
    # integrator and forces dominate
    "hopper-k200": Workload("hopper-k200", "mini-hopper", 200, True, 4000, 1000),
    # a shortened Tier-1 criterion-1 unit: the shadow scan dominates
    "flow-audit": Workload("flow-audit", "inclined-flow", 200, True, 3000, 100, audit=True),
}


def state_digest(pset: Particles) -> str:
    h = hashlib.sha256()
    for arr in (pset.position, pset.velocity, pset.radius, pset.mass, pset.is_static):
        h.update(arr.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Start:
    scenario: Scenario
    particles: Particles
    digest: str


def prepare(wl: Workload, seed: int, n: int = N_FREE,
            warm_steps: Optional[int] = None) -> Start:
    """Generate the scenario and run it through its free-fall phase."""
    sc = make_scenario(wl.scenario, n, seed)
    steps = wl.warm_steps if warm_steps is None else warm_steps
    warm = verletdem.engine.run(sc.sim_config(WARM_K, steps=steps), sc.build_particles())
    particles = warm.state.particles
    return Start(sc, particles, state_digest(particles))


def start_contacts(wl: Workload, start: Start) -> int:
    """Contacts resolved over the first step: the start is contact-rich."""
    res = verletdem.engine.run(
        start.scenario.sim_config(wl.k_factor, verlet_enabled=wl.verlet_enabled, steps=1),
        start.particles)
    return int(res.metrics.model_time)


@dataclass(frozen=True)
class _WarmScenario(Scenario):
    """A bundled scenario whose particles are a fixed start state."""

    start: Optional[Particles] = None

    def build_particles(self) -> Particles:
        return self.start.copy()


@dataclass
class Outcome:
    """One operation: what it produced and what it violated.

    ``counts`` and ``layer_counts`` are canonical JSON, so outcomes compare
    and travel between processes as plain strings.
    """

    final_digest: Optional[str] = None      # None: the operation raised
    counts: str = ""
    violations: list = dataclasses.field(default_factory=list)
    layer_counts: Optional[str] = None      # traced operations only


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _counts(result) -> dict:
    m = result.metrics
    return {
        "pairs_tested": int(m.broad_time),
        "pairs_resolved": int(m.narrow_time),
        "contacts": int(m.model_time),
        "builds": m.broad_executions,
        "evals": m.force_evaluations,
        "list_len_sum": m.pair_list_length_sum,
        "tunneling": len(result.tunneling),
    }


def _finite(pset: Particles) -> bool:
    return bool(np.isfinite(pset.position).all() and np.isfinite(pset.velocity).all())


def run_op(wl: Workload, start: Start, steps: Optional[int] = None) -> tuple[Outcome, dict]:
    """One operation; returns its outcome and its summed engine counts."""
    steps = wl.op_steps if steps is None else steps
    if wl.audit:
        return _audit_op(wl, start, steps)
    cfg = start.scenario.sim_config(wl.k_factor, verlet_enabled=wl.verlet_enabled,
                                    steps=steps)
    result = verletdem.engine.run(cfg, start.particles)
    counts = _counts(result)
    out = Outcome(state_digest(result.state.particles), canonical(counts))
    if not _finite(result.state.particles):
        out.violations.append("non-finite final state")
    return out, counts


def _audit_op(wl: Workload, start: Start, steps: int) -> tuple[Outcome, dict]:
    """``validate_equivalence`` from the start state, keeping both twins."""
    twins = []

    def keep(fn):
        def kept(*args, **kwargs):
            twins.append(fn(*args, **kwargs))
            return twins[-1]
        return kept

    scenario = _WarmScenario(**{f.name: getattr(start.scenario, f.name)
                                for f in dataclasses.fields(Scenario)},
                             start=start.particles)
    with patched(verletdem.bench, "run", keep):
        report = verletdem.bench.validate_equivalence(scenario, wl.k_factor, steps=steps)
    buffered, baseline = twins
    buf_digest = state_digest(buffered.state.particles)
    base_digest = state_digest(baseline.state.particles)
    buf_counts, base_counts = _counts(buffered), _counts(baseline)
    signature = canonical({
        "buffered": buf_counts, "baseline": base_counts,
        "contact_digest": buffered.contact_digest, "shadow_misses": report.shadow_misses,
    })
    out = Outcome(buf_digest, signature)
    if report.shadow_misses:
        out.violations.append(f"{report.shadow_misses} shadow misses")
    if not report.contact_history_match:
        out.violations.append("contact histories differ")
    if not report.final_state_match:
        out.violations.append("final states differ")
    if buf_digest != base_digest:
        out.violations.append("twin final-state digests differ")
    if buffered.contact_digest != baseline.contact_digest:
        out.violations.append("twin contact-history digests differ")
    if not (_finite(buffered.state.particles) and _finite(baseline.state.particles)):
        out.violations.append("non-finite final state")
    return out, {key: buf_counts[key] + base_counts[key] for key in buf_counts}


def _modal(values):
    tally = Counter(v for v in values if v is not None)
    return tally.most_common(1)[0][0] if tally else None


def failed_ops(outcomes: list[Outcome], reference_digest: Optional[str] = None) -> list[int]:
    """Indices of the operations that failed.

    An operation fails when it raised (no digest), found a violation, or
    produced a final state, engine counts or traced per-layer counts that
    differ from the most common ones among the operations; with
    ``reference_digest`` given, also when its final state differs from that
    independent reference.
    """
    modal = _modal((o.final_digest, o.counts) if o.final_digest else None for o in outcomes)
    modal_layer = _modal(o.layer_counts for o in outcomes)
    bad = []
    for i, o in enumerate(outcomes):
        if (o.final_digest is None or o.violations
                or (o.final_digest, o.counts) != modal
                or (o.layer_counts is not None and o.layer_counts != modal_layer)
                or (reference_digest is not None and o.final_digest != reference_digest)):
            bad.append(i)
    return bad


def reference_digest(wl: Workload, start: Start, steps: Optional[int] = None) -> Optional[str]:
    """Final state of the operation's twin with the buffer setting flipped.

    The paper's claim is that buffered and unbuffered runs are bit-identical,
    so this independent run must reproduce every operation's final state.
    The audit workload compares its twins inside every operation instead.
    """
    if wl.audit:
        return None
    steps = wl.op_steps if steps is None else steps
    cfg = start.scenario.sim_config(wl.k_factor, verlet_enabled=not wl.verlet_enabled,
                                    steps=steps)
    return state_digest(verletdem.engine.run(cfg, start.particles).state.particles)
