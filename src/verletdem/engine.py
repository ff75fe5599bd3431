"""The iterative simulation loop.

Each step: decide whether the cached pair list is still valid (rebuild the
broad-phase only when a particle outran its frozen skin), resolve contacts
on the candidate list (on a reused list, only the rows the particles'
displacements cannot rule out), apply the contact model, integrate.  The rebuild
check runs before *every* force evaluation, including the mid-step one of
velocity-Verlet, because the cached list is consumed there too.

Instrumentation is dual-mode: wall-clock seconds per phase, or
deterministic operation counts so that benchmark shapes and acceptance
checks do not depend on machine speed.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .broadphase import (
    VerletState, _verlet_build_stats, verlet_displacement_sq, verlet_gate, verlet_needs_rebuild,
)
from .core import Particles, SimConfig, SimulationError, as_particles, row_norm_sq, validate_config
from .narrowphase import resolve_contacts
from .physics import compute_forces, velocity_verlet_step

log = logging.getLogger(__name__)

__all__ = [
    "PhaseMetrics", "SimState", "RunResult", "SimulationUnstable", "ShadowMiss",
    "step", "run",
]

OPCOUNT = "opcount"
WALLTIME = "walltime"

SKIN_LOCAL = "local"            # per-particle k * |v| * dt, capped
SKIN_UNIFORM_RADIUS = "uniform-radius"  # skin = particle radius, capped


class SimulationUnstable(SimulationError):
    """A particle state went non-finite (usually dt too large)."""

    def __init__(self, step: int, particle: int):
        super().__init__(f"non-finite state for particle {particle} at step {step}")
        self.step = step
        self.particle = particle


class ShadowMiss(SimulationError):
    """The shadow scan found a close pair missing from the live pair list."""

    def __init__(self, step: int, pair: tuple[int, int]):
        super().__init__(f"close pair {pair} missing from the live pair list at step {step}")
        self.step = step
        self.pair = pair


@dataclass
class PhaseMetrics:
    """Per-phase accumulators for one run.

    In ``walltime`` mode the *_time fields hold accumulated seconds; in
    ``opcount`` mode they hold deterministic operation counts (candidate
    pairs distance-tested for broad, pair-list rows offered to the narrow
    phase for narrow, contacts evaluated for model, particles advanced for
    integrate).  The narrow count is the list length even when the
    displacement gate skips some of those rows.
    """

    mode: str = OPCOUNT
    broad_time: float = 0.0
    narrow_time: float = 0.0
    model_time: float = 0.0
    integrate_time: float = 0.0
    broad_executions: int = 0
    total_steps: int = 0
    force_evaluations: int = 0
    pair_list_length_sum: int = 0

    @property
    def broad_executed_pct(self) -> float:
        if self.force_evaluations == 0:
            return 0.0
        return 100.0 * self.broad_executions / self.force_evaluations

    @property
    def mean_pair_list_length(self) -> float:
        if self.force_evaluations == 0:
            return 0.0
        return self.pair_list_length_sum / self.force_evaluations

    @property
    def total_time(self) -> float:
        return self.broad_time + self.narrow_time + self.model_time + self.integrate_time

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "broad_time": self.broad_time,
            "narrow_time": self.narrow_time,
            "model_time": self.model_time,
            "integrate_time": self.integrate_time,
            "total_time": self.total_time,
            "broad_executions": self.broad_executions,
            "total_steps": self.total_steps,
            "force_evaluations": self.force_evaluations,
            "pair_list_length_sum": self.pair_list_length_sum,
            "broad_executed_pct": self.broad_executed_pct,
            "mean_pair_list_length": self.mean_pair_list_length,
        }


@dataclass
class SimState:
    """Mutable state of one simulation instance (single writer)."""

    particles: Particles
    verlet: Optional[VerletState] = None
    step: int = 0
    clock: float = 0.0
    forces: Optional[np.ndarray] = None


def _skins_for_mode(pset: Particles, cfg: SimConfig, skin_mode: str):
    """Explicit skin array for non-default modes, or None for the local law."""
    if skin_mode == SKIN_LOCAL:
        return None
    if skin_mode == SKIN_UNIFORM_RADIUS:
        caps = 0.5 * cfg.cell_size - pset.cutoff
        skins = np.minimum(pset.radius, caps)
        skins[pset.is_static] = 0.0
        return skins
    raise SimulationError(f"unknown skin mode {skin_mode!r}")


def _maybe_broadphase(state: SimState, cfg: SimConfig, skin_mode: str):
    """Reuse the cached pair list when still valid, else rebuild it.

    Returns (verlet, executed, pairs_tested, rebuild_was_needed, pair_rows).
    A rebuild happens when no list exists yet, when the buffer is disabled
    (every evaluation rebuilds with zero skins), or when some particle's
    displacement since the last build exceeds its frozen skin.
    ``pair_rows`` are the rows of a reused list that the narrow phase must
    test; one displacement array serves both the rebuild test and the gate.
    A freshly built list is tested in full (``pair_rows`` None).
    """
    needed = False
    if state.verlet is not None and cfg.verlet_enabled:
        disp2 = verlet_displacement_sq(state.verlet, state.particles)
        needed = verlet_needs_rebuild(state.verlet, state.particles, disp2)
        if not needed:
            return state.verlet, False, 0, False, verlet_gate(state.verlet, np.sqrt(disp2))
    if cfg.verlet_enabled:
        skins = _skins_for_mode(state.particles, cfg, skin_mode)
    else:
        skins = np.zeros(len(state.particles))
    verlet, tested = _verlet_build_stats(state.particles, cfg, state.step, skins=skins)
    return verlet, True, tested, needed, None


class _Driver:
    """Owns one simulation instance: wiring, metrics and audits."""

    def __init__(self, state: SimState, cfg: SimConfig, metrics: PhaseMetrics,
                 validation: bool = False, skin_mode: str = SKIN_LOCAL,
                 record_contact_digest: bool = False):
        self.state = state
        self.cfg = cfg
        self.metrics = metrics
        self.validation = validation
        self.skin_mode = skin_mode
        self.walltime = metrics.mode == WALLTIME
        n = len(state.particles)
        self.n = n
        self.live_keys: Optional[np.ndarray] = None
        self.shadow_misses = 0
        self.shadow_examples: list[tuple[int, int, int]] = []
        self.rebuild_events: list[tuple[int, bool]] = []   # (eval index, was needed)
        self.tunneling: list[tuple[int, int, int]] = []    # (step, particle, wall)
        self.eval_elapsed = 0.0
        self.digest = hashlib.sha256() if record_contact_digest else None
        self.weight = state.particles.mass[:, None] * np.asarray(cfg.gravity, dtype=np.float64)
        if validation and state.verlet is not None:
            self.live_keys = state.verlet.list.keys()
        if validation and n >= 2:
            self._shadow_cut = state.particles.cutoff
            self._shadow_cut_max = float(self._shadow_cut.max())
            self._slab_width = 2.0 * self._shadow_cut_max * (1.0 + 1e-9)
        else:
            self._shadow_cut = None

    # -- phases ----------------------------------------------------------

    def _shadow_scan(self) -> None:
        """Audit: every cutoff-overlapping pair must be in the live list.

        A slab sort-and-sweep prefilter, independent of the cell grid it
        audits, selects a conservative superset of close pairs.  The axis of
        second-widest extent is cut into slabs of width 2 x the largest
        cutoff (with a relative 1e-9 pad), so a close pair lies in one slab
        or in two adjacent ones.  The particles are sorted by slab, then
        along the axis of widest extent (the sweep axis).  Each takes the
        window of sweep gap <= its cutoff + the largest cutoff: forward in
        its own slab, on both sides in the next slab.  Candidates too far
        apart on either other axis are then dropped.  Every bound carries a
        relative 1e-9 pad so that rounding can never hide a truly close
        pair.  The decisive test on the survivors uses the exact same
        elementwise arithmetic as the pair search, so the audit agrees
        bit-for-bit with the membership predicate it checks.
        """
        cut = self._shadow_cut
        if cut is None:
            return
        pos = self.state.particles.position
        n = self.n
        cols = pos.T.copy()                 # one row per axis
        low = cols.min(axis=1)
        sweep, across = np.argsort(cols.max(axis=1) - low)[:0:-1]
        slab = ((cols[across] - low[across]) / self._slab_width).astype(np.int64)
        by_x = np.argsort(cols[sweep], kind="stable")
        xs = cols[sweep].take(by_x)
        window = cut.take(by_x) + self._shadow_cut_max
        window += 1e-9 * (1.0 + window)
        # sweep ranks [rank_lo, rank_hi) of each particle's window
        rank_hi = np.searchsorted(xs, xs + window, side="right")
        rank_lo = np.searchsorted(xs, xs - window, side="left")
        # sorted by the distinct keys slab * n + sweep rank: entry j is
        # particle order[j], of sweep rank rank[j]
        skey = slab.take(by_x) * n + np.arange(n)
        rank = np.argsort(skey)
        order = by_x.take(rank)
        skey = skey.take(rank)
        base = skey - rank                  # slab * n
        rank_hi, rank_lo = rank_hi.take(rank), rank_lo.take(rank)
        # windows [j + 1, own_hi[j]) in its own slab and [next_lo[j],
        # next_hi[j]) in the next one, spelled out here rather than shared
        # with the grid search
        own_hi, next_lo, next_hi = np.searchsorted(skey, np.concatenate(
            (base + rank_hi, base + n + rank_lo, base + n + rank_hi))).reshape(3, n)
        j = np.arange(n)
        first = np.concatenate((j + 1, next_lo))
        counts = np.concatenate((own_hi - j - 1, next_hi - next_lo))
        total = int(counts.sum())
        sa = np.repeat(np.concatenate((j, j)), counts)
        sb = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(total)
        cs = cut.take(order)
        reach = cs.take(sa) + cs.take(sb)
        bound = reach + 1e-9 * (1.0 + reach)
        near = np.ones(total, dtype=bool)
        for other in (across, 3 - sweep - across):
            col = cols[other].take(order)
            near &= np.abs(col.take(sa) - col.take(sb)) <= bound
        keep = np.flatnonzero(near)
        a, b = order.take(sa.take(keep)), order.take(sb.take(keep))
        ia, ib = np.minimum(a, b), np.maximum(a, b)
        diff = np.take(pos, ia, axis=0) - np.take(pos, ib, axis=0)
        d2 = row_norm_sq(diff)
        reach = np.take(cut, ia) + np.take(cut, ib)
        close = d2 <= reach * reach
        if not np.any(close):
            return
        keys = np.sort((ia[close].astype(np.int64) << np.int64(32)) | ib[close].astype(np.int64))
        live = self.live_keys
        if live is None or len(live) == 0:
            missing = np.ones(len(keys), dtype=bool)
        else:
            idx = np.minimum(np.searchsorted(live, keys), len(live) - 1)
            missing = live[idx] != keys
        count = int(missing.sum())
        if count:
            self.shadow_misses += count
            for key in keys[missing][:5]:
                a = int(key >> np.int64(32))
                b = int(key & np.int64(0xFFFFFFFF))
                self.shadow_examples.append((self.state.step, a, b))

    def evaluate(self, pset: Particles) -> np.ndarray:
        """Full force pipeline: broad-phase decision, narrow phase, model."""
        cfg = self.cfg
        metrics = self.metrics
        t_begin = time.perf_counter() if self.walltime else 0.0
        metrics.force_evaluations += 1

        if self.n == 0:
            if self.walltime:
                self.eval_elapsed += time.perf_counter() - t_begin
            return np.zeros((0, 3))

        t0 = time.perf_counter() if self.walltime else 0.0
        verlet, executed, tested, needed, pair_rows = _maybe_broadphase(
            self.state, cfg, self.skin_mode)
        if executed:
            self.state.verlet = verlet
            metrics.broad_executions += 1
            self.rebuild_events.append((metrics.force_evaluations - 1, needed))
            if self.validation:
                self.live_keys = verlet.list.keys()
        metrics.pair_list_length_sum += len(verlet.list)
        if self.walltime:
            metrics.broad_time += time.perf_counter() - t0
        else:
            metrics.broad_time += tested
        if self.validation:
            self._shadow_scan()

        t0 = time.perf_counter() if self.walltime else 0.0
        reports: list[tuple[int, int]] = []
        contacts = resolve_contacts(verlet.list, pset, cfg.walls, tunneling=reports,
                                    wall_rows=verlet.wall_rows, pair_rows=pair_rows)
        for pid, widx in reports:
            self.tunneling.append((self.state.step, pid, widx))
            log.warning("step %d: particle %d behind wall %d", self.state.step, pid, widx)
        if self.walltime:
            metrics.narrow_time += time.perf_counter() - t0
        else:
            metrics.narrow_time += len(verlet.list)
        if self.digest is not None:
            self.digest.update(len(contacts).to_bytes(8, "little"))
            self.digest.update(contacts.tobytes())

        t0 = time.perf_counter() if self.walltime else 0.0
        forces = compute_forces(pset, contacts, cfg.contact, cfg.gravity, weight=self.weight)
        if self.walltime:
            metrics.model_time += time.perf_counter() - t0
        else:
            metrics.model_time += len(contacts)

        if self.walltime:
            self.eval_elapsed += time.perf_counter() - t_begin
        return forces

    def bootstrap(self) -> None:
        """Initial force evaluation at the starting positions."""
        if self.state.forces is None:
            self.state.forces = self.evaluate(self.state.particles)

    def step_once(self) -> None:
        self.bootstrap()
        t0 = time.perf_counter() if self.walltime else 0.0
        eval_before = self.eval_elapsed
        _, forces = velocity_verlet_step(
            self.state.particles, self.state.forces, self.evaluate, self.cfg.dt
        )
        self.state.forces = forces
        if self.walltime:
            elapsed = time.perf_counter() - t0
            self.metrics.integrate_time += elapsed - (self.eval_elapsed - eval_before)
        else:
            self.metrics.integrate_time += self.n
        self.state.step += 1
        self.state.clock += self.cfg.dt
        self.metrics.total_steps += 1
        self._check_finite()

    def _check_finite(self) -> None:
        pset = self.state.particles
        if len(pset) == 0:
            return
        # a NaN or an infinity makes the sum non-finite; a sum that merely
        # overflows falls through to the row scan, which then finds nothing
        if np.isfinite(pset.position.sum() + pset.velocity.sum()):
            return
        ok = np.isfinite(pset.position).all(axis=1) & np.isfinite(pset.velocity).all(axis=1)
        if not ok.all():
            bad = int(np.flatnonzero(~ok)[0])
            raise SimulationUnstable(self.state.step, bad)


def step(state: SimState, cfg: SimConfig, metrics: Optional[PhaseMetrics] = None,
         *, validation: bool = False, skin_mode: str = SKIN_LOCAL) -> SimState:
    """Advance one time step in place and return the state.

    With ``validation=True`` the shadow scan audits the step's force
    evaluations, and a close pair missing from the live list raises
    :class:`ShadowMiss` (after the step) naming the first one.
    """
    if metrics is None:
        metrics = PhaseMetrics()
    driver = _Driver(state, cfg, metrics, validation=validation, skin_mode=skin_mode)
    driver.step_once()
    if driver.shadow_examples:
        step_no, a, b = driver.shadow_examples[0]
        raise ShadowMiss(step_no, (a, b))
    return state


@dataclass
class RunResult:
    state: SimState
    metrics: PhaseMetrics
    trajectory: Optional[np.ndarray] = None
    shadow_misses: int = 0
    shadow_examples: list = field(default_factory=list)
    rebuild_events: list = field(default_factory=list)
    tunneling: list = field(default_factory=list)
    contact_digest: Optional[str] = None


def run(cfg: SimConfig, particles, *, mode: str = OPCOUNT,
        validation: bool = False, skin_mode: str = SKIN_LOCAL,
        sample_every: Optional[int] = None,
        record_contact_digest: bool = False) -> RunResult:
    """Simulate ``cfg.steps`` steps from the given initial particles.

    The input particle set is copied, never mutated.  Aborts with
    :class:`SimulationUnstable` if any particle state goes non-finite.
    With ``validation=True`` a shadow scan audits the live pair list at
    every force evaluation: a sort-and-sweep prefilter inside slabs two
    largest cutoffs wide, independent of the cell grid, followed by the
    exact cutoff test on its survivors.  Its misses are counted in the
    result rather than raised.
    """
    pset = as_particles(particles)
    validate_config(cfg, pset)
    state = SimState(particles=pset.copy())
    metrics = PhaseMetrics(mode=mode)
    driver = _Driver(state, cfg, metrics, validation=validation,
                     skin_mode=skin_mode, record_contact_digest=record_contact_digest)

    samples: list[np.ndarray] = []

    def sample() -> None:
        n = len(state.particles)
        if n == 0:
            return
        row = np.empty((n, 8))
        row[:, 0] = state.step
        row[:, 1] = np.arange(n)
        row[:, 2:5] = state.particles.position
        row[:, 5:8] = state.particles.velocity
        samples.append(row)

    driver.bootstrap()
    if sample_every:
        sample()
    for _ in range(cfg.steps):
        driver.step_once()
        if sample_every and state.step % sample_every == 0:
            sample()

    trajectory = np.concatenate(samples) if samples else (
        np.empty((0, 8)) if sample_every else None
    )
    return RunResult(
        state=state,
        metrics=metrics,
        trajectory=trajectory,
        shadow_misses=driver.shadow_misses,
        shadow_examples=driver.shadow_examples,
        rebuild_events=driver.rebuild_events,
        tunneling=driver.tunneling,
        contact_digest=driver.digest.hexdigest() if driver.digest is not None else None,
    )
