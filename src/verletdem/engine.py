"""The iterative simulation loop.

Each step: decide whether the cached pair list is still valid (rebuild the
broad-phase only when a particle outran its frozen skin), resolve contacts
on the candidate list (on a reused list, only the rows the particles'
displacements cannot rule out), apply the contact model, integrate.  The rebuild
check runs before *every* force evaluation, including the mid-step one of
velocity-Verlet, because the cached list is consumed there too.

One driver owns a run: its state, the cached list, the shadow-scan audit
and the run record, which it fills in place; :func:`run` wraps it.  Every
phase is both counted and timed, and the run record keeps both: the
deterministic operation counts, on which benchmark shapes and acceptance
checks rely because they do not depend on machine speed, and the
wall-clock seconds the same phases cost.  A report picks which of the
two it shows (:meth:`PhaseMetrics.as_dict`).
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .broadphase import (
    SKIN_LOCAL, PairList, VerletState, _SKIN_MODES, _oriented_keys, _skins,
    verlet_build, verlet_displacement_sq, verlet_gate, verlet_needs_rebuild,
)
from .core import (
    ConfigError, Particles, SimConfig, SimulationError, _strict_int, row_norm_sq,
    validate_config,
)
from .narrowphase import resolve_contacts
from .physics import compute_forces, velocity_verlet_step

log = logging.getLogger(__name__)

__all__ = [
    "PhaseMetrics", "SimState", "RunResult", "SimulationUnstable", "run",
]

OPCOUNT = "opcount"
WALLTIME = "walltime"


class SimulationUnstable(SimulationError):
    """A particle state went non-finite (usually dt too large)."""

    def __init__(self, step: int, particle: int):
        super().__init__(f"non-finite state for particle {particle} at step {step}")
        self.step = step
        self.particle = particle


_TIME_FIELDS = ("broad_time", "narrow_time", "model_time", "integrate_time")


@dataclass
class PhaseMetrics:
    """Per-phase accumulators for one run: operation counts and seconds.

    The *_time fields hold deterministic operation counts: candidate pairs
    distance-tested for broad, pair-list rows offered to the narrow phase
    for narrow, contacts evaluated for model, particles advanced for
    integrate.  The narrow count is the list length even when the
    displacement gate skips some of those rows.  ``seconds`` holds the
    wall-clock seconds of the same four phases, keyed by the same names.
    """

    broad_time: float = 0.0
    narrow_time: float = 0.0
    model_time: float = 0.0
    integrate_time: float = 0.0
    broad_executions: int = 0
    total_steps: int = 0
    force_evaluations: int = 0
    pair_list_length_sum: int = 0
    seconds: dict = field(default_factory=lambda: dict.fromkeys(_TIME_FIELDS, 0.0))

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

    def as_dict(self, mode: str = OPCOUNT) -> dict:
        """The record as a report shows it.

        ``mode`` picks what the *_time fields and their total show: the
        operation counts (``opcount``) or the seconds (``walltime``).  Any
        other mode raises :class:`ConfigError`.
        """
        if mode == OPCOUNT:
            times = {name: getattr(self, name) for name in _TIME_FIELDS}
        elif mode == WALLTIME:
            times = dict(self.seconds)
        else:
            raise ConfigError(f"mode must be {OPCOUNT} or {WALLTIME}, got {mode!r}")
        return {
            "mode": mode,
            **times,
            "total_time": sum(times.values()),
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
    forces: Optional[np.ndarray] = None


@dataclass
class RunResult:
    """The record of one run, filled in place while the run goes.

    ``shadow_examples`` holds (step, id_a, id_b) of up to 5 missed pairs per
    scan, ``rebuild_events`` (evaluation index, rebuild was needed) per
    build and ``tunneling`` (step, particle, wall) per behind-wall report.
    """

    state: SimState
    metrics: PhaseMetrics
    trajectory: Optional[np.ndarray] = None
    shadow_misses: int = 0
    shadow_examples: list = field(default_factory=list)
    rebuild_events: list = field(default_factory=list)
    tunneling: list = field(default_factory=list)
    contact_hash: Optional["hashlib._Hash"] = field(default=None, repr=False)

    @property
    def contact_digest(self) -> Optional[str]:
        """Hex SHA-256 over every evaluation's contacts, if the run recorded it."""
        return None if self.contact_hash is None else self.contact_hash.hexdigest()


class _Driver:
    """Owns one run: its state, the cached list, the audit and the run record."""

    def __init__(self, result: RunResult, cfg: SimConfig, validation: bool = False,
                 skin_mode: str = SKIN_LOCAL):
        self.result = result
        self.state = state = result.state
        self.metrics = result.metrics
        self.cfg = cfg
        self.validation = validation
        self.skin_mode = skin_mode
        self.n = len(state.particles)
        self.eval_seconds = 0.0
        self.weight = state.particles.mass[:, None] * cfg.gravity

    # -- phases ----------------------------------------------------------

    def _shadow_scan(self) -> None:
        """Audit: every pair closer than its radii sum must be in the live list.

        A slab sort-and-sweep prefilter, independent of the cell grid it
        audits, selects a conservative superset of close pairs.  The axis of
        second-widest extent is cut into slabs of width 2 x the largest
        radius (with a relative 1e-9 pad), so a close pair lies in one slab
        or in two adjacent ones.  The particles are sorted by slab, then
        along the axis of widest extent (the sweep axis).  Each takes the
        window of sweep gap <= its radius + the largest radius: forward in
        its own slab, on both sides in the next slab.  A candidate is then
        dropped when it is farther apart on either other axis than the
        padded window of its first particle, which bounds its radii sum.
        Every bound carries a relative 1e-9 pad so that rounding can never
        hide a truly close pair.  The decisive test on the survivors uses
        the exact same elementwise arithmetic as the pair search, so the
        audit agrees bit-for-bit with the membership predicate it checks.
        """
        n = self.n
        pos = self.state.particles.position
        rad = self.state.particles.radius
        rad_max = float(rad.max())
        cols = pos.T.copy()                 # one row per axis
        low = cols.min(axis=1)
        sweep, across = np.argsort(cols.max(axis=1) - low)[:0:-1]
        slab_width = 2.0 * rad_max * (1.0 + 1e-9)
        slab = ((cols[across] - low[across]) / slab_width).astype(np.int64)
        by_x = np.argsort(cols[sweep], kind="stable")
        xs = cols[sweep].take(by_x)
        window = rad.take(by_x) + rad_max
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
        # the padded window r_a + r_max of the first particle bounds r_a + r_b
        bound = window.take(rank).take(sa)
        col = cols[across].take(order)
        near = np.abs(col.take(sa) - col.take(sb)) <= bound
        col = cols[3 - sweep - across].take(order)
        near &= np.abs(col.take(sa) - col.take(sb)) <= bound
        keep = np.flatnonzero(near)
        a, b = order.take(sa.take(keep)), order.take(sb.take(keep))
        ia, ib = np.minimum(a, b), np.maximum(a, b)
        diff = np.take(pos, ia, axis=0) - np.take(pos, ib, axis=0)
        d2 = row_norm_sq(diff)
        reach = np.take(rad, ia) + np.take(rad, ib)
        close = d2 <= reach * reach
        if not close.any():
            return
        keys = _oriented_keys(ia[close], ib[close])
        live = None if self.state.verlet is None else self.state.verlet.list.keys
        if live is not None and len(live):
            idx = np.minimum(np.searchsorted(live, keys), len(live) - 1)
            keys = keys[live[idx] != keys]
        if len(keys):
            self.result.shadow_misses += len(keys)
            # only the missing keys need an order: the examples are the lowest pairs
            a, b = PairList(np.sort(keys)[:5]).columns
            self.result.shadow_examples += [(self.state.step, *pair)
                                            for pair in zip(a.tolist(), b.tolist())]

    def _charge(self, phase: str, count: int, t0: float) -> float:
        """Add one phase's count and its seconds since ``t0``; return the time now."""
        now = time.perf_counter()
        metrics = self.metrics
        setattr(metrics, phase, getattr(metrics, phase) + count)
        metrics.seconds[phase] += now - t0
        return now

    def _broadphase(self) -> tuple[int, Optional[np.ndarray]]:
        """Reuse the cached list in ``state.verlet`` while valid, else rebuild it.

        A rebuild happens when no list exists yet, when the buffer is
        disabled (every evaluation rebuilds, with zero skins), or when some
        particle's displacement since the last build exceeds its frozen
        skin.  A rebuild reuses the stencil of a last build with zero skins
        while no particle has changed cell.  Returns the candidate pairs
        tested (0 on reuse) and the rows of the list the narrow phase must
        test: on reuse the ones the gate keeps, from the displacements the
        rebuild test computed; None, every row, on a fresh list.
        """
        state, cfg = self.state, self.cfg
        needed = False
        if state.verlet is not None and cfg.verlet_enabled:
            disp2 = verlet_displacement_sq(state.verlet, state.particles)
            needed = verlet_needs_rebuild(state.verlet, state.particles, disp2)
            if not needed:
                return 0, verlet_gate(state.verlet, np.sqrt(disp2))
        skins = _skins(state.particles, cfg, self.skin_mode)
        state.verlet = verlet_build(state.particles, cfg, skins=skins, previous=state.verlet)
        self.metrics.broad_executions += 1
        self.result.rebuild_events.append((self.metrics.force_evaluations - 1, needed))
        return state.verlet.pairs_tested, None

    def evaluate(self, pset: Particles) -> np.ndarray:
        """Full force pipeline: broad-phase decision, narrow phase, model."""
        self.metrics.force_evaluations += 1
        if self.n == 0:
            return np.zeros((0, 3))
        t_begin = time.perf_counter()
        tested, pair_rows = self._broadphase()
        verlet = self.state.verlet
        self.metrics.pair_list_length_sum += len(verlet.list)
        t0 = self._charge("broad_time", tested, t_begin)
        if self.validation:
            self._shadow_scan()             # the audit is charged to no phase
            t0 = time.perf_counter()

        reports: list[tuple[int, int]] = []
        contacts = resolve_contacts(verlet.list, pset, self.cfg.walls, tunneling=reports,
                                    wall_rows=verlet.wall_rows, pair_rows=pair_rows)
        if reports:
            self.result.tunneling += [(self.state.step, *report) for report in reports]
            log.warning("step %d: behind a wall, as (particle, wall): %s", self.state.step, reports)
        t0 = self._charge("narrow_time", len(verlet.list), t0)
        if self.result.contact_hash is not None:
            self.result.contact_hash.update(len(contacts).to_bytes(8, "little"))
            self.result.contact_hash.update(contacts.tobytes())
            t0 = time.perf_counter()

        forces = compute_forces(pset, contacts, self.cfg.contact, self.weight)
        self.eval_seconds += self._charge("model_time", len(contacts), t0) - t_begin
        return forces

    def step_once(self) -> None:
        t0 = time.perf_counter()
        eval_before = self.eval_seconds
        _, self.state.forces = velocity_verlet_step(
            self.state.particles, self.state.forces, self.evaluate, self.cfg.dt
        )
        # the integrator's own seconds: the step's, less its force evaluation's
        self._charge("integrate_time", self.n, t0 + (self.eval_seconds - eval_before))
        self.state.step += 1
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


def run(cfg: SimConfig, particles: Particles, *, validation: bool = False,
        skin_mode: str = SKIN_LOCAL, sample_every: Optional[int] = None,
        record_contact_digest: bool = False) -> RunResult:
    """Simulate ``cfg.steps`` steps from the given initial particles.

    The result's metrics keep both the operation counts and the seconds of
    every phase (:class:`PhaseMetrics`).  The input particle set is copied,
    never mutated.  Aborts with :class:`SimulationUnstable` if any particle
    state goes non-finite.  With ``validation=True`` the shadow scan
    (:meth:`_Driver._shadow_scan`) audits the live pair list at every force
    evaluation; its misses are counted in the result, not raised.  An
    unknown ``skin_mode`` raises :class:`SimulationError` before any step,
    and a ``sample_every`` that is neither None nor an integer >= 1 raises
    :class:`ConfigError`.
    """
    validate_config(cfg, particles)
    if skin_mode not in _SKIN_MODES:
        raise SimulationError(f"unknown skin mode {skin_mode!r}")
    if sample_every is not None and _strict_int(sample_every, "sample_every") < 1:
        raise ConfigError(f"sample_every must be >= 1, got {sample_every}")
    result = RunResult(SimState(particles=particles.copy()), PhaseMetrics(),
                       contact_hash=hashlib.sha256() if record_contact_digest else None)
    driver = _Driver(result, cfg, validation=validation, skin_mode=skin_mode)
    state = result.state
    samples: list[np.ndarray] = []

    def sample() -> None:
        n = len(state.particles)
        row = np.empty((n, 8))
        row[:, 0] = state.step
        row[:, 1] = np.arange(n)
        row[:, 2:5] = state.particles.position
        row[:, 5:8] = state.particles.velocity
        samples.append(row)

    state.forces = driver.evaluate(state.particles)    # at the starting positions
    if sample_every:
        sample()
    for _ in range(cfg.steps):
        driver.step_once()
        if sample_every and state.step % sample_every == 0:
            sample()
    if sample_every:
        result.trajectory = np.concatenate(samples)
    return result
