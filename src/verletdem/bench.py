"""Benchmark harness: bundled scenarios, the K sweep, and its CSV report.

Three desk-scale scenarios exercise distinct flow regimes: a box of spheres
settling under gravity, a miniature hopper discharging through a slot, and
spheres flowing over a rough inclined plane.  The sweep runs one baseline
(buffer disabled) plus one run per K value on identical initial conditions
and reports per-phase cost, the fraction of force evaluations that executed
a broad-phase, and the improvement of each run over the baseline.

Every run records both its operation counts and its seconds; the sweep's
``mode`` picks which the report shows.  Operation counts are the primary
currency: every acceptance check uses them, because they are deterministic.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    ConfigError, ContactParams, Particles, SimConfig, SimulationError,
    WallPlane, vec3,
)
from .broadphase import SKIN_LOCAL, SKIN_UNIFORM_RADIUS
from .engine import OPCOUNT, PhaseMetrics, RunResult, run

__all__ = [
    "Scenario", "SweepRow", "SweepReport", "EquivalenceReport",
    "UnknownScenario", "NonPositiveBaseline", "PlacementError",
    "DEFAULT_K_VALUES", "SCENARIO_NAMES",
    "improvement", "make_scenario", "run_sweep",
    "emit_report", "validate_equivalence",
]

DEFAULT_K_VALUES = (0, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)
SCENARIO_NAMES = ("settling-box", "mini-hopper", "inclined-flow")

BASELINE_K = -1        # CSV sentinel for the buffer-disabled row
UNIFORM_SKIN_K = -2    # CSV sentinel for the uniform skin = radius row

_DENSITY = 2500.0      # kg/m^3 for every generated sphere


class UnknownScenario(ConfigError):
    pass


class PlacementError(ConfigError):
    """The requested particle count does not fit the scenario geometry."""


class NonPositiveBaseline(SimulationError):
    pass


def improvement(time_without_buffer: float, time_case: float) -> float:
    """Percentage gain of a run over the no-buffer baseline."""
    if not (time_without_buffer > 0):
        raise NonPositiveBaseline(
            f"baseline time must be > 0, got {time_without_buffer}"
        )
    return 100.0 * (time_without_buffer - time_case) / time_without_buffer


@dataclass(frozen=True)
class Scenario:
    """A named, seeded initial condition plus default run parameters.

    The particle set is a pure function of (name, n, seed): building it
    twice yields identical arrays.
    """

    name: str
    n: int
    seed: int
    dt: float
    steps: int
    cell_size: float
    gravity: np.ndarray
    domain_min: np.ndarray
    domain_max: np.ndarray
    walls: tuple[WallPlane, ...]
    contact: ContactParams

    def build_particles(self) -> Particles:
        return _BUILDERS[self.name](self)

    def sim_config(self, k_factor: int, verlet_enabled: bool = True,
                   steps: Optional[int] = None) -> SimConfig:
        return SimConfig(
            dt=self.dt,
            k_factor=int(k_factor),
            gravity=self.gravity,
            cell_size=self.cell_size,
            domain_min=self.domain_min,
            domain_max=self.domain_max,
            contact=self.contact,
            steps=int(steps if steps is not None else self.steps),
            walls=self.walls,
            verlet_enabled=verlet_enabled,
        )


def _box_walls(lx: float, ly: float) -> tuple[WallPlane, ...]:
    return (
        WallPlane(vec3(0, 0, 0), vec3(0, 0, 1)),      # floor
        WallPlane(vec3(0, 0, 0), vec3(1, 0, 0)),
        WallPlane(vec3(lx, 0, 0), vec3(-1, 0, 0)),
        WallPlane(vec3(0, 0, 0), vec3(0, 1, 0)),
        WallPlane(vec3(0, ly, 0), vec3(0, -1, 0)),
    )


def _sphere_mass(radius: float) -> float:
    return _DENSITY * 4.0 / 3.0 * math.pi * radius ** 3


def _stack(free_pos: list, free_r: float, static_pos: list, static_r: float) -> Particles:
    """Assemble free particles (ids first) and static ones into one set."""
    n_free = len(free_pos)
    n_static = len(static_pos)
    pos = np.array(free_pos + static_pos, dtype=np.float64).reshape(-1, 3)
    radius = np.concatenate([
        np.full(n_free, free_r), np.full(n_static, static_r),
    ])
    return Particles(
        position=pos,
        velocity=np.zeros_like(pos),
        radius=radius,
        cutoff=radius.copy(),
        mass=np.where(
            np.arange(n_free + n_static) < n_free,
            _sphere_mass(free_r), _sphere_mass(static_r),
        ),
        is_static=np.arange(n_free + n_static) >= n_free,
    )


# --- settling box ---------------------------------------------------------
# n spheres jittered on a lattice above the floor of a closed box.

_SB_R = 0.005
_SB_SPACING = 0.013
_SB_JITTER = 0.001
_SB_BASE = 10            # lattice columns per horizontal axis
_SB_MARGIN = 0.01
_SB_DROP = 0.05


def _settling_box_scenario(n: int, seed: int) -> Scenario:
    layers = max(1, math.ceil(n / (_SB_BASE * _SB_BASE))) if n else 1
    lx = ly = _SB_BASE * _SB_SPACING + 2 * _SB_MARGIN
    z_top = _SB_DROP + layers * _SB_SPACING
    return Scenario(
        name="settling-box", n=n, seed=seed,
        dt=4e-5, steps=5000, cell_size=0.02,
        gravity=vec3(0, 0, -9.81),
        domain_min=vec3(0, 0, 0),
        domain_max=vec3(lx, ly, z_top + 0.08),
        walls=_box_walls(lx, ly),
        contact=ContactParams(k_n=8000.0, gamma_n=1.2, mu_s=0.3, k_t=1200.0),
    )


def _build_settling_box(sc: Scenario) -> Particles:
    rng = np.random.default_rng(sc.seed)
    pos = []
    layer = 0
    while len(pos) < sc.n:
        for iy in range(_SB_BASE):
            for ix in range(_SB_BASE):
                if len(pos) >= sc.n:
                    break
                base = np.array([
                    _SB_MARGIN + (ix + 0.5) * _SB_SPACING,
                    _SB_MARGIN + (iy + 0.5) * _SB_SPACING,
                    _SB_DROP + (layer + 0.5) * _SB_SPACING,
                ])
                pos.append(base + rng.uniform(-_SB_JITTER, _SB_JITTER, 3))
        layer += 1
    return _stack(pos, _SB_R, [], _SB_R)


# --- mini hopper ----------------------------------------------------------
# Two inclined walls built from static spheres form a wedge with a slot at
# the bottom; free spheres rain in from a block above and fall through the
# slot onto a catch floor.  (An infinite wall plane cannot host a slot, so
# the wedge itself is made of particles; floor and side planes remain walls.)

_HP_RF = 0.004           # free sphere radius
_HP_RW = 0.005           # wedge sphere radius
_HP_SPACING = 0.0105
_HP_JITTER = 0.0008
_HP_ANGLE = math.radians(55.0)
_HP_SLOT_HALF = 0.012
_HP_SLOT_Z = 0.06
_HP_WEDGE_TOP = 0.20
_HP_LX, _HP_LY, _HP_LZ = 0.24, 0.12, 0.36
_HP_BLOCK_Z = 0.225
_HP_BLOCK_X = (0.07, 0.17)


def _mini_hopper_scenario(n: int, seed: int) -> Scenario:
    return Scenario(
        name="mini-hopper", n=n, seed=seed,
        dt=4e-5, steps=5000, cell_size=0.016,
        gravity=vec3(0, 0, -9.81),
        domain_min=vec3(0, 0, 0),
        domain_max=vec3(_HP_LX, _HP_LY, _HP_LZ),
        walls=_box_walls(_HP_LX, _HP_LY),
        contact=ContactParams(k_n=4000.0, gamma_n=0.8, mu_s=0.3, k_t=800.0),
    )


def _hopper_static() -> list:
    xc = _HP_LX / 2.0
    cos_a, sin_a = math.cos(_HP_ANGLE), math.sin(_HP_ANGLE)
    t_max = (_HP_WEDGE_TOP - _HP_SLOT_Z) / sin_a
    steps_t = int(t_max / _HP_SPACING) + 1
    ys = np.arange(0.0075, _HP_LY - 0.0074, _HP_SPACING)
    pos = []
    for i in range(steps_t):
        t = i * _HP_SPACING
        z = _HP_SLOT_Z + t * sin_a
        for sign in (-1.0, 1.0):
            x = xc + sign * (_HP_SLOT_HALF + t * cos_a)
            for y in ys:
                pos.append([x, float(y), z])
    return pos


def _build_mini_hopper(sc: Scenario) -> Particles:
    rng = np.random.default_rng(sc.seed)
    xs = np.arange(_HP_BLOCK_X[0], _HP_BLOCK_X[1] + 1e-9, _HP_SPACING)
    ys = np.arange(0.01, _HP_LY - 0.0099, _HP_SPACING)
    per_layer = len(xs) * len(ys)
    layers = math.ceil(sc.n / per_layer) if sc.n else 0
    if _HP_BLOCK_Z + layers * _HP_SPACING > _HP_LZ - 0.02:
        raise PlacementError(
            f"{sc.n} free particles do not fit above the hopper wedge"
        )
    free = []
    for layer in range(layers):
        z = _HP_BLOCK_Z + (layer + 0.5) * _HP_SPACING
        for y in ys:
            for x in xs:
                if len(free) >= sc.n:
                    break
                base = np.array([float(x), float(y), z])
                free.append(base + rng.uniform(-_HP_JITTER, _HP_JITTER, 3))
    return _stack(free, _HP_RF, _hopper_static(), _HP_RW)


# --- inclined flow ----------------------------------------------------------
# A floor plane tilted 25 degrees carries one regular layer of static
# roughness spheres; free spheres rain onto it from a block placed along the
# upper part of the slope and flow downhill against the x=0 wall.

_IF_RF = 0.004
_IF_RS = 0.006
_IF_ANGLE = math.radians(25.0)
_IF_P0 = (0.06, 0.0, 0.01)      # a point on the tilted plane
_IF_LX, _IF_LY, _IF_LZ = 0.22, 0.12, 0.28
_IF_STATIC_U = (0.012, 0.15)
_IF_STATIC_SPACING = 0.013
_IF_FREE_U = (0.05, 0.15)
_IF_FREE_SPACING = 0.0105
_IF_FREE_H0 = 0.055             # normal offset of the lowest free layer
_IF_JITTER = 0.0008


def _incline_axes():
    cos_a, sin_a = math.cos(_IF_ANGLE), math.sin(_IF_ANGLE)
    downslope = np.array([cos_a, 0.0, sin_a])          # unit, uphill +x
    normal = np.array([-sin_a, 0.0, cos_a])            # unit, off the plane
    p0 = np.array(_IF_P0)
    return p0, downslope, normal


def _inclined_flow_scenario(n: int, seed: int) -> Scenario:
    _, _, normal = _incline_axes()
    walls = (
        WallPlane(vec3(*_IF_P0), vec3(*normal)),       # the tilted floor
        WallPlane(vec3(0, 0, 0), vec3(0, 0, 1)),       # safety floor below it
        WallPlane(vec3(0, 0, 0), vec3(1, 0, 0)),
        WallPlane(vec3(_IF_LX, 0, 0), vec3(-1, 0, 0)),
        WallPlane(vec3(0, 0, 0), vec3(0, 1, 0)),
        WallPlane(vec3(0, _IF_LY, 0), vec3(0, -1, 0)),
    )
    return Scenario(
        name="inclined-flow", n=n, seed=seed,
        dt=4e-5, steps=5000, cell_size=0.016,
        gravity=vec3(0, 0, -9.81),
        domain_min=vec3(0, 0, 0),
        domain_max=vec3(_IF_LX, _IF_LY, _IF_LZ),
        walls=walls,
        contact=ContactParams(k_n=4000.0, gamma_n=0.8, mu_s=0.3, k_t=800.0),
    )


def _build_inclined_flow(sc: Scenario) -> Particles:
    rng = np.random.default_rng(sc.seed)
    p0, t_hat, n_hat = _incline_axes()

    static = []
    us = np.arange(_IF_STATIC_U[0], _IF_STATIC_U[1] + 1e-9, _IF_STATIC_SPACING)
    vs = np.arange(0.012, _IF_LY - 0.0119, _IF_STATIC_SPACING)
    # tiny standoff keeps rounding from turning exact plane contact into
    # phantom zero-force contacts
    lift = _IF_RS + 1e-9
    for u in us:
        for v in vs:
            static.append(p0 + u * t_hat + np.array([0.0, v, 0.0]) + lift * n_hat)

    free = []
    us_f = np.arange(_IF_FREE_U[0], _IF_FREE_U[1] + 1e-9, _IF_FREE_SPACING)
    vs_f = np.arange(0.015, _IF_LY - 0.0149, _IF_FREE_SPACING)
    per_layer = len(us_f) * len(vs_f)
    layers = math.ceil(sc.n / per_layer) if sc.n else 0
    if _IF_FREE_H0 + layers * _IF_FREE_SPACING > 0.13:
        raise PlacementError(
            f"{sc.n} free particles do not fit above the inclined plane"
        )
    for layer in range(layers):
        h = _IF_FREE_H0 + (layer + 0.5) * _IF_FREE_SPACING
        for u in us_f:
            for v in vs_f:
                if len(free) >= sc.n:
                    break
                jitter = rng.uniform(-_IF_JITTER, _IF_JITTER, 3)
                base = p0 + u * t_hat + np.array([0.0, v, 0.0]) + h * n_hat
                free.append(base + jitter)
    return _stack(free, _IF_RF, static, _IF_RS)


_BUILDERS = {
    "settling-box": _build_settling_box,
    "mini-hopper": _build_mini_hopper,
    "inclined-flow": _build_inclined_flow,
}

_SCENARIOS = {
    "settling-box": _settling_box_scenario,
    "mini-hopper": _mini_hopper_scenario,
    "inclined-flow": _inclined_flow_scenario,
}


def make_scenario(name: str, n: int, seed: int) -> Scenario:
    """Bundled scenario by name: settling-box, mini-hopper or inclined-flow."""
    if name not in _SCENARIOS:
        raise UnknownScenario(
            f"unknown scenario {name!r}, expected one of {SCENARIO_NAMES}"
        )
    if not 0 <= n < 2 ** 31:     # pair keys pack ids below 2**31
        raise ConfigError(f"particle count must be in [0, 2**31), got {n}")
    if seed < 0:
        raise ConfigError(f"scenario seed must be >= 0, got {seed}")
    return _SCENARIOS[name](int(n), int(seed))


# --- sweep -----------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    k: int
    total: float
    broad: float
    narrow: float
    model: float
    broad_executed_pct: float
    mean_pairs: float
    improvement_pct: float
    state_digest: Optional[str] = None   # not serialized; equivalence audit


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]

    @property
    def baseline(self) -> SweepRow:
        for row in self.rows:
            if row.k == BASELINE_K:
                return row
        raise SimulationError("report has no baseline row")

    def row_for(self, k: int) -> SweepRow:
        for row in self.rows:
            if row.k == k:
                return row
        raise KeyError(k)


def _state_digest(result: RunResult) -> str:
    h = hashlib.sha256()
    h.update(result.state.particles.position.tobytes())
    h.update(result.state.particles.velocity.tobytes())
    return h.hexdigest()


def _sweep_point(scenario: Scenario, k: int, mode: str,
                 steps: Optional[int]) -> tuple[int, dict, str]:
    """(k, the run's record as ``mode`` shows it, final-state digest) of one row."""
    special = k in (BASELINE_K, UNIFORM_SKIN_K)
    cfg = scenario.sim_config(0 if special else k, verlet_enabled=k != BASELINE_K,
                              steps=steps)
    skin_mode = SKIN_UNIFORM_RADIUS if k == UNIFORM_SKIN_K else SKIN_LOCAL
    result = run(cfg, scenario.build_particles(), skin_mode=skin_mode)
    return k, result.metrics.as_dict(mode), _state_digest(result)


def run_sweep(scenario: Scenario, k_values: Sequence[int], mode: str = OPCOUNT,
              *, uniform_skin_radius: bool = False,
              steps: Optional[int] = None) -> SweepReport:
    """One baseline run plus one run per K on identical initial conditions.

    The points run one at a time.  Each run records both its operation
    counts and its seconds; ``mode`` (``opcount`` or ``walltime``, checked
    before any run) picks which the rows show.  An opcount report is
    bit-identical across repeated invocations.
    """
    if not len(k_values):
        raise ConfigError("k_values must not be empty")
    PhaseMetrics().as_dict(mode)    # an unknown mode raises ConfigError here
    ks = [BASELINE_K] + [int(k) for k in k_values]
    if uniform_skin_radius:
        ks.append(UNIFORM_SKIN_K)
    points = [_sweep_point(scenario, k, mode, steps) for k in ks]
    base_total = points[0][1]["total_time"]
    return SweepReport(rows=tuple(
        SweepRow(
            k=k, total=m["total_time"], broad=m["broad_time"], narrow=m["narrow_time"],
            model=m["model_time"], broad_executed_pct=m["broad_executed_pct"],
            mean_pairs=m["mean_pair_list_length"],
            improvement_pct=(improvement(base_total, m["total_time"])
                             if base_total > 0 else 0.0),
            state_digest=digest,
        )
        for k, m, digest in points
    ))


REPORT_HEADER = ("k", "total", "broad", "narrow", "model",
                 "broad_executed_pct", "mean_pairs", "improvement_pct")


def emit_report(report: SweepReport, path: str) -> None:
    """Write the sweep report as CSV (baseline row first, k = -1)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_HEADER)
        for row in report.rows:
            writer.writerow([
                row.k,
                repr(row.total), repr(row.broad), repr(row.narrow), repr(row.model),
                repr(row.broad_executed_pct), repr(row.mean_pairs),
                repr(row.improvement_pct),
            ])


# --- dual-run equivalence harness -------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of a buffered-vs-baseline dual run on one scenario."""

    scenario: str
    n: int
    seed: int
    k_factor: int
    steps: int
    shadow_misses: int
    shadow_examples: tuple
    contact_history_match: bool
    final_state_match: bool
    broad_executions_buffered: int
    broad_executions_baseline: int
    force_evaluations: int

    @property
    def ok(self) -> bool:
        return (self.shadow_misses == 0 and self.contact_history_match
                and self.final_state_match)


def validate_equivalence(scenario: Scenario, k_factor: int,
                         steps: Optional[int] = None) -> EquivalenceReport:
    """Run buffered and baseline twins, audit the buffer, compare bitwise.

    The buffered run carries the shadow scan at every force evaluation;
    both runs record a digest over their full contact history.
    """
    particles = scenario.build_particles()
    nsteps = int(steps if steps is not None else scenario.steps)

    cfg_on = scenario.sim_config(k_factor, verlet_enabled=True, steps=nsteps)
    buffered = run(cfg_on, particles, validation=True, record_contact_digest=True)

    cfg_off = scenario.sim_config(k_factor, verlet_enabled=False, steps=nsteps)
    baseline = run(cfg_off, particles, record_contact_digest=True)

    state_match = (
        np.array_equal(buffered.state.particles.position, baseline.state.particles.position)
        and np.array_equal(buffered.state.particles.velocity, baseline.state.particles.velocity)
    )
    return EquivalenceReport(
        scenario=scenario.name,
        n=scenario.n,
        seed=scenario.seed,
        k_factor=int(k_factor),
        steps=nsteps,
        shadow_misses=buffered.shadow_misses,
        shadow_examples=tuple(buffered.shadow_examples),
        contact_history_match=buffered.contact_digest == baseline.contact_digest,
        final_state_match=state_match,
        broad_executions_buffered=buffered.metrics.broad_executions,
        broad_executions_baseline=baseline.metrics.broad_executions,
        force_evaluations=buffered.metrics.force_evaluations,
    )
