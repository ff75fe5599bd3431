"""Soft-sphere DEM core with a per-particle Verlet-buffer broad-phase.

The broad-phase caches a candidate pair list built with per-particle skin
margins sized from each particle's own speed, and rebuilds it automatically
when any particle's displacement since the build exceeds its frozen skin.
The bench module reproduces the K-sweep methodology used to pick the skin
factor.
"""

from .bench import (
    DEFAULT_K_VALUES, EquivalenceReport, Scenario, SweepReport, SweepRow,
    emit_report, improvement, load_report, make_scenario, run_scenario,
    run_sweep, validate_equivalence,
)
from .broadphase import (
    CellGrid, PairList, VerletState, brute_force_pairs, build_grid,
    compute_skin, linked_cell_pairs, verlet_build, verlet_needs_rebuild,
)
from .core import (
    ConfigError, ContactParams, Particle, Particles, SimConfig,
    SimulationError, Vec3, WallPlane, norm, validate_config, vec3,
)
from .engine import (
    PhaseMetrics, RunResult, ShadowMiss, SimState, SimulationUnstable, run,
    step,
)
from .narrowphase import (
    Contact, Contacts, resolve_contacts, sphere_overlap, sphere_plane_overlap,
)
from .physics import compute_forces, spring_dashpot_force, velocity_verlet_step

__version__ = "0.1.0"

__all__ = [
    "CellGrid", "ConfigError", "Contact", "ContactParams", "Contacts",
    "DEFAULT_K_VALUES", "EquivalenceReport", "PairList", "Particle",
    "Particles", "PhaseMetrics", "RunResult", "Scenario", "ShadowMiss",
    "SimConfig", "SimState", "SimulationError", "SimulationUnstable",
    "SweepReport", "SweepRow", "Vec3", "VerletState", "WallPlane",
    "brute_force_pairs", "build_grid", "compute_forces", "compute_skin",
    "emit_report", "improvement", "linked_cell_pairs", "load_report",
    "make_scenario", "norm", "resolve_contacts", "run", "run_scenario",
    "run_sweep", "sphere_overlap", "sphere_plane_overlap",
    "spring_dashpot_force", "step", "validate_config", "validate_equivalence",
    "vec3", "velocity_verlet_step", "verlet_build", "verlet_needs_rebuild",
]
