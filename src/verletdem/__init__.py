"""Soft-sphere DEM core with a per-particle Verlet-buffer broad-phase.

The broad-phase caches a candidate pair list built with per-particle skin
margins sized from each particle's own speed, and rebuilds it automatically
when any particle's displacement since the build exceeds its frozen skin.
The bench module reproduces the K-sweep methodology used to pick the skin
factor.
"""

from .bench import (
    DEFAULT_K_VALUES, EquivalenceReport, Scenario, SweepReport, SweepRow,
    emit_report, improvement, make_scenario, run_sweep, validate_equivalence,
)
from .broadphase import (
    CellGrid, PairList, VerletState, brute_force_pairs, build_grid,
    linked_cell_pairs, verlet_build, verlet_needs_rebuild,
)
from .core import (
    ConfigError, ContactParams, Particles, SimConfig,
    SimulationError, Vec3, WallPlane, norm, validate_config, vec3,
)
from .engine import PhaseMetrics, RunResult, SimState, SimulationUnstable, run
from .narrowphase import Contacts, resolve_contacts
from .physics import compute_forces, velocity_verlet_step

__version__ = "0.1.0"

__all__ = [
    "CellGrid", "ConfigError", "ContactParams", "Contacts", "DEFAULT_K_VALUES",
    "EquivalenceReport", "PairList", "Particles", "PhaseMetrics", "RunResult",
    "Scenario", "SimConfig", "SimState", "SimulationError", "SimulationUnstable",
    "SweepReport", "SweepRow", "Vec3", "VerletState", "WallPlane",
    "brute_force_pairs", "build_grid", "compute_forces", "emit_report",
    "improvement", "linked_cell_pairs", "make_scenario", "norm",
    "resolve_contacts", "run", "run_sweep", "validate_config",
    "validate_equivalence", "vec3", "velocity_verlet_step", "verlet_build",
    "verlet_needs_rebuild",
]
