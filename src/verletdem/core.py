"""Value types, 3-vector helpers and simulation configuration.

Everything is SI: lengths in meters, times in seconds, masses in kg.
The ids of a particle set are its dense 0..n-1 array indices; pair
identity everywhere in the package is (min id, max id).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

#: A 3-vector is a float64 numpy array of shape (3,).
Vec3 = np.ndarray

UNIT_TOL = 1e-12


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SimulationError):
    """Invalid simulation configuration."""


class NonPositiveDt(ConfigError):
    pass


class EmptyDomain(ConfigError):
    pass


class CellTooSmall(ConfigError):
    pass


def vec3(x: float, y: float, z: float) -> Vec3:
    return np.array([x, y, z], dtype=np.float64)


def as_vec3(v) -> Vec3:
    a = np.asarray(v, dtype=np.float64)
    if a.shape != (3,):
        raise ConfigError(f"expected a 3-vector, got shape {a.shape}")
    return a


def norm(v) -> float:
    """Euclidean length of a 3-vector.

    math.hypot scales internally, so components near the under/overflow
    boundaries do not lose the homogeneity |s v| = |s| |v|.
    """
    a = np.asarray(v, dtype=np.float64)
    return math.hypot(a[0], a[1], a[2])


def row_norm_sq(diff: np.ndarray) -> np.ndarray:
    """Squared row norms of an (m, 3) array.

    Every distance test in the package funnels through this one reduction so
    that boundary comparisons agree bit-for-bit across the grid search, the
    brute-force oracle, the narrow phase and the shadow scan.
    """
    return np.einsum("ij,ij->i", diff, diff)


@dataclass(frozen=True)
class WallPlane:
    """Infinite plane boundary with a unit outward normal.

    The outward normal points into the half-space where particles live.
    """

    point: Vec3
    outward_normal: Vec3

    def __post_init__(self):
        object.__setattr__(self, "point", as_vec3(self.point))
        object.__setattr__(self, "outward_normal", as_vec3(self.outward_normal))

    def signed_distance(self, positions: np.ndarray, rows=None) -> np.ndarray:
        """Signed distances of ``positions[rows]`` (every row when None).

        A row gets the same bits whichever rows are selected with it: numpy
        computes a one-row product with a dot kernel, whose rounding differs
        from the matrix-vector kernel used for two or more rows, so one row
        selected out of several is computed as two copies of itself.
        """
        if rows is None:
            return (positions - self.point) @ self.outward_normal
        take = np.repeat(rows, 2) if len(rows) == 1 < len(positions) else rows
        return ((positions[take] - self.point) @ self.outward_normal)[:len(rows)]


@dataclass(frozen=True)
class ContactParams:
    """Linear spring-dashpot constants with a static-friction cap.

    k_n: normal stiffness (N/m), strictly positive.
    gamma_n: normal damping (N.s/m).
    mu_s: static friction coefficient.
    k_t: tangential stiffness (N/m).
    """

    k_n: float
    gamma_n: float = 0.0
    mu_s: float = 0.0
    k_t: float = 0.0


@dataclass(frozen=True)
class SimConfig:
    """Full configuration of one simulation run.

    ``k_factor`` sizes the per-particle skin margin (number of broad-phase
    skips the skin is provisioned for).  ``cell_size`` is the uniform edge
    of the search grid and must be at least twice the largest particle
    cut-off so that adjacent-cell search never misses a candidate pair.
    """

    dt: float
    k_factor: int
    gravity: Vec3
    cell_size: float
    domain_min: Vec3
    domain_max: Vec3
    contact: ContactParams
    steps: int
    walls: tuple[WallPlane, ...] = ()
    verlet_enabled: bool = True

    def __post_init__(self):
        # + 0.0 stores a -0.0 component as +0.0, the value the force sums start from
        object.__setattr__(self, "gravity", as_vec3(self.gravity) + 0.0)
        object.__setattr__(self, "domain_min", as_vec3(self.domain_min))
        object.__setattr__(self, "domain_max", as_vec3(self.domain_max))
        object.__setattr__(self, "walls", tuple(self.walls))


class Particles:
    """Column-oriented storage for a set of particles.

    Holds one numpy array per field so the hot loops can stay vectorized;
    ids are the positions in the arrays.  ``radius`` is the physical sphere
    radius, ``cutoff`` the interaction cut-off radius used by the
    broad-phase (``cutoff >= radius``).  A static particle never moves: it
    takes part in collision detection and exerts forces but is skipped by
    the integrator, and its velocity must stay zero.
    """

    __slots__ = ("position", "velocity", "radius", "cutoff", "mass", "is_static")

    def __init__(self, position, velocity, radius, cutoff, mass, is_static):
        self.position = np.ascontiguousarray(position, dtype=np.float64).reshape(-1, 3)
        self.velocity = np.ascontiguousarray(velocity, dtype=np.float64).reshape(-1, 3)
        self.radius = np.asarray(radius, dtype=np.float64).reshape(-1)
        self.cutoff = np.asarray(cutoff, dtype=np.float64).reshape(-1)
        self.mass = np.asarray(mass, dtype=np.float64).reshape(-1)
        self.is_static = np.asarray(is_static, dtype=bool).reshape(-1)
        n = len(self.position)
        for name in ("velocity", "radius", "cutoff", "mass", "is_static"):
            if len(getattr(self, name)) != n:
                raise ConfigError(f"{name} has {len(getattr(self, name))} rows, expected {n}")

    @classmethod
    def empty(cls) -> "Particles":
        return cls(
            np.empty((0, 3)), np.empty((0, 3)),
            np.empty(0), np.empty(0), np.empty(0), np.empty(0, dtype=bool),
        )

    def __len__(self) -> int:
        return len(self.position)

    def copy(self) -> "Particles":
        return Particles(
            self.position.copy(), self.velocity.copy(),
            self.radius.copy(), self.cutoff.copy(),
            self.mass.copy(), self.is_static.copy(),
        )

    def max_cutoff(self) -> float:
        return float(self.cutoff.max()) if len(self) else 0.0


def grid_dims(cfg: SimConfig) -> np.ndarray:
    """Per-axis cell count of the domain, at least 1, as floats (may be inf)."""
    with np.errstate(over="ignore"):
        return np.maximum(np.ceil((cfg.domain_max - cfg.domain_min) / cfg.cell_size), 1.0)


def validate_config(cfg: SimConfig, particles: Particles) -> None:
    """Check every configuration invariant against the given particle set.

    Raises a :class:`ConfigError` subclass on the first violation; returns
    None when the configuration is acceptable.
    """
    if not (cfg.dt > 0):
        raise NonPositiveDt(f"dt must be > 0, got {cfg.dt}")
    if not math.isfinite(cfg.dt):
        raise ConfigError(f"dt must be finite, got {cfg.dt}")
    if cfg.steps <= 0:
        raise ConfigError(f"steps must be > 0, got {cfg.steps}")
    if not 0 <= cfg.k_factor < 2 ** 63:
        raise ConfigError(f"k_factor must be in [0, 2**63), got {cfg.k_factor}")
    if not np.all(np.isfinite(cfg.gravity)):
        raise ConfigError("gravity components must be finite")
    if not (np.all(np.isfinite(cfg.domain_min)) and np.all(np.isfinite(cfg.domain_max))):
        raise ConfigError("domain bounds must be finite")
    if not np.all(cfg.domain_min < cfg.domain_max):
        raise EmptyDomain(
            f"domain_min {cfg.domain_min.tolist()} must be < domain_max "
            f"{cfg.domain_max.tolist()} componentwise"
        )
    if not (cfg.cell_size > 0 and math.isfinite(cfg.cell_size)):
        raise ConfigError(f"cell_size must be positive and finite, got {cfg.cell_size}")
    cells = grid_dims(cfg)
    if not np.all(cells < 2.0 ** 63):
        raise ConfigError(f"the domain spans {cells.tolist()} cells, beyond int64 cell ids")
    if len(particles) and cfg.cell_size < 2.0 * particles.max_cutoff():
        raise CellTooSmall(
            f"cell_size {cfg.cell_size} < 2 x max cutoff {particles.max_cutoff()}"
        )
    for w in cfg.walls:
        if not np.all(np.isfinite(w.point)) or not np.all(np.isfinite(w.outward_normal)):
            raise ConfigError("wall plane components must be finite")
        if abs(norm(w.outward_normal) - 1.0) > UNIT_TOL:
            raise ConfigError(
                f"wall normal {w.outward_normal.tolist()} is not unit length"
            )
    c = cfg.contact
    if not 0 < c.k_n < math.inf:
        raise ConfigError(f"contact k_n must be > 0 and finite, got {c.k_n}")
    if not all(0 <= v < math.inf for v in (c.gamma_n, c.mu_s, c.k_t)):
        raise ConfigError("contact gamma_n, mu_s and k_t must be nonnegative and finite")

    if len(particles):
        if not (np.all(np.isfinite(particles.position))
                and np.all(np.isfinite(particles.velocity))):
            raise ConfigError("particle positions and velocities must be finite")
        if np.any(particles.radius <= 0):
            raise ConfigError("particle radius must be > 0")
        if np.any(particles.cutoff < particles.radius):
            raise ConfigError("particle cutoff must be >= radius")
        if np.any(particles.mass <= 0):
            raise ConfigError("particle mass must be > 0")
        moving_static = particles.is_static & np.any(particles.velocity != 0.0, axis=1)
        if np.any(moving_static):
            bad = int(np.flatnonzero(moving_static)[0])
            raise ConfigError(f"static particle {bad} has nonzero velocity")


# --- strict JSON loading -------------------------------------------------

_REQUIRED_KEYS = (
    "dt", "k_factor", "gravity", "cell_size", "domain_min", "domain_max",
    "contact", "steps",
)
_OPTIONAL_KEYS = ("walls", "verlet_enabled")


def _strict_keys(doc: dict, allowed, what: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} field(s): {sorted(unknown)}")


def _strict_int(value, name: str) -> int:
    """``value`` as an int: an integral number, not a boolean, else ConfigError."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"bad config value: {name} must be an integer, got {value!r}")
    return int(value)


def _strict_float(value, name: str) -> float:
    """``value`` as a float: a number, not a boolean or a string, else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"bad config value: {name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"bad config value: {name}: {exc}") from exc


def _strict_vec3(value, name: str) -> Vec3:
    """``value`` as a 3-vector: a list of three numbers (see :func:`_strict_float`)."""
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"bad config value: {name} must be a list of 3 numbers, got {value!r}")
    return vec3(*(_strict_float(v, f"{name}[{i}]") for i, v in enumerate(value)))


def simconfig_from_dict(doc: dict) -> SimConfig:
    """Build a SimConfig from a parsed JSON document.

    Strict mode: any field name not in the schema is an error, so typos in
    sweep configs fail fast instead of silently using defaults.  Every
    malformed value raises :class:`ConfigError`: a float field or a vector
    component must be a JSON number, never a boolean or a numeric string.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _strict_keys(doc, _REQUIRED_KEYS + _OPTIONAL_KEYS, "config")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ConfigError(f"missing config field(s): {missing}")

    contact_doc = doc["contact"]
    if not isinstance(contact_doc, dict):
        raise ConfigError("contact must be an object")
    _strict_keys(contact_doc, ("k_n", "gamma_n", "mu_s", "k_t"), "contact")
    if "k_n" not in contact_doc:
        raise ConfigError("contact.k_n is required")
    verlet_enabled = doc.get("verlet_enabled", True)
    if not isinstance(verlet_enabled, bool):
        raise ConfigError(
            f"bad config value: verlet_enabled must be true or false, got {verlet_enabled!r}")
    walls = doc.get("walls", [])
    if not isinstance(walls, list):
        raise ConfigError(f"bad config value: walls must be a list, got {walls!r}")
    planes = []
    for i, wdoc in enumerate(walls):
        if not isinstance(wdoc, dict):
            raise ConfigError(f"bad config value: walls[{i}] must be an object")
        _strict_keys(wdoc, ("point", "outward_normal"), f"walls[{i}]")
        if "point" not in wdoc or "outward_normal" not in wdoc:
            raise ConfigError(f"walls[{i}] needs point and outward_normal")
        planes.append(WallPlane(_strict_vec3(wdoc["point"], f"walls[{i}].point"),
                                _strict_vec3(wdoc["outward_normal"], f"walls[{i}].outward_normal")))
    return SimConfig(
        dt=_strict_float(doc["dt"], "dt"),
        k_factor=_strict_int(doc["k_factor"], "k_factor"),
        gravity=_strict_vec3(doc["gravity"], "gravity"),
        cell_size=_strict_float(doc["cell_size"], "cell_size"),
        domain_min=_strict_vec3(doc["domain_min"], "domain_min"),
        domain_max=_strict_vec3(doc["domain_max"], "domain_max"),
        contact=ContactParams(**{k: _strict_float(v, f"contact.{k}")
                                 for k, v in contact_doc.items()}),
        steps=_strict_int(doc["steps"], "steps"),
        walls=tuple(planes),
        verlet_enabled=verlet_enabled,
    )


def config_overrides(cfg: SimConfig, overrides: dict) -> SimConfig:
    """Apply a partial, strictly-checked field override onto a SimConfig.

    The overrides are merged into the configuration's own document, the
    ``contact`` block key by key, and the result is parsed by
    :func:`simconfig_from_dict`.
    """
    if not isinstance(overrides, dict):
        raise ConfigError(f"bad config value: config must be a JSON object, got {overrides!r}")
    doc = {f.name: getattr(cfg, f.name) for f in fields(SimConfig)}
    for name in ("gravity", "domain_min", "domain_max"):
        doc[name] = doc[name].tolist()
    doc["walls"] = [{k: v.tolist() for k, v in vars(w).items()} for w in cfg.walls]
    doc.update(overrides)
    contact = overrides.get("contact", {})
    doc["contact"] = {**vars(cfg.contact), **contact} if isinstance(contact, dict) else contact
    return simconfig_from_dict(doc)
