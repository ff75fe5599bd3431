"""Value types, 3-vector helpers and simulation configuration.

Everything is SI: lengths in meters, times in seconds, masses in kg.
The ids of a particle set are its dense 0..n-1 array indices; pair
identity everywhere in the package is (min id, max id).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields

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
    brute-force oracle, the narrow phase and the shadow scan.  einsum sums a
    C-contiguous row in another order than a strided or Fortran-ordered one,
    so every input is summed in its C-contiguous layout.
    """
    diff = np.ascontiguousarray(diff)
    return np.einsum("ij,ij->i", diff, diff)


@dataclass(frozen=True, eq=False)
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
        return ((positions.take(take, axis=0) - self.point) @ self.outward_normal)[:len(rows)]


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


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Full configuration of one simulation run.

    ``k_factor`` sizes the per-particle skin margin (number of broad-phase
    skips the skin is provisioned for).  ``cell_size`` is the uniform edge
    of the search grid and must be at least twice the largest particle
    radius so that adjacent-cell search never misses a candidate pair.
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


def _fixed(values, dtype) -> np.ndarray:
    """``values`` copied into a read-only 1-D array of ``dtype``."""
    a = np.array(values, dtype=dtype).reshape(-1)
    a.flags.writeable = False
    return a


class Particles:
    """Column-oriented storage for a set of particles.

    Holds one numpy array per field so the hot loops can stay vectorized;
    ids are the positions in the arrays.  ``radius`` is the sphere radius:
    two spheres touch when their centers are closer than their radii sum,
    and the broad-phase reach of a particle is its radius plus its skin.
    A static particle never moves: it takes part in collision detection and
    exerts forces but is skipped by the integrator, and its velocity must
    stay zero.

    ``position`` and ``velocity`` are the state a run advances in place.
    ``radius``, ``mass`` and ``is_static`` are fixed once the set is built:
    each is a read-only copy that the set owns, and the attributes cannot
    be rebound, so what is derived from them once cannot go stale.  The set
    derives the integrator's constants from them at construction, both of
    shape (n, 3): the mask of the free rows and ``1 / mass`` on each axis
    (:func:`~verletdem.physics.velocity_verlet_step`).  :meth:`copy` copies
    the state and shares the fixed columns and what is derived from them.
    """

    __slots__ = ("position", "velocity", "_radius", "_mass", "_is_static", "_free", "_inv_m")

    def __init__(self, position, velocity, radius, mass, is_static):
        self.position = np.ascontiguousarray(position, dtype=np.float64).reshape(-1, 3)
        self.velocity = np.ascontiguousarray(velocity, dtype=np.float64).reshape(-1, 3)
        self._radius = _fixed(radius, np.float64)
        self._mass = _fixed(mass, np.float64)
        self._is_static = _fixed(is_static, bool)
        n = len(self.position)
        for name in ("velocity", "radius", "mass", "is_static"):
            if len(getattr(self, name)) != n:
                raise ConfigError(f"{name} has {len(getattr(self, name))} rows, expected {n}")
        # full-shape (n, 3): masked adds and products run faster on these
        # than on a column broadcast over the axis of length 3
        self._free = np.repeat(~self._is_static[:, None], 3, axis=1)
        # a zero mass, which validate_config rejects before any step, gives inf
        with np.errstate(divide="ignore"):
            self._inv_m = np.repeat(1.0 / self._mass[:, None], 3, axis=1)
        self._free.flags.writeable = self._inv_m.flags.writeable = False

    radius = property(lambda self: self._radius, doc="Sphere radius per particle (read-only).")
    mass = property(lambda self: self._mass, doc="Mass per particle (read-only).")
    is_static = property(lambda self: self._is_static,
                         doc="True for a particle that never moves (read-only).")

    def __len__(self) -> int:
        return len(self.position)

    def copy(self) -> "Particles":
        other = Particles.__new__(Particles)
        other.position, other.velocity = self.position.copy(), self.velocity.copy()
        for name in Particles.__slots__[2:]:
            setattr(other, name, getattr(self, name))
        return other


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
    for name in ("steps", "k_factor"):
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if cfg.steps <= 0:
        raise ConfigError(f"steps must be > 0, got {cfg.steps}")
    if not 0 <= cfg.k_factor < 2 ** 63:
        raise ConfigError(f"k_factor must be in [0, 2**63), got {cfg.k_factor}")
    if not isinstance(cfg.verlet_enabled, bool):
        raise ConfigError(f"verlet_enabled must be True or False, got {cfg.verlet_enabled!r}")
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
    if len(particles) and cfg.cell_size < 2.0 * particles.radius.max():
        raise CellTooSmall(
            f"cell_size {cfg.cell_size} < 2 x max radius {particles.radius.max()}"
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
        for name in ("radius", "mass"):
            column = getattr(particles, name)
            if not np.all((column > 0) & np.isfinite(column)):
                raise ConfigError(f"particle {name} must be finite and > 0")
        moving_static = particles.is_static & np.any(particles.velocity != 0.0, axis=1)
        if np.any(moving_static):
            bad = int(np.flatnonzero(moving_static)[0])
            raise ConfigError(f"static particle {bad} has nonzero velocity")


# --- strict JSON loading -------------------------------------------------

_REQUIRED_KEYS = tuple(f.name for f in fields(SimConfig) if f.default is MISSING)
_OPTIONAL_KEYS = tuple(f.name for f in fields(SimConfig) if f.default is not MISSING)


def _strict_object(value, what: str, required=(), optional=()) -> dict:
    """``value``, a JSON object with every ``required`` key and no key outside
    ``required`` and ``optional``, else ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"bad config value: {what} must be a JSON object, got {value!r}")
    unknown = set(value) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown {what} field(s): {sorted(unknown)}")
    missing = [k for k in required if k not in value]
    if missing:
        raise ConfigError(f"missing {what} field(s): {missing}")
    return value


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
    _strict_object(doc, "config", _REQUIRED_KEYS, _OPTIONAL_KEYS)
    contact_doc = _strict_object(doc["contact"], "contact", ("k_n",), ("gamma_n", "mu_s", "k_t"))
    verlet_enabled = doc.get("verlet_enabled", True)
    if not isinstance(verlet_enabled, bool):
        raise ConfigError(
            f"bad config value: verlet_enabled must be true or false, got {verlet_enabled!r}")
    walls = doc.get("walls", [])
    if not isinstance(walls, list):
        raise ConfigError(f"bad config value: walls must be a list, got {walls!r}")
    planes = []
    for i, wdoc in enumerate(walls):
        _strict_object(wdoc, f"walls[{i}]", ("point", "outward_normal"))
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
    _strict_object(overrides, "config", optional=_REQUIRED_KEYS + _OPTIONAL_KEYS)
    doc = {f.name: getattr(cfg, f.name) for f in fields(SimConfig)}
    for name in ("gravity", "domain_min", "domain_max"):
        doc[name] = doc[name].tolist()
    doc["walls"] = [{k: v.tolist() for k, v in vars(w).items()} for w in cfg.walls]
    doc.update(overrides)
    contact = overrides.get("contact", {})
    doc["contact"] = {**vars(cfg.contact), **contact} if isinstance(contact, dict) else contact
    return simconfig_from_dict(doc)
