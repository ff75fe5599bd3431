"""Exact contact resolution on broad-phase candidates.

Sphere-sphere overlap is ``r_a + r_b - |X_a - X_b|``; a pair collides only
when that value is strictly positive (an exact touch produces no contact).
A sphere touches a wall plane when its signed distance ``d`` is below its
radius; ``d < 0`` (the center behind the plane) is a tunneling report, not a
contact.  Each wall is tested against the particles the Verlet buffer cached
for it at the last build (every particle when no cache is given): the rows
tested change, the arithmetic of each row does not, so the contacts and the
tunneling reports are those of an exhaustive test.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .broadphase import PairList
from .core import Particle, Particles, SimulationError, Vec3, WallPlane, as_particles, row_norm_sq

log = logging.getLogger(__name__)

COINCIDENT_TOL = 1e-12


class CoincidentCenters(SimulationError):
    """Two candidate particles share a center: the contact normal is undefined."""


class ParticleBehindWall(SimulationError):
    """A particle center crossed to the back side of a wall (tunneling)."""


def wall_sentinel(wall_index: int) -> int:
    """Contact id_b used for wall contacts: wall k maps to -(k+1)."""
    return -(wall_index + 1)


@dataclass(frozen=True)
class Contact:
    """One resolved contact.

    ``id_b`` is a particle id, or a negative wall sentinel (see
    :func:`wall_sentinel`).  ``normal`` is the unit vector from side a toward
    side b; ``point`` is the midpoint of the overlap segment on the line of
    centers.
    """

    id_a: int
    id_b: int
    overlap: float
    normal: Vec3
    point: Vec3


class Contacts:
    """Column-oriented batch of contacts, ordered by (id_a, id_b)."""

    __slots__ = ("id_a", "id_b", "overlap", "normal", "point")

    def __init__(self, id_a, id_b, overlap, normal, point):
        self.id_a = np.asarray(id_a, dtype=np.int64).reshape(-1)
        self.id_b = np.asarray(id_b, dtype=np.int64).reshape(-1)
        self.overlap = np.asarray(overlap, dtype=np.float64).reshape(-1)
        self.normal = np.asarray(normal, dtype=np.float64).reshape(-1, 3)
        self.point = np.asarray(point, dtype=np.float64).reshape(-1, 3)

    @classmethod
    def empty(cls) -> "Contacts":
        return cls(np.empty(0), np.empty(0), np.empty(0), np.empty((0, 3)), np.empty((0, 3)))

    def __len__(self) -> int:
        return len(self.id_a)

    def __getitem__(self, i: int) -> Contact:
        return Contact(
            id_a=int(self.id_a[i]),
            id_b=int(self.id_b[i]),
            overlap=float(self.overlap[i]),
            normal=self.normal[i].copy(),
            point=self.point[i].copy(),
        )

    def __iter__(self) -> Iterator[Contact]:
        return (self[i] for i in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Contacts):
            return NotImplemented
        return (
            np.array_equal(self.id_a, other.id_a)
            and np.array_equal(self.id_b, other.id_b)
            and np.array_equal(self.overlap, other.overlap)
            and np.array_equal(self.normal, other.normal)
            and np.array_equal(self.point, other.point)
        )

    def tobytes(self) -> bytes:
        return b"".join((
            self.id_a.tobytes(), self.id_b.tobytes(), self.overlap.tobytes(),
            self.normal.tobytes(), self.point.tobytes(),
        ))

    def particle_only(self) -> "Contacts":
        """The subset of particle-particle contacts (wall rows dropped)."""
        keep = self.id_b >= 0
        return Contacts(self.id_a[keep], self.id_b[keep], self.overlap[keep],
                        self.normal[keep], self.point[keep])


def _pair_contact_arrays(pset: Particles, pairs: np.ndarray):
    """Overlap, normal and contact point for candidate rows with overlap > 0.

    Only rows with ``d^2 <= (r_a + r_b)^2 (1 + 1e-9)`` go on to the square
    root.  Every row with overlap > 0 passes: a correctly rounded
    ``sqrt(d^2)`` below ``r_a + r_b`` needs ``d^2`` within a few ulps of
    ``(r_a + r_b)^2``.
    """
    ia, ib = pairs[:, 0], pairs[:, 1]
    # np.take copies whole rows; indexing with [ib] is several times slower
    diff = np.take(pset.position, ib, axis=0) - np.take(pset.position, ia, axis=0)
    d2 = row_norm_sq(diff)
    bad = d2 < COINCIDENT_TOL * COINCIDENT_TOL
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise CoincidentCenters(
            f"particles {int(ia[k])} and {int(ib[k])} have coincident centers"
        )
    rsum = pset.radius[ia] + pset.radius[ib]
    near = np.flatnonzero(d2 <= rsum * rsum * (1.0 + 1e-9))
    d = np.sqrt(d2[near])
    overlap = rsum[near] - d
    hit = overlap > 0.0
    rows = near[hit]
    ia, ib, d, overlap = ia[rows], ib[rows], d[hit], overlap[hit]
    normal = diff[rows] / d[:, None]
    mid = 0.5 * (pset.position[ia] + pset.position[ib])
    point = mid + (0.5 * (pset.radius[ia] - pset.radius[ib]))[:, None] * normal
    return ia, ib, overlap, normal, point


def _wall_contact_arrays(pset: Particles, wall: WallPlane, wall_index: int,
                         tunneling: Optional[list], rows: Optional[np.ndarray]):
    if rows is None:
        rows = np.arange(len(pset))
    if len(rows) == 0:
        return None
    d = wall.signed_distance(pset.position, rows)
    behind = d < 0.0
    if np.any(behind):
        ids = rows[behind]
        if tunneling is not None:
            tunneling.extend((int(i), wall_index) for i in ids)
        else:
            log.warning("particle(s) %s behind wall %d", ids.tolist(), wall_index)
    overlap = pset.radius[rows] - d
    hit = (overlap > 0.0) & ~behind
    if not np.any(hit):
        return None
    ids, ov, d = rows[hit], overlap[hit], d[hit]
    normal = np.broadcast_to(-wall.outward_normal, (len(ids), 3))
    point = pset.position[ids] - (0.5 * (pset.radius[ids] + d))[:, None] * wall.outward_normal
    id_b = np.full(len(ids), wall_sentinel(wall_index), dtype=np.int64)
    return ids.astype(np.int64), id_b, ov, np.ascontiguousarray(normal), point


def sphere_overlap(a: Particle, b: Particle) -> Optional[Contact]:
    """Contact between two spheres, or None when they do not overlap."""
    if a.id == b.id:
        raise SimulationError(f"sphere_overlap called with identical ids {a.id}")
    pset = Particles(
        position=np.stack([a.position, b.position]),
        velocity=np.zeros((2, 3)),
        radius=[a.radius, b.radius],
        cutoff=[a.cutoff, b.cutoff],
        mass=[1.0, 1.0],
        is_static=[False, False],
    )
    try:
        ia, ib, overlap, normal, point = _pair_contact_arrays(
            pset, np.array([[0, 1]], dtype=np.int64)
        )
    except CoincidentCenters:
        raise CoincidentCenters(
            f"particles {a.id} and {b.id} have coincident centers"
        ) from None
    if len(ia) == 0:
        return None
    return Contact(a.id, b.id, float(overlap[0]), normal[0], point[0])


def sphere_plane_overlap(a: Particle, w: WallPlane, wall_index: int = 0) -> Optional[Contact]:
    """Contact between a sphere and a wall plane, or None.

    Raises :class:`ParticleBehindWall` when the center has signed distance
    below zero; the engine treats that as a report, not a fatal error.
    ``d`` is the batch :meth:`WallPlane.signed_distance` of the row taken
    twice, so it has the bits :func:`resolve_contacts` computes.
    """
    d = float(w.signed_distance(np.stack([a.position, a.position]))[0])
    if d < 0.0:
        raise ParticleBehindWall(
            f"particle {a.id} is {abs(d):.3e} m behind wall {wall_index}"
        )
    overlap = a.radius - d
    if overlap <= 0.0:
        return None
    point = a.position - 0.5 * (a.radius + d) * w.outward_normal
    return Contact(a.id, wall_sentinel(wall_index), overlap, -w.outward_normal, point)


def resolve_contacts(candidates: PairList, particles, walls=(),
                     tunneling: Optional[list] = None,
                     wall_rows: Optional[tuple] = None) -> Contacts:
    """Resolve every actually-overlapping candidate pair plus all wall contacts.

    The output is sorted by (id_a, id_b); wall sentinels are negative, so a
    particle's wall contacts precede its particle contacts.  Behind-wall
    particles are appended to ``tunneling`` (or logged) and produce no
    contact.  ``wall_rows[k]`` restricts wall k to those sorted particle ids
    (a :attr:`VerletState.wall_rows` cache); None tests every particle.
    """
    pset = as_particles(particles)
    cols_a, cols_b, cols_ov, cols_n, cols_p = [], [], [], [], []

    if len(candidates):
        ia, ib, ov, nrm, pt = _pair_contact_arrays(pset, candidates.pairs)
        cols_a.append(ia)
        cols_b.append(ib)
        cols_ov.append(ov)
        cols_n.append(nrm)
        cols_p.append(pt)

    for k, wall in enumerate(walls):
        rows = None if wall_rows is None else wall_rows[k]
        got = _wall_contact_arrays(pset, wall, k, tunneling, rows)
        if got is not None:
            ia, ib, ov, nrm, pt = got
            cols_a.append(ia)
            cols_b.append(ib)
            cols_ov.append(ov)
            cols_n.append(nrm)
            cols_p.append(pt)

    if not cols_a:
        return Contacts.empty()
    id_a = np.concatenate(cols_a)
    id_b = np.concatenate(cols_b)
    order = np.lexsort((id_b, id_a))
    return Contacts(
        id_a[order], id_b[order],
        np.concatenate(cols_ov)[order],
        np.concatenate(cols_n)[order],
        np.concatenate(cols_p)[order],
    )
