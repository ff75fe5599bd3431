"""Exact contact resolution on broad-phase candidates.

Sphere-sphere overlap is ``r_a + r_b - |X_a - X_b|``; a pair collides only
when that value is strictly positive (an exact touch produces no contact).
A sphere touches a wall plane when its signed distance ``d`` is below its
radius; ``d < 0`` (the center behind the plane) is a tunneling report, not a
contact.  Each wall is tested against the particles the Verlet buffer cached
for it at the last build (every particle when no cache is given): the rows
tested change, the arithmetic of each row does not, so the contacts and the
tunneling reports are those of an exhaustive test.  All walls are resolved
in one pass: one signed-distance call per wall, the rest once over the
concatenated rows.

Pairs are gated the same way.  While a cached list is reused, a pair whose
build distance exceeds its radii sum by more than the two particles'
displacements since the build cannot overlap (triangle inequality), so the
engine tests only the rows :func:`~verletdem.broadphase.verlet_gate` keeps;
a freshly built list is tested in full.  Every tested row keeps its
arithmetic, so the contacts, and the first coincident pair reported, are
those of the full list.

Contacts come out ordered by (id_a, id_b).  Pair rows already are; wall
contacts are merged in by one stable argsort of a single int64 key.
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


def _pair_contact_arrays(pset: Particles, ia: np.ndarray, ib: np.ndarray):
    """Overlap, normal and contact point for candidate rows with overlap > 0.

    Only rows with ``d^2 <= (r_a + r_b)^2 (1 + 1e-9)`` go on to the square
    root.  Every row with overlap > 0 passes: a correctly rounded
    ``sqrt(d^2)`` below ``r_a + r_b`` needs ``d^2`` within a few ulps of
    ``(r_a + r_b)^2``.
    """
    # .take copies whole rows; indexing with [ib] is several times slower
    pa, pb = pset.position.take(ia, axis=0), pset.position.take(ib, axis=0)
    diff = pb - pa
    d2 = row_norm_sq(diff)
    bad = d2 < COINCIDENT_TOL * COINCIDENT_TOL
    if bad.any():
        k = int(bad.argmax())
        raise CoincidentCenters(
            f"particles {int(ia[k])} and {int(ib[k])} have coincident centers"
        )
    ra, rb = pset.radius.take(ia), pset.radius.take(ib)
    rsum = ra + rb
    near = (d2 <= rsum * rsum * (1.0 + 1e-9)).nonzero()[0]
    d = np.sqrt(d2.take(near))
    overlap = rsum.take(near) - d
    hit = overlap > 0.0
    rows = near[hit]
    d = d[hit]
    normal = diff.take(rows, axis=0) / d[:, None]
    mid = 0.5 * (pa.take(rows, axis=0) + pb.take(rows, axis=0))
    point = mid + (0.5 * (ra.take(rows) - rb.take(rows)))[:, None] * normal
    return ia.take(rows), ib.take(rows), overlap[hit], normal, point


def _wall_pass(pset: Particles, walls, wall_rows: Optional[tuple],
               tunneling: Optional[list]):
    """Contacts of every wall at once, in (wall, id) order; None if there are none.

    Each non-empty wall gets its own :meth:`WallPlane.signed_distance` call,
    since a stacked product may round differently; everything after it runs
    once over the concatenated rows.
    """
    rows = [np.arange(len(pset))] * len(walls) if wall_rows is None else wall_rows
    live = [k for k, r in enumerate(rows) if len(r)]
    if not live:
        return None
    ids = np.concatenate([rows[k] for k in live])
    d = np.concatenate([walls[k].signed_distance(pset.position, rows[k]) for k in live])
    wall_of = np.repeat(live, [len(rows[k]) for k in live])
    behind = d < 0.0
    if behind.any():
        found = list(zip(ids[behind].tolist(), wall_of[behind].tolist()))
        if tunneling is not None:
            tunneling.extend(found)
        else:
            log.warning("particle(s) behind a wall, as (particle, wall): %s", found)
    radius = pset.radius.take(ids)
    overlap = radius - d
    hit = ((overlap > 0.0) & ~behind).nonzero()[0]
    if not len(hit):
        return None
    ids, wall_of, d = ids.take(hit), wall_of.take(hit), d.take(hit)
    outward = np.array([w.outward_normal for w in walls]).take(wall_of, axis=0)
    point = pset.position.take(ids, axis=0) - (0.5 * (radius.take(hit) + d))[:, None] * outward
    return ids, wall_sentinel(wall_of), overlap.take(hit), -outward, point


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
                     wall_rows: Optional[tuple] = None,
                     pair_rows: Optional[np.ndarray] = None) -> Contacts:
    """Resolve every actually-overlapping candidate pair plus all wall contacts.

    The output is sorted by (id_a, id_b); wall sentinels are negative, so a
    particle's wall contacts precede its particle contacts.  Behind-wall
    particles are appended to ``tunneling`` (or logged) and produce no
    contact.  ``wall_rows[k]`` restricts wall k to those sorted particle ids
    (a :attr:`VerletState.wall_rows` cache); None tests every particle.
    ``pair_rows`` restricts the candidates to those sorted rows of the list
    (what :func:`~verletdem.broadphase.verlet_gate` keeps); None tests every
    row.
    """
    pset = as_particles(particles)
    ia, ib = candidates.columns
    if pair_rows is not None:
        ia, ib = ia.take(pair_rows), ib.take(pair_rows)
    pair = _pair_contact_arrays(pset, ia, ib) if len(ia) else None
    wall = _wall_pass(pset, walls, wall_rows, tunneling)
    if wall is None:
        # the rows of a sorted list stay in (id_a, id_b) order
        return Contacts.empty() if pair is None else Contacts(*pair)
    cols = [np.concatenate(c) for c in zip(*(p for p in (pair, wall) if p is not None))]
    # the key id_a * 2**32 + id_b orders (id_a, id_b) while |id_b| < 2**31
    order = np.argsort((cols[0] << np.int64(32)) + cols[1], kind="stable")
    return Contacts(*(c.take(order, axis=0) for c in cols))
