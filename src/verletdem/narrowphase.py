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

A contact has four columns: the two ids, the overlap and the unit normal
(from a to b, or into the wall).  Contacts come out ordered by
(id_a, id_b).  Pair rows already are; wall contacts are merged in by one
stable argsort of a single int64 key.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

from .broadphase import PairList
from .core import Particles, SimulationError, row_norm_sq

log = logging.getLogger(__name__)

COINCIDENT_TOL = 1e-12


class CoincidentCenters(SimulationError):
    """Two candidate particles share a center: the contact normal is undefined."""


def wall_sentinel(wall_index: int) -> int:
    """The id_b of a wall contact: wall k maps to -(k+1)."""
    return -(wall_index + 1)


class Contacts:
    """Column-oriented batch of contacts, ordered by (id_a, id_b).

    Four columns: the ids, the overlap and the unit normal from a to b
    (into the wall for a wall contact).
    """

    __slots__ = ("id_a", "id_b", "overlap", "normal")

    def __init__(self, id_a, id_b, overlap, normal):
        self.id_a = np.asarray(id_a, dtype=np.int64).reshape(-1)
        self.id_b = np.asarray(id_b, dtype=np.int64).reshape(-1)
        self.overlap = np.asarray(overlap, dtype=np.float64).reshape(-1)
        self.normal = np.asarray(normal, dtype=np.float64).reshape(-1, 3)

    @classmethod
    def empty(cls) -> "Contacts":
        return cls(np.empty(0), np.empty(0), np.empty(0), np.empty((0, 3)))

    def __len__(self) -> int:
        return len(self.id_a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Contacts):
            return NotImplemented
        return (
            np.array_equal(self.id_a, other.id_a)
            and np.array_equal(self.id_b, other.id_b)
            and np.array_equal(self.overlap, other.overlap)
            and np.array_equal(self.normal, other.normal)
        )

    def tobytes(self) -> bytes:
        return b"".join((
            self.id_a.tobytes(), self.id_b.tobytes(), self.overlap.tobytes(),
            self.normal.tobytes(),
        ))


def _pair_contact_arrays(pset: Particles, ia: np.ndarray, ib: np.ndarray):
    """Ids, overlap and normal of the candidate rows with overlap > 0.

    Only rows with ``d^2 <= (r_a + r_b)^2 (1 + 1e-9)`` go on to the square
    root.  Every row with overlap > 0 passes: a correctly rounded
    ``sqrt(d^2)`` below ``r_a + r_b`` needs ``d^2`` within a few ulps of
    ``(r_a + r_b)^2``.
    """
    # .take copies whole rows; indexing with [ib] is several times slower
    diff = pset.position.take(ib, axis=0) - pset.position.take(ia, axis=0)
    d2 = row_norm_sq(diff)
    bad = d2 < COINCIDENT_TOL * COINCIDENT_TOL
    if bad.any():
        k = int(bad.argmax())
        raise CoincidentCenters(
            f"particles {int(ia[k])} and {int(ib[k])} have coincident centers"
        )
    rsum = pset.radius.take(ia) + pset.radius.take(ib)
    near = (d2 <= rsum * rsum * (1.0 + 1e-9)).nonzero()[0]
    d = np.sqrt(d2.take(near))
    overlap = rsum.take(near) - d
    hit = overlap > 0.0
    rows = near[hit]
    normal = diff.take(rows, axis=0) / d[hit][:, None]
    return ia.take(rows), ib.take(rows), overlap[hit], normal


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
    overlap = pset.radius.take(ids) - d
    hit = ((overlap > 0.0) & ~behind).nonzero()[0]
    if not len(hit):
        return None
    ids, wall_of = ids.take(hit), wall_of.take(hit)
    outward = np.array([w.outward_normal for w in walls]).take(wall_of, axis=0)
    return ids, wall_sentinel(wall_of), overlap.take(hit), -outward


def resolve_contacts(candidates: PairList, particles: Particles, walls=(),
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
    ia, ib = candidates.columns
    if pair_rows is not None:
        ia, ib = ia.take(pair_rows), ib.take(pair_rows)
    pair = _pair_contact_arrays(particles, ia, ib) if len(ia) else None
    wall = _wall_pass(particles, walls, wall_rows, tunneling)
    if wall is None:
        # the rows of a sorted list stay in (id_a, id_b) order
        return Contacts.empty() if pair is None else Contacts(*pair)
    cols = [np.concatenate(c) for c in zip(*(p for p in (pair, wall) if p is not None))]
    # the key id_a * 2**32 + id_b orders (id_a, id_b) while |id_b| < 2**31
    order = np.argsort((cols[0] << np.int64(32)) + cols[1], kind="stable")
    return Contacts(*(c.take(order, axis=0) for c in cols))
