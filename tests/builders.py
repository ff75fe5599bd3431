"""Particle sets and pair lists for the unit tests, built from plain rows."""

import numpy as np

from verletdem.broadphase import PairList
from verletdem.core import Particles


def spheres(positions, velocities=None, radius=0.5, mass=1.0, is_static=False):
    """A particle set with one row of ``positions`` per sphere.

    ``velocities`` default to rest.  Each of ``radius``, ``mass`` and
    ``is_static`` is one value for every sphere or one value per sphere.
    """
    position = np.array(positions, dtype=np.float64).reshape(-1, 3)
    n = len(position)

    def column(value, dtype=np.float64):
        return np.array(np.broadcast_to(np.asarray(value, dtype=dtype), (n,)))

    return Particles(
        position=position,
        velocity=np.zeros((n, 3)) if velocities is None else np.array(velocities, dtype=np.float64),
        radius=column(radius),
        mass=column(mass),
        is_static=column(is_static, bool),
    )


def pair_list(*pairs):
    """The pair list of ``pairs``, given as (id_a, id_b) rows in key order."""
    keys = np.array([(a << 32) | b for a, b in pairs], dtype=np.int64)
    assert all(a < b for a, b in pairs) and np.all(np.diff(keys) > 0)
    return PairList(keys)
