"""Contact forces and time integration.

The contact model is a linear normal spring-dashpot with a memoryless
tangential term capped by static friction.  No tangential displacement
history is kept across steps, so a skipped broad-phase can never corrupt
contact state.  Integration is velocity-Verlet with the force re-evaluated
once per step at the updated positions.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .core import ContactParams, Particles, as_particles, row_norm_sq
from .narrowphase import Contacts

__all__ = [
    "ContactParams", "contact_force_batch", "compute_forces", "velocity_verlet_step",
]

_TANGENT_EPS = 1e-14


def contact_force_batch(contacts: Contacts, particles, params: ContactParams) -> np.ndarray:
    """Force on side a of every contact; side b receives the exact negation.

    The normal spring pushes the sides apart with k_n * overlap; the dashpot
    adds gamma_n times the approach speed, so it always removes energy from
    the relative motion.  The tangential force opposes the instantaneous
    tangential relative velocity with magnitude min(k_t * overlap,
    mu_s * |F_normal|); it vanishes when the sides do not slide.

    Wall sides (negative id_b) are treated as static bodies at rest.
    """
    pset = as_particles(particles)
    m = len(contacts)
    if m == 0:
        return np.zeros((0, 3))
    ia = contacts.id_a
    ib = contacts.id_b
    v_a = pset.velocity.take(ia, axis=0)
    # a wall side is at rest: its rows keep v_rel = v_a, the bits of v_a - 0.0
    v_rel = v_a.copy()
    np.subtract(v_a, pset.velocity.take(ib, axis=0, mode="wrap"), out=v_rel,
                where=(ib >= 0)[:, None])
    n = contacts.normal
    # approach speed: positive while the gap is closing
    v_n = np.einsum("ij,ij->i", v_rel, n)
    fn_scalar = params.k_n * contacts.overlap + params.gamma_n * v_n
    force = -fn_scalar[:, None] * n

    if params.mu_s > 0.0 and params.k_t > 0.0:
        v_t = v_rel - v_n[:, None] * n
        speed_t = np.sqrt(row_norm_sq(v_t))
        sliding = speed_t > _TANGENT_EPS
        ft_mag = np.minimum(params.k_t * contacts.overlap, params.mu_s * np.abs(fn_scalar))
        scale = np.where(sliding, ft_mag / np.where(sliding, speed_t, 1.0), 0.0)
        force -= scale[:, None] * v_t
    return force


def compute_forces(particles, contacts: Contacts, params: ContactParams,
                   gravity, weight: Optional[np.ndarray] = None) -> np.ndarray:
    """Total force per particle: gravity plus every contact contribution.

    Contacts arrive sorted by (id_a, id_b) and are accumulated in that one
    canonical order, which is what makes repeated runs bit-identical.  One
    ``np.bincount`` sums, per particle and axis, the gravity term, then the
    side-a forces in contact order, then the side-b reactions in contact
    order: the order of additions ``np.add.at`` onto the gravity term makes.
    The sums start from +0.0, so a -0.0 gravity component comes out +0.0 on
    a particle that no contact touches (:class:`SimConfig` stores it as +0.0).
    ``weight`` may pass in the gravity term ``mass[:, None] * gravity``
    already computed; it is not modified.
    """
    pset = as_particles(particles)
    if weight is None:
        weight = pset.mass[:, None] * np.asarray(gravity, dtype=np.float64)
    if len(contacts) == 0:
        return weight.copy()
    f_a = contact_force_batch(contacts, pset, params)
    pp = (contacts.id_b >= 0).nonzero()[0]
    n = len(pset)
    ids = np.concatenate([np.arange(n), contacts.id_a, contacts.id_b.take(pp)])
    terms = np.concatenate([weight.T, f_a.T, -f_a.take(pp, axis=0).T], axis=1)
    forces = np.empty((n, 3))
    for axis, column in enumerate(terms):
        forces[:, axis] = np.bincount(ids, column, minlength=n)
    return forces


def velocity_verlet_step(particles, forces_t: np.ndarray,
                         force_eval: Callable[[Particles], np.ndarray],
                         dt: float) -> tuple[Particles, np.ndarray]:
    """Advance one step of velocity-Verlet, mutating the particle arrays.

    x += v dt + (F/m) dt^2/2, then F' = force_eval(x'), then
    v += (F + F') dt / (2 m).  Static particles are left untouched.
    Returns the same Particles object and the new forces.
    """
    pset = as_particles(particles)
    forces_t = np.asarray(forces_t, dtype=np.float64)
    free = ~pset.is_static[:, None]
    inv_m = 1.0 / pset.mass[:, None]
    accel_t = forces_t * inv_m
    np.add(pset.position, pset.velocity * dt + accel_t * (0.5 * dt * dt),
           out=pset.position, where=free)
    forces_new = force_eval(pset)
    accel_new = forces_new * inv_m
    np.add(pset.velocity, (accel_t + accel_new) * (0.5 * dt), out=pset.velocity, where=free)
    return pset, forces_new
