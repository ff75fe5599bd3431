"""Forces of the contact model, and time integration.

The contact model is a linear normal spring-dashpot with a memoryless
tangential term capped by static friction.  No tangential displacement
history is kept across steps, so a skipped broad-phase can never corrupt
contact state.  Integration is velocity-Verlet with the force re-evaluated
once per step at the updated positions.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import ContactParams, Particles, row_norm_sq
from .narrowphase import Contacts

__all__ = [
    "ContactParams", "contact_force_batch", "compute_forces", "velocity_verlet_step",
]

_TANGENT_EPS = 1e-14
_AXES = np.arange(3)[:, None]


def contact_force_batch(contacts: Contacts, particles: Particles,
                        params: ContactParams) -> np.ndarray:
    """Force on side a of every contact; side b receives the exact negation.

    The normal spring pushes the sides apart with k_n * overlap; the dashpot
    adds gamma_n times the approach speed, so it always removes energy from
    the relative motion.  The tangential force opposes the instantaneous
    tangential relative velocity with magnitude min(k_t * overlap,
    mu_s * |F_normal|); it vanishes when the sides do not slide.

    Wall sides (negative id_b) are treated as static bodies at rest.
    """
    m = len(contacts)
    if m == 0:
        return np.zeros((0, 3))
    ia = contacts.id_a
    ib = contacts.id_b
    v_a = particles.velocity.take(ia, axis=0)
    # a wall side is at rest: its rows keep v_rel = v_a, the bits of v_a - 0.0
    v_rel = v_a.copy()
    np.subtract(v_a, particles.velocity.take(ib, axis=0, mode="wrap"), out=v_rel,
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


def compute_forces(particles: Particles, contacts: Contacts, params: ContactParams,
                   weight: np.ndarray) -> np.ndarray:
    """Total force per particle: its weight plus every contact contribution.

    ``weight`` is the (n, 3) gravity term ``mass[:, None] * gravity``; it is
    not modified.  Contacts arrive sorted by (id_a, id_b) and are
    accumulated in that one canonical order, which is what makes repeated
    runs bit-identical.  One ``np.add.at`` over the flat bins
    ``3 * id + axis`` adds onto ``weight + 0.0`` the side-a forces in
    contact order, then the side-b reactions in contact order: each bin
    gets the order of additions a per-particle ``np.add.at`` onto the weight
    makes.  The terms are laid out one row per axis, since building the
    bins one row per contact broadcasts over an axis of length 3, which
    costs more than the sum.  ``+ 0.0`` turns a -0.0 weight component into
    +0.0 (:class:`SimConfig` stores gravity with +0.0 components).
    """
    if len(contacts) == 0:
        return weight.copy()
    f_a = contact_force_batch(contacts, particles, params)
    pp = (contacts.id_b >= 0).nonzero()[0]
    ids = np.concatenate([contacts.id_a, contacts.id_b.take(pp)])
    terms = np.concatenate([f_a, -f_a.take(pp, axis=0)]).T
    forces = weight.ravel() + 0.0
    np.add.at(forces, (3 * ids + _AXES).ravel(), terms.ravel())
    return forces.reshape(-1, 3)


def velocity_verlet_step(particles: Particles, forces_t: np.ndarray,
                         force_eval: Callable[[Particles], np.ndarray],
                         dt: float) -> tuple[Particles, np.ndarray]:
    """Advance one step of velocity-Verlet, mutating the particle arrays.

    x += v dt + (F/m) dt^2/2, then F' = force_eval(x'), then
    v += (F + F') dt / (2 m).  Static particles are left untouched.
    Returns the same Particles object and the new forces.
    """
    forces_t = np.asarray(forces_t, dtype=np.float64)
    # one full-shape mask: masked adds run faster on it than on a broadcast one
    free = np.repeat(~particles.is_static[:, None], 3, axis=1)
    inv_m = 1.0 / particles.mass[:, None]
    accel_t = forces_t * inv_m
    np.add(particles.position, particles.velocity * dt + accel_t * (0.5 * dt * dt),
           out=particles.position, where=free)
    forces_new = force_eval(particles)
    accel_new = forces_new * inv_m
    np.add(particles.velocity, (accel_t + accel_new) * (0.5 * dt),
           out=particles.velocity, where=free)
    return particles, forces_new
