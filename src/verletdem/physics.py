"""Contact forces and time integration.

The contact model is a linear normal spring-dashpot with a memoryless
tangential term capped by static friction.  No tangential displacement
history is kept across steps, so a skipped broad-phase can never corrupt
contact state.  Integration is velocity-Verlet with the force re-evaluated
once per step at the updated positions.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import ContactParams, Particle, Particles, Vec3, as_particles, row_norm_sq
from .narrowphase import Contact, Contacts

__all__ = [
    "ContactParams", "spring_dashpot_force", "contact_force_batch",
    "compute_forces", "velocity_verlet_step",
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
    wall = ib < 0
    v_a = pset.velocity[ia]
    v_b = np.where(wall[:, None], 0.0, pset.velocity[np.where(wall, 0, ib)])
    v_rel = v_a - v_b
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


def spring_dashpot_force(c: Contact, a: Particle, b: Particle,
                         params: ContactParams) -> tuple[Vec3, Vec3]:
    """Forces on the two particles of one contact (Newton pair)."""
    pset = Particles(
        position=np.stack([a.position, b.position]),
        velocity=np.stack([a.velocity, b.velocity]),
        radius=[a.radius, b.radius],
        cutoff=[a.cutoff, b.cutoff],
        mass=[a.mass, b.mass],
        is_static=[a.is_static, b.is_static],
    )
    batch = Contacts(
        id_a=[0], id_b=[1], overlap=[c.overlap],
        normal=c.normal.reshape(1, 3), point=c.point.reshape(1, 3),
    )
    f = contact_force_batch(batch, pset, params)[0]
    return f, -f


def compute_forces(particles, contacts: Contacts, params: ContactParams,
                   gravity) -> np.ndarray:
    """Total force per particle: gravity plus every contact contribution.

    Contacts arrive sorted by (id_a, id_b) and are accumulated in that one
    canonical order, which is what makes repeated runs bit-identical.
    """
    pset = as_particles(particles)
    g = np.asarray(gravity, dtype=np.float64)
    forces = pset.mass[:, None] * g[None, :]
    if len(contacts) == 0:
        return forces
    f_a = contact_force_batch(contacts, pset, params)
    np.add.at(forces, contacts.id_a, f_a)
    pp = contacts.id_b >= 0
    if np.any(pp):
        np.add.at(forces, contacts.id_b[pp], -f_a[pp])
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
