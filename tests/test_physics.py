import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import pair_list, spheres
from verletdem.core import ContactParams, Particles, SimConfig, vec3
from verletdem.engine import run
from verletdem.broadphase import brute_force_pairs
from verletdem.narrowphase import Contacts, resolve_contacts
from verletdem.physics import compute_forces, contact_force_batch, velocity_verlet_step


def gas_config(steps, box=0.4, k_n=1000.0, **contact):
    return SimConfig(
        dt=1e-4, k_factor=100, gravity=vec3(0, 0, 0), cell_size=0.1,
        domain_min=vec3(0, 0, 0), domain_max=vec3(box, box, box),
        contact=ContactParams(k_n=k_n, **contact), steps=steps,
    )


def pair_forces(pset, params):
    """The overlap of particles 0 and 1 and the total force on each, without gravity.

    Resolved by ``resolve_contacts`` and summed by ``compute_forces``, as
    the engine does.
    """
    contacts = resolve_contacts(pair_list((0, 1)), pset)
    assert len(contacts) == 1
    forces = compute_forces(pset, contacts, params, vec3(0, 0, 0))
    return contacts.overlap[0], forces[0], forces[1]


class TestSpringDashpotForce:
    def test_pure_spring_magnitude(self):
        pair = spheres([(0, 0, 0), (0.99, 0, 0)])
        overlap, f_a, f_b = pair_forces(pair, ContactParams(k_n=1000.0))
        np.testing.assert_allclose(f_a, [-1000.0 * overlap, 0, 0], atol=1e-12)
        assert np.linalg.norm(f_a) == pytest.approx(10.0, rel=1e-9)

    @given(
        st.lists(st.floats(-1, 1), min_size=3, max_size=3),
        st.lists(st.floats(-2, 2), min_size=3, max_size=3),
        st.lists(st.floats(-2, 2), min_size=3, max_size=3),
        st.floats(0.01, 0.4),
    )
    @settings(max_examples=100, deadline=None)
    def test_newton_pair(self, offset, va, vb, gap_frac):
        off = np.asarray(offset)
        if np.linalg.norm(off) < 1e-3:
            return
        direction = off / np.linalg.norm(off)
        pair = spheres([(0, 0, 0), direction * (1.2 - gap_frac)], [va, vb], radius=0.6)
        params = ContactParams(k_n=500.0, gamma_n=2.0, mu_s=0.4, k_t=80.0)
        _, f_a, f_b = pair_forces(pair, params)
        np.testing.assert_array_equal(f_a + f_b, np.zeros(3))

    def test_damping_opposes_approach(self):
        pair = spheres([(0, 0, 0), (0.9, 0, 0)], [(1, 0, 0), (-1, 0, 0)])
        _, spring_only, _ = pair_forces(pair, ContactParams(k_n=100.0))
        _, damped, _ = pair_forces(pair, ContactParams(k_n=100.0, gamma_n=1.0))
        # while approaching, damping must push a back harder than the spring alone
        assert damped[0] < spring_only[0] < 0

    def test_friction_cap(self):
        pair = spheres([(0, 0, 0), (0.9, 0, 0)], [(0, 5.0, 0), (0, 0, 0)])
        params = ContactParams(k_n=100.0, mu_s=0.2, k_t=1e6)
        _, f_a, _ = pair_forces(pair, params)
        f_n = abs(f_a[0])
        f_t = abs(f_a[1])
        assert f_t == pytest.approx(params.mu_s * f_n, rel=1e-12)

    def test_dashpot_pulls_when_separating_fast(self):
        # documented, not clamped: a just-overlapping pair separating fast
        # feels a net pull, and the friction cap is mu_s * |F_n| of that pull
        params = ContactParams(k_n=1000.0, gamma_n=1.0, mu_s=0.5, k_t=1e6)
        pair = spheres([(0, 0, 0), (0.9999, 0, 0)], [(-1.0, 0.5, 0.0), (1.0, 0.0, 0.0)])
        _, f_a, f_b = pair_forces(pair, params)   # overlap 1e-4, normal +x
        # F_n = k_n * overlap + gamma_n * v_n = 0.1 - 2.0 = -1.9: a is
        # pulled toward b
        assert f_a[0] == pytest.approx(1.9)
        # sliding at 0.5 m/s: min(k_t * overlap, mu_s * |F_n|) = 0.95
        assert f_a[1] == pytest.approx(-0.95)
        assert f_a[2] == 0.0
        np.testing.assert_array_equal(f_b, -f_a)

    def test_head_on_equal_mass_speeds_swap(self):
        # oracle: during contact the relative coordinate is harmonic, so a
        # dissipation-free head-on collision of equal masses must exchange
        # the velocities exactly (analytic elastic collision)
        k_n = 100.0
        pset = spheres([(-0.6, 0, 0), (0.6, 0, 0)], [(1.0, 0, 0), (-1.0, 0, 0)])
        cfg = SimConfig(
            dt=1e-3, k_factor=1000, gravity=vec3(0, 0, 0), cell_size=4.0,
            domain_min=vec3(-8, -8, -8), domain_max=vec3(8, 8, 8),
            contact=ContactParams(k_n=k_n), steps=600,
        )
        result = run(cfg, pset)
        v = result.state.particles.velocity
        # separated again after full rebound
        d = np.linalg.norm(np.diff(result.state.particles.position, axis=0))
        assert d > 1.0
        assert v[0, 0] == pytest.approx(-1.0, rel=1e-3)
        assert v[1, 0] == pytest.approx(1.0, rel=1e-3)


def add_at_reference(pset, contacts, params, gravity):
    """The np.add.at accumulation onto the gravity term, the reference order."""
    forces = pset.mass[:, None] * np.asarray(gravity, dtype=np.float64)
    if len(contacts):
        f_a = contact_force_batch(contacts, pset, params)
        np.add.at(forces, contacts.id_a, f_a)
        pp = contacts.id_b >= 0
        np.add.at(forces, contacts.id_b[pp], -f_a[pp])
    return forces


FRICTION = ContactParams(k_n=1000.0, gamma_n=0.5, mu_s=0.4, k_t=800.0)


class TestComputeForces:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(0, 60),
           st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_bytes_equal_the_add_at_reference(self, seed, n, m, n_walls):
        # few particles, many contacts: ids repeat on both sides; wall
        # sentinels, static rows, zero contacts and zero gravity components
        rng = np.random.default_rng(seed)
        radius = rng.uniform(0.05, 0.2, n)
        pset = Particles(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)), radius, radius,
                         rng.uniform(0.1, 3.0, n), rng.uniform(size=n) < 0.3)
        normal = rng.normal(size=(m, 3))
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        contacts = Contacts(rng.integers(0, n, m), rng.integers(-n_walls, n, m),
                            rng.uniform(0.0, 1e-2, m), normal)
        gravity = np.where(rng.uniform(size=3) < 0.5, 0.0, rng.normal(size=3))
        assert (compute_forces(pset, contacts, FRICTION, gravity).tobytes()
                == add_at_reference(pset, contacts, FRICTION, gravity).tobytes())

    def test_negative_zero_gravity_is_stored_as_positive_zero(self):
        # the bincount sums start from +0.0, so a raw -0.0 component comes out
        # +0.0 on a particle without contacts; SimConfig stores it as +0.0
        raw = vec3(-0.0, 0.0, -9.81)
        cfg = dataclasses.replace(gas_config(1), gravity=raw)
        assert np.signbit(cfg.gravity).tolist() == [False, False, True]
        pset = spheres([(0, 0, 0), (0.9, 0, 0), (5, 5, 5)], [(0.2, 0, 0), (0, 0, 0), (0, 0, 0)])
        contacts = resolve_contacts(brute_force_pairs(pset, pset.cutoff), pset)
        assert len(contacts) == 1
        got = compute_forces(pset, contacts, FRICTION, raw)
        ref = add_at_reference(pset, contacts, FRICTION, raw)
        assert np.array_equal(got, ref) and got.tobytes() != ref.tobytes()
        assert (compute_forces(pset, contacts, FRICTION, cfg.gravity).tobytes()
                == add_at_reference(pset, contacts, FRICTION, cfg.gravity).tobytes())

    def test_precomputed_weight_gives_the_same_bits_and_stays_unchanged(self):
        pset = spheres([(0, 0, 0), (0.9, 0.1, 0), (0.5, 0.8, 0.1)], mass=[0.3, 1.7, 2.9])
        contacts = resolve_contacts(brute_force_pairs(pset, pset.cutoff), pset)
        g = vec3(0.1, -0.3, -9.81)
        weight = pset.mass[:, None] * g
        kept = weight.copy()
        params = ContactParams(k_n=1000.0, gamma_n=0.5)
        assert len(contacts) == 3
        assert (compute_forces(pset, contacts, params, g, weight=weight).tobytes()
                == compute_forces(pset, contacts, params, g).tobytes())
        assert weight.tobytes() == kept.tobytes()


class TestVelocityVerlet:
    def test_constant_force_is_exact(self):
        g = np.array([0.0, 0.0, -9.81])
        pset = spheres([(0, 0, 10)], [(0.3, 0.0, 2.0)])
        x0 = pset.position.copy()
        v0 = pset.velocity.copy()
        dt = 0.01
        n = 100

        def gravity_force(ps):
            return ps.mass[:, None] * g[None, :]

        forces = gravity_force(pset)
        for _ in range(n):
            _, forces = velocity_verlet_step(pset, forces, gravity_force, dt)
        t = n * dt
        expected = x0 + v0 * t + 0.5 * g * t * t
        np.testing.assert_allclose(pset.position, expected, rtol=1e-12, atol=1e-12)

    def test_uniform_motion(self):
        pset = spheres([(0, 0, 0)], [(1, 0, 0)])

        def zero(ps):
            return np.zeros((len(ps), 3))

        forces = zero(pset)
        for _ in range(10):
            _, forces = velocity_verlet_step(pset, forces, zero, 0.1)
        np.testing.assert_allclose(pset.position[0], [1.0, 0, 0], rtol=1e-12)

    def test_static_particles_do_not_move(self):
        pset = spheres([(1, 1, 1)], radius=0.1, is_static=True)

        def pull(ps):
            return np.full((len(ps), 3), 5.0)

        forces = pull(pset)
        for _ in range(50):
            _, forces = velocity_verlet_step(pset, forces, pull, 0.01)
        np.testing.assert_array_equal(pset.position[0], [1, 1, 1])
        np.testing.assert_array_equal(pset.velocity[0], [0, 0, 0])

    def test_mixed_static_and_free_rows(self):
        # the static rows carry a force but keep their exact bits; the free
        # rows follow the constant-force closed form
        rng = np.random.default_rng(3)
        n = 12
        static = np.arange(n) % 3 == 0
        pos = rng.uniform(-1.0, 1.0, (n, 3))
        vel = rng.normal(size=(n, 3))
        vel[static] = 0.0
        mass = rng.uniform(0.5, 2.0, n)
        force = rng.normal(size=(n, 3))
        pset = Particles(pos.copy(), vel.copy(), np.full(n, 0.1), np.full(n, 0.1),
                         mass, static)

        def constant(ps):
            return force

        forces = constant(pset)
        steps, dt = 100, 0.01
        for _ in range(steps):
            _, forces = velocity_verlet_step(pset, forces, constant, dt)
        assert pset.position[static].tobytes() == pos[static].tobytes()
        assert pset.velocity[static].tobytes() == vel[static].tobytes()
        t = steps * dt
        accel = force / mass[:, None]
        free = ~static
        np.testing.assert_allclose(pset.position[free],
                                   (pos + vel * t + 0.5 * accel * t * t)[free],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(pset.velocity[free], (vel + accel * t)[free],
                                   rtol=1e-12, atol=1e-12)

    def test_harmonic_oscillator_energy_drift(self):
        # closed form: x(t) = cos(w t), E = k/2; velocity-Verlet keeps the
        # energy error bounded, so after 10^4 steps at dt = T/100 the drift
        # must stay below 1e-3 relative
        k = 4.0 * math.pi ** 2          # T = 1 s for m = 1
        dt = 1.0 / 100.0
        pset = spheres([(1.0, 0, 0)])

        def spring(ps):
            return -k * ps.position

        def energy():
            v2 = float(np.dot(pset.velocity[0], pset.velocity[0]))
            x2 = float(np.dot(pset.position[0], pset.position[0]))
            return 0.5 * v2 + 0.5 * k * x2

        e0 = energy()
        forces = spring(pset)
        for _ in range(10_000):
            _, forces = velocity_verlet_step(pset, forces, spring, dt)
        assert abs(energy() - e0) / e0 < 1e-3


def random_gas(seed, n=50, box=0.4, radius=0.04, mass=0.01):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.05, box - 0.05, (n, 3))
    vel = rng.normal(0, 1.0, (n, 3))
    return Particles(pos, vel, np.full(n, radius), np.full(n, radius),
                     np.full(n, mass), np.zeros(n, bool))


class TestConservation:
    def test_momentum_conserved_without_dissipation(self):
        pset = random_gas(17)
        cfg = gas_config(steps=1000)
        p0 = (pset.mass[:, None] * pset.velocity).sum(axis=0)
        result = run(cfg, pset)
        p1 = (result.state.particles.mass[:, None]
              * result.state.particles.velocity).sum(axis=0)
        drift = np.linalg.norm(p1 - p0) / np.linalg.norm(p0)
        assert drift < 1e-9

    def test_energy_nonincreasing_with_damping(self):
        pset = spheres([(-0.6, 0, 0), (0.6, 0, 0)], [(1.0, 0, 0), (-1.0, 0, 0)])
        cfg = SimConfig(
            dt=1e-3, k_factor=1000, gravity=vec3(0, 0, 0), cell_size=4.0,
            domain_min=vec3(-8, -8, -8), domain_max=vec3(8, 8, 8),
            contact=ContactParams(k_n=100.0, gamma_n=1.5), steps=600,
        )
        result = run(cfg, pset)
        v = result.state.particles.velocity
        ke0 = 0.5 * 2 * 1.0
        ke1 = 0.5 * float((v * v).sum())
        assert ke1 < ke0
