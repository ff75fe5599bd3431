"""How the per-particle skin buffer skips broad-phase executions.

Two spheres approach each other head on.  The skin margin, sized as
k_factor * |v| * dt for each particle, puts the pair into the cached list
long before the surfaces touch, so the whole approach needs exactly one
broad-phase.  A particle only invalidates the cache once its straight-line
displacement since the build exceeds its frozen skin.
"""

import numpy as np

from verletdem import (
    ContactParams, Particles, SimConfig, run, vec3, verlet_build,
    verlet_needs_rebuild,
)

dt = 0.01
speed = 0.1
pair = Particles(
    position=[[-1.1, 0, 0], [1.1, 0, 0]], velocity=[[speed, 0, 0], [-speed, 0, 0]],
    radius=[0.5, 0.5], cutoff=[0.5, 0.5], mass=[1.0, 1.0], is_static=[False, False],
)

cfg = SimConfig(
    dt=dt, k_factor=2000, gravity=vec3(0, 0, 0), cell_size=10.0,
    domain_min=vec3(-20, -20, -20), domain_max=vec3(20, 20, 20),
    contact=ContactParams(k_n=100.0), steps=620,
)

state = verlet_build(pair, cfg)
skin = state.frozen_skins[0]      # what the engine freezes at the build
print(f"per-particle skin: k * |v| * dt = {cfg.k_factor} * {speed} * {dt} = {skin} m")
print(f"gap to close before contact: {2.2 - 1.0:.1f} m "
      f"({(2.2 - 1.0) / (2 * speed) / dt:.0f} steps)")

print(f"pair in the list right after the build: {(0, 1) in state.list}")

moved = pair.copy()
moved.position[0, 0] += 0.9 * skin
print(f"displacement at 0.9 skin -> rebuild needed: {verlet_needs_rebuild(state, moved)}")
moved.position[0, 0] += 0.2 * skin
print(f"displacement at 1.1 skin -> rebuild needed: {verlet_needs_rebuild(state, moved)}")

result = run(cfg, pair)
m = result.metrics
print(f"\nfull approach, {m.total_steps} steps:")
print(f"  force evaluations:      {m.force_evaluations}")
print(f"  broad-phase executions: {m.broad_executions}")
print(f"  contacts resolved:      {int(m.model_time)} (operation count)")
print(f"  final velocities: {np.round(result.state.particles.velocity[:, 0], 4)}")
