"""One full scenario run with per-phase instrumentation.

Builds the settling-box scenario (spheres raining into a closed box),
simulates it with the buffer enabled, and prints the phase accounting that
the benchmark harness aggregates.  The same run with the buffer disabled
executes a broad-phase at every force evaluation.
"""

from verletdem import make_scenario, run

scenario = make_scenario("settling-box", 300, seed=7)
particles = scenario.build_particles()
print(f"scenario {scenario.name}: {len(particles)} spheres, dt={scenario.config.dt}, "
      f"cell={scenario.config.cell_size} m")

steps = 4000    # long enough for the bed to land and pile up
for verlet_enabled, label in ((True, "buffer on (K=200)"), (False, "buffer off")):
    cfg = scenario.sim_config(k_factor=200, verlet_enabled=verlet_enabled, steps=steps)
    result = run(cfg, particles)
    m = result.metrics
    print(f"\n{label}:")
    print(f"  broad-phase executions: {m.broad_executions:5d} of "
          f"{m.force_evaluations} evaluations ({m.broad_executed_pct:.2f}%)")
    print(f"  pairs tested (broad):   {int(m.broad_time):9d}")
    print(f"  candidates resolved:    {int(m.narrow_time):9d}")
    print(f"  contacts evaluated:     {int(m.model_time):9d}")
    print(f"  mean cached list size:  {m.mean_pair_list_length:9.1f}")
    zmin = result.state.particles.position[:, 2].min()
    zmax = result.state.particles.position[:, 2].max()
    print(f"  bed after {steps} steps: z in [{zmin:.4f}, {zmax:.4f}] m")
