"""The safety audit: buffered runs must be indistinguishable from baseline runs.

Runs one scenario twice, with and without the buffer, while a shadow scan
checks at every force evaluation that no pair of touching spheres (centers
closer than their radii sum) is missing from the live candidate list.  The
scan cuts the second-widest axis into slabs two largest radii wide, sorts
the spheres by slab and then along their widest axis, and sweeps each one's
window of reach in its own slab and the next (a sort-and-sweep prefilter
that shares no code with the cell grid it audits), then applies the exact
radii-sum test to the survivors.  The two runs must agree bit for bit: same contact
history digest, same final positions and velocities.
"""

import numpy as np

from verletdem import make_scenario, validate_equivalence

scenario = make_scenario("mini-hopper", 200, seed=11)
print(f"auditing {scenario.name} with n={scenario.n} free spheres "
      f"(plus the static wedge), K=200, 2500 steps")

report = validate_equivalence(scenario, k_factor=200, steps=2500)

print(f"shadow scan misses:          {report.shadow_misses}")
print(f"contact histories identical: {report.contact_history_match}")
print(f"final states identical:      {report.final_state_match}")
print(f"broad-phase executions:      {report.broad_executions_buffered} buffered vs "
      f"{report.broad_executions_baseline} baseline")
saved = 1 - report.broad_executions_buffered / report.broad_executions_baseline
print(f"broad-phases skipped:        {100 * saved:.1f}%")
print(f"\naudit {'passed' if report.ok else 'FAILED'}")
