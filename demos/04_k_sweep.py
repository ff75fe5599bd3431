"""The K sweep: how the skin factor trades broad-phase work for narrow-phase work.

Runs the settling box once without the buffer and once per K value on
identical initial conditions, in deterministic operation-count mode, then
prints the trade-off table and writes the CSV report into the working
directory, byte-identical to the committed ``sweep_settling_box.csv``.
Raising K cuts the number of executed broad-phases but inflates the cached
pair list that the narrow phase must resolve, so the total cost has an
interior optimum.
"""

from verletdem import emit_report, make_scenario, run_sweep
from verletdem.bench import BASELINE_K, UNIFORM_SKIN_K

scenario = make_scenario("settling-box", 300, seed=42)
k_values = [0, 10, 20, 50, 100, 200, 500, 1000]

print(f"sweeping K over {k_values} on {scenario.name} "
      f"(n={scenario.n}, 2500 steps, opcount mode)")
rows = run_sweep(scenario, k_values, mode="opcount", steps=2500,
                 uniform_skin_radius=True)

header = f"{'K':>12} {'total ops':>12} {'broad':>12} {'narrow':>10} " \
         f"{'exec %':>8} {'pairs':>8} {'gain %':>7}"
print("\n" + header)
print("-" * len(header))
for row in rows:
    label = {BASELINE_K: "baseline", UNIFORM_SKIN_K: "uniform-skin"}.get(row.k, str(row.k))
    print(f"{label:>12} {row.total:>12.0f} {row.broad:>12.0f} {row.narrow:>10.0f} "
          f"{row.broad_executed_pct:>8.2f} {row.mean_pairs:>8.1f} "
          f"{row.improvement_pct:>7.2f}")

best = min((r for r in rows if r.k >= 0), key=lambda r: r.total)
print(f"\nlowest total operation count at K={best.k} "
      f"({best.improvement_pct:.1f}% below baseline)")
print("every row ends in the same final state:",
      len({r.state_digest for r in rows}) == 1)

out = "sweep_settling_box.csv"
emit_report(rows, out)
print(f"report written to {out}")
