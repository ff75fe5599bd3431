"""Command-line interface: run, sweep, validate.

Exit codes: 0 success, 2 configuration error (including a malformed
config value and an output path that cannot be written), 3 simulation
instability, 4 validation failure, 5 any other simulation error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from .bench import (
    BASELINE_K, DEFAULT_K_VALUES, SCENARIO_NAMES, UNIFORM_SKIN_K, emit_report,
    make_scenario, run_sweep, validate_equivalence,
)
from .core import ConfigError, SimulationError, _strict_int, _strict_object, config_overrides
from .engine import OPCOUNT, WALLTIME, PhaseMetrics, SimulationUnstable, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_VALIDATION = 4
EXIT_SIMULATION = 5


def _load_run_doc(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    _strict_object(doc, "run config", ("scenario",), ("config", "trajectory_every", "mode"))
    sdoc = _strict_object(doc["scenario"], "scenario", ("name", "n", "seed"))
    every = _strict_int(doc.get("trajectory_every", 100), "trajectory_every")
    scenario = make_scenario(sdoc["name"], sdoc["n"], sdoc["seed"])
    if every < 1:
        raise ConfigError(f"trajectory_every must be >= 1, got {every}")
    cfg = scenario.config
    if "config" in doc:
        cfg = config_overrides(cfg, doc["config"])
    mode = doc.get("mode", OPCOUNT)
    PhaseMetrics().as_dict(mode)    # an unknown mode raises ConfigError here
    return scenario, cfg, every, mode


@contextlib.contextmanager
def _writing(path: str):
    """Report an output file that cannot be written as a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_trajectory(path: str, rows: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("step,id,x,y,z,vx,vy,vz\n")
        for row in rows:
            cells = [str(int(row[0])), str(int(row[1]))]
            cells += [repr(float(v)) for v in row[2:]]
            fh.write(",".join(cells) + "\n")


def _cmd_run(args) -> int:
    scenario, cfg, every, mode = _load_run_doc(args.config)
    particles = scenario.build_particles()
    result = run(cfg, particles, sample_every=every if args.trajectory else None)
    if args.trajectory:
        with _writing(args.trajectory):
            _write_trajectory(args.trajectory, result.trajectory)
    if args.metrics:
        doc = result.metrics.as_dict(mode)
        doc["scenario"] = scenario.name
        doc["n"] = scenario.n
        doc["seed"] = scenario.seed
        doc["k_factor"] = cfg.k_factor
        doc["verlet_enabled"] = cfg.verlet_enabled
        doc["final_step"] = result.state.step
        doc["tunneling_reports"] = len(result.tunneling)
        with _writing(args.metrics), open(args.metrics, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    m = result.metrics
    print(f"run complete: {m.total_steps} steps, "
          f"{m.broad_executions}/{m.force_evaluations} broad-phase executions "
          f"({m.broad_executed_pct:.2f}%)")
    return EXIT_OK


def _parse_k_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad K list {text!r}: {exc}") from exc


def _cmd_sweep(args) -> int:
    scenario = make_scenario(args.scenario, args.n, args.seed)
    k_values = _parse_k_list(args.k) if args.k is not None else list(DEFAULT_K_VALUES)
    rows = run_sweep(scenario, k_values, mode=args.mode,
                     uniform_skin_radius=args.uniform_skin_radius)
    with _writing(args.out):
        emit_report(rows, args.out)
    print(f"sweep complete: {len(rows)} rows -> {args.out}")
    for row in rows:
        label = {BASELINE_K: "baseline", UNIFORM_SKIN_K: "uniform-skin"}.get(row.k, f"K={row.k}")
        print(f"  {label:>12}: total={row.total:.6g} "
              f"broad_pct={row.broad_executed_pct:.2f} "
              f"mean_pairs={row.mean_pairs:.1f} "
              f"improvement={row.improvement_pct:.2f}%")
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = make_scenario(args.scenario, args.n, args.seed)
    report = validate_equivalence(scenario, args.k, steps=args.steps)
    print(f"validate {report.scenario} n={report.n} seed={report.seed} "
          f"K={report.k_factor} steps={report.steps}")
    print(f"  shadow scan misses:       {report.shadow_misses}")
    print(f"  contact history match:    {report.contact_history_match}")
    print(f"  final state match:        {report.final_state_match}")
    print(f"  broad-phase executions:   {report.broad_executions_buffered} buffered "
          f"vs {report.broad_executions_baseline} baseline "
          f"({report.force_evaluations} evaluations)")
    if not report.ok:
        for step_no, a, b in report.shadow_examples:
            print(f"  missed pair ({a}, {b}) at step {step_no}")
        print("VALIDATION FAILED")
        return EXIT_VALIDATION
    print("validation passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verletdem",
        description="Soft-sphere DEM with a per-particle Verlet-buffer broad-phase",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario from a JSON config")
    p_run.add_argument("--config", required=True, help="JSON run configuration")
    p_run.add_argument("--trajectory", help="CSV path for trajectory samples")
    p_run.add_argument("--metrics", help="JSON path for run metrics")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="K sweep with baseline comparison")
    p_sweep.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    p_sweep.add_argument("--n", required=True, type=int)
    p_sweep.add_argument("--seed", required=True, type=int)
    p_sweep.add_argument("--k", help="comma-separated K values (default: study grid)")
    p_sweep.add_argument("--mode", choices=(WALLTIME, OPCOUNT), default=OPCOUNT)
    p_sweep.add_argument("--uniform-skin-radius", action="store_true",
                         help="add a comparison row with skin = particle radius")
    p_sweep.add_argument("--out", required=True, help="CSV report path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate",
                           help="dual-run equivalence check with shadow scan")
    p_val.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    p_val.add_argument("--n", required=True, type=int)
    p_val.add_argument("--seed", required=True, type=int)
    p_val.add_argument("--k", required=True, type=int)
    p_val.add_argument("--steps", required=True, type=int)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationUnstable as exc:
        print(f"simulation unstable: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except SimulationError as exc:     # after its two subclasses above
        print(f"simulation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
