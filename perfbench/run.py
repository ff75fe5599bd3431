"""verletdem benchmark: steps/s on three contact-phase workloads.

Run from the repository root:

    python3 perfbench/run.py --workload hopper-k200 --seed 42 --seconds 25 --trace 0

One run starts ``PARTS`` processes in turn.  Each imports the package from
``src/`` next to this directory (never an installed copy), sets the workload
up once and repeats its operation for a share of ``--seconds``; this process
pools what they measured.  With ``--trace 0`` the operations run untraced
and the last stdout line reports the end-to-end metrics.  With
``--trace 1`` traced and untraced operations alternate, the last line
reports the per-layer metrics and the tracing overhead, and the spans are
written to ``.perfbench/``.  Earlier stdout lines record the machine, the
start state and the raw wall-clock figures.  See README.md in this
directory for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1     # the audit's pos @ pos.T is the only multi-threaded call
# Set before the part processes start.  glibc would otherwise hand large
# freed arrays back to the kernel and fault them in again: box-nobuffer took
# ~65k page faults per operation, whose cost on a shared VM swings with the
# host's load.  With these thresholds freed memory stays mapped (0 faults,
# same peak RSS).
BENCH_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS), "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "MALLOC_MMAP_THRESHOLD_": str(256 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}
# Each process runs at its own speed (a 20-s block varied 4.6% within one
# process, 12% across processes), so a run pools several processes.  Each
# one sets up once, so setup_s is the median of PARTS set-ups.
PARTS = 4
DEADLINE_S = 170.0   # the whole run, children included
WORKLOAD_NAMES = ("box-nobuffer", "hopper-k200", "flow-audit")


def _import_package():
    """Import verletdem from the checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import verletdem

    if Path(verletdem.__file__).resolve().parent != src / "verletdem":
        raise SystemExit(f"verletdem imported from {verletdem.__file__}, not {src}")
    return verletdem


def machine_record(np) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "env": {key: os.environ.get(key) for key in BENCH_ENV},
    }


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(layer_ops: list, evals_ms: list) -> dict:
    """Per-layer metrics of the traced operations.

    Seconds are medians over the operations; counts are those of the first
    one, since every traced operation must count the same.
    """
    import tracing

    c = defaultdict(int, layer_ops[0] if layer_ops else {})
    metrics = {key: (_median(op[key] for op in layer_ops), "s")
               for key in tracing.LAYER_SECONDS}
    metrics.update({
        "broadphase.pairs_tested": (c["pairs_tested"], "count"),
        "broadphase.builds": (c["builds"], "count"),
        "broadphase.skip_ratio": (1.0 - _ratio(c["builds"], c["evals"]), "ratio"),
        "broadphase.list_len_mean": (_ratio(c["list_len_sum"], c["evals"]), "count"),
        "broadphase.check_calls": (c["broadphase.check_calls"], "count"),
        "narrowphase.pairs_resolved": (c["pairs_resolved"], "count"),
        "narrowphase.pair_contacts": (c["narrowphase.pair_contacts"], "count"),
        "narrowphase.wall_contacts": (c["narrowphase.wall_contacts"], "count"),
        "narrowphase.pair_hit_ratio": (
            _ratio(c["narrowphase.pair_contacts"], c["pairs_resolved"]), "ratio"),
        "narrowphase.wall_hit_ratio": (
            _ratio(c["narrowphase.wall_contacts"], c["narrowphase.wall_tests"]), "ratio"),
        "engine.evals": (c["evals"], "count"),
        "engine.eval_ms_p50": (_median(evals_ms), "ms"),
        "engine.eval_ms_p99": (
            statistics.quantiles(evals_ms, n=100)[98] if len(evals_ms) > 1 else 0.0, "ms"),
        "engine.eval_samples": (len(evals_ms), "count"),
    })
    return metrics


@dataclass
class Measurement:
    """Everything one timed region produced, one entry per operation."""

    outcomes: list = field(default_factory=list)
    walls: list = field(default_factory=list)       # wall seconds
    scales: list = field(default_factory=list)      # reference s per wall s
    traced: list = field(default_factory=list)      # bool
    layer_ops: list = field(default_factory=list)   # per traced operation
    evals_ms: list = field(default_factory=list)    # reference ms
    spans: list = field(default_factory=list)

    def ref_walls(self, traced: bool) -> list:
        return [w * k for w, k, t in zip(self.walls, self.scales, self.traced) if t == traced]


def measure(wl, start, seconds: float, trace: bool, steps=None) -> Measurement:
    """Repeat the workload's operation for ``seconds``.

    The host-speed probe runs between operations; each operation's scale is
    the reference time over the mean of the probes just before and after
    it.  With tracing, traced and untraced operations alternate so that
    host drift hits both alike.  Operations that raise count as failed.
    """
    import hostspeed
    import tracing
    import workloads

    m = Measurement()
    t_end = time.perf_counter() + seconds
    before = hostspeed.probe()
    while len(m.outcomes) < (2 if trace else 1) or time.perf_counter() < t_end:
        traced_op = trace and len(m.outcomes) % 2 == 1
        tracer = tracing.Tracer() if traced_op else None
        t0 = time.perf_counter()
        try:
            if traced_op:
                with tracer.installed(), tracer.span("op"):
                    outcome, counts = workloads.run_op(wl, start, steps)
            else:
                outcome, counts = workloads.run_op(wl, start, steps)
        except Exception:
            traceback.print_exc()
            m.outcomes.append(workloads.Outcome())
            continue
        wall = time.perf_counter() - t0
        after = hostspeed.probe()
        scale = 2.0 * hostspeed.REFERENCE_S / (before + after)
        before = after
        m.outcomes.append(outcome)
        m.walls.append(wall)
        m.scales.append(scale)
        m.traced.append(traced_op)
        if traced_op:
            _record_trace(m, tracer, outcome, counts, scale)
    return m


def _record_trace(m: Measurement, tracer, outcome, counts: dict, scale: float) -> None:
    import tracing
    import workloads

    arrays = tracer.arrays()
    m.spans.append(arrays)
    contacts = (tracer.counts["narrowphase.pair_contacts"]
                + tracer.counts["narrowphase.wall_contacts"])
    if contacts != counts["contacts"]:
        outcome.violations.append(
            f"traced contacts {contacts} != engine contacts {counts['contacts']}")
    op = dict(counts)
    op.update(tracer.counts)
    outcome.layer_counts = workloads.canonical(op)
    op.update({k: v * scale for k, v in tracing.layer_times(**arrays).items()})
    m.layer_ops.append(op)
    m.evals_ms.extend((1e3 * scale * tracing.eval_durations(
        arrays["code"], arrays["start"], arrays["end"])).tolist())


def run_part(args) -> dict:
    """One process of a run: set up once, measure, report as plain data."""
    _import_package()
    import numpy as np

    import hostspeed
    import workloads

    import_s = time.perf_counter() - _T0
    wl = workloads.WORKLOADS[args.workload]
    before = hostspeed.probe()
    t0 = time.perf_counter()
    start = workloads.prepare(wl, args.seed)
    setup_wall = time.perf_counter() - t0
    after = hostspeed.probe()
    setup_s = (import_s * hostspeed.REFERENCE_S / before
               + setup_wall * 2.0 * hostspeed.REFERENCE_S / (before + after))
    contacts = workloads.start_contacts(wl, start)

    m = measure(wl, start, args.seconds / PARTS, bool(args.trace))
    if m.spans:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        np.savez_compressed(
            out_dir / f"spans-{wl.name}-seed{args.seed}-part{args.part}.npz",
            op=np.concatenate([np.full(len(s["code"]), j) for j, s in enumerate(m.spans)]),
            **{key: np.concatenate([s[key] for s in m.spans]) for key in m.spans[0]})
    last = args.part == PARTS - 1
    return {
        "machine": machine_record(np),
        "start_digest": start.digest, "start_contacts": contacts,
        "setup_s": setup_s, "wall_setup_s": import_s + setup_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference_digest": workloads.reference_digest(wl, start) if last else None,
        "outcomes": [dataclasses.asdict(o) for o in m.outcomes],
        "walls": m.walls, "scales": m.scales, "traced": m.traced,
        "layer_ops": m.layer_ops, "evals_ms": m.evals_ms,
    }


def pool(parts: list, op_steps: int, trace: bool) -> dict:
    """The result line from the records of every part of a run."""
    import workloads

    outcomes = [workloads.Outcome(**o) for p in parts for o in p["outcomes"]]
    m = Measurement(outcomes=outcomes)
    for p in parts:
        m.walls += p["walls"]
        m.scales += p["scales"]
        m.traced += p["traced"]
        m.layer_ops += p["layer_ops"]
        m.evals_ms += p["evals_ms"]
    failed = len(workloads.failed_ops(outcomes, parts[-1]["reference_digest"]))
    correct = (failed == 0 and len({p["start_digest"] for p in parts}) == 1
               and all(p["start_contacts"] > 0 for p in parts))
    if trace:
        metrics = layer_metrics(m.layer_ops, m.evals_ms)
        plain = m.ref_walls(False)
        metrics["trace.overhead_ratio"] = (
            _ratio(_median(m.ref_walls(True)), _median(plain)), "ratio")
    else:
        metrics = {
            "steps_per_s": (_median(op_steps / w for w in m.ref_walls(False)), "1/s"),
            "setup_s": (_median(p["setup_s"] for p in parts), "s"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in parts), "MB"),
        }
    return {
        "correct": correct, "attempted": len(outcomes), "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(BENCH_ENV)

    if args.part is not None:
        try:
            record = run_part(args)
        except ImportError as exc:
            print(f"cannot import verletdem from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(record), flush=True)
        return 0

    parts = []
    for k in range(PARTS):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--part", str(k)],
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - _T0)))
        if child.returncode != 0:
            print(f"part {k} exited with {child.returncode}", file=sys.stderr)
            return child.returncode
        parts.append(json.loads(child.stdout.strip().splitlines()[-1]))

    _import_package()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    result = pool(parts, wl.op_steps, bool(args.trace))
    outcomes = [o for p in parts for o in p["outcomes"]]
    for i, o in enumerate(outcomes):
        for v in o["violations"]:
            print(f"operation {i}: {v}", file=sys.stderr)
    print(json.dumps({"machine": parts[0]["machine"]}), flush=True)
    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "start_digest": parts[0]["start_digest"],
        "start_contacts": parts[0]["start_contacts"],
        "wall_steps_per_s": _median(wl.op_steps / w for p in parts
                                    for w, t in zip(p["walls"], p["traced"]) if not t),
        "wall_setup_s": [p["wall_setup_s"] for p in parts],
        "op_walls_s": [p["walls"] for p in parts], "op_scales": [p["scales"] for p in parts],
    }), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
