"""Per-layer tracing taken from outside the program.

The engine reaches its layers through names bound in ``verletdem.engine``
(and the broad-phase reaches its grid through ``verletdem.broadphase``), so
rebinding those names for the length of one operation records a span around
every call without touching the package source.  Spans live in memory as
flat lists and are written out once, when the benchmark ends.

Span names and the layer each one belongs to:

- ``op``                   one benchmark operation (opened by the runner)
- ``bench.buffered_twin``  ``verletdem.bench.run`` with ``validation=True``
- ``bench.baseline_twin``  ``verletdem.bench.run`` otherwise
- ``physics.step``         ``velocity_verlet_step``
- ``engine.evaluate``      the step's force callback (one force evaluation)
- ``broadphase.check``     ``verlet_needs_rebuild``
- ``broadphase.grid``      ``build_grid``
- ``narrowphase.resolve``  ``resolve_contacts``
- ``physics.forces``       ``compute_forces``
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import numpy as np

import verletdem.bench
import verletdem.broadphase
import verletdem.engine

SPAN_NAMES = (
    "op", "bench.buffered_twin", "bench.baseline_twin", "physics.step",
    "engine.evaluate", "broadphase.check", "broadphase.grid",
    "narrowphase.resolve", "physics.forces",
)
_CODE = {name: i for i, name in enumerate(SPAN_NAMES)}

#: The keys of :func:`layer_times`.
LAYER_SECONDS = (
    "broadphase.build_s", "broadphase.grid_s", "broadphase.check_s",
    "narrowphase.resolve_s", "physics.integrate_s", "physics.forces_s",
    "engine.self_s", "bench.buffered_twin_s", "bench.baseline_twin_s",
)


@contextlib.contextmanager
def patched(module, attr: str, make_wrapper):
    """Rebind ``module.attr`` to ``make_wrapper(original)`` for the block."""
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


class Tracer:
    """In-memory span recorder plus the counts seen at the same boundaries."""

    def __init__(self):
        self.code: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: Counter = Counter()
        self._open = [-1]

    def _enter(self, name: str) -> int:
        idx = len(self.code)
        self.code.append(_CODE[name])
        self.parent.append(self._open[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, args, kwargs)`` may count."""
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    def _count_contacts(self, contacts, args, kwargs) -> None:
        particles = args[1] if len(args) > 1 else kwargs["particles"]
        walls = args[2] if len(args) > 2 else kwargs.get("walls", ())
        wall_hits = int(np.count_nonzero(contacts.id_b < 0))
        self.counts["narrowphase.wall_contacts"] += wall_hits
        self.counts["narrowphase.pair_contacts"] += len(contacts) - wall_hits
        self.counts["narrowphase.wall_tests"] += len(particles) * len(walls)
        self.counts["narrowphase.resolve_calls"] += 1

    def _count_check(self, result, args, kwargs) -> None:
        self.counts["broadphase.check_calls"] += 1

    def _step(self, fn):
        step = self.wrap("physics.step", fn)

        def traced_step(particles, forces_t, force_eval, dt):
            return step(particles, forces_t, self.wrap("engine.evaluate", force_eval), dt)
        return traced_step

    def _twin(self, fn):
        buffered = self.wrap("bench.buffered_twin", fn)
        baseline = self.wrap("bench.baseline_twin", fn)

        def traced_run(*args, **kwargs):
            return (buffered if kwargs.get("validation") else baseline)(*args, **kwargs)
        return traced_run

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer boundary the engine and the audit call through."""
        eng = verletdem.engine
        with contextlib.ExitStack() as stack:
            stack.enter_context(patched(
                eng, "verlet_needs_rebuild",
                lambda fn: self.wrap("broadphase.check", fn, self._count_check)))
            stack.enter_context(patched(
                eng, "resolve_contacts",
                lambda fn: self.wrap("narrowphase.resolve", fn, self._count_contacts)))
            stack.enter_context(patched(
                eng, "compute_forces", lambda fn: self.wrap("physics.forces", fn)))
            stack.enter_context(patched(eng, "velocity_verlet_step", self._step))
            stack.enter_context(patched(
                verletdem.broadphase, "build_grid",
                lambda fn: self.wrap("broadphase.grid", fn)))
            stack.enter_context(patched(verletdem.bench, "run", self._twin))
            yield self

    def arrays(self) -> dict:
        return {
            "code": np.asarray(self.code, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int64),
        }


def layer_times(code, start, end, parent) -> dict:
    """Per-layer seconds for one batch of spans.

    A span's self time is its duration minus the durations of its direct
    children.  Evaluations that called ``build_grid`` rebuilt the pair list;
    the self time of the others is engine bookkeeping (and, with validation
    on, the shadow scan).  Within each run (the span enclosing the steps),
    the median of that bookkeeping is charged to every evaluation, so that
    ``build_s`` holds the rest of the rebuilding evaluations' self time plus
    the grid: the pair search.  A run that rebuilt at every evaluation has
    no bookkeeping estimate, and its bookkeeping counts in ``build_s``.
    """
    code = np.asarray(code, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    covered = np.zeros(len(dur))
    np.add.at(covered, parent[child], dur[child])
    self_time = dur - covered

    def total(name, values=dur):
        return float(values[code == _CODE[name]].sum())

    rebuilt = np.zeros(len(dur), dtype=bool)
    rebuilt[parent[(code == _CODE["broadphase.grid"]) & child]] = True
    evals = np.flatnonzero(code == _CODE["engine.evaluate"])
    run_of = parent[parent[evals]]          # evaluate -> physics.step -> run
    build_s = engine_s = 0.0
    for run in np.unique(run_of):
        mine = evals[run_of == run]
        quiet = self_time[mine[~rebuilt[mine]]]
        busy = self_time[mine[rebuilt[mine]]]
        bookkeeping = float(np.median(quiet)) if len(quiet) else 0.0
        build_s += float((busy - bookkeeping).sum())
        engine_s += float(quiet.sum()) + bookkeeping * len(busy)
    grid_s = total("broadphase.grid")
    return {
        "broadphase.build_s": build_s + grid_s,
        "broadphase.grid_s": grid_s,
        "broadphase.check_s": total("broadphase.check"),
        "narrowphase.resolve_s": total("narrowphase.resolve"),
        "physics.integrate_s": total("physics.step", self_time),
        "physics.forces_s": total("physics.forces"),
        "engine.self_s": engine_s,
        "bench.buffered_twin_s": total("bench.buffered_twin"),
        "bench.baseline_twin_s": total("bench.baseline_twin"),
    }


def eval_durations(code, start, end) -> np.ndarray:
    """Wall time of every force evaluation made through the step callback."""
    code = np.asarray(code, dtype=np.int64)
    is_eval = code == _CODE["engine.evaluate"]
    return np.asarray(end, dtype=np.float64)[is_eval] - np.asarray(start, dtype=np.float64)[is_eval]
