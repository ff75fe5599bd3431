"""The names the benchmark (perfbench/) rebinds and the run record it reads.

The benchmark times each layer by rebinding these module attributes from
outside the package, and counts contacts from the positional arguments of
``resolve_contacts``.  A rename, or a call that no longer goes through the
module attribute, would leave a layer silently untimed.  Its workloads
read their operation counts from the record of a default ``run()``; a
rename there, or seconds stored in a count field, would change what the
benchmark measures without notice.
"""

import inspect
from collections import Counter

import numpy as np

import verletdem.bench
import verletdem.broadphase
import verletdem.engine
from verletdem import Particles, make_scenario

TRACED = (
    (verletdem.engine, "verlet_needs_rebuild"),
    (verletdem.engine, "resolve_contacts"),
    (verletdem.engine, "compute_forces"),
    (verletdem.engine, "velocity_verlet_step"),
    (verletdem.broadphase, "build_grid"),
    (verletdem.bench, "run"),
)


def test_traced_names_exist():
    for module, name in TRACED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_resolve_contacts_takes_candidates_particles_walls_positionally():
    params = list(inspect.signature(verletdem.engine.resolve_contacts).parameters.values())
    assert [p.name for p in params[:3]] == ["candidates", "particles", "walls"]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params[:3])


def test_every_traced_name_is_called_through_its_module(monkeypatch):
    calls = Counter()

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    for module, name in TRACED:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    report = verletdem.bench.validate_equivalence(make_scenario("mini-hopper", 20, 1), 200,
                                                  steps=20)
    assert report.ok
    assert {name for _, name in TRACED} == {name for name, n in calls.items() if n > 0}


def test_run_record_keeps_the_counts_the_workloads_read():
    # three overlapping spheres on the settling box's floor: every phase has work
    cfg = make_scenario("settling-box", 0, 1).sim_config(200, steps=20)
    pos = np.array([[0.05, 0.05, 0.0049], [0.0595, 0.05, 0.0049], [0.069, 0.05, 0.0049]])
    r = np.full(3, 0.005)
    pset = Particles(pos, np.zeros((3, 3)), r, r, np.full(3, 1e-3), np.zeros(3, bool))
    result = verletdem.engine.run(cfg, pset)
    m = result.metrics
    for name in ("broad_time", "narrow_time", "model_time"):
        value = getattr(m, name)
        assert value > 0 and float(value).is_integer(), (name, value)
    assert m.broad_executions >= 1
    assert m.force_evaluations > cfg.steps
    assert m.pair_list_length_sum >= m.force_evaluations
    assert isinstance(result.tunneling, list)
    assert result.contact_digest is None and result.shadow_misses == 0
