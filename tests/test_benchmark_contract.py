"""The names the benchmark's tracer (perfbench/tracing.py) rebinds.

The benchmark times each layer by rebinding these module attributes from
outside the package, and counts contacts from the positional arguments of
``resolve_contacts``.  A rename, or a call that no longer goes through the
module attribute, would leave a layer silently untimed.
"""

import inspect
from collections import Counter

import verletdem.bench
import verletdem.broadphase
import verletdem.engine
from verletdem import make_scenario

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
