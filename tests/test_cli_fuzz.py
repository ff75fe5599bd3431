"""Generated CLI inputs: every outcome is a documented exit code.

``cli.main`` is driven with generated run documents, their ``config``
overrides included, and with generated ``sweep`` and ``validate``
arguments: wrong types, booleans, numeric strings, negatives, NaN and
infinities, empty or degenerate walls, unknown and missing keys, zero and
tiny steps.
Whatever the input, ``main`` must return 0, 2, 3, 4 or 5 (argparse's own
usage error exits 2 as well), and no other exception may escape.

Every case stays small, so that the test takes seconds and no input can
exhaust memory: at most 20 free particles, at most 20 steps per run (the
bundled scenarios' default step counts are cut to that), and domain bounds
either within a metre or so far out that the configuration check rejects
the domain before any grid is built.
"""

import json
import math
import os
import tempfile
import warnings
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import verletdem.cli
from verletdem.bench import SCENARIO_NAMES, make_scenario
from verletdem.cli import (
    EXIT_CONFIG, EXIT_OK, EXIT_SIMULATION, EXIT_UNSTABLE, EXIT_VALIDATION, main,
)

EXIT_CODES = {EXIT_OK, EXIT_CONFIG, EXIT_UNSTABLE, EXIT_VALIDATION, EXIT_SIMULATION}
MAX_N = 20
MAX_STEPS = 20
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def short_scenario(name, n, seed):
    """A bundled scenario whose default run is at most MAX_STEPS steps."""
    sc = make_scenario(name, n, seed)
    return replace(sc, config=replace(sc.config, steps=min(sc.config.steps, MAX_STEPS)))


def exit_code(argv) -> int:
    """``main(argv)``'s exit code; argparse's usage error counts as its exit 2."""
    with mock.patch.object(verletdem.cli, "make_scenario", short_scenario):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def run_exit_code(doc, out_dir, outputs=()) -> int:
    path = os.path.join(out_dir, "run.json")
    with open(path, "w") as fh:
        fh.write(doc if isinstance(doc, str) else json.dumps(doc))
    argv = ["run", "--config", path]
    for flag in outputs:
        argv += [flag, os.path.join(out_dir, flag.strip("-"))]
    return exit_code(argv)


# --- values ----------------------------------------------------------------

NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
JUNK = st.one_of(
    st.none(), st.booleans(), NONFINITE, st.just({}),
    st.sampled_from(["", "abc", "0.01", "1e-4", "-1", "3", "NaN", "true"]),
    st.lists(st.integers(-2, 2), max_size=4),
)


def field(valid, edge=st.nothing(), junk=JUNK):
    """Mostly a value of ``valid``, sometimes an ``edge`` value (negative,
    zero, tiny or huge) and sometimes a value of a wrong kind."""
    # one draw in six is bad: simple draws, such as 0, must stay valid
    return st.tuples(st.integers(0, 59), valid, st.one_of(edge, junk)).map(
        lambda t: t[2] if t[0] % 6 == 3 else t[1])


def unknown_key(doc, key):
    """``doc``, sometimes with the unknown field ``key``."""
    return st.tuples(doc, field(st.just(False), st.just(True), st.nothing())).map(
        lambda t: {**t[0], key: 1} if t[1] else t[0])


def missing_key(doc, keys):
    """``doc``, sometimes without one of its required fields ``keys``."""
    return st.tuples(doc, field(st.none(), st.sampled_from(keys), st.nothing())).map(
        lambda t: {k: v for k, v in t[0].items() if k != t[1]})


EXTREMES = st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300])


def vector(valid, edge=EXTREMES):
    """A 3-vector field; its components, or the list, may be malformed."""
    return field(st.lists(field(valid, edge), min_size=3, max_size=3),
                 st.lists(valid, max_size=4))


# domain components within a metre of the scenes, or so far out that no
# cell size drawn below keeps the per-axis cell count in int64
FAR = st.sampled_from([1e300, -1e300, math.inf])
WALL = field(missing_key(st.fixed_dictionaries(
    {"point": vector(st.floats(-0.1, 0.5)),
     "outward_normal": field(st.sampled_from([[0, 0, 1], [1, 0, 0], [0, -1, 0]]),
                             st.sampled_from([[0, 0, 0], [0, 0, 2], [0.6, 0.8, 1e-9]]))},
    optional={"normal": st.just([0, 0, 1])}), ("point", "outward_normal")))
CONTACT = st.dictionaries(
    st.sampled_from(["k_n", "gamma_n", "mu_s", "k_t", "k_n", "gamma_n", "kn"]),
    field(st.floats(0.0, 5000.0), st.sampled_from([-1.0, 1e308, 10 ** 400])),
    max_size=4)

CONFIG = st.fixed_dictionaries(
    # a valid step count above MAX_STEPS would run that many steps
    {"steps": field(st.integers(1, MAX_STEPS), st.sampled_from([0, -1, 2.5, -1e300]))},
    optional={
        "dt": field(st.floats(1e-6, 1e-3), st.one_of(EXTREMES, st.just(1.0))),
        "k_factor": field(st.integers(0, 5000), st.sampled_from([-1, 2.5, 2 ** 63, 10 ** 400])),
        "gravity": vector(st.floats(-20.0, 20.0)),
        "cell_size": field(st.floats(0.016, 0.1), st.one_of(EXTREMES, st.just(1e-3))),
        "domain_min": vector(st.floats(-0.5, 0.1), FAR.map(lambda v: -v)),
        "domain_max": vector(st.floats(0.1, 1.0), FAR),
        "contact": field(CONTACT),
        "walls": field(st.lists(WALL, max_size=3)),
        "verlet_enabled": field(st.booleans()),
    })

SCENARIO = missing_key(st.fixed_dictionaries(
    {"name": field(st.sampled_from(SCENARIO_NAMES), st.just("fluidized-bed")),
     "n": field(st.integers(0, MAX_N), st.sampled_from([-1, 2.5, 2 ** 31, 10 ** 400])),
     "seed": field(st.integers(0, 2 ** 64), st.sampled_from([-1, 2.5]))}),
    ("name", "n", "seed"))

RUN_DOC = unknown_key(st.fixed_dictionaries(
    {"scenario": field(unknown_key(SCENARIO, "steps"))},
    optional={
        "config": field(unknown_key(CONFIG, "seed")),
        "trajectory_every": field(st.integers(1, 30), st.sampled_from([0, -1, 2.5])),
        "mode": field(st.sampled_from(["opcount", "walltime"]), st.just("wallclock")),
    }), "events")


def cli_arg(valid, edge):
    """A command-line argument: mostly ``valid``, sometimes ``edge``."""
    return field(valid, edge, st.sampled_from(["", "abc", "1.5", "-0", " 3", "1e3", "nan"]))


def cli_int(valid):
    return cli_arg(valid.map(str), st.sampled_from(["-1", "0"]))


SCENARIO_ARG = cli_arg(st.sampled_from(SCENARIO_NAMES), st.just("fluidized-bed"))
K_LIST = cli_arg(
    st.lists(st.integers(0, 300), min_size=1, max_size=3).map(lambda ks: ",".join(map(str, ks))),
    st.sampled_from(["", ",", " , ", "abc", "1,,2", "10,x", "1.5", "-3"]))


# --- properties -------------------------------------------------------------

@FUZZ
@given(doc=field(RUN_DOC),
       outputs=st.lists(st.sampled_from(["--metrics", "--trajectory"]), unique=True))
def test_run_exits_with_a_documented_code(doc, outputs):
    with tempfile.TemporaryDirectory() as out_dir:
        assert run_exit_code(doc, out_dir, outputs) in EXIT_CODES


@FUZZ
@given(scenario=SCENARIO_ARG, n=cli_int(st.integers(0, MAX_N)),
       seed=cli_int(st.integers(0, 50)), k=st.one_of(st.none(), K_LIST, K_LIST),
       mode=cli_arg(st.sampled_from([None, "opcount", "walltime"]), st.just("wallclock")),
       uniform=st.booleans(), writable=field(st.just(True), st.just(False), st.nothing()))
def test_sweep_exits_with_a_documented_code(scenario, n, seed, k, mode, uniform, writable):
    with tempfile.TemporaryDirectory() as out_dir:
        out = os.path.join(out_dir, "sweep.csv" if writable else "missing/sweep.csv")
        argv = ["sweep", "--scenario", scenario, "--n", n, "--seed", seed, "--out", out]
        argv += [] if k is None else ["--k", k]
        argv += [] if mode is None else ["--mode", mode]
        argv += ["--uniform-skin-radius"] if uniform else []
        assert exit_code(argv) in EXIT_CODES


@FUZZ
@given(scenario=SCENARIO_ARG, n=cli_int(st.integers(0, MAX_N)),
       seed=cli_int(st.integers(0, 50)), k=cli_int(st.integers(0, 5000)),
       steps=cli_int(st.integers(1, MAX_STEPS)))
def test_validate_exits_with_a_documented_code(scenario, n, seed, k, steps):
    argv = ["validate", "--scenario", scenario, "--n", n, "--seed", seed,
            "--k", k, "--steps", steps]
    assert exit_code(argv) in EXIT_CODES


# --- defects the generated inputs found ---------------------------------------

SETTLING = {"name": "settling-box", "n": 5, "seed": 1}


FAR_DOMAIN = {"domain_min": [1e18] * 3, "domain_max": [1e18 + 1e6] * 3, "cell_size": 0.05}


@pytest.mark.parametrize("doc, code", [
    # the cell count overflowed int64: every particle shared one cell
    ({"scenario": SETTLING, "config": {"steps": 3, "domain_max": [1e300, 1e300, 1e300]}},
     EXIT_CONFIG),
    # the domain's cell count fits int64, but the particles' cell coordinates
    # relative to it overflowed build_grid's int64 cast
    ({"scenario": SETTLING, "config": {"steps": 3, **FAR_DOMAIN}}, EXIT_OK),
    # a K or a particle count beyond a float escaped as an OverflowError
    ({"scenario": SETTLING, "config": {"steps": 3, "k_factor": 10 ** 400}}, EXIT_CONFIG),
    ({"scenario": dict(SETTLING, n=10 ** 400), "config": {"steps": 3}}, EXIT_CONFIG),
    # non-finite constants were accepted
    ({"scenario": SETTLING, "config": {"steps": 3, "contact": {"gamma_n": math.nan}}},
     EXIT_CONFIG),
    ({"scenario": SETTLING, "config": {"steps": 3, "contact": {"k_n": math.inf}}}, EXIT_CONFIG),
    ({"scenario": SETTLING, "config": {"steps": 3, "dt": math.inf}}, EXIT_CONFIG),
], ids=["domain-cells-beyond-int64", "domain-far-from-particles", "huge-k", "huge-n",
        "nan-gamma_n", "inf-k_n", "inf-dt"])
def test_found_input_exits_cleanly(doc, code):
    with tempfile.TemporaryDirectory() as out_dir, warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_exit_code(doc, out_dir) == code
