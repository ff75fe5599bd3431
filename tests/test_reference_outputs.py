"""Reference bytes: the opcount outputs of the CLI, pinned by SHA-256.

The operation counts, the trajectory and the sweep rows are deterministic,
so a refactor that keeps the behaviour contract keeps these files byte for
byte.  A digest that changes means the contract changed: re-take it only
for a change that means to move the outputs, and say so.
"""

import hashlib
import json

import pytest

from verletdem import make_scenario, run
from verletdem.cli import EXIT_OK, main

RUN_DOC = {
    "scenario": {"name": "mini-hopper", "n": 150, "seed": 42},
    "config": {"k_factor": 200, "steps": 9000},
    "trajectory_every": 500,
}
RUN_METRICS_SHA256 = "c2b56e5ab78c52e589ef3a4c09df81e849a5fb7e91033f9526fc21203beb898c"
RUN_TRAJECTORY_SHA256 = "6b05fd9bf5a2724ede351c2d00ba949c9d546dc280b021a5a12a31b7657b5a0a"

SWEEP_SHA256 = {
    "settling-box": "572c3573b7e4a24f32841b20f688cefff94fc5e5cb311c2217fe27b5082072ec",
    "mini-hopper": "80a46b9b727819c472529bdc119806b0248cec7031f4b6c2b868654ece8f08ac",
    "inclined-flow": "c7fc1f218452a636bfc4fc05c24778b395aab6fbf7145533284e8fe01cd34e9f",
}

# an unbuffered settling box past its free fall: the bed has formed and
# its particles touch each other and the floor
UNBUFFERED_CONTACTS_SHA256 = "2f3094af23d6236b4c16855003f4b4e557439a8e16e0bf99712cb766a3c93fc1"
UNBUFFERED_STATE_SHA256 = "421e986811bdec0e05446d282e3eacb5d5bdbe78324fef06d71650793cb22719"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_metrics_and_trajectory_bytes(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(RUN_DOC))
    metrics, traj = tmp_path / "metrics.json", tmp_path / "traj.csv"
    assert main(["run", "--config", str(cfg), "--metrics", str(metrics),
                 "--trajectory", str(traj)]) == EXIT_OK
    assert json.loads(metrics.read_text())["model_time"] == 116392
    assert sha256(metrics) == RUN_METRICS_SHA256
    assert sha256(traj) == RUN_TRAJECTORY_SHA256


@pytest.mark.parametrize("scenario", sorted(SWEEP_SHA256))
def test_sweep_csv_bytes(tmp_path, scenario):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", scenario, "--n", "60", "--seed", "7",
                 "--k", "0,50,200,1000", "--uniform-skin-radius",
                 "--out", str(out)]) == EXIT_OK
    assert sha256(out) == SWEEP_SHA256[scenario]


def test_unbuffered_run_contacts_and_state_bytes():
    scenario = make_scenario("settling-box", 150, 7)
    cfg = scenario.sim_config(0, verlet_enabled=False, steps=3500)
    result = run(cfg, scenario.build_particles(), record_contact_digest=True)
    m = result.metrics
    assert (m.broad_executions, m.broad_time, m.model_time) == (3501, 6432753, 8239)
    assert m.pair_list_length_sum == 2335          # every listed pair touches
    assert result.contact_digest == UNBUFFERED_CONTACTS_SHA256
    final = result.state.particles
    state = hashlib.sha256(final.position.tobytes() + final.velocity.tobytes()).hexdigest()
    assert state == UNBUFFERED_STATE_SHA256
