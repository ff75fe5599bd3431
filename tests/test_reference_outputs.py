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

# the five Particles columns of each bundled scene at seed 42: a partial
# row, a full 100-particle layer and the first point of the next one
SCENE_SHA256 = {
    ("settling-box", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("settling-box", 1): "652bc1136e871c0891d5f34a4cf7ebc0bc9cf41242f5b74a1ae9bceca5e4c11c",
    ("settling-box", 99): "32a85765a22af4eb495e472a25109b3dc523d809f195880e40ce7dc602473ee1",
    ("settling-box", 100): "483110302be2a5ede97a773935188f36d7d1f76ecb4a2528475668b236103521",
    ("settling-box", 101): "0f928b137846c1352c87abd170180fac5576b2a59b3ac289dc72da98ebc3ff39",
    ("settling-box", 500): "962714956c0d356c3f66c83e1c3c245744ecfe07a11b11859403c76beadd8958",
    ("mini-hopper", 0): "1bfa575e86f6f78a1f60f3e05dd3b8616ad8aab9f20ecff210b9562ddb38b1df",
    ("mini-hopper", 1): "80210581f3d0ce7d436ea75477ead1eba29ef7009966acf47709d68fe833df36",
    ("mini-hopper", 99): "14b07647496f11dcbb58263777c77358255ed9adff1bc74ed0f3a5c41ad81426",
    ("mini-hopper", 100): "1bfaeb13272fa9bd19d8f6db26ed63b4d56cebcc3bf3ade135fd42ba47ad230b",
    ("mini-hopper", 101): "ae171ce14e8bec99f8db42a68ac74a889275ddcfd35fada2215ed0b92f2fb2a0",
    ("mini-hopper", 500): "6f7ea498ad72b08f63c4d46e02594c0c04563a02e484e7cca10d0a7df341ba7b",
    ("inclined-flow", 0): "8257d58d452643146c47c7ceb6d595d1ebf367b649c5fb79e91a0cac1f894e6b",
    ("inclined-flow", 1): "0bc943a86d7613d289aab76c123bbdb8cdb2a7a00282733384424bf189bb9d3d",
    ("inclined-flow", 99): "b772a00092ff940ce2c07fd53ced53ef5e3917aa174487d0b3fc6ea133d184dc",
    ("inclined-flow", 100): "2d0ce12dd904396e942f3873e979baf37e95bbb1bfd1906c7c8de3d1d2b07ac5",
    ("inclined-flow", 101): "5bcc5bfc796f802e9e5fc6ff241507170af61240cd514ee509b84e8511defdad",
    ("inclined-flow", 500): "8d4ced68218c8eadb4c30530626b0d9d7790870b32cebf3809a2c128a17c5a83",
}


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


@pytest.mark.parametrize("name,n", sorted(SCENE_SHA256))
def test_scene_particle_bytes(name, n):
    p = make_scenario(name, n, 42).build_particles()
    digest = hashlib.sha256()
    for column in (p.position, p.velocity, p.radius, p.mass, p.is_static):
        digest.update(column.tobytes())
    assert digest.hexdigest() == SCENE_SHA256[name, n]
