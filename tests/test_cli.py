import json

import pytest

from verletdem.bench import Scenario
from verletdem.broadphase import CapNegative, SearchRadiusExceedsCell, SizeMismatch
from verletdem.cli import (
    EXIT_CONFIG, EXIT_OK, EXIT_SIMULATION, EXIT_UNSTABLE, EXIT_VALIDATION, main,
)
from verletdem.engine import SimulationUnstable
from verletdem.narrowphase import CoincidentCenters


def write_run_config(path, n=20, steps=150, k_factor=100, extra=None,
                     overrides=None):
    doc = {
        "scenario": {"name": "settling-box", "n": n, "seed": 3},
        "config": {"steps": steps, "k_factor": k_factor, **(overrides or {})},
    }
    if extra:
        doc.update(extra)
    path.write_text(json.dumps(doc))
    return str(path)


class TestRunCommand:
    def test_run_writes_metrics_and_trajectory(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path / "cfg.json")
        metrics = tmp_path / "metrics.json"
        traj = tmp_path / "traj.csv"
        code = main(["run", "--config", cfg, "--metrics", str(metrics),
                     "--trajectory", str(traj)])
        assert code == EXIT_OK
        doc = json.loads(metrics.read_text())
        assert doc["total_steps"] == 150
        assert doc["mode"] == "opcount"
        header = traj.read_text().splitlines()[0]
        assert header == "step,id,x,y,z,vx,vy,vz"
        assert "run complete" in capsys.readouterr().out

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        cfg = write_run_config(tmp_path / "cfg.json")
        outs = []
        for tag in ("a", "b"):
            metrics = tmp_path / f"metrics_{tag}.json"
            traj = tmp_path / f"traj_{tag}.csv"
            assert main(["run", "--config", cfg, "--metrics", str(metrics),
                         "--trajectory", str(traj)]) == EXIT_OK
            outs.append((metrics.read_bytes(), traj.read_bytes()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag", ["--metrics", "--trajectory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, flag):
        cfg = write_run_config(tmp_path / "cfg.json", steps=5)
        out = str(tmp_path / "missing" / "out")
        assert main(["run", "--config", cfg, flag, out]) == EXIT_CONFIG
        assert f"config error: cannot write {out}: " in capsys.readouterr().err

    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path / "cfg.json", extra={"trajectoryy": 1})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_override_key_exits_2(self, tmp_path):
        cfg = write_run_config(tmp_path / "cfg.json", overrides={"kfactor": 5})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("overrides", [
        {"contact": {"k_n": "abc"}},
        {"contact": {"k_n": [1, 2]}},
        {"walls": [{"point": "xyz", "outward_normal": [0, 0, 1]}]},
        {"verlet_enabled": "false"},
        {"k_factor": 1.9},
        {"steps": 50.7},
        {"dt": "0.0001"},
        {"dt": True},
        {"contact": {"k_n": True}},
        {"gravity": ["0", "0", "-9.81"]},
        0, [], "", False, None, 5,
    ])
    def test_bad_override_value_exits_2(self, tmp_path, capsys, overrides):
        # an object is merged into the config block; anything else is the block
        if isinstance(overrides, dict):
            cfg = write_run_config(tmp_path / "cfg.json", overrides=overrides)
        else:
            cfg = write_run_config(tmp_path / "cfg.json", extra={"config": overrides})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "config error: bad config value" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        {"scenario": {"name": "settling-box", "n": 20.9, "seed": 3}},
        {"scenario": {"name": "settling-box", "n": 20, "seed": True}},
        {"trajectory_every": 2.5},
    ])
    def test_non_integer_run_doc_value_exits_2(self, tmp_path, capsys, change):
        cfg = write_run_config(tmp_path / "cfg.json", extra=change)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "config error: bad config value" in capsys.readouterr().err

    def test_negative_scenario_seed_exits_2(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path / "cfg.json", n=5, steps=5,
                               extra={"scenario": {"name": "settling-box", "n": 5, "seed": -1}})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "config error: scenario seed must be >= 0, got -1" in capsys.readouterr().err

    def test_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{broken")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_unknown_scenario_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"scenario": {"name": "nope", "n": 5, "seed": 1}}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_instability_exits_3(self, tmp_path, monkeypatch):
        cfg = write_run_config(tmp_path / "cfg.json")

        def explode(*args, **kwargs):
            raise SimulationUnstable(17, 4)

        monkeypatch.setattr("verletdem.cli.run", explode)
        assert main(["run", "--config", cfg]) == EXIT_UNSTABLE

    def test_coincident_centers_exits_5(self, tmp_path, monkeypatch, capsys):
        cfg = write_run_config(tmp_path / "cfg.json")
        build = Scenario.build_particles

        def stacked(self):
            pset = build(self)
            pset.position[1] = pset.position[0]
            return pset

        monkeypatch.setattr(Scenario, "build_particles", stacked)
        assert main(["run", "--config", cfg]) == EXIT_SIMULATION
        err = capsys.readouterr().err
        assert "CoincidentCenters" in err and "particles 0 and 1" in err

    @pytest.mark.parametrize("error", [CapNegative, SearchRadiusExceedsCell, SizeMismatch])
    def test_other_simulation_errors_exit_5(self, tmp_path, monkeypatch, error):
        cfg = write_run_config(tmp_path / "cfg.json")

        def explode(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr("verletdem.cli.run", explode)
        assert main(["run", "--config", cfg]) == EXIT_SIMULATION


class TestSweepCommand:
    def test_sweep_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["sweep", "--scenario", "settling-box", "--n", "0",
                     "--seed", "1", "--k", "0,10", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "k,total,broad,narrow,model,broad_executed_pct,mean_pairs,improvement_pct"
        assert len(lines) == 4    # header + baseline + 2 K rows
        assert "sweep complete" in capsys.readouterr().out

    def test_walltime_sweep_exits_0(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["sweep", "--scenario", "settling-box", "--n", "5", "--seed", "1",
                     "--k", "50", "--mode", "walltime", "--out", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["-1", "50"]
        assert all(float(row.split(",")[1]) > 0 for row in rows)

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "report.csv")
        assert main(["sweep", "--scenario", "settling-box", "--n", "0",
                     "--seed", "1", "--k", "0", "--out", out]) == EXIT_CONFIG
        assert f"config error: cannot write {out}: " in capsys.readouterr().err

    def test_bad_k_list_exits_2(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["sweep", "--scenario", "settling-box", "--n", "0",
                     "--seed", "1", "--k", "10,abc", "--out", str(out)]) == EXIT_CONFIG

    def test_empty_k_list_exits_2(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["sweep", "--scenario", "settling-box", "--n", "3",
                     "--seed", "1", "--k", "", "--out", str(out)]) == EXIT_CONFIG
        assert "config error: K list is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_k_exits_2(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["sweep", "--scenario", "settling-box", "--n", "0",
                     "--seed", "1", "--k", "-5", "--out", str(out)]) == EXIT_CONFIG

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["sweep", "--scenario", "settling-box", "--n", "5",
                     "--seed", "-1", "--k", "10", "--out", str(out)]) == EXIT_CONFIG
        assert "config error: scenario seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestValidateCommand:
    def test_validate_passes_on_small_scene(self, capsys):
        code = main(["validate", "--scenario", "settling-box", "--n", "30",
                     "--seed", "5", "--k", "100", "--steps", "300"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "shadow scan misses:       0" in out
        assert "validation passed" in out

    def test_negative_seed_exits_2(self, capsys):
        assert main(["validate", "--scenario", "settling-box", "--n", "5",
                     "--seed", "-1", "--k", "10", "--steps", "5"]) == EXIT_CONFIG
        assert "config error: scenario seed must be >= 0, got -1" in capsys.readouterr().err

    def test_validation_failure_exits_4(self, monkeypatch, capsys):
        from verletdem.bench import EquivalenceReport

        fake = EquivalenceReport(
            scenario="settling-box", n=1, seed=1, k_factor=1, steps=1,
            shadow_misses=3, shadow_examples=((7, 0, 1),),
            contact_history_match=False, final_state_match=True,
            broad_executions_buffered=1, broad_executions_baseline=1,
            force_evaluations=2,
        )
        monkeypatch.setattr("verletdem.cli.validate_equivalence",
                            lambda *a, **k: fake)
        code = main(["validate", "--scenario", "settling-box", "--n", "1",
                     "--seed", "1", "--k", "1", "--steps", "1"])
        assert code == EXIT_VALIDATION
        assert "VALIDATION FAILED" in capsys.readouterr().out
