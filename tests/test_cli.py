import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import verletdem.cli
from verletdem.bench import Scenario, make_scenario
from verletdem.broadphase import CapNegative, SearchRadiusExceedsCell, SizeMismatch
from verletdem.cli import (
    EXIT_CONFIG, EXIT_OK, EXIT_SIMULATION, EXIT_UNSTABLE, EXIT_VALIDATION, main,
)
from verletdem.engine import SimulationUnstable
from verletdem.narrowphase import CoincidentCenters


FIVE = {"scenario": {"name": "settling-box", "n": 5, "seed": 1}}
SRC = Path(__file__).resolve().parents[1] / "src"


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

    def test_integral_float_counts_run(self, tmp_path):
        cfg = write_run_config(tmp_path / "cfg.json", steps=5.0, k_factor=100.0)
        metrics = tmp_path / "metrics.json"
        assert main(["run", "--config", cfg, "--metrics", str(metrics)]) == EXIT_OK
        doc = json.loads(metrics.read_text())
        assert (doc["total_steps"], doc["k_factor"]) == (5, 100)

    @pytest.mark.parametrize("change, message", [
        (dict(k_factor=2.5), "k_factor must be an integer, got 2.5"),
        (dict(steps=2.5), "steps must be an integer, got 2.5"),
        (dict(verlet_enabled="false"), "verlet_enabled must be True or False, got 'false'"),
    ])
    def test_config_refused_by_the_run_exits_2(self, tmp_path, capsys, monkeypatch,
                                               change, message):
        # a configuration the JSON reader did not check still exits 2
        overrides = verletdem.cli.config_overrides
        monkeypatch.setattr(verletdem.cli, "config_overrides",
                            lambda *a: dataclasses.replace(overrides(*a), **change))
        cfg = write_run_config(tmp_path / "cfg.json", steps=5)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

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

    @pytest.mark.parametrize("doc, message", [
        ([1], "bad config value: run config must be a JSON object, got [1]"),
        ({"config": {"steps": 5}}, "missing run config field(s): ['scenario']"),
        ({"scenario": 5}, "bad config value: scenario must be a JSON object, got 5"),
        ({"scenario": {"name": "settling-box", "n": 5}}, "missing scenario field(s): ['seed']"),
        ({"scenario": {"n": 5, "seed": 1}}, "missing scenario field(s): ['name']"),
        ({**FIVE, "config": "x"}, "bad config value: config must be a JSON object, got 'x'"),
        ({**FIVE, "config": {"contact": 5}},
         "bad config value: contact must be a JSON object, got 5"),
        ({**FIVE, "config": {"walls": [None]}},
         "bad config value: walls[0] must be a JSON object, got None"),
        ({**FIVE, "config": {"walls": [{"point": [0, 0, 0]}]}},
         "missing walls[0] field(s): ['outward_normal']"),
        ({**FIVE, "config": {"domain_min": [-math.inf, 0, 0]}}, "domain bounds must be finite"),
        ({**FIVE, "config": {"walls": [{"point": [0, 0, math.nan], "outward_normal": [0, 0, 1]}]}},
         "wall plane components must be finite"),
        ({**FIVE, "trajectory_every": 0}, "trajectory_every must be >= 1, got 0"),
    ], ids=["doc-non-object", "doc-missing", "scenario-non-object", "scenario-missing-seed",
            "scenario-missing-name", "config-non-object", "contact-non-object",
            "wall-non-object", "wall-missing", "domain-infinite", "wall-nan",
            "trajectory-every-zero"])
    def test_malformed_object_exits_2(self, tmp_path, capsys, doc, message):
        # the run config, its scenario and config blocks, the contact block
        # and each wall: one reader and one wording for all of them (the
        # config block is merged into a whole configuration, so no config
        # or contact key can be missing here).  A well-formed value out of
        # range exits 2 with the message of the check that refuses it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_cell_smaller_than_a_particle_exits_2(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path / "cfg.json", overrides={"cell_size": 0.009})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert ("config error: cell_size 0.009 < 2 x max radius 0.005"
                in capsys.readouterr().err)

    def test_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{broken")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {tmp_path}: ")

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

    def test_cells_beyond_int64_ids_exit_5(self, tmp_path, capsys):
        # a pull of 1e18 m/s**2 flings the hopper's particles out along -x,
        # through a domain 1e17 cells long, until the padded box of occupied
        # cells outgrows int64 ids
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scenario": {"name": "mini-hopper", "n": 20, "seed": 1},
            "config": {"gravity": [-1e18, 0.0, -9.81], "domain_min": [-1e15, 0.0, 0.0],
                       "steps": 2000},
        }))
        assert main(["run", "--config", str(path)]) == EXIT_SIMULATION
        err = capsys.readouterr().err
        assert "simulation error: SimulationError: a padded box of [" in err
        assert "cells exceeds int64 cell ids" in err and "Traceback" not in err

    @pytest.mark.parametrize("error", [CapNegative, SearchRadiusExceedsCell, SizeMismatch])
    def test_other_simulation_errors_exit_5(self, tmp_path, monkeypatch, error):
        cfg = write_run_config(tmp_path / "cfg.json")

        def explode(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr("verletdem.cli.run", explode)
        assert main(["run", "--config", cfg]) == EXIT_SIMULATION


class TestProcess:
    def test_module_exits_with_the_command_code(self, tmp_path):
        # ``python -m verletdem`` from a scratch working directory hands
        # main's return value to the process exit status
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        ok = write_run_config(tmp_path / "ok.json", n=5, steps=5)
        bad = write_run_config(tmp_path / "bad.json", n=5, steps=5, overrides={"kfactor": 5})
        for cfg, code in ((ok, EXIT_OK), (bad, EXIT_CONFIG)):
            proc = subprocess.run([sys.executable, "-m", "verletdem", "run", "--config", cfg],
                                  cwd=tmp_path, env=env, capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == code, proc.stderr
        assert "config error: unknown config field(s): ['kfactor']" in proc.stderr


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

    def test_settling_box_above_its_bound_exits_2(self, tmp_path, capsys, monkeypatch):
        # 100,000 particles fill 1,000 lattice layers, the most the box takes;
        # one more is refused before a single particle is placed
        def never(scenario):
            raise AssertionError("the particles were built")

        monkeypatch.setattr(Scenario, "build_particles", never)
        assert make_scenario("settling-box", 100_000, 1).n == 100_000
        out = tmp_path / "report.csv"
        assert main(["sweep", "--scenario", "settling-box", "--n", "100001",
                     "--seed", "1", "--k", "10", "--out", str(out)]) == EXIT_CONFIG
        assert "need 1001 lattice layers" in capsys.readouterr().err
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
