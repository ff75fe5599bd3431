"""The demos run to completion from a scratch working directory.

Demo 04 writes its sweep CSV into the working directory; the CSV must equal
the committed ``sweep_settling_box.csv`` byte for byte, because the opcount
sweep is deterministic.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_pair_search_demo(tmp_path):
    proc = run_demo("01_pair_search.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "identical result: True" in proc.stdout
    assert "is included: True" in proc.stdout


def test_k_sweep_demo_reproduces_committed_csv(tmp_path):
    proc = run_demo("04_k_sweep.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    written = (tmp_path / "sweep_settling_box.csv").read_bytes()
    assert written == (ROOT / "sweep_settling_box.csv").read_bytes()


def test_verlet_buffer_demo(tmp_path):
    proc = run_demo("02_verlet_buffer.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "pair in the list right after the build: True" in out
    assert "displacement at 0.9 skin -> rebuild needed: False" in out
    assert "displacement at 1.1 skin -> rebuild needed: True" in out
    assert "broad-phase executions: 1\n" in out


def test_settling_box_demo(tmp_path):
    proc = run_demo("03_settling_box.py", tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_equivalence_audit_demo(tmp_path):
    proc = run_demo("05_equivalence_audit.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "audit passed" in proc.stdout
