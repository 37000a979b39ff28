"""Smoke runs of the scripts under scripts/ at small sizes."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(script, args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("script, args", [
    ("eigenvalue_sweep.py", ["--nodes", "41", "--t-max", "2"]),
    ("unraveling_check.py", ["--n-traj", "256", "--t-max", "1",
                             "--store-every", "100"]),
])
def test_script_exits_cleanly(script, args):
    _run(script, args)


def test_every_shipped_scenario_runs(tmp_path):
    # includes the script's own CL/CCL mean comparison
    _run("run_all_scenarios.py", ["--out", str(tmp_path)])
