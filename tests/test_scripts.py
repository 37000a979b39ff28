"""Smoke runs of the scripts under scripts/ at small sizes."""

import os
import pathlib
import subprocess
import sys

import pytest

from qbmlab import io

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(script, args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


@pytest.mark.parametrize("script, args", [
    ("eigenvalue_sweep.py", ["--nodes", "41", "--t-max", "2"]),
    ("unraveling_check.py", ["--n-traj", "256", "--t-max", "1",
                             "--store-every", "100"]),
])
def test_script_exits_cleanly(script, args):
    _run(script, args)


def test_every_shipped_scenario_runs(tmp_path):
    # includes the script's own twin comparisons, CL/CCL and JZ/QP
    _run("run_all_scenarios.py", ["--out", str(tmp_path)])


def test_against_reports_each_csv_change(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    _run("run_all_scenarios.py", ["--out", str(old)])
    moments = old / "qp_coupling_moments.csv"
    table = io.read_csv(moments)
    table.data["mean_q"] = table["mean_q"] * (1.0 + 1e-9)
    del table.meta["tool_version"]
    io.write_csv(moments, table)
    (old / "hpz_audit_kernel.csv").unlink()
    audit = old / "hpz_audit_audit.csv"
    table = io.read_csv(audit)
    del table.data["norm"], table.meta["tool_version"]
    io.write_csv(audit, io.CsvTable(io.AUDIT_COLUMNS[:3], table.data,
                                    table.meta))
    lines = _run("run_all_scenarios.py", ["--out", str(new), "--against",
                                          str(old)]).splitlines()
    assert "    jz_decoherence_moments.csv: identical" in lines
    assert "    hpz_audit_coefficients.csv: identical" in lines
    assert "    qp_coupling_moments.csv: changed: mean_q 1.00e-09" in lines
    assert "    hpz_audit_audit.csv: changed: new column norm" in lines
    assert f"    hpz_audit_kernel.csv: no {old / 'hpz_audit_kernel.csv'}" \
        in lines
