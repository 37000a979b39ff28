"""Smoke runs of the scripts under scripts/ at small sizes."""

import pathlib

import pytest

from qbmlab import io

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args", [
    ("eigenvalue_sweep.py", ["--nodes", "41", "--t-max", "2"]),
    ("unraveling_check.py", ["--n-traj", "256", "--t-max", "1",
                             "--store-every", "100"]),
])
def test_script_exits_cleanly(script, args, fresh_python):
    fresh_python(SCRIPTS / script, *args)


def test_every_shipped_scenario_runs(tmp_path, fresh_python):
    # includes the script's own twin comparisons, CL/CCL and JZ/QP
    fresh_python(SCRIPTS / "run_all_scenarios.py", "--out", tmp_path)


def test_against_reports_each_csv_change(tmp_path, fresh_python):
    old, new = tmp_path / "old", tmp_path / "new"
    fresh_python(SCRIPTS / "run_all_scenarios.py", "--out", old)
    moments = old / "qp_coupling_moments.csv"
    table = io.read_csv(moments)
    table.data["mean_q"] = table["mean_q"] * (1.0 + 1e-9)
    io.write_csv(moments, table)
    (old / "hpz_audit_kernel.csv").unlink()
    audit = old / "hpz_audit_audit.csv"
    table = io.read_csv(audit)
    del table.data["norm"]
    io.write_csv(audit, io.CsvTable(io.AUDIT_COLUMNS[:3], table.data,
                                    table.meta))
    lines = fresh_python(SCRIPTS / "run_all_scenarios.py", "--out", new,
                         "--against", old).splitlines()
    assert "    jz_decoherence_moments.csv: identical" in lines
    assert "    hpz_audit_coefficients.csv: identical" in lines
    assert "    qp_coupling_moments.csv: changed: mean_q 1.00e-09" in lines
    assert "    hpz_audit_audit.csv: changed: new column norm" in lines
    assert f"    hpz_audit_kernel.csv: no {old / 'hpz_audit_kernel.csv'}" \
        in lines
