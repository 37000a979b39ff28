"""Smoke runs of the scripts under scripts/ at small sizes."""

import json
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
    for variant in ("exponential", "drude", "order3"):
        for artifact in ("kernel", "coefficients", "audit", "moments"):
            assert (old / f"hpz_audit_{variant}_{artifact}.csv").exists()
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
    summary = old / "hpz_audit_drude_audit.json"
    report = json.loads(summary.read_text())
    report["min_lambda_min"] *= 2.0
    del report["tol"]
    summary.write_text(json.dumps(report))
    # a file a run no longer writes, and one no run of the script makes
    (old / "cl_regime_ensemble.csv").write_bytes(moments.read_bytes())
    (old / "notes.csv").write_bytes(moments.read_bytes())
    lines = fresh_python(SCRIPTS / "run_all_scenarios.py", "--out", new,
                         "--against", old).splitlines()
    assert "    jz_decoherence_moments.csv: identical" in lines
    assert "    hpz_audit_coefficients.csv: identical" in lines
    assert "    hpz_audit_order3_coefficients.csv: identical" in lines
    assert "    cl_regime_audit.json: identical" in lines
    assert "    qp_coupling_moments.csv: changed: mean_q 1.00e-09" in lines
    assert "    hpz_audit_audit.csv: changed: new column norm" in lines
    assert "    hpz_audit_drude_audit.json: changed: min_lambda_min, tol" \
        in lines
    assert f"    hpz_audit_kernel.csv: no {old / 'hpz_audit_kernel.csv'}" \
        in lines
    assert f"only in {old}: cl_regime_ensemble.csv" in lines
    assert not any("notes.csv" in line for line in lines)
