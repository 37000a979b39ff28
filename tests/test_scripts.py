"""The scripts under scripts/: a smoke run of eigenvalue_sweep.py, and the
session's one run of run_all_scenarios.py (the `checked_runs` fixture)
with its artifacts and its --against report; and README's library quick
start."""

import json
import pathlib
import shutil

import pytest

from qbmlab import io

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"


@pytest.mark.parametrize("script, args", [
    ("eigenvalue_sweep.py", ["--nodes", "41", "--t-max", "2"]),
])
def test_script_exits_cleanly(script, args, fresh_python):
    fresh_python(SCRIPTS / script, *args)


def test_readme_library_quick_start_runs(fresh_python):
    # the documented example, run as written in a fresh interpreter: its
    # first line is the exact HPZ generator's audit verdict
    source = README.read_text().split(
        "## Quick start (library)\n\n```python\n", 1)[1].split("```", 1)[0]
    assert fresh_python("-c", source).splitlines()[0] == "NotCP"


def test_every_shipped_scenario_runs(checked_runs):
    # the fixture's run exits 0 only if every run and both twin
    # comparisons, CL/CCL and JZ/QP, pass; each run wrote what it lists
    out = checked_runs.out
    manifests = sorted(out.glob("*_manifest.json"))
    assert len(manifests) == 10
    for manifest in manifests:
        for output in json.loads(manifest.read_text())["outputs"]:
            assert pathlib.Path(output).is_file()
    for stem in ("hpz_audit", "hpz_audit_exponential", "hpz_audit_drude",
                 "hpz_audit_order3", "hpz_audit_free"):
        for artifact in ("kernel", "coefficients", "audit"):
            assert (out / f"{stem}_{artifact}.csv").is_file()
        assert (out / f"{stem}_audit.json").is_file()
        # the free particle (omega_S = 0) has no ground state to propagate
        assert (out / f"{stem}_moments.csv").is_file() \
            == (stem != "hpz_audit_free")
    assert (out / "ccl_unraveling_ensemble.csv").is_file()
    assert (out / "cl_vs_ccl_moments.csv").is_file()


def test_against_reports_each_csv_change(checked_runs, tmp_path,
                                         fresh_python):
    old, new = tmp_path / "old", tmp_path / "new"
    shutil.copytree(checked_runs.out, old)
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
    # a warning the run no longer records, and one it did not record
    manifest = old / "hpz_audit_manifest.json"
    report = json.loads(manifest.read_text())
    unstable = report["warnings"].pop(0)
    assert unstable.startswith("unstable generator: ")
    report["warnings"].append("a warning no run records")
    manifest.write_text(json.dumps(report))
    # a file a run no longer writes, and one no run of the script makes
    (old / "cl_regime_ensemble.csv").write_bytes(moments.read_bytes())
    (old / "notes.csv").write_bytes(moments.read_bytes())
    lines = fresh_python(SCRIPTS / "run_all_scenarios.py", "--out", new,
                         "--against", old).splitlines()
    assert "    qp_coupling_moments.csv: changed: mean_q 1.00e-09" in lines
    assert "    hpz_audit_audit.csv: changed: new column norm" in lines
    assert "    hpz_audit_drude_audit.json: changed: min_lambda_min, tol" \
        in lines
    assert f"    hpz_audit_kernel.csv: no {old / 'hpz_audit_kernel.csv'}" \
        in lines
    assert f"only in {old}: cl_regime_ensemble.csv" in lines
    assert not any("notes.csv" in line for line in lines)
    changes = [line for line in lines if line.startswith("  warning ")]
    assert changes == ["  warning lost: a warning no run records",
                       f"  warning new: {unstable}"]
    assert lines.index("=== hpz_audit") < lines.index(changes[0]) \
        < lines.index("=== jz_decoherence")
    # a second process writes every artifact left unedited byte for byte
    edited = {"qp_coupling_moments.csv", "hpz_audit_audit.csv",
              "hpz_audit_drude_audit.json", "hpz_audit_kernel.csv"}
    reports = dict(line.strip().split(": ", 1) for line in lines
                   if line.startswith("    "))
    assert sum(name.endswith(".csv") for name in reports) == 29
    assert sum(name.endswith("_audit.json") for name in reports) == 8
    assert {name for name, change in reports.items()
            if change != "identical"} == edited
