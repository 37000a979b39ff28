"""Scenario parsing and the command-line pipelines."""

import json
import pathlib

import numpy as np
import pytest

from qbmlab import io
from qbmlab.cli import main, run_scenario
from qbmlab.scenario import (
    ScenarioError,
    parse_scenario,
    scenario_from_dict,
    scenario_hash,
    scenario_to_json,
)

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL_JZ = {
    "system": {"m": 1.0, "omega_S": 1.0},
    "bath": {"gamma": 0.1, "T": 2.0},
    "equation": {"variant": "jz"},
    "run": {"t_span": [0.0, 1.0], "dt": 0.01},
}


def _write(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# ------------------------------------------------------------ parsing

def test_minimal_scenario_fills_defaults(tmp_path):
    scenario = parse_scenario(_write(tmp_path, MINIMAL_JZ))
    assert scenario.name == "scenario"
    assert scenario.units.hbar == 1.0 and scenario.units.k_B == 1.0
    assert scenario.bath.cutoff == "sharp"
    assert scenario.bath.quad_tol == 1e-8
    assert scenario.equation.order == 1
    assert scenario.run.outputs == ("moments",)
    assert scenario.run.store_every == 1
    assert scenario.state.kind == "coherent"
    assert scenario.state.mean_q == 0.0
    assert scenario.stochastic is None


def test_missing_keys_reported_together():
    broken = {
        "system": {"m": 1.0},
        "bath": {"gamma": 0.1},
        "equation": {"variant": "jz"},
    }
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(broken)
    text = str(exc.value)
    assert "system: missing required key 'omega_S'" in text
    assert "bath: missing required key 'T'" in text
    assert "missing required block 'run'" in text


def test_negative_temperature_names_the_field():
    bad = json.loads(json.dumps(MINIMAL_JZ))
    bad["bath"]["T"] = -2.0
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(bad)
    assert exc.value.messages == ["bath.T: must be > 0, got -2"]


def test_unknown_keys_rejected_only_in_strict_mode():
    extra = json.loads(json.dumps(MINIMAL_JZ))
    extra["bath"]["Lambda"] = 3.0
    extra["typo_block"] = {}
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(extra)
    text = str(exc.value)
    assert "bath: unknown keys: Lambda" in text
    assert "unknown keys: typo_block" in text
    scenario = scenario_from_dict(extra, strict=False)
    assert scenario.bath.gamma == 0.1


def test_type_errors_are_collected():
    bad = json.loads(json.dumps(MINIMAL_JZ))
    bad["system"]["m"] = "heavy"
    bad["run"]["t_span"] = [0.0]
    bad["run"]["dt"] = True
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(bad)
    text = str(exc.value)
    assert "system.m: expected a number" in text
    assert "run.t_span: expected [number, number]" in text
    assert "run.dt: expected a number" in text


def test_variant_specific_requirements(tmp_path, capsys):
    qp = json.loads(json.dumps(MINIMAL_JZ))
    qp["equation"]["variant"] = "qp"
    with pytest.raises(ScenarioError, match="requires 'mu'"):
        scenario_from_dict(qp)

    hpz = json.loads(json.dumps(MINIMAL_JZ))
    hpz["equation"]["variant"] = "hpz"
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(hpz)
    assert "bath.Omega: required" in str(exc.value)
    assert "equation.coefficient_grid: required" in str(exc.value)

    short = json.loads(json.dumps(MINIMAL_JZ))
    short["equation"] = {"variant": "hpz",
                         "coefficient_grid": {"t_max": 0.5, "n": 11}}
    short["bath"]["Omega"] = 10.0
    with pytest.raises(ScenarioError, match="must cover"):
        scenario_from_dict(short)
    # t_max covers t1 exactly when the table lookup at t1 does: on a
    # picosecond grid an absolute 1e-12 of slack would pass t1 = 2e-12
    short["equation"]["coefficient_grid"]["t_max"] = 1.5e-12
    short["run"] = {"t_span": [0.0, 2e-12], "dt": 1e-14}
    path = _write(tmp_path, short)
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert "must cover" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_ensemble_requirements():
    bad = json.loads(json.dumps(MINIMAL_JZ))
    bad["run"]["outputs"] = ["ensemble"]
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(bad)
    assert exc.value.messages == [
        "scenario: ensemble output requires a 'stochastic' block"]

    # CL has no Lindblad form: its Kossakowski matrix is not PSD
    bad["equation"]["variant"] = "cl"
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(bad)
    assert "'cl' generator has no linear unraveling" in str(exc.value)
    assert "lambda_min = -" in str(exc.value)

    bad["equation"] = {"variant": "hpz",
                       "coefficient_grid": {"t_max": 1.0, "n": 11}}
    bad["bath"]["Omega"] = 10.0
    with pytest.raises(ScenarioError, match="'hpz' is tabulated"):
        scenario_from_dict(bad)


ENSEMBLE = {
    "system": {"m": 1.0, "omega_S": 1.0},
    "bath": {"gamma": 0.05, "T": 2.0},
    "state": {"kind": "coherent", "mean_q": 0.3},
    "run": {"t_span": [0.0, 0.2], "dt": 0.01, "store_every": 5,
            "outputs": ["ensemble"]},
    "stochastic": {"n_traj": 100, "seed": 3},
}


@pytest.mark.parametrize("equation", [{"variant": "jz"},
                                      {"variant": "qp", "mu": 0.3}],
                         ids=["jz", "qp"])
def test_rank_one_variants_run_ensembles(tmp_path, equation):
    path = _write(tmp_path, {**ENSEMBLE, "name": "rank1",
                             "equation": equation})
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 0
    vs = io.read_csv(tmp_path / "rank1_ensemble_vs_ode.csv")
    for name in ("mean_q", "mean_p", "s_qq", "s_pp", "s_qp"):
        assert np.all(vs[f"{name}_abs_dev"]
                      <= 5.0 * vs[f"{name}_se"] + 1e-12), name


def test_unrealizable_noise_fails_validation(tmp_path):
    # D = 4 m gamma kB T / hbar^2 = 0.4 for the ccl generator
    payload = {**ENSEMBLE, "equation": {"variant": "ccl"},
               "stochastic": {**ENSEMBLE["stochastic"], "S_scalar": 0.5}}
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(payload)
    assert exc.value.messages == [
        "stochastic.S_scalar: |S_scalar| = 0.5 must be <= the noise rate "
        "D = 0.4"]
    path = _write(tmp_path, payload, "noisy.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))


def test_shipped_scenarios_parse_and_round_trip():
    scenario_dir = pathlib.Path(__file__).resolve().parent.parent \
        / "scenarios"
    for name in ("jz_decoherence", "cl_regime", "cl_vs_ccl",
                 "ccl_unraveling", "hpz_audit", "qp_coupling"):
        scenario = parse_scenario(scenario_dir / f"{name}.json")
        assert scenario.name == name
        again = scenario_from_dict(json.loads(scenario_to_json(scenario)))
        assert again == scenario
        assert scenario_hash(again) == scenario_hash(scenario)


@pytest.mark.parametrize("path", sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "scenarios")
    .glob("*.json")), ids=lambda path: path.stem)
def test_shipped_scenarios_record_no_runtime_warnings(tmp_path, path):
    manifest = run_scenario(parse_scenario(path), out_dir=str(tmp_path))
    # numpy's floating-point RuntimeWarnings read "... encountered in ..."
    assert not any("encountered in" in w for w in manifest.warnings)


def test_scenario_hash_tracks_content():
    a = scenario_from_dict(MINIMAL_JZ)
    changed = json.loads(json.dumps(MINIMAL_JZ))
    changed["bath"]["T"] = 3.0
    b = scenario_from_dict(changed)
    assert scenario_hash(a) != scenario_hash(b)


# ------------------------------------------------------------ pipelines

def test_run_scenario_writes_listed_outputs(tmp_path):
    scenario = scenario_from_dict({**MINIMAL_JZ, "name": "demo"})
    manifest = run_scenario(scenario, out_dir=str(tmp_path))
    assert manifest.scenario_name == "demo"
    assert len(manifest.outputs) == 1
    moments = io.read_csv(manifest.outputs[0])
    assert moments.columns == ("t", "mean_q", "mean_p", "s_qq", "s_pp",
                               "s_qp", "rs_witness")
    assert moments.meta["scenario_sha256"] == manifest.scenario_sha256
    # pure diffusion at m = omega_S = 1: d(s_qq + s_pp)/dt = 4 gamma kB T
    t = moments["t"]
    spread = moments["s_qq"] + moments["s_pp"]
    assert np.allclose(spread, 1.0 + 0.8 * t, rtol=1e-8, atol=1e-10)
    manifest_payload = json.loads(
        (tmp_path / "demo_manifest.json").read_text())
    assert manifest_payload["outputs"] == manifest.outputs


def test_cli_jz_and_compare_paths(tmp_path):
    path = _write(tmp_path, {**MINIMAL_JZ, "name": "jzrun"}, "jz.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 0
    moments = tmp_path / "jzrun_moments.csv"
    assert moments.exists()
    assert main(["--compare", str(moments), str(moments)]) == 0

    # push one column off and require a failing exit code
    table = io.read_csv(moments)
    table.data["s_pp"] = table["s_pp"] + 1e-3
    other = tmp_path / "shifted.csv"
    io.write_csv(other, table)
    assert main(["--compare", str(moments), str(other),
                 "--atol", "1e-6"]) == 3
    assert main(["--compare", str(moments), str(other),
                 "--atol", "1e-2"]) == 0
    assert main(["--compare", str(moments), str(other),
                 "--columns", "mean_q,mean_p", "--atol", "1e-12"]) == 0


def test_cli_compare_header_only_files_exits_2(tmp_path, capsys):
    empty = np.zeros(0)
    path = tmp_path / "empty.csv"
    io.write_csv(path, io.CsvTable(columns=("t", "x"),
                                   data={"t": empty, "x": empty}))
    assert main(["--compare", str(path), str(path)]) == 2
    assert "no rows to compare" in capsys.readouterr().err


def test_cli_validation_failures(tmp_path):
    bad = json.loads(json.dumps(MINIMAL_JZ))
    bad["bath"]["T"] = -1.0
    path = _write(tmp_path, bad, "bad.json")
    assert main(["--scenario", str(path)]) == 2
    assert main(["--scenario", str(tmp_path / "absent.json")]) == 2
    assert main([]) == 2
    assert main(["--scenario", str(path), "--compare", "a", "b"]) == 2
    nonjson = tmp_path / "x.json"
    nonjson.write_text("{broken")
    assert main(["--scenario", str(nonjson)]) == 2


def test_cli_strict_flag(tmp_path):
    extra = json.loads(json.dumps(MINIMAL_JZ))
    extra["bath"]["Lambda"] = 1.0
    path = _write(tmp_path, extra, "extra.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert main(["--scenario", str(path), "--out", str(tmp_path),
                 "--no-strict"]) == 0


def test_cli_qp_audit_is_rank_one(tmp_path):
    payload = json.loads(json.dumps(MINIMAL_JZ))
    payload["name"] = "mini_qp"
    payload["equation"] = {"variant": "qp", "mu": 0.3}
    payload["run"]["outputs"] = ["moments", "audit"]
    path = _write(tmp_path, payload)
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 0
    audit = json.loads((tmp_path / "mini_qp_audit.json").read_text())
    assert audit["verdict"] == "CP-semigroup-form"
    assert "rank-1" in audit["flags"]
    assert audit["first_violation_time"] is None


def test_cli_hpz_pipeline_and_audit(tmp_path):
    payload = {
        "name": "mini_hpz",
        "system": {"m": 1.0, "omega_S": 1.0},
        "bath": {"gamma": 0.1, "T": 10.0, "Omega": 20.0},
        "equation": {"variant": "hpz",
                     "coefficient_grid": {"t_max": 2.0, "n": 81}},
        "run": {"t_span": [0.0, 2.0], "dt": 0.01, "store_every": 20,
                "outputs": ["kernel", "coefficients", "audit", "moments"]},
    }
    path = _write(tmp_path, payload, "hpz.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 0
    audit = json.loads((tmp_path / "mini_hpz_audit.json").read_text())
    assert audit["verdict"] == "NotCP"
    assert audit["first_violation_time"] > 0.0
    assert set(audit) == {"verdict", "tol", "first_violation_time", "flags",
                          "n_times", "min_lambda_min", "max_norm"}
    assert audit["n_times"] == 81
    manifest = json.loads((tmp_path / "mini_hpz_manifest.json").read_text())
    assert any("NotCP" in w for w in manifest["warnings"])
    assert len(manifest["outputs"]) == 5
    health = manifest["kernel_health"]
    assert health["nodes"] == 81 and health["quad_fallbacks"] == 0
    assert 0.0 <= health["worst_err_over_target"] <= 1.0

    # the exported coefficient table feeds the auditor again
    table = io.read_csv(tmp_path / "mini_hpz_coefficients.csv")
    from qbmlab.positivity import audit_cp
    report = audit_cp(io.coefficients_from_table(table))
    assert report.verdict == "NotCP"

    # the CSV holds every per-time number of the scan, bit for bit
    csv_audit = io.read_csv(tmp_path / "mini_hpz_audit.csv")
    assert csv_audit.columns == io.AUDIT_COLUMNS \
        == ("t", "lambda_min", "det", "norm")
    assert csv_audit["t"].size == 81
    assert np.array_equal(csv_audit["t"], table["t"])
    for column in ("lambda_min", "det", "norm"):
        assert np.array_equal(csv_audit[column], getattr(report, column))
    assert np.min(csv_audit["lambda_min"]) == audit["min_lambda_min"]
    assert np.max(csv_audit["norm"]) == audit["max_norm"]


def _reject_constant(name):
    raise ValueError(f"manifest holds {name}, which is not JSON")


def test_cli_hpz_zero_coupling_manifest_is_strict_json(tmp_path):
    payload = {
        "name": "uncoupled",
        "system": {"m": 1.0, "omega_S": 1.0},
        "bath": {"gamma": 0.0, "T": 10.0, "Omega": 20.0},
        "equation": {"variant": "hpz",
                     "coefficient_grid": {"t_max": 1.0, "n": 21}},
        "run": {"t_span": [0.0, 1.0], "dt": 0.01},
    }
    path = _write(tmp_path, payload, "uncoupled.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "uncoupled_manifest.json").read_text()
    manifest = json.loads(text, parse_constant=_reject_constant)
    assert manifest["kernel_health"]["worst_err_over_target"] == 0.0
    assert manifest["kernel_health"]["quad_fallbacks"] == 0
    assert not any("invalid value" in w for w in manifest["warnings"])


def test_dressing_order_above_three_rejected_up_front(tmp_path):
    payload = {
        "system": {"m": 1.0, "omega_S": 1.0},
        "bath": {"gamma": 0.1, "T": 10.0, "Omega": 20.0},
        "equation": {"variant": "hpz", "order": 4,
                     "coefficient_grid": {"t_max": 1.0, "n": 11}},
        "run": {"t_span": [0.0, 1.0], "dt": 0.01},
    }
    with pytest.raises(ScenarioError, match="equation.order"):
        scenario_from_dict(payload)
    path = _write(tmp_path, payload, "order4.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))


def test_non_finite_kernel_exits_as_numerical_failure(tmp_path,
                                                      monkeypatch):
    from qbmlab import bath

    payload = {
        "system": {"m": 1.0, "omega_S": 1.0},
        "bath": {"gamma": 0.1, "T": 10.0, "cutoff": "exponential",
                 "Omega": 1e110},
        "equation": {"variant": "hpz",
                     "coefficient_grid": {"t_max": 1.0, "n": 11}},
        "run": {"t_span": [0.0, 1.0], "dt": 0.01},
    }
    # Omega^3 overflows a float in the closed-form odd part
    path = _write(tmp_path, payload, "overflow.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 3

    zero_temperature = bath._zero_temperature
    monkeypatch.setattr(bath, "_zero_temperature",
                        lambda spec, tau: (zero_temperature(spec, tau)[0],
                                           np.full(np.shape(tau), np.inf)))
    payload["bath"]["Omega"] = 20.0
    path = _write(tmp_path, payload, "inf.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 3


def test_overflowing_dressing_exits_as_numerical_failure(tmp_path, capsys):
    payload = {
        "name": "huge_coupling",
        "system": {"m": 1.0, "omega_S": 1.0},
        "bath": {"gamma": 1e120, "T": 10.0, "Omega": 20.0},
        "equation": {"variant": "hpz", "order": 3,
                     "coefficient_grid": {"t_max": 1.0, "n": 51}},
        "run": {"t_span": [0.0, 1.0], "dt": 0.01,
                "outputs": ["coefficients", "moments"]},
    }
    # valid input: the order-3 table (~ gamma^3) overflows a float
    path = _write(tmp_path, payload, "huge.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 3
    assert "order-3" in capsys.readouterr().err
    assert not (tmp_path / "huge_coupling_coefficients.csv").exists()


def test_non_finite_numbers_fail_validation(tmp_path, capsys):
    # json.load accepts NaN and Infinity; neither may reach the numerics
    for block, key, value in (("bath", "T", float("nan")),
                              ("run", "dt", float("inf"))):
        payload = json.loads(json.dumps(MINIMAL_JZ))
        payload[block][key] = value
        path = _write(tmp_path, payload, f"{key}.json")
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert f"{block}.{key}: expected a number" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_step_count_beyond_a_float_exits_2(tmp_path, capsys):
    payload = {**MINIMAL_JZ, "run": {"t_span": [0.0, 1e300], "dt": 1e-10}}
    path = _write(tmp_path, payload, "endless.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert "span / dt must be finite" in capsys.readouterr().err
    # e^{2 r} of a squeezed state beyond a float is bad input too
    payload = json.loads((SCENARIOS / "cl_regime.json").read_text())
    payload["state"] = {"kind": "squeezed", "r": 400}
    path = _write(tmp_path, payload, "oversqueezed.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert "squeeze parameter r" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_step_count_beyond_an_index_exits_2(tmp_path, capsys):
    payload = {**MINIMAL_JZ, "run": {"t_span": [0.0, 1.0], "dt": 1e-15}}
    path = _write(tmp_path, payload, "endless.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert "1e+15 steps, more than a step plan can index" \
        in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_hpz_run_starting_before_zero_fails_validation(tmp_path):
    payload = {
        "system": {"m": 1.0, "omega_S": 1.0},
        "bath": {"gamma": 0.1, "T": 10.0, "Omega": 20.0},
        "equation": {"variant": "hpz",
                     "coefficient_grid": {"t_max": 1.0, "n": 11}},
        "run": {"t_span": [-0.5, 1.0], "dt": 0.01,
                "outputs": ["kernel", "coefficients", "moments"]},
    }
    with pytest.raises(ScenarioError, match="run.t_span"):
        scenario_from_dict(payload)
    path = _write(tmp_path, payload, "early.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))


def test_moments_and_ensemble_integrate_the_ode_once(tmp_path, monkeypatch):
    from qbmlab import cli

    integrate = cli.integrate_moments
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate_moments", counted)
    payload = {
        "name": "once",
        "system": {"m": 1.0, "omega_S": 1.0},
        "bath": {"gamma": 0.05, "T": 2.0},
        "state": {"kind": "coherent", "mean_q": 0.3},
        "equation": {"variant": "ccl"},
        "run": {"t_span": [0.0, 0.2], "dt": 0.01, "store_every": 5,
                "outputs": ["moments", "ensemble"]},
        "stochastic": {"n_traj": 20, "seed": 3},
    }
    path = _write(tmp_path, payload, "once.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    moments = io.read_csv(tmp_path / "once_moments.csv")
    vs = io.read_csv(tmp_path / "once_ensemble_vs_ode.csv")
    for name in ("mean_q", "mean_p", "s_qq", "s_pp", "s_qp"):
        assert np.array_equal(vs[f"{name}_ode"], moments[name])


def test_cli_ensemble_pipeline(tmp_path):
    payload = {
        "name": "mini_sse",
        "system": {"m": 1.0, "omega_S": 1.0},
        "bath": {"gamma": 0.05, "T": 2.0},
        "state": {"kind": "coherent", "mean_q": 0.3},
        "equation": {"variant": "ccl"},
        "run": {"t_span": [0.0, 0.5], "dt": 0.01, "store_every": 10,
                "outputs": ["ensemble"]},
        "stochastic": {"n_traj": 50, "seed": 7},
    }
    path = _write(tmp_path, payload, "sse.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path),
                 "--threads", "2"]) == 0
    # --threads still parses and changes nothing
    assert main(["--scenario", str(path), "--out", str(tmp_path / "o1")]) == 0
    assert (tmp_path / "mini_sse_ensemble.csv").read_bytes() \
        == (tmp_path / "o1" / "mini_sse_ensemble.csv").read_bytes()
    ens = io.read_csv(tmp_path / "mini_sse_ensemble.csv")
    assert ens.columns == (
        "t", "mean_q", "se_mean_q", "mean_p", "se_mean_p", "s_qq", "se_s_qq",
        "s_pp", "se_s_pp", "s_qp", "se_s_qp", "norm2", "se_norm2", "alive")
    assert np.all(ens["alive"] == 50)
    vs = io.read_csv(tmp_path / "mini_sse_ensemble_vs_ode.csv")
    assert vs.columns == (
        "t",
        "mean_q_mc", "mean_q_ode", "mean_q_abs_dev", "mean_q_se",
        "mean_p_mc", "mean_p_ode", "mean_p_abs_dev", "mean_p_se",
        "s_qq_mc", "s_qq_ode", "s_qq_abs_dev", "s_qq_se",
        "s_pp_mc", "s_pp_ode", "s_pp_abs_dev", "s_pp_se",
        "s_qp_mc", "s_qp_ode", "s_qp_abs_dev", "s_qp_se")
    manifest = json.loads((tmp_path / "mini_sse_manifest.json").read_text())
    assert manifest["ensemble_seed"] == 7
    assert any("error bars" in w for w in manifest["warnings"])

    # a seed override must change the manifest and the samples
    assert main(["--scenario", str(path), "--out", str(tmp_path / "o2"),
                 "--seed", "8"]) == 0
    manifest2 = json.loads(
        (tmp_path / "o2" / "mini_sse_manifest.json").read_text())
    assert manifest2["ensemble_seed"] == 8
    ens2 = io.read_csv(tmp_path / "o2" / "mini_sse_ensemble.csv")
    assert not np.array_equal(ens2["s_pp"], ens["s_pp"])


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_out_of_range_seed_fails_before_any_work(tmp_path, capsys, seed):
    payload = {**ENSEMBLE, "equation": {"variant": "ccl"},
               "run": {**ENSEMBLE["run"], "outputs": ["moments", "ensemble"]}}
    path = _write(tmp_path, payload, "seeded.json")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--scenario", str(path), "--out", str(out),
                 "--seed", str(seed)]) == 2
    assert not list(out.iterdir())
    assert "--seed: must fit in an unsigned 64-bit integer" \
        in capsys.readouterr().err


@pytest.mark.parametrize("seed", [1.5, 1.0, True, np.float64(3.0)])
def test_library_seed_override_reads_the_seed_rule(tmp_path, seed):
    # a float or a bool is no seed: it used to run as int(seed)
    scenario = scenario_from_dict(
        {**ENSEMBLE, "equation": {"variant": "ccl"}})
    with pytest.raises(ValueError, match="^--seed: must fit in an "
                       "unsigned 64-bit integer$"):
        run_scenario(scenario, out_dir=tmp_path / "out", seed_override=seed)
    assert not (tmp_path / "out").exists()


def test_cli_runs_are_byte_deterministic(tmp_path):
    payload = {**MINIMAL_JZ, "name": "det",
               "run": {"t_span": [0.0, 0.5], "dt": 0.01, "store_every": 5,
                       "outputs": ["moments"]}}
    path = _write(tmp_path, payload, "det.json")
    assert main(["--scenario", str(path), "--out", str(tmp_path / "r1")]) == 0
    assert main(["--scenario", str(path), "--out", str(tmp_path / "r2")]) == 0
    a = (tmp_path / "r1" / "det_moments.csv").read_bytes()
    b = (tmp_path / "r2" / "det_moments.csv").read_bytes()
    assert a == b


def test_shipped_runs_every_cutoff_and_coherent_state_load_no_scipy(
        tmp_path, fresh_python):
    # every shipped scenario, the unraveling included, hpz_audit with each
    # cutoff and the Fock oracle's coherent state use numpy alone, so none
    # of them may pay for importing scipy
    paths = sorted(str(p) for p in SCENARIOS.glob("*.json"))
    assert len(paths) == 6
    audit = json.loads((SCENARIOS / "hpz_audit.json").read_text())
    for cutoff in ("exponential", "drude"):
        audit["name"] = f"hpz_audit_{cutoff}"
        audit["bath"]["cutoff"] = cutoff
        paths.append(_write(tmp_path, audit, f"hpz_audit_{cutoff}.json"))
    out = tmp_path / "out"
    source = (
        "import json, sys\n"
        "from qbmlab import cli, fock\n"
        f"for path in {[str(p) for p in paths]!r}:\n"
        f"    assert cli.main(['--scenario', path, '--out', {str(out)!r}])"
        " == 0\n"
        "psi = fock.coherent_state(40, 0.5 - 0.2j)\n"
        "assert abs(psi @ psi.conj() - 1.0) < 1e-15\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy')))\n")
    assert json.loads(fresh_python("-c", source).splitlines()[-1]) == []
    for stem in ("hpz_audit", "hpz_audit_exponential", "hpz_audit_drude"):
        assert (out / f"{stem}_kernel.csv").is_file()
    assert (out / "ccl_unraveling_ensemble.csv").is_file()
    assert (out / "cl_vs_ccl_moments.csv").is_file()


def test_cli_runs_load_no_fock_oracle(tmp_path, fresh_python):
    # the unraveling reads its packets through dynamics; the Fock oracle
    # is a cross-check, and no CLI run loads it
    paths = [str(SCENARIOS / f"{name}.json")
             for name in ("ccl_unraveling", "cl_vs_ccl")]
    source = (
        "import sys\n"
        "from qbmlab import cli\n"
        f"for path in {paths!r}:\n"
        f"    assert cli.main(['--scenario', path, '--out', {str(tmp_path)!r}])"
        " == 0\n"
        "print('qbmlab.fock' in sys.modules)\n")
    assert fresh_python("-c", source).splitlines()[-1] == "False"
    assert (tmp_path / "ccl_unraveling_ensemble.csv").is_file()
    assert (tmp_path / "cl_vs_ccl_moments.csv").is_file()


def test_parser_is_built_once_and_calls_share_no_parsed_state(monkeypatch):
    from qbmlab import cli
    from qbmlab.scenario import ScenarioError

    seen = []

    def record(path, strict):
        seen.append((path, strict))
        raise ScenarioError(["stop after parsing"])

    monkeypatch.setattr(cli, "parse_scenario", record)
    assert cli._parser() is cli._parser()
    assert main(["--scenario", "a.json", "--no-strict", "--threads", "2"]) == 2
    assert main(["--scenario", "b.json"]) == 2
    assert seen == [("a.json", False), ("b.json", True)]
    first = cli._parser().parse_args(["--compare", "x", "y", "--atol", "1"])
    second = cli._parser().parse_args(["--scenario", "s.json"])
    assert first.compare == ["x", "y"] and first.atol == 1.0
    assert second.compare is None and second.atol == 0.0
    assert second.threads is None
