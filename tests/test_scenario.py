"""The scenario format's contract: one case per key, and pinned hashes."""

import copy
import pathlib

import pytest

from qbmlab.scenario import (
    ScenarioError,
    parse_scenario,
    scenario_from_dict,
    scenario_hash,
    scenario_to_dict,
)

# every key set, valid as it stands
BASE = {
    "name": "contract",
    "units": {"hbar": 1.0, "k_B": 1.0},
    "system": {"m": 1.0, "omega_S": 1.0},
    "bath": {"gamma": 0.1, "T": 2.0, "cutoff": "sharp", "Omega": 20.0,
             "quad_tol": 1e-8},
    "state": {"kind": "gaussian", "mean_q": 0.0, "mean_p": 0.0, "r": 0.1,
              "nbar": 0.5, "sigma_qq": 0.5, "sigma_pp": 0.5,
              "sigma_qp": 0.0},
    "equation": {"variant": "hpz", "order": 1, "mu": 0.3,
                 "coefficient_grid": {"t_max": 1.0, "n": 11}},
    "run": {"t_span": [0.0, 1.0], "dt": 0.01, "store_every": 1,
            "outputs": ["moments"]},
    "stochastic": {"n_traj": 10, "seed": 1, "S_scalar": 0.0},
}

DELETE = object()
GRID = "equation.coefficient_grid"
NEEDED = ("required when a tabulated kernel is needed (hpz variant or "
          "kernel/coefficients outputs)")

# (key path, replacement value or DELETE, exact messages)
CASES = [
    ("name", 5, ["scenario.name: expected a string"]),
    ("units", 1, ["scenario.units: expected an object"]),
    ("units.hbar", "x", ["units.hbar: expected a number"]),
    ("units.hbar", 0, ["units.hbar: must be > 0, got 0"]),
    ("units.k_B", [1.0], ["units.k_B: expected a number"]),
    ("units.k_B", -1.5, ["units.k_B: must be > 0, got -1.5"]),
    ("system", DELETE, ["scenario: missing required block 'system'",
                        "system: missing required key 'm'",
                        "system: missing required key 'omega_S'"]),
    ("system.m", DELETE, ["system: missing required key 'm'"]),
    ("system.m", "heavy", ["system.m: expected a number"]),
    ("system.m", 0.0, ["system.m: must be > 0, got 0"]),
    ("system.omega_S", DELETE, ["system: missing required key 'omega_S'"]),
    ("system.omega_S", True, ["system.omega_S: expected a number"]),
    ("system.omega_S", -1, ["system.omega_S: must be >= 0, got -1"]),
    ("bath.gamma", DELETE, ["bath: missing required key 'gamma'"]),
    ("bath.gamma", None, ["bath.gamma: expected a number"]),
    ("bath.gamma", -0.1, ["bath.gamma: must be >= 0, got -0.1"]),
    ("bath.T", DELETE, ["bath: missing required key 'T'"]),
    ("bath.T", "hot", ["bath.T: expected a number"]),
    ("bath.T", float("nan"), ["bath.T: expected a number"]),
    ("bath.T", 0, ["bath.T: must be > 0, got 0"]),
    ("bath.T", 10 ** 400, ["bath.T: expected a number"]),
    ("bath.cutoff", 3, ["bath.cutoff: expected a string"]),
    ("bath.cutoff", "lorentz", ["bath.cutoff: unknown kind 'lorentz' "
                                "(valid: sharp, exponential, drude)"]),
    ("bath.Omega", "big", ["bath.Omega: expected a number",
                           f"bath.Omega: {NEEDED}"]),
    ("bath.Omega", float("inf"), ["bath.Omega: expected a number",
                                  f"bath.Omega: {NEEDED}"]),
    ("bath.Omega", 0, ["bath.Omega: must be > 0, got 0"]),
    ("bath.quad_tol", "1e-8", ["bath.quad_tol: expected a number"]),
    ("bath.quad_tol", 0, ["bath.quad_tol: must be > 0, got 0"]),
    ("state.kind", 1, ["state.kind: expected a string"]),
    ("state.kind", "fock", ["state.kind: unknown kind 'fock' (valid: "
                            "coherent, squeezed, thermal, gaussian)"]),
    ("state.mean_q", "0", ["state.mean_q: expected a number"]),
    ("state.mean_p", [0.0], ["state.mean_p: expected a number"]),
    ("state.r", "wide", ["state.r: expected a number"]),
    ("state.nbar", "few", ["state.nbar: expected a number"]),
    ("state.nbar", -1, ["state.nbar: must be >= 0, got -1"]),
    ("state", {"kind": "coherent", "nbar": -1},
     ["state.nbar: must be >= 0, got -1"]),
    ("state", {"kind": "thermal", "nbar": -0.5},
     ["state.nbar: must be >= 0, got -0.5"]),
    ("state", {"kind": "squeezed"}, ["state: squeezed state requires r"]),
    ("state", {"kind": "thermal"}, ["state: thermal state requires nbar"]),
    ("state.sigma_qq", -1, ["state.sigma_qq: must be > 0, got -1"]),
    ("state.sigma_pp", 0.0, ["state.sigma_pp: must be > 0, got 0"]),
    ("state", {"kind": "squeezed", "r": 0.2, "sigma_pp": -2.5},
     ["state.sigma_pp: must be > 0, got -2.5"]),
    ("state.sigma_qq", "x", ["state.sigma_qq: expected a number"]),
    ("state.sigma_pp", "x", ["state.sigma_pp: expected a number"]),
    ("state.sigma_qp", "x", ["state.sigma_qp: expected a number"]),
    ("state.sigma_qq", DELETE, ["state: gaussian state requires sigma_qq"]),
    ("state", {"kind": "gaussian", "sigma_pp": 0.5},
     ["state: gaussian state requires sigma_qq, sigma_qp"]),
    ("equation.variant", DELETE, ["equation: missing required key "
                                  "'variant'"]),
    ("equation.variant", 2, ["equation.variant: expected a string"]),
    ("equation.variant", "xyz", ["equation.variant: unknown variant 'xyz' "
                                 "(valid: cl, ccl, jz, hpz, qp)"]),
    ("equation.order", 2.0, ["equation.order: expected an integer"]),
    ("equation.order", 0, ["equation.order: must be between 1 and 3, "
                           "got 0"]),
    ("equation.mu", "0.3", ["equation.mu: expected a number"]),
    (GRID, 5, [f"{GRID}: expected an object"]),
    (GRID, None, [f"{GRID}: expected an object"]),
    (f"{GRID}.t_max", DELETE, [f"{GRID}: missing required key 't_max'"]),
    (f"{GRID}.t_max", "1", [f"{GRID}.t_max: expected a number"]),
    (f"{GRID}.t_max", 0, [f"{GRID}.t_max: must be > 0, got 0",
                          f"{GRID}.t_max: must cover run.t_span "
                          "(need >= 1, got 0)"]),
    (f"{GRID}.n", DELETE, [f"{GRID}: missing required key 'n'"]),
    (f"{GRID}.n", 11.0, [f"{GRID}.n: expected an integer"]),
    (f"{GRID}.n", 1, [f"{GRID}.n: need at least 2 nodes"]),
    ("run.t_span", DELETE, ["run: missing required key 't_span'"]),
    ("run.t_span", [0.0], ["run.t_span: expected [number, number]"]),
    ("run.t_span", [0.0, float("inf")],
     ["run.t_span: expected [number, number]"]),
    ("run.t_span", [1.0, 1.0], ["run: t_span must satisfy t1 > t0"]),
    ("run.dt", DELETE, ["run: missing required key 'dt'"]),
    ("run.dt", True, ["run.dt: expected a number"]),
    ("run.dt", float("inf"), ["run.dt: expected a number"]),
    ("run.dt", -0.01, ["run.dt: must be > 0, got -0.01"]),
    ("run.store_every", 1.5, ["run.store_every: expected an integer"]),
    ("run.store_every", 0, ["run.store_every: must be >= 1, got 0"]),
    ("run.outputs", "moments", ["run.outputs: expected a list of strings"]),
    ("run.outputs", [], ["run.outputs: need at least one output"]),
    ("run.outputs", ["ensemble"],
     ["run.outputs: the ensemble pipeline needs a constant generator; "
      "'hpz' is tabulated",
      "state.kind: ensemble runs need a pure coherent or squeezed initial "
      "state"]),
    ("run.outputs", ["plots"], ["run.outputs: unknown outputs ['plots'] "
                                "(valid: kernel, coefficients, audit, "
                                "moments, ensemble)"]),
    ("stochastic", [], ["scenario.stochastic: expected an object"]),
    ("stochastic.n_traj", DELETE, ["stochastic: missing required key "
                                   "'n_traj'"]),
    ("stochastic.n_traj", 1e3, ["stochastic.n_traj: expected an integer"]),
    ("stochastic.n_traj", 0, ["stochastic.n_traj: must be >= 1, got 0"]),
    ("stochastic.seed", DELETE, ["stochastic: missing required key 'seed'"]),
    ("stochastic.seed", "7", ["stochastic.seed: expected an unsigned 64-bit "
                              "integer"]),
    ("stochastic.seed", -1, ["stochastic.seed: expected an unsigned 64-bit "
                             "integer"]),
    ("stochastic.seed", 2 ** 64, ["stochastic.seed: expected an unsigned "
                                  "64-bit integer"]),
    ("stochastic.S_scalar", "x", ["stochastic.S_scalar: expected a number "
                                  "or [re, im]"]),
    ("stochastic.S_scalar", [0.0, float("nan")],
     ["stochastic.S_scalar: expected a number or [re, im]"]),
]


def _edit(path, value):
    payload = copy.deepcopy(BASE)
    *blocks, key = path.split(".")
    target = payload
    for block in blocks:
        target = target[block]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    return payload


def _case_id(path, value):
    shown = repr("missing" if value is DELETE else value)
    return f"{path}={shown if len(shown) <= 60 else shown[:12] + '...'}"


def test_base_is_valid_and_round_trips():
    scenario = scenario_from_dict(BASE)
    assert scenario_to_dict(scenario) == {
        **BASE, "stochastic": {**BASE["stochastic"], "S_scalar": [0.0, 0.0]}}


@pytest.mark.parametrize(
    "path, value, messages", CASES,
    ids=[_case_id(p, v) for p, v, _ in CASES])
def test_each_key_reports_its_exact_message(path, value, messages):
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(_edit(path, value))
    assert sorted(exc.value.messages) == sorted(messages)


@pytest.mark.parametrize("kind", ["coherent", "squeezed", "thermal"])
def test_pure_and_thermal_states_need_a_confining_potential(kind):
    payload = _edit("state", {"kind": kind, "r": 0.1, "nbar": 0.5})
    payload["system"]["omega_S"] = 0.0
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(payload)
    assert exc.value.messages == ["state: ground state needs omega_S > 0"]
    # a run that propagates no state builds none
    payload["run"]["outputs"] = ["kernel", "coefficients", "audit"]
    assert scenario_from_dict(payload).system.omega_S == 0.0


def test_keys_are_reported_before_the_constructors_run():
    # the first round stops at a bad key; the second would report the
    # missing r of the squeezed state and the empty span
    payload = _edit("state", {"kind": "squeezed"})
    payload["run"]["t_span"] = [1.0, 1.0]
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(payload)
    assert sorted(exc.value.messages) == [
        "run: t_span must satisfy t1 > t0",
        "state: squeezed state requires r"]
    payload["run"]["dt"] = "fast"
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(payload)
    assert exc.value.messages == ["run.dt: expected a number"]


def test_top_level_must_be_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]")
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(path)
    assert exc.value.messages == [f"{path}: top level must be a JSON object"]


@pytest.mark.parametrize("block", ["units", "system", "bath", "state",
                                   "equation", "run", "stochastic", GRID])
def test_unknown_keys_are_named_per_block(block):
    payload = _edit(f"{block}.extra", 1)
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(payload)
    assert exc.value.messages == [f"{block}: unknown keys: extra"]
    scenario_from_dict(payload, strict=False)


# scenario_hash of the shipped files: a change to a default or to the
# canonical serialization would silently re-hash every artifact
SHIPPED_HASHES = {
    "ccl_unraveling":
        "c591373ba00520a2221b055ca80e3b676058a34d2d86ee05615925b295a9fa7b",
    "cl_regime":
        "bd24612e12feeafb7daa851f793232c3fe9918592588f791886000e0696c9824",
    "cl_vs_ccl":
        "915a4bbdcd694c0df4b859543b8bb5ce87b76ce5877d429166ee0fc81d283a80",
    "hpz_audit":
        "5af6f6c95ec0b320018eec22de85e36928b3d5124cdd1d9256647ec8d5b02323",
    "jz_decoherence":
        "9a8273efb2541460a8a7426ba757cda6c74c9f2507eec3e04a65276ec7904d18",
    "qp_coupling":
        "5f6241927595dec70dca2ec816700ce8408c83bf6fa0cc036b4c1a2bfd289faa",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_HASHES))
def test_shipped_scenario_hash_is_pinned(name):
    path = pathlib.Path(__file__).resolve().parent.parent / "scenarios" \
        / f"{name}.json"
    assert scenario_hash(parse_scenario(path)) == SHIPPED_HASHES[name]
