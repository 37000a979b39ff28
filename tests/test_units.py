"""Unit covariance: a change of units maps every run onto another run.

Each shipped scenario, every hpz_audit variant of
scripts/run_all_scenarios.py and a QP unraveling with S_scalar != 0 run
through `cli.run_scenario` three times: as shipped and at two images.
An image scales lengths, times and energies by (s_L, s_T, s_E), and each
quantity by s_L^l s_T^t s_E^e, where (l, t, e) is the dimension its
scenario key (`scenario.key`'s `dim`) or CSV column (`io.COLUMN_DIMS`)
declares:

- Energy x2, (1, 1, 2): hbar, m, T and mean_p double and mu halves.
  Times and lengths keep their numbers.
- Time x2, (1, 1/2, 2): rates and T double, m and times halve.  Lengths
  and hbar keep their numbers.

Every CSV column of the image must equal the shipped run's column times
its factor to the bit.  The factors are powers of two, so the products
are exact, and any rounding the numerics add, a hidden absolute
constant or a misplaced hbar or m breaks equality.  The kernel and
coefficient layers are held to the same rule under hypothesis, over
cutoff, Omega, T, grid, omega_S and order, and so are the Fock oracle's
moments and trace on the four constant scenarios.

At time x3 the scaling rounds, so the image of the hpz_audit variants'
kernel, coefficient and audit tables and of the constant scenarios'
moments agrees with the shipped run to a tolerance only.
"""

import copy
import glob
import json
import math
import os
import re
import runpy
import tempfile
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qbmlab import cli, fock, io
from qbmlab.bath import CutoffKind, PhysicalConstants
from qbmlab.dynamics import (MOMENTS, TIME, MasterEquationSpec,
                             QuadraticGenerator, SystemSpec,
                             UnstableGeneratorWarning, integrate_moments)
from qbmlab.positivity import audit_cp
from qbmlab.scenario import (Scenario, ScenarioError, equation_spec,
                             scenario_from_dict, scenario_to_dict)

RUNS = runpy.run_path(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "scripts", "run_all_scenarios.py"))

UNIT, TIME_X3 = (1, 1, 1), (1, Fraction(1, 3), 3)  # (s_L, s_T, s_E)
IMAGES = {"energy_x2": (1, 1, 2), "time_x2": (1, Fraction(1, 2), 2)}


def scaled(value, dim, scale):
    """value times s_L^l s_T^t s_E^e: one product, or one quotient by n."""
    k = math.prod(Fraction(s) ** d for s, d in zip(scale, dim))
    return value * k.numerator / k.denominator


def scaled_keys(values, scale, cls=Scenario):
    """`values` with each number, pair and complex key scaled."""
    out = dict(values)
    for f in fields(cls):
        kind, value = f.metadata["kind"], values.get(f.name)
        if isinstance(kind, type) and value is not None:
            out[f.name] = scaled_keys(value, scale, kind)
        elif kind in ("number", "pair", "complex") and value is not None:
            out[f.name] = scaled(np.array(value), f.metadata["dim"],
                                 scale).tolist()
    return out


def image(sc, scale):
    """The image of a scenario dict, every default materialized."""
    return scaled_keys(scenario_to_dict(scenario_from_dict(sc)), scale)


def column_dim(column, scale):
    """A column's declared dimension, or its base column's; lambda_min and
    norm take a's where its entries scale alike, and else have None."""
    base = re.fullmatch(r"(?:se_)?(.+?)(?:_mc|_ode|_abs_dev|_se)?", column)
    dims = [io.COLUMN_DIMS[base[1]]] if io.COLUMN_DIMS[base[1]] \
        else io.KOSSAKOWSKI_DIMS
    return dims[0] if len({scaled(1, d, scale) for d in dims}) == 1 else None


def _cases():
    with tempfile.TemporaryDirectory() as tmp:
        cases = {path.stem: json.loads(path.read_text())
                 for path in RUNS["run_list"](tmp)}
    sto = cases["ccl_unraveling"]
    sto["stochastic"]["n_traj"] = 200
    sto["run"]["t_span"] = [0.0, 1.0]
    # normalized on q although a_pp = 2.25 a_qq: D = a_qq = 0.8
    qp = copy.deepcopy(cases["qp_coupling"])
    qp["name"] = "qp_unraveling"
    qp["equation"]["mu"] = 1.5
    qp["run"].update(t_span=[0.0, 1.0], outputs=["moments", "ensemble"])
    qp["stochastic"] = {"n_traj": 200, "seed": 7, "S_scalar": 0.5}
    cases[qp["name"]] = qp
    return cases


CASES = _cases()


def _run(sc, out_dir):
    """The CSV tables and the audit summary of one run, by artifact."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the NotCP and Drude notices
        cli.run_scenario(scenario_from_dict(sc), out_dir=str(out_dir))
    stem = os.path.join(str(out_dir), sc["name"] + "_")
    tables = {path[len(stem):-len(".csv")]: io.read_csv(path)
              for path in glob.glob(stem + "*.csv")}
    audit = None
    if os.path.exists(stem + "audit.json"):
        with open(stem + "audit.json") as fh:
            audit = json.load(fh)
    return tables, audit


@pytest.fixture(scope="module")
def shipped_runs(tmp_path_factory):
    return {name: _run(sc, tmp_path_factory.mktemp(name))
            for name, sc in CASES.items()}


def test_every_case_writes_its_artifacts(shipped_runs):
    artifacts = {name: sorted(tables) for name, (tables, _)
                 in shipped_runs.items()}
    for name in ("ccl_unraveling", "qp_unraveling"):
        assert artifacts[name] == ["ensemble", "ensemble_vs_ode", "moments"]
    for name in ("hpz_audit", *RUNS["VARIANTS"]):
        moments = [] if name == "hpz_audit_free" else ["moments"]  # omega_S 0
        assert artifacts[name] == ["audit", "coefficients", "kernel",
                                   *moments]
    assert artifacts["qp_coupling"] == ["moments"]


@pytest.mark.parametrize("units", sorted(IMAGES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_columns_are_unit_covariant_to_the_bit(shipped_runs, tmp_path, name,
                                               units):
    scale = IMAGES[units]
    tables, audit = shipped_runs[name]
    image_tables, image_audit = _run(image(CASES[name], scale), tmp_path)
    assert sorted(image_tables) == sorted(tables)
    checked = 0
    for artifact, table in tables.items():
        other = image_tables[artifact]
        assert other.columns == table.columns
        for column in table.columns:
            dim = column_dim(column, scale)
            if dim is None:  # no unit factor at this image
                continue
            assert np.array_equal(other.data[column],
                                  scaled(table.data[column], dim, scale)), \
                f"{artifact}.{column} x {scaled(1, dim, scale):g}"
            checked += 1
    assert checked > 0
    if audit is not None:
        # the verdict is unit-free, and the first violation is a time
        assert (image_audit["verdict"], image_audit["flags"]) \
            == (audit["verdict"], audit["flags"])
        first = audit["first_violation_time"]
        assert image_audit["first_violation_time"] \
            == (None if first is None else scaled(first, TIME, scale))


# Time x3: artifact -> tolerance relative to each column's max |.|, a few
# times the worst case measured (Drude lambda_min 4.1e-12, a difference of
# near-equal terms; Drude Theta 5.0e-14; hpz_audit D_im 6.2e-16; cl_vs_ccl
# s_qp 4.0e-15; the order-3 dressing's Theta 2.5e-12, on threaded and
# single-threaded OpenBLAS alike).  hpz_audit's moments diverge, and
# rs_witness cancels there.
_HPZ_X3 = {"kernel": 2e-15, "coefficients": 2e-13, "audit": 2e-11}
X3_TABLES = {
    **{f"hpz_audit{c}": _HPZ_X3 for c in ("", "_exponential", "_drude")},
    "hpz_audit_order3": {**_HPZ_X3, "coefficients": 1e-11},
    **{name: {"moments": 2e-14} for name in ("jz_decoherence", "cl_regime",
                                             "cl_vs_ccl", "qp_coupling")},
}


@pytest.mark.parametrize("name", sorted(X3_TABLES))
def test_columns_are_unit_covariant_at_time_x3(shipped_runs, tmp_path, name):
    tables, audit = shipped_runs[name]
    image_tables, image_audit = _run(image(CASES[name], TIME_X3), tmp_path)
    for artifact, tolerance in X3_TABLES[name].items():
        table, other = tables[artifact], image_tables[artifact]
        for column in table.columns:
            expected = scaled(table.data[column],
                              column_dim(column, TIME_X3), TIME_X3)
            err = np.max(np.abs(other.data[column] - expected))
            assert err <= tolerance * np.max(np.abs(expected)), \
                f"{artifact}.{column}"
    if audit is not None:
        assert (image_audit["verdict"], image_audit["flags"]) \
            == (audit["verdict"], audit["flags"])
        first = audit["first_violation_time"]
        assert image_audit["first_violation_time"] \
            == (None if first is None else pytest.approx(
                scaled(first, TIME, TIME_X3), rel=1e-15))


def _fock_run(sc):
    """The Fock oracle's run of a constant scenario, from a dim-30 coherent
    state with the scenario's means."""
    scenario = scenario_from_dict(sc)
    state, run = scenario.state, scenario.run
    psi = fock.coherent_state(30, fock.alpha_from_moments(
        scenario.system, state.mean_q, state.mean_p, scenario.units))
    return fock.fock_propagate(equation_spec(scenario),
                               np.outer(psi, psi.conj()), run.t_span, run.dt,
                               run.store_every)


@pytest.mark.parametrize("name", ["jz_decoherence", "cl_regime", "cl_vs_ccl",
                                  "qp_coupling"])
def test_fock_oracle_is_unit_covariant_to_the_bit(name):
    sc = copy.deepcopy(CASES[name])
    sc["run"]["t_span"] = [0.0, 0.5]
    base = _fock_run(sc)
    for scale in IMAGES.values():
        image_run = _fock_run(image(sc, scale))
        assert np.array_equal(image_run.times, scaled(base.times, TIME,
                                                      scale))
        for column, values, other in zip(MOMENTS, base.data.T,
                                         image_run.data.T):
            dim = column_dim(column, scale)
            assert np.array_equal(other, scaled(values, dim, scale)), column
        assert np.array_equal(image_run.trace, base.trace)
        assert np.array_equal(image_run.top_population, base.top_population)


def _bath_case(cutoff, Omega, T, t_max, n, omega_S, order):
    """An hpz scenario of one bath at m = hbar = 1 and gamma = 0.1."""
    return {"system": {"m": 1.0, "omega_S": omega_S},
            "bath": {"gamma": 0.1, "T": T, "cutoff": cutoff.value,
                     "Omega": Omega},
            "state": {"kind": "gaussian", "sigma_qq": 1.0, "sigma_pp": 1.0,
                      "sigma_qp": 0.0},
            "equation": {"variant": "hpz", "order": order,
                         "coefficient_grid": {"t_max": t_max, "n": n}},
            "run": {"t_span": [0.0, t_max], "dt": t_max,
                    "outputs": ["kernel", "coefficients"]}}


def _layers(sc):
    """Kernel and coefficient columns of a scenario's bath, as the CLI
    builds them, and how the kernel's D_re was taken (`health["method"]`)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the Drude D_re(0) notice
        kernel, table = cli._coefficient_pipeline(scenario_from_dict(sc))
    columns = {"tau": kernel.grid, "D_re": kernel.re_values,
               "D_im": kernel.im_values, "Gamma": table.Gamma,
               "Theta": table.Theta, "Xi": table.Xi, "Upsilon": table.Upsilon}
    return columns, kernel.health["method"]


def _assert_layers_scaled(sc, base, *scales):
    for scale in scales:
        for column, values in _layers(image(sc, scale))[0].items():
            assert np.array_equal(values, scaled(base[column], column_dim(
                column, scale), scale)), column


# Omega t_max <= 500 keeps D_im ~ e^{-Omega tau} a normal float, where a
# product by a power of two is exact
@given(cutoff=st.sampled_from(list(CutoffKind)),
       Omega=st.floats(0.5, 100.0), T=st.floats(0.01, 100.0),
       t_max=st.floats(0.1, 5.0), n=st.integers(2, 101),
       omega_S=st.floats(0.0, 3.0), order=st.integers(1, 3))
# libm's pow rounds Omega^2 (kernel) and omega_S^2 (windowing) off by an ulp
# here, and not at twice the value
@example(cutoff=CutoffKind.SHARP, Omega=35.03251304357756, T=1.0,
         t_max=1.0, n=2, omega_S=0.0, order=1)
@example(cutoff=CutoffKind.SHARP, Omega=1.0, T=1.0, t_max=1.0, n=11,
         omega_S=0.5973065134161506, order=2)
def test_kernel_and_coefficients_are_unit_covariant_to_the_bit(
        cutoff, Omega, T, t_max, n, omega_S, order):
    sc = _bath_case(cutoff, Omega, T, t_max, n, omega_S, order)
    _assert_layers_scaled(sc, _layers(sc)[0], *IMAGES.values())


def test_drude_series_is_unit_covariant_at_time_x2():
    # at T = 3 the thermal rule would need more than its node budget for
    # two nodes, so D_re is the Matsubara series; tau = 1 halves to 0.5,
    # and the series reads only a Omega, Omega tau and pi tau / a
    sc = _bath_case(CutoffKind.DRUDE, 1.0, 3.0, 1.0, 2, 0.0, 1)
    base, method = _layers(sc)
    assert method == "series"
    _assert_layers_scaled(sc, base, IMAGES["time_x2"])


def test_dressing_is_unit_covariant_at_energy_x2():
    # D^(n) / D^(n-1) ~ D t^3 / (hbar m) keeps its value at energy x2, so
    # every order scales as D; at hbar = 1 no run can tell i / (hbar m)
    # from i hbar / m in the response kernel
    sc = _bath_case(CutoffKind.SHARP, 1.0, 1.0, 1.0, 11, 0.0, 2)
    base, method = _layers(sc)
    assert method == "rule"
    _assert_layers_scaled(sc, base, IMAGES["energy_x2"])


def test_every_number_key_declares_its_dimension():
    def numbers(cls):
        for f in fields(cls):
            kind = f.metadata["kind"]
            if isinstance(kind, type):
                yield from numbers(kind)
            elif kind in ("number", "pair", "complex"):
                yield f
    keys = list(numbers(Scenario))
    assert len(keys) == 20
    assert [f.name for f in keys if "dim" not in f.metadata] == []


def test_unraveling_validation_is_unit_free():
    # a = D0 (1, -mu)(1, -mu)^T with D0 = a_qq = 0.8 at mu = 1.5: |S_scalar|
    # = 1.7 exceeds it at every image, while a_pp = 1.8 exceeds 1.7 at
    # m = 1 and not at energy x2 (mu = 0.75), so a bound by the larger
    # diagonal entry would move with the unit of mass
    sc = scenario_to_dict(scenario_from_dict(CASES["qp_unraveling"]))
    sc["stochastic"]["S_scalar"] = [1.7, 0.0]
    for scale in (UNIT, *IMAGES.values()):
        with pytest.raises(ScenarioError, match=r"^stochastic: \|S_scalar"):
            scenario_from_dict(scaled_keys(sc, scale))


def test_stability_warning_is_unit_free():
    # a free particle with G_qq = -2 Xi / hbar = -eps = -5e-25: its means
    # grow at rate sqrt(eps / m) = 7.1e-13 at m = 1, which a threshold of
    # 1e-12 max|A| = 1e-12 / m, mixing A's units, would pass here and
    # not at energy x2
    sc = {"units": {"hbar": 1.0}, "system": {"m": 1.0, "omega_S": 0.0}}
    columns = {c: np.zeros(3) for c in io.COEFFICIENT_COLUMNS}
    columns.update(t=np.linspace(0.0, 1.0, 3), Xi=np.full(3, 2.5e-25))
    for scale in (UNIT, *IMAGES.values()):
        units, system = (scaled_keys(sc, scale)[block] for block in sc)
        table = io.coefficients_from_table(io.CsvTable(
            io.COEFFICIENT_COLUMNS, {c: scaled(v, column_dim(c, scale), scale)
                                     for c, v in columns.items()}))
        spec = MasterEquationSpec("hpz", SystemSpec(**system),
                                  constants=PhysicalConstants(**units),
                                  coefficients=table)
        with pytest.warns(UnstableGeneratorWarning):
            integrate_moments(spec, [0.0, 0.0, 1.0, 1.0, 0.0],
                              table.grid[[0, -1]], table.grid[1])


def test_hermiticity_check_is_unit_free():
    # the skew of a_qp is 1.5e-9 of a_qp at every image; against max|a| =
    # a_qq it would read 1.5e-12 here and 7.5e-13 at energy x2, where a_qp
    # halves and a_qq stays
    a = np.array([[1.0, 1e-3 + 1.5e-12], [1e-3, 1e-6]])
    qq, qp, pp = io.KOSSAKOWSKI_DIMS
    for scale in (UNIT, *IMAGES.values()):
        factors = [[scaled(1, d, scale) for d in row]
                   for row in ((qq, qp), (qp, pp))]
        with pytest.raises(ValueError, match="not Hermitian"):
            audit_cp(QuadraticGenerator(np.zeros((2, 2)), a * factors, 1.0))
