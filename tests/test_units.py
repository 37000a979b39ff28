"""Unit covariance: a change of units maps every run onto another run.

Each shipped scenario, and hpz_audit with the exponential and the Drude
cutoff, runs through `cli.run_scenario` three times: as shipped and at
two images of it.

- Energy x2: hbar, m and T doubled, mean_p doubled and mu halved.  Times
  and lengths keep their numbers.
- Time x2: omega_S, gamma, Omega and T doubled, m halved, and t_max,
  t_span and dt halved.  Lengths keep their numbers and energies double.

Every CSV column of the image must equal the shipped run's column times
its factor in `FACTORS` to the bit.  The factors are powers of two, so
the products are exact, and any rounding the numerics add, a hidden
absolute constant or a misplaced hbar or m breaks equality.  The kernel
and coefficient layers are held to the same rule under hypothesis, over
cutoff, Omega, T, grid, omega_S and order, and so are the Fock oracle's
moments and trace on the four constant scenarios.

At time x3 the scaling rounds, so the image of hpz_audit's kernel,
coefficient and audit tables (on all three cutoffs) and of the constant
scenarios' moments agrees with the shipped run to a tolerance only.
"""

import copy
import glob
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qbmlab import cli, fock, io
from qbmlab.bath import (CorrelationKernel, CutoffKind, PhysicalConstants,
                         SpectralDensity, ThermalBathSpec)
from qbmlab.coefficients import (OscillatorKernels, compute_coefficients,
                                 dressed_kernel)
from qbmlab.dynamics import MOMENTS
from qbmlab.scenario import scenario_from_dict

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

# The energy image doubles every mass and keeps lengths and times; the
# time image halves every time and every mass, so energies double.
# Column -> (factor at energy x2, factor at time x2).
FACTORS = {
    "t": (1, 0.5), "tau": (1, 0.5),
    "mean_q": (1, 1), "mean_p": (2, 1),  # mass x length / time
    "s_qq": (1, 1), "s_pp": (4, 1), "s_qp": (2, 1),
    "rs_witness": (4, 1),  # s_qq s_pp - s_qp^2 - hbar^2 / 4
    "norm2": (1, 1), "alive": (1, 1),
    "D_re": (4, 4), "D_im": (4, 4),  # force x force
    "Gamma": (4, 2), "Xi": (4, 2), "Theta": (4, 1), "Upsilon": (4, 1),
    # the Kossakowski matrix a: a_qq is per time per length^2, a_qp per
    # mass per length^2 and a_pp time per (mass length)^2, so its det
    # scales by 1/4 at energy x2, while lambda_min and the spectral norm
    # mix entries of different mass dimension and have no factor there
    # (None); at time x2 every entry doubles
    "det": (0.25, 4), "lambda_min": (None, 2), "norm": (None, 2),
}
# columns derived from a quantity scale with it
_PREFIXES = ("se_",)
_SUFFIXES = ("_mc", "_ode", "_abs_dev", "_se")


def factors(column):
    for prefix in _PREFIXES:
        column = column.removeprefix(prefix)
    for suffix in _SUFFIXES:
        column = column.removesuffix(suffix)
    return FACTORS[column]


def energy_x2(sc):
    sc = copy.deepcopy(sc)
    units = sc.setdefault("units", {})
    units["hbar"] = 2.0 * units.get("hbar", 1.0)
    sc["system"]["m"] *= 2.0
    sc["bath"]["T"] *= 2.0
    sc["state"]["mean_p"] *= 2.0
    if "mu" in sc["equation"]:
        sc["equation"]["mu"] *= 0.5
    return sc


def time_scaled(sc, s):
    """The time unit divided by s: rates times s, masses and times over s."""
    sc = copy.deepcopy(sc)
    sc["system"]["omega_S"] *= s
    sc["system"]["m"] /= s
    for name in ("gamma", "T", "Omega"):
        if name in sc["bath"]:
            sc["bath"][name] *= s
    grid = sc["equation"].get("coefficient_grid")
    if grid:
        grid["t_max"] /= s
    run = sc["run"]
    run["t_span"] = [t / s for t in run["t_span"]]
    run["dt"] /= s
    return sc


def time_x2(sc):
    return time_scaled(sc, 2.0)


# image -> (scenario map, index into FACTORS, scale of times)
IMAGES = {"energy_x2": (energy_x2, 0, 1.0), "time_x2": (time_x2, 1, 0.5)}


def _shipped(name):
    with open(os.path.join(SCENARIOS, f"{name}.json")) as fh:
        return json.load(fh)


def _cases():
    cases = {}
    for path in sorted(glob.glob(os.path.join(SCENARIOS, "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        cases[name] = _shipped(name)
    sto = cases["ccl_unraveling"]
    sto["stochastic"]["n_traj"] = 200
    sto["run"]["t_span"] = [0.0, 1.0]
    for cutoff in ("exponential", "drude"):
        sc = _shipped("hpz_audit")
        sc["name"] = f"hpz_audit_{cutoff}"
        sc["bath"]["cutoff"] = cutoff
        cases[sc["name"]] = sc
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
    assert artifacts["ccl_unraveling"] == ["ensemble", "ensemble_vs_ode",
                                           "moments"]
    for name in ("hpz_audit", "hpz_audit_exponential", "hpz_audit_drude"):
        assert artifacts[name] == ["audit", "coefficients", "kernel",
                                   "moments"]
    assert artifacts["qp_coupling"] == ["moments"]


@pytest.mark.parametrize("image", sorted(IMAGES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_columns_are_unit_covariant_to_the_bit(shipped_runs, tmp_path, name,
                                               image):
    transform, which, s_t = IMAGES[image]
    tables, audit = shipped_runs[name]
    image_tables, image_audit = _run(transform(CASES[name]), tmp_path)
    assert sorted(image_tables) == sorted(tables)
    checked = 0
    for artifact, table in tables.items():
        other = image_tables[artifact]
        assert other.columns == table.columns
        for column in table.columns:
            factor = factors(column)[which]
            if factor is None:  # no unit factor: see FACTORS
                continue
            assert np.array_equal(other.data[column],
                                  factor * table.data[column]), \
                f"{artifact}.{column} x {factor:g}"
            checked += 1
    assert checked > 0
    if audit is not None:
        # the verdict is unit-free, and the first violation is a time
        assert (image_audit["verdict"], image_audit["flags"]) \
            == (audit["verdict"], audit["flags"])
        first = audit["first_violation_time"]
        assert image_audit["first_violation_time"] \
            == (None if first is None else s_t * first)


# Time x3, relative to each column's max |.|, a few times the worst case
# measured (Drude lambda_min 4.1e-12, a difference of near-equal terms;
# Drude Theta 5.0e-14; hpz_audit D_im 6.2e-16; cl_vs_ccl s_qp 4.0e-15).
# hpz_audit's moments diverge, and rs_witness cancels there.
X3_TOLERANCE = {"kernel": 2e-15, "coefficients": 2e-13, "audit": 2e-11,
                "moments": 2e-14}
X3_TABLES = {
    **{f"hpz_audit{c}": ("kernel", "coefficients", "audit")
       for c in ("", "_exponential", "_drude")},
    **{name: ("moments",) for name in ("jz_decoherence", "cl_regime",
                                       "cl_vs_ccl", "qp_coupling")},
}


@pytest.mark.parametrize("name", sorted(X3_TABLES))
def test_columns_are_unit_covariant_at_time_x3(shipped_runs, tmp_path, name):
    tables, audit = shipped_runs[name]
    image_tables, image_audit = _run(time_scaled(CASES[name], 3.0), tmp_path)
    for artifact in X3_TABLES[name]:
        table, other = tables[artifact], image_tables[artifact]
        for column in table.columns:
            # the factor at x2 is 2^k, so the one at x3 is 3^k
            k = round(math.log2(factors(column)[1]))
            expected = 3.0 ** k * table.data[column]
            err = np.max(np.abs(other.data[column] - expected))
            assert err <= X3_TOLERANCE[artifact] \
                * np.max(np.abs(expected)), f"{artifact}.{column}"
    if audit is not None:
        assert (image_audit["verdict"], image_audit["flags"]) \
            == (audit["verdict"], audit["flags"])
        first = audit["first_violation_time"]
        assert image_audit["first_violation_time"] \
            == (None if first is None else pytest.approx(first / 3.0,
                                                         rel=1e-15))


def _fock_run(sc):
    """The Fock oracle's run of a constant scenario, from a dim-30 coherent
    state with the scenario's means."""
    scenario = scenario_from_dict(sc)
    state, run = scenario.state, scenario.run
    psi = fock.coherent_state(30, fock.alpha_from_moments(
        scenario.system, state.mean_q, state.mean_p, scenario.units))
    return fock.fock_propagate(cli._equation_spec(scenario, None),
                               np.outer(psi, psi.conj()), run.t_span, run.dt,
                               run.store_every)


@pytest.mark.parametrize("name", ["jz_decoherence", "cl_regime", "cl_vs_ccl",
                                  "qp_coupling"])
def test_fock_oracle_is_unit_covariant_to_the_bit(name):
    sc = copy.deepcopy(CASES[name])
    sc["run"]["t_span"] = [0.0, 0.5]
    base = _fock_run(sc)
    for transform, which, s_t in IMAGES.values():
        image = _fock_run(transform(sc))
        assert np.array_equal(image.times, s_t * base.times)
        for column, values, other in zip(MOMENTS, base.data.T, image.data.T):
            assert np.array_equal(other, factors(column)[which] * values), \
                f"{column} x {factors(column)[which]:g}"
        assert np.array_equal(image.trace, base.trace)
        assert np.array_equal(image.top_population, base.top_population)


def _layers(cutoff, Omega, T, grid, omega_S, order, m=1.0, hbar=1.0,
            gamma=0.1):
    """Kernel and coefficient columns of one bath, as the CLI builds them,
    and the number of kernel nodes that went through QUADPACK."""
    bath = ThermalBathSpec(SpectralDensity(m, gamma, Omega, cutoff), T=T,
                           constants=PhysicalConstants(hbar=hbar))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the Drude D_re(0) notice
        kernel = CorrelationKernel.from_bath(bath, grid)
    kernels = OscillatorKernels(omega_S)
    table = compute_coefficients(
        dressed_kernel(kernel, kernels, order, m=m, hbar=hbar), kernels)
    columns = {"tau": grid, "D_re": kernel.re_values,
               "D_im": kernel.im_values, "Gamma": table.Gamma,
               "Theta": table.Theta, "Xi": table.Xi, "Upsilon": table.Upsilon}
    return columns, kernel.health["quad_fallbacks"]


def _time_x2_layers(cutoff, Omega, T, grid, omega_S, order):
    return _layers(cutoff, 2.0 * Omega, 2.0 * T, 0.5 * grid, 2.0 * omega_S,
                   order, m=0.5, gamma=0.2)[0]


def _energy_x2_layers(cutoff, Omega, T, grid, omega_S, order):
    return _layers(cutoff, Omega, 2.0 * T, grid, omega_S, order, m=2.0,
                   hbar=2.0)[0]


def _assert_scaled(image, base, which):
    for column, values in base.items():
        assert np.array_equal(image[column],
                              factors(column)[which] * values), column


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
    case = (cutoff, Omega, T, np.linspace(0.0, t_max, n), omega_S, order)
    base, _ = _layers(*case)
    _assert_scaled(_time_x2_layers(*case), base, 1)
    _assert_scaled(_energy_x2_layers(*case), base, 0)


def test_quadpack_fallback_is_unit_covariant_at_time_x2():
    # at T = 3 the thermal rule would need more than its node budget for
    # two nodes, so both go through QUADPACK; tau = 1 halves to 0.5, and
    # QAWF's cycle (2 floor(x) + 1) pi / x is read at x = Omega tau
    case = (CutoffKind.DRUDE, 1.0, 3.0, np.linspace(0.0, 1.0, 2), 0.0, 1)
    base, fallbacks = _layers(*case)
    assert fallbacks == 2
    _assert_scaled(_time_x2_layers(*case), base, 1)


def test_dressing_is_unit_covariant_at_energy_x2():
    # D^(n) / D^(n-1) ~ D t^3 / (hbar m) keeps its value at energy x2, so
    # every order scales as D; at hbar = 1 no run can tell i / (hbar m)
    # from i hbar / m in the response kernel
    case = (CutoffKind.SHARP, 1.0, 1.0, np.linspace(0.0, 1.0, 11), 0.0, 2)
    base, fallbacks = _layers(*case)
    assert fallbacks == 0
    _assert_scaled(_energy_x2_layers(*case), base, 0)
