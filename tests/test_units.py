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
absolute constant or a misplaced hbar or m breaks equality.
"""

import copy
import glob
import json
import os
import warnings

import numpy as np
import pytest

from qbmlab import cli, io
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


def time_x2(sc):
    sc = copy.deepcopy(sc)
    sc["system"]["omega_S"] *= 2.0
    sc["system"]["m"] *= 0.5
    for name in ("gamma", "T", "Omega"):
        if name in sc["bath"]:
            sc["bath"][name] *= 2.0
    grid = sc["equation"].get("coefficient_grid")
    if grid:
        grid["t_max"] *= 0.5
    run = sc["run"]
    run["t_span"] = [0.5 * t for t in run["t_span"]]
    run["dt"] *= 0.5
    return sc


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
