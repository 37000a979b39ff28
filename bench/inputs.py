"""Seeded inputs for the benchmark workloads.

Every workload starts from the scenario files shipped under `scenarios/`.
The seed perturbs physics parameters only (gamma, T, Omega and the
initial mean), each in a narrow range, and only those that leave the
work unchanged.  Problem sizes (grid `n`, `dt`, `store_every`, `order`,
`n_traj`, `dim`) never depend on the seed, so every seed asks for the
same amount of work.

`small=True` shrinks the problem sizes for the benchmark's own tests; the
benchmark command never sets it.

This module uses the standard library only, so the benchmark parent
process does not import the program it measures.
"""

import copy
import json
import os
import random

WORKLOADS = ("hpz_kernel", "markov_moments", "dressed_reuse",
             "oracle_crosscheck")
CUTOFFS = ("sharp", "exponential", "drude")
MARKOV = ("jz_decoherence", "cl_regime", "cl_vs_ccl", "qp_coupling")
MARKOV_ROUNDS = 4  # the shipped files plus three seeded draws of them
MANIFEST = "inputs.json"

# Seconds one pass over a workload's tasks took at the baseline commit on
# the 2-core reference machine (README.md); see `passes`.
NOMINAL_PASS_S = {"hpz_kernel": 20.0, "markov_moments": 6.0,
                  "dressed_reuse": 6.0, "oracle_crosscheck": 12.0}


def _shipped(root, name):
    path = os.path.join(root, "scenarios", f"{name}.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _jitter(rng, value, spread):
    """value scaled by a uniform factor in [1 - spread, 1 + spread]."""
    return value * rng.uniform(1.0 - spread, 1.0 + spread)


def _coarsen(scenario, grid_n=None):
    """Shrink a scenario for the self-test (dt 1e-2, fewer nodes)."""
    run = scenario["run"]
    run["dt"] = 1e-2
    run["store_every"] = 10
    if grid_n is not None:
        scenario["equation"]["coefficient_grid"]["n"] = grid_n


def _hpz_kernel(root, rng, small):
    """hpz_audit once per cutoff kind; the seed draws gamma and the mean.

    T and Omega stay as shipped: even 2% changes in them move the number
    of integrand evaluations QUADPACK's adaptive rules make by up to 2.5x
    on the sharp cutoff.  Gamma only scales the integrands and their
    tolerances, so every seed does the same quadrature work.
    """
    base = _shipped(root, "hpz_audit")
    out = []
    for cutoff in CUTOFFS:
        sc = copy.deepcopy(base)
        sc["name"] = f"hpz_{cutoff}"
        bath = sc["bath"]
        bath["cutoff"] = cutoff
        bath["gamma"] = _jitter(rng, bath["gamma"], 0.1)
        sc["state"]["mean_q"] = _jitter(rng, sc["state"]["mean_q"], 0.1)
        sc["state"]["mean_p"] = rng.uniform(-0.1, 0.1)
        if small:  # a shorter span at the same node spacing
            _coarsen(sc, grid_n=101)
            sc["equation"]["coefficient_grid"]["t_max"] = 1.0
            sc["run"]["t_span"] = [0.0, 1.0]
        out.append(sc)
    return out, {}


def _markov_moments(root, rng, small):
    """Rounds of the four constant-coefficient scenarios.

    Round 0 is the shipped files; each later round draws one set of
    factors and applies it to all four, so the CL/CCL twins keep equal
    means and QP keeps the JZ means.
    """
    base = {name: _shipped(root, name) for name in MARKOV}
    out = []
    for r in range(2 if small else MARKOV_ROUNDS):
        f_gamma = f_temp = 1.0
        mean = None
        if r:
            f_gamma = rng.uniform(0.9, 1.1)
            f_temp = rng.uniform(0.9, 1.1)
            mean = (rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2))
        for name in MARKOV:
            sc = copy.deepcopy(base[name])
            sc["name"] = f"{name}_r{r}"
            sc["bath"]["gamma"] *= f_gamma
            sc["bath"]["T"] *= f_temp
            if mean is not None:
                sc["state"]["mean_q"], sc["state"]["mean_p"] = mean
            if small:
                _coarsen(sc)
            out.append(sc)
    return out, {}


def _dressed_reuse(root, rng, small):
    """An order-3 HPZ scenario in the high-temperature sharp regime.

    hbar Omega / kB T stays at or below 21 / 210 = 0.1, where the
    high-temperature closed form used to write the kernel CSV is valid.
    """
    sc = _shipped(root, "hpz_audit")
    sc["name"] = "dressed_reuse"
    sc["bath"] = {"gamma": _jitter(rng, 0.01, 0.1),
                  "T": rng.uniform(210.0, 250.0),
                  "cutoff": "sharp",
                  "Omega": _jitter(rng, 20.0, 0.05)}
    sc["state"]["mean_q"] = _jitter(rng, sc["state"]["mean_q"], 0.2)
    sc["equation"]["order"] = 3
    sc["run"]["outputs"] = ["moments", "audit"]
    if small:
        _coarsen(sc, grid_n=201)
    return [sc], {"kernel_csv": "dressed_reuse_kernel.csv"}


def _oracle_crosscheck(root, rng, small):
    sc = _shipped(root, "ccl_unraveling")
    sc["bath"]["gamma"] = _jitter(rng, sc["bath"]["gamma"], 0.1)
    sc["bath"]["T"] = _jitter(rng, sc["bath"]["T"], 0.1)
    sc["state"]["mean_q"] = _jitter(rng, sc["state"]["mean_q"], 0.2)
    fock = {"dim": 40, "t_span": [0.0, 2.0], "dt": 1e-3, "store_every": 200}
    if small:
        sc["stochastic"]["n_traj"] = 200
        sc["run"]["t_span"] = [0.0, 1.0]
        fock["t_span"] = [0.0, 0.5]
    # --threads 2 equals nproc on the 2-core machine the workloads target
    return [sc], {"sse_seed": rng.randrange(2 ** 63), "threads": 2,
                  "fock": fock}


_BUILDERS = {
    "hpz_kernel": _hpz_kernel,
    "markov_moments": _markov_moments,
    "dressed_reuse": _dressed_reuse,
    "oracle_crosscheck": _oracle_crosscheck,
}


def passes(workload, seconds):
    """Passes a run of `seconds` makes: at least one.

    The count depends on the workload and `seconds` only, so every commit
    does the same work in a run, and a run lasts about `seconds` at the
    baseline commit.
    """
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def generate(root, workload, seed, out_dir, small=False):
    """Write the workload's scenario files and its manifest to `out_dir`.

    The manifest lists the scenario files in task order and carries the
    other task parameters (SSE seed, Fock oracle sizes, kernel CSV name).
    Returns the manifest dictionary.
    """
    rng = random.Random(f"{workload}:{seed}")
    scenarios, extra = _BUILDERS[workload](root, rng, small)
    files = []
    for sc in scenarios:
        name = f"{sc['name']}.json"
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            json.dump(sc, fh, indent=2)
        files.append(name)
    manifest = {"workload": workload, "seed": seed, "scenarios": files,
                **extra}
    with open(os.path.join(out_dir, MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
