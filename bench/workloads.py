"""Tasks of each workload and the oracle check of every task.

A task's `run` is the timed call into the program; its `check` runs after
the timer stops and returns None when the output passes, or the reason it
fails.  Its `probe` names the speed probe whose work is most like its own
(speed.py): `python` for interpreted work, `blas` for the O(N^3) matrix
products.  The SSE ensemble, Python threads and BLAS threads at once,
matches neither probe and has none, so its normalized time is its wall
time.  Checks compare against oracles the program already has: closed
forms for the kernel, the Fock propagator and the moment ODEs, and
`io.compare_runs` for the CL/CCL twins.  Checks may record the
numerical-health figures they measure in the `health` dictionary.
"""

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from qbmlab import bath, cli, coefficients, dynamics, fock, io, positivity

@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], Any]
    probe: Optional[str] = None  # the speed.py probe matching its work


def _raise_max(health, key, value):
    health[key] = max(health.get(key, 0.0), float(value))


def _cli_task(argv):
    def run():
        return cli.main(argv)
    return run


def _artifact(out, stem, suffix):
    return os.path.join(out, f"{stem}_{suffix}")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _system(sc):
    return dynamics.SystemSpec(m=sc.system.m, omega_S=sc.system.omega_S)


def _bath_spec(sc):
    spectral = bath.SpectralDensity(m=sc.system.m, gamma=sc.bath.gamma,
                                    Omega=sc.bath.Omega,
                                    cutoff_kind=sc.bath.cutoff)
    return bath.ThermalBathSpec(spectral=spectral, T=sc.bath.T,
                                constants=sc.units)


def _initial_moments(sc):
    return dynamics.ground_state_moments(_system(sc), sc.units,
                                         sc.state.mean_q, sc.state.mean_p)


def _moments_finite(path):
    table = io.read_csv(path)
    if not all(np.all(np.isfinite(table[c])) for c in table.columns):
        return "non-finite moments"
    return None


def _first_failure(*checks):
    """Run zero-argument checks in order; return the first failure."""
    for check in checks:
        reason = check()
        if reason:
            return reason
    return None


# ------------------------------------------------------------ hpz_kernel

def _hpz_kernel(scenarios, paths, extra, out):
    tasks = []
    for sc, path in zip(scenarios, paths):
        grid = np.linspace(0.0, sc.equation.grid_t_max, sc.equation.grid_n)
        closed_im = bath.im_closed_form(_bath_spec(sc), grid)

        def check(rc, health, sc=sc, closed_im=closed_im):
            if rc != 0:
                return f"exit code {rc}"
            stem = sc.name

            def kernel_im():
                d_im = io.read_csv(_artifact(out, stem, "kernel.csv"))["D_im"]
                err = np.max(np.abs(d_im - closed_im)) \
                    / np.max(np.abs(closed_im))
                _raise_max(health, "bath.im_rel_err", err)
                if not err <= 10.0 * sc.bath.quad_tol:
                    return f"D_im deviates from im_closed_form by {err:.2e}"
                return None

            def verdict():
                v = _read_json(_artifact(out, stem, "audit.json"))["verdict"]
                return None if v == "NotCP" else f"audit verdict {v}"

            def kept_warnings():
                found = _read_json(_artifact(out, stem, "manifest.json"))
                text = found["warnings"]
                wanted = ["CP audit verdict: NotCP"]
                if sc.bath.cutoff == "drude":
                    wanted.append("D_re(0) diverges")
                lost = [w for w in wanted if not any(w in t for t in text)]
                return f"manifest lost warnings {lost}" if lost else None

            return _first_failure(
                kernel_im, verdict,
                lambda: _moments_finite(_artifact(out, stem, "moments.csv")),
                kept_warnings)

        tasks.append(Task(sc.name,
                          _cli_task(["--scenario", path, "--out", out]),
                          check, "python"))
    return tasks


# -------------------------------------------------------- markov_moments

_EXPECTED_VERDICT = {"jz": ("CP-semigroup-form", None),
                     "cl": ("NotCP", None),
                     "ccl": ("CP-semigroup-form", "rank-1")}


def _markov_moments(scenarios, paths, extra, out):
    """Rounds of jz, cl, ccl, qp; twins are compared within a round."""
    tasks = []
    by_variant = {}
    for sc, path in zip(scenarios, paths):
        variant = sc.equation.variant
        by_variant[variant] = sc.name

        def check(rc, health, sc=sc, variant=variant,
                  twins=dict(by_variant)):
            if rc != 0:
                return f"exit code {rc}"
            moments = _artifact(out, sc.name, "moments.csv")

            def verdict():
                if variant not in _EXPECTED_VERDICT:
                    return None
                want, flag = _EXPECTED_VERDICT[variant]
                report = _read_json(_artifact(out, sc.name, "audit.json"))
                if report["verdict"] != want or (
                        flag and flag not in report["flags"]):
                    return (f"audit {report['verdict']} {report['flags']}, "
                            f"expected {want} {flag or ''}")
                return None

            def twin_means():
                # the check of scripts/run_all_scenarios.py, and acceptance 4
                twin, atol = {"ccl": ("cl", 1e-6),
                              "qp": ("jz", 1e-10)}.get(variant, (None, 0))
                if twin is None:
                    return None
                report = io.compare_runs(
                    _artifact(out, twins[twin], "moments.csv"), moments,
                    columns=["mean_q", "mean_p"], atol=atol)
                if not report.passed:
                    return f"means differ from {twin} beyond {atol:g}"
                return None

            return _first_failure(lambda: _moments_finite(moments), verdict,
                                  twin_means)

        tasks.append(Task(sc.name,
                          _cli_task(["--scenario", path, "--out", out]),
                          check, "python"))
    return tasks


# --------------------------------------------------------- dressed_reuse

def write_dressed_kernel(sc, path):
    """Kernel CSV from the closed forms; returns the samples written."""
    spec = _bath_spec(sc)
    grid = np.linspace(0.0, sc.equation.grid_t_max, sc.equation.grid_n)
    kernel = bath.CorrelationKernel.from_samples(
        grid, bath.high_temperature_closed_form(spec, grid),
        bath.im_closed_form(spec, grid))
    io.write_csv(path, io.kernel_table(kernel))
    return kernel


def _dressed_reuse(scenarios, paths, extra, out):
    (sc,) = scenarios
    csv_path = os.path.join(os.path.dirname(paths[0]), extra["kernel_csv"])
    written = write_dressed_kernel(sc, csv_path)
    osc = coefficients.OscillatorKernels(sc.system.omega_S)
    units = sc.units
    state = {}

    def dress(kernel, order):
        return coefficients.dressed_kernel(kernel, osc, order,
                                           m=sc.system.m, hbar=units.hbar)

    def step(key, fn):
        def run():
            state[key] = fn()
            return state[key]
        return run

    def read_check(kernel, health):
        same = np.array_equal(kernel.re_values, written.re_values) and \
            np.array_equal(kernel.im_values, written.im_values)
        return None if same else "kernel read back differs from samples"

    def bilinear_check(quarter, health):
        # the order-2 correction is bilinear in the kernel
        base = state["read"]
        corr = state["order2"].table - dress(base, 1).values
        corr_q = quarter.table - dress(base.scaled(0.25), 1).values
        err = np.max(np.abs(corr_q - 0.0625 * corr)) / np.max(np.abs(corr))
        if not err <= 1e-12:
            return f"order-2 correction not quadratic in coupling ({err:.1e})"
        return None

    def audit_check(report, health):
        v = report.verdict
        return None if v == "NotCP" else f"audit verdict {v}"

    def moments_check(trajectory, health):
        ok = np.all(np.isfinite(trajectory.data))
        return None if ok else "non-finite HPZ moments"

    def no_check(_, health):
        return None

    def read():
        return io.kernel_from_table(io.read_csv(csv_path))

    def moments():
        spec = dynamics.MasterEquationSpec("hpz", _system(sc),
                                           constants=units,
                                           coefficients=state["coeffs"])
        return dynamics.integrate_moments(spec, _initial_moments(sc),
                                          sc.run.t_span, sc.run.dt,
                                          sc.run.store_every)

    return [
        Task("read_kernel", step("read", read), read_check, "python"),
        Task("dress_order2", step("order2", lambda: dress(state["read"], 2)),
             no_check, "blas"),
        Task("dress_order2_quarter",
             step("quarter", lambda: dress(state["read"].scaled(0.25), 2)),
             bilinear_check, "blas"),
        Task("dress_order3", step("order3", lambda: dress(state["read"], 3)),
             no_check, "blas"),
        Task("coefficients",
             step("coeffs", lambda: coefficients.compute_coefficients(
                 state["order3"], osc)),
             no_check, "python"),
        Task("audit", step("audit", lambda: positivity.audit_cp(
            state["coeffs"], constants=units)), audit_check, "python"),
        Task("hpz_moments", step("moments", moments), moments_check,
             "python"),
    ]


# ----------------------------------------------------- oracle_crosscheck

Z_LIMIT = 5.0  # |dev| / se per row of ensemble_vs_ode.csv
_MOMENTS = ("mean_q", "mean_p", "s_qq", "s_pp", "s_qp")


def _oracle_crosscheck(scenarios, paths, extra, out):
    (sc,) = scenarios
    stem = sc.name
    n_traj = sc.stochastic.n_traj

    def sse_check(rc, health):
        if rc != 0:
            return f"exit code {rc}"

        def all_alive():
            alive = io.read_csv(_artifact(out, stem, "ensemble.csv"))["alive"]
            if np.any(alive != n_traj):
                return f"{int(n_traj - alive.min())} trajectories failed"
            return None

        def z_scores():
            table = io.read_csv(_artifact(out, stem, "ensemble_vs_ode.csv"))
            z = max(float(np.max(
                np.abs(table[f"{c}_mc"] - table[f"{c}_ode"])
                / np.maximum(table[f"{c}_se"], 1e-12))) for c in _MOMENTS)
            _raise_max(health, "stochastic.z_max", z)
            return None if z < Z_LIMIT else f"ensemble z = {z:.2f}"

        return _first_failure(all_alive, z_scores)

    f = extra["fock"]
    system = _system(sc)
    spec = dynamics.MasterEquationSpec("ccl", system, constants=sc.units,
                                       gamma=sc.bath.gamma, T=sc.bath.T)
    psi = fock.coherent_state(f["dim"], fock.alpha_from_moments(
        system, sc.state.mean_q, sc.state.mean_p, sc.units))
    rho0 = np.outer(psi, psi.conj())

    def fock_run():
        return fock.fock_propagate(spec, rho0, f["t_span"], f["dt"],
                                   f["store_every"])

    def fock_check(trajectory, health):
        ode = dynamics.integrate_moments(spec, _initial_moments(sc),
                                         f["t_span"], f["dt"],
                                         f["store_every"])
        if trajectory.data.shape != ode.data.shape:
            return "Fock and ODE grids differ"
        dev = float(np.max(np.abs(trajectory.data - ode.data)))
        leak = float(np.max(trajectory.top_population))
        _raise_max(health, "fock.max_dev", dev)
        _raise_max(health, "fock.leak_max", leak)
        if not dev <= 1e-8:
            return f"Fock moments deviate from the ODE by {dev:.2e}"
        if not leak < 1e-6:
            return f"truncation leakage {leak:.2e}"
        return None

    argv = ["--scenario", paths[0], "--out", out, "--threads",
            str(extra["threads"]), "--seed", str(extra["sse_seed"])]
    return [Task("ccl_unraveling", _cli_task(argv), sse_check),
            Task("fock_oracle", fock_run, fock_check, "blas")]


BUILDERS = {
    "hpz_kernel": _hpz_kernel,
    "markov_moments": _markov_moments,
    "dressed_reuse": _dressed_reuse,
    "oracle_crosscheck": _oracle_crosscheck,
}


def build(manifest, scenarios, inputs_dir, out_dir):
    """Tasks of the manifest's workload, in run order.

    `scenarios` are the parsed files of `manifest["scenarios"]`; artifacts
    go to `out_dir`.  Untimed preparation (closed-form references, the
    dressed_reuse kernel CSV, the Fock initial state) happens here.
    """
    paths = [os.path.join(inputs_dir, f) for f in manifest["scenarios"]]
    return BUILDERS[manifest["workload"]](scenarios, paths, manifest,
                                          out_dir)
