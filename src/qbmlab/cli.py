"""Command-line front end: scenario-driven pipelines and run comparison.

`qbmlab --scenario file.json --out dir` executes the pipelines selected
by the scenario's `run.outputs` list and writes CSV artifacts plus a
JSON manifest.  `qbmlab --compare a.csv b.csv` checks two artifacts
column by column.  Exit codes: 0 success, 2 validation problem, 3
numerical failure (including a failed comparison).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__, io
from .bath import (
    CorrelationKernel,
    NumericalFailure,
    SpectralDensity,
    ThermalBathSpec,
    _is_seed,
)
from .coefficients import (
    OscillatorKernels,
    compute_coefficients,
    dressed_kernel,
)
from .dynamics import (
    MOMENTS,
    MasterEquationSpec,
    ground_state_moments,
    integrate_moments,
    squeezed_state_moments,
)
# unused here: bench/spans.py wraps cli.assemble_constant_matrix by name
from .positivity import assemble_constant_matrix, audit_cp  # noqa: F401
from .scenario import (
    ScenarioError,
    needs_kernel,
    parse_scenario,
    scenario_hash,
)
from .stochastic import SSEConfig, ensemble_run


@dataclass
class RunManifest:
    """Provenance record written next to the artifacts of one run."""

    scenario_name: str
    scenario_sha256: str
    tool_version: str
    wall_clock_seconds: float
    outputs: list
    warnings: list
    ensemble_seed: int | None = None
    extra: dict = field(default_factory=dict)

    def to_json_dict(self):
        payload = {
            "scenario_name": self.scenario_name,
            "scenario_sha256": self.scenario_sha256,
            "tool_version": self.tool_version,
            "wall_clock_seconds": self.wall_clock_seconds,
            "outputs": list(self.outputs),
            "warnings": list(self.warnings),
        }
        if self.ensemble_seed is not None:
            payload["ensemble_seed"] = self.ensemble_seed
        payload.update(self.extra)
        return payload


def _safe_stem(name):
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name) or "scenario"


def _initial_moments(scenario):
    state, system, c = scenario.state, scenario.system, scenario.units
    if state.kind == "coherent":
        return ground_state_moments(system, c, state.mean_q, state.mean_p)
    if state.kind == "squeezed":
        return squeezed_state_moments(system, state.r, c, state.mean_q,
                                      state.mean_p)
    if state.kind == "thermal":
        row = ground_state_moments(system, c, state.mean_q, state.mean_p)
        row[2:4] *= 2.0 * state.nbar + 1.0
        return row
    return np.array([state.mean_q, state.mean_p, state.sigma_qq,
                     state.sigma_pp, state.sigma_qp])


def _equation_spec(scenario, coefficients):
    return MasterEquationSpec(scenario.equation.variant, scenario.system,
                              constants=scenario.units,
                              gamma=scenario.bath.gamma, T=scenario.bath.T,
                              mu=scenario.equation.mu,
                              coefficients=coefficients)


def _moment_trajectory(scenario, spec):
    return integrate_moments(spec, _initial_moments(scenario),
                             scenario.run.t_span, scenario.run.dt,
                             scenario.run.store_every)


def _coefficient_pipeline(scenario):
    """Tabulated kernel plus master-equation coefficients on its grid."""
    spectral = SpectralDensity(m=scenario.system.m,
                               gamma=scenario.bath.gamma,
                               Omega=scenario.bath.Omega,
                               cutoff_kind=scenario.bath.cutoff)
    bath = ThermalBathSpec(spectral=spectral, T=scenario.bath.T,
                           constants=scenario.units)
    grid = np.linspace(0.0, scenario.equation.grid_t_max,
                       scenario.equation.grid_n)
    kernel = CorrelationKernel.from_bath(bath, grid,
                                         quad_tol=scenario.bath.quad_tol)
    kernels = OscillatorKernels(scenario.system.omega_S)
    dressed = dressed_kernel(kernel, kernels, scenario.equation.order,
                             m=scenario.system.m,
                             hbar=scenario.units.hbar)
    coefficients = compute_coefficients(dressed, kernels)
    return kernel, coefficients


def run_scenario(scenario, out_dir=".", seed_override=None):
    """Execute every requested pipeline; return the manifest."""
    if seed_override is not None and not _is_seed(seed_override):
        raise ValueError("--seed: must fit in an unsigned 64-bit integer")
    t_start = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    stem = _safe_stem(scenario.name)
    outputs = scenario.run.outputs
    meta = {"scenario_sha256": scenario_hash(scenario)}
    written = []
    seed = None  # of the ensemble, if it runs

    def emit_csv(suffix, table):
        path = os.path.join(out_dir, f"{stem}_{suffix}.csv")
        io.write_csv(path, table)
        written.append(path)
        return path

    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")

        kernel = coefficients = None
        if needs_kernel(scenario.equation.variant, outputs):
            kernel, coefficients = _coefficient_pipeline(scenario)

        if "kernel" in outputs:
            emit_csv("kernel", io.kernel_table(kernel, meta))
        if "coefficients" in outputs:
            emit_csv("coefficients", io.coefficient_table(coefficients, meta))

        spec = _equation_spec(scenario, coefficients)
        trajectory = None  # integrated once, for moments and the ensemble
        if "moments" in outputs:
            trajectory = _moment_trajectory(scenario, spec)
            emit_csv("moments", io.moment_table(trajectory, meta))

        if "audit" in outputs:
            report = audit_cp(spec.generator)
            if report.verdict == "NotCP":
                at = report.first_violation_time
                warnings.warn("CP audit verdict: NotCP (first violation at "
                              f"t = {at:g})", stacklevel=2)
            json_path = os.path.join(out_dir, f"{stem}_audit.json")
            io.write_json(json_path, report.to_json_dict())
            written.append(json_path)
            emit_csv("audit", io.audit_table(report, meta))

        if "ensemble" in outputs:
            sto = scenario.stochastic
            seed = sto.seed if seed_override is None else int(seed_override)
            config = SSEConfig(
                spec, dt=scenario.run.dt, n_traj=sto.n_traj,
                seed=seed, t_span=scenario.run.t_span,
                S_scalar=sto.S_scalar, store_every=scenario.run.store_every)
            result = ensemble_run(config, _initial_moments(scenario))
            emit_csv("ensemble", io.ensemble_table(result, meta))
            if trajectory is None:
                trajectory = _moment_trajectory(scenario, spec)
            emit_csv("ensemble_vs_ode",
                     _comparison_table(result, trajectory, meta))
        elif seed_override is not None:
            warnings.warn("--seed given but the scenario runs no ensemble",
                          stacklevel=2)

    manifest = RunManifest(
        scenario_name=scenario.name,
        scenario_sha256=meta["scenario_sha256"],
        tool_version=__version__,
        wall_clock_seconds=time.perf_counter() - t_start,
        outputs=list(written),
        warnings=[str(w.message) for w in records],
        ensemble_seed=seed)
    if kernel is not None:
        manifest.extra["kernel_health"] = kernel.health
    manifest_path = os.path.join(out_dir, f"{stem}_manifest.json")
    io.write_json(manifest_path, manifest.to_json_dict())
    manifest.extra["manifest_path"] = manifest_path
    return manifest


def _comparison_table(result, ode, meta):
    """Side-by-side table of ensemble and ODE moments with error scales."""
    table = result.moment_table()
    data = {"t": table["t"]}
    for name, ode_values in zip(MOMENTS, ode.data.T):
        data[f"{name}_mc"] = table[name]
        data[f"{name}_ode"] = ode_values
        data[f"{name}_abs_dev"] = np.abs(table[name] - ode_values)
        data[f"{name}_se"] = table["se_" + name]
    return io.CsvTable(columns=tuple(data), data=data, meta=dict(meta))


@functools.cache
def _parser():
    """The argument parser, built once per process; each `parse_args`
    fills a new namespace, so calls share no parsed state."""
    parser = argparse.ArgumentParser(
        prog="qbmlab",
        description="Quantum Brownian motion laboratory: scenario runner "
                    "and artifact comparison.")
    parser.add_argument("--scenario", metavar="PATH",
                        help="scenario JSON file to execute")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current)")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="override the stochastic seed")
    # --threads does nothing; it still parses as an int because
    # bench/workloads.py passes --threads 2
    parser.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--strict", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="reject unknown scenario keys (default on)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two CSV artifacts instead of running")
    parser.add_argument("--atol", type=float, default=0.0,
                        help="absolute tolerance for --compare")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="relative tolerance for --compare")
    parser.add_argument("--columns", metavar="A,B,...",
                        help="columns for --compare (default: all shared)")
    parser.add_argument("--version", action="version",
                        version=f"qbmlab {__version__}")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    if bool(args.scenario) == bool(args.compare):
        print("error: exactly one of --scenario or --compare is required",
              file=sys.stderr)
        return 2

    try:
        if args.compare:
            columns = [c.strip() for c in args.columns.split(",")] \
                if args.columns else None
            report = io.compare_runs(args.compare[0], args.compare[1],
                                     columns=columns, atol=args.atol,
                                     rtol=args.rtol)
            for line in report.summary_lines():
                print(line)
            return 0 if report.passed else 3

        scenario = parse_scenario(args.scenario, strict=args.strict)
        manifest = run_scenario(scenario, out_dir=args.out,
                                seed_override=args.seed)
        for path in manifest.outputs:
            print(f"wrote {path}")
        print(f"manifest: {manifest.extra['manifest_path']}")
        if manifest.warnings:
            print(f"{len(manifest.warnings)} warning(s) recorded in the "
                  "manifest")
        return 0
    except ScenarioError as exc:
        print("scenario validation failed:", file=sys.stderr)
        for message in exc.messages:
            print(f"  - {message}", file=sys.stderr)
        return 2
    except (NumericalFailure, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
