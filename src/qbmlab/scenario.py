"""Scenario files: strict JSON configs that drive the CLI pipelines.

A scenario is a JSON object with the blocks

    name        optional run label (defaults to the file stem)
    units       optional: hbar, k_B            (default 1, 1)
    system      required: m, omega_S
    bath        required: gamma, T; optional cutoff, Omega, quad_tol
    state       optional initial state          (default ground state)
    equation    required: variant; optional order, mu, coefficient_grid
    run         required: t_span, dt; optional store_every, outputs
    stochastic  optional: dim, n_traj, seed; optional S_scalar

Parsing is strict by default: unknown keys anywhere are rejected, and
every missing or ill-typed entry is reported in a single ScenarioError.
Physics parameters (m, omega_S, gamma, T) are never defaulted.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

from .bath import CutoffKind, PhysicalConstants
from .coefficients import MAX_CHEAP_ORDER
from .dynamics import Variant

_VALID_OUTPUTS = ("kernel", "coefficients", "audit", "moments", "ensemble")
_STATE_KINDS = ("coherent", "squeezed", "thermal", "gaussian")


class ScenarioError(ValueError):
    """All validation problems of one scenario, collected together."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


@dataclass(frozen=True)
class SystemBlock:
    m: float
    omega_S: float


@dataclass(frozen=True)
class BathBlock:
    gamma: float
    T: float
    cutoff: str = "sharp"
    Omega: float | None = None
    quad_tol: float = 1e-8


@dataclass(frozen=True)
class StateBlock:
    kind: str = "coherent"
    mean_q: float = 0.0
    mean_p: float = 0.0
    r: float | None = None
    nbar: float | None = None
    sigma_qq: float | None = None
    sigma_pp: float | None = None
    sigma_qp: float | None = None


@dataclass(frozen=True)
class EquationBlock:
    variant: str
    order: int = 1
    mu: float | None = None
    grid_t_max: float | None = None
    grid_n: int | None = None


@dataclass(frozen=True)
class RunBlock:
    t_span: tuple
    dt: float
    store_every: int = 1
    outputs: tuple = ("moments",)


@dataclass(frozen=True)
class StochasticBlock:
    dim: int
    n_traj: int
    seed: int
    S_scalar: complex = 0.0


@dataclass(frozen=True)
class Scenario:
    name: str
    units: PhysicalConstants
    system: SystemBlock
    bath: BathBlock
    state: StateBlock
    equation: EquationBlock
    run: RunBlock
    stochastic: StochasticBlock | None = None


class _Block:
    """One JSON sub-object: typed key extraction with error collection."""

    def __init__(self, raw, where, errors, strict):
        self.raw = dict(raw)
        self.where = where
        self.errors = errors
        self.strict = strict

    def take(self, key, kind, required=False, default=None):
        if key not in self.raw:
            if required:
                self.errors.append(f"{self.where}: missing required key "
                                   f"'{key}'")
            return default
        value = self.raw.pop(key)
        return self._convert(key, value, kind, default)

    def _convert(self, key, value, kind, default):
        where = f"{self.where}.{key}"
        if kind == "number":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                self.errors.append(f"{where}: expected a number")
                return default
            return float(value)
        if kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                self.errors.append(f"{where}: expected an integer")
                return default
            return int(value)
        if kind == "string":
            if not isinstance(value, str):
                self.errors.append(f"{where}: expected a string")
                return default
            return value
        if kind == "pair":
            if not (isinstance(value, list) and len(value) == 2
                    and all(isinstance(v, (int, float))
                            and not isinstance(v, bool) for v in value)):
                self.errors.append(f"{where}: expected [number, number]")
                return default
            return (float(value[0]), float(value[1]))
        if kind == "string-list":
            if not (isinstance(value, list)
                    and all(isinstance(v, str) for v in value)):
                self.errors.append(f"{where}: expected a list of strings")
                return default
            return tuple(value)
        if kind == "complex":
            # a plain number or a [re, im] pair
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return complex(float(value))
            if (isinstance(value, list) and len(value) == 2
                    and all(isinstance(v, (int, float))
                            and not isinstance(v, bool) for v in value)):
                return complex(float(value[0]), float(value[1]))
            self.errors.append(f"{where}: expected a number or [re, im]")
            return default
        raise AssertionError(f"unknown kind {kind}")

    def finish(self):
        if self.strict and self.raw:
            keys = ", ".join(sorted(self.raw))
            self.errors.append(f"{self.where}: unknown keys: {keys}")


def _positive(errors, where, value, strict_positive=True):
    if value is None:
        return
    bad = (value <= 0.0) if strict_positive else (value < 0.0)
    if bad:
        op = ">" if strict_positive else ">="
        errors.append(f"{where}: must be {op} 0, got {value:g}")


def parse_scenario(path, strict=True):
    """Load and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError([f"cannot read scenario file: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{path}: not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ScenarioError([f"{path}: top level must be a JSON object"])
    default_name = os.path.splitext(os.path.basename(str(path)))[0]
    return scenario_from_dict(raw, strict=strict, default_name=default_name)


def scenario_from_dict(raw, strict=True, default_name="scenario"):
    """Validate an already-loaded scenario dictionary."""
    errors = []
    top = _Block(raw, "scenario", errors, strict)
    name = top.take("name", "string", default=default_name)

    # blocks are extracted manually so missing ones can be reported together
    blocks = {}
    for key in ("units", "system", "bath", "state", "equation", "run",
                "stochastic"):
        if key in top.raw:
            value = top.raw.pop(key)
            if isinstance(value, dict):
                blocks[key] = value
            else:
                errors.append(f"scenario.{key}: expected an object")
        elif key in ("system", "bath", "equation", "run"):
            errors.append(f"scenario: missing required block '{key}'")
    top.finish()

    units_b = _Block(blocks.get("units", {}), "units", errors, strict)
    hbar = units_b.take("hbar", "number", default=1.0)
    k_B = units_b.take("k_B", "number", default=1.0)
    units_b.finish()
    _positive(errors, "units.hbar", hbar)
    _positive(errors, "units.k_B", k_B)

    sys_b = _Block(blocks.get("system", {}), "system", errors, strict)
    m = sys_b.take("m", "number", required=True)
    omega_S = sys_b.take("omega_S", "number", required=True)
    sys_b.finish()
    _positive(errors, "system.m", m)
    if omega_S is not None and omega_S < 0.0:
        errors.append(f"system.omega_S: must be >= 0, got {omega_S:g}")

    bath_b = _Block(blocks.get("bath", {}), "bath", errors, strict)
    gamma = bath_b.take("gamma", "number", required=True)
    T = bath_b.take("T", "number", required=True)
    cutoff = bath_b.take("cutoff", "string", default="sharp")
    Omega = bath_b.take("Omega", "number")
    quad_tol = bath_b.take("quad_tol", "number", default=1e-8)
    bath_b.finish()
    _positive(errors, "bath.gamma", gamma, strict_positive=False)
    _positive(errors, "bath.T", T)
    _positive(errors, "bath.Omega", Omega)
    _positive(errors, "bath.quad_tol", quad_tol)
    if cutoff is not None:
        try:
            CutoffKind(cutoff)
        except ValueError:
            valid = ", ".join(k.value for k in CutoffKind)
            errors.append(f"bath.cutoff: unknown kind '{cutoff}' "
                          f"(valid: {valid})")

    state_b = _Block(blocks.get("state", {}), "state", errors, strict)
    kind = state_b.take("kind", "string", default="coherent")
    mean_q = state_b.take("mean_q", "number", default=0.0)
    mean_p = state_b.take("mean_p", "number", default=0.0)
    r = state_b.take("r", "number")
    nbar = state_b.take("nbar", "number")
    sigma_qq = state_b.take("sigma_qq", "number")
    sigma_pp = state_b.take("sigma_pp", "number")
    sigma_qp = state_b.take("sigma_qp", "number")
    state_b.finish()
    if kind is not None and kind not in _STATE_KINDS:
        errors.append(f"state.kind: unknown kind '{kind}' "
                      f"(valid: {', '.join(_STATE_KINDS)})")
    if kind == "squeezed" and r is None:
        errors.append("state: squeezed state requires 'r'")
    if kind == "thermal" and nbar is None:
        errors.append("state: thermal state requires 'nbar'")
    if kind == "thermal" and nbar is not None and nbar < 0.0:
        errors.append(f"state.nbar: must be >= 0, got {nbar:g}")
    if kind == "gaussian":
        missing = [k for k, v in (("sigma_qq", sigma_qq),
                                  ("sigma_pp", sigma_pp),
                                  ("sigma_qp", sigma_qp)) if v is None]
        if missing:
            errors.append("state: gaussian state requires "
                          + ", ".join(missing))
        _positive(errors, "state.sigma_qq", sigma_qq)
        _positive(errors, "state.sigma_pp", sigma_pp)

    eq_b = _Block(blocks.get("equation", {}), "equation", errors, strict)
    variant = eq_b.take("variant", "string", required=True)
    order = eq_b.take("order", "int", default=1)
    mu = eq_b.take("mu", "number")
    grid_raw = eq_b.raw.pop("coefficient_grid", None)
    eq_b.finish()
    grid_t_max = grid_n = None
    if grid_raw is not None:
        if not isinstance(grid_raw, dict):
            errors.append("equation.coefficient_grid: expected an object")
        else:
            grid_b = _Block(grid_raw, "equation.coefficient_grid", errors,
                            strict)
            grid_t_max = grid_b.take("t_max", "number", required=True)
            grid_n = grid_b.take("n", "int", required=True)
            grid_b.finish()
            _positive(errors, "equation.coefficient_grid.t_max", grid_t_max)
            if grid_n is not None and grid_n < 2:
                errors.append("equation.coefficient_grid.n: need at least "
                              "2 nodes")
    if variant is not None:
        try:
            Variant(variant)
        except ValueError:
            valid = ", ".join(v.value for v in Variant)
            errors.append(f"equation.variant: unknown variant '{variant}' "
                          f"(valid: {valid})")
    if order is not None and not 1 <= order <= MAX_CHEAP_ORDER:
        errors.append(f"equation.order: must be between 1 and "
                      f"{MAX_CHEAP_ORDER}, got {order}")
    if variant == "qp" and mu is None:
        errors.append("equation: variant 'qp' requires 'mu'")

    run_b = _Block(blocks.get("run", {}), "run", errors, strict)
    t_span = run_b.take("t_span", "pair", required=True)
    dt = run_b.take("dt", "number", required=True)
    store_every = run_b.take("store_every", "int", default=1)
    outputs = run_b.take("outputs", "string-list", default=("moments",))
    run_b.finish()
    _positive(errors, "run.dt", dt)
    if t_span is not None and not t_span[1] > t_span[0]:
        errors.append(f"run.t_span: need t1 > t0, got {list(t_span)}")
    if store_every is not None and store_every < 1:
        errors.append(f"run.store_every: must be >= 1, got {store_every}")
    if outputs is not None:
        unknown = [o for o in outputs if o not in _VALID_OUTPUTS]
        if unknown:
            errors.append(f"run.outputs: unknown outputs {unknown} "
                          f"(valid: {', '.join(_VALID_OUTPUTS)})")
        if not outputs:
            errors.append("run.outputs: need at least one output")

    stochastic = None
    if "stochastic" in blocks:
        sto_b = _Block(blocks["stochastic"], "stochastic", errors, strict)
        dim = sto_b.take("dim", "int", required=True)
        n_traj = sto_b.take("n_traj", "int", required=True)
        seed = sto_b.take("seed", "int", required=True)
        S_scalar = sto_b.take("S_scalar", "complex", default=0.0 + 0.0j)
        sto_b.finish()
        if dim is not None and dim < 2:
            errors.append(f"stochastic.dim: must be >= 2, got {dim}")
        if n_traj is not None and n_traj < 1:
            errors.append(f"stochastic.n_traj: must be >= 1, got {n_traj}")
        if seed is not None and not 0 <= seed < 2 ** 64:
            errors.append("stochastic.seed: must fit in an unsigned 64-bit "
                          "integer")
        if None not in (dim, n_traj, seed):
            stochastic = StochasticBlock(dim=dim, n_traj=n_traj, seed=seed,
                                         S_scalar=S_scalar
                                         if S_scalar is not None else 0.0j)

    # ------------------------------------------------ cross-block checks
    outputs = outputs or ()
    needs_kernel = ("kernel" in outputs or "coefficients" in outputs
                    or variant == "hpz")
    if needs_kernel:
        if Omega is None:
            errors.append("bath.Omega: required when a tabulated kernel is "
                          "needed (hpz variant or kernel/coefficients "
                          "outputs)")
        if grid_t_max is None and grid_raw is None:
            errors.append("equation.coefficient_grid: required when a "
                          "tabulated kernel is needed (hpz variant or "
                          "kernel/coefficients outputs)")
    if (variant == "hpz" and grid_t_max is not None and t_span is not None
            and grid_t_max < t_span[1] - 1e-12):
        errors.append("equation.coefficient_grid.t_max: must cover "
                      f"run.t_span (need >= {t_span[1]:g}, got "
                      f"{grid_t_max:g})")
    if "audit" in outputs and variant == "qp":
        errors.append("run.outputs: no Kossakowski form is defined for the "
                      "'qp' variant; drop the audit output")
    if "ensemble" in outputs:
        if variant != "ccl":
            errors.append("run.outputs: the ensemble pipeline unravels the "
                          "'ccl' variant only")
        if stochastic is None and "stochastic" not in blocks:
            errors.append("scenario: ensemble output requires a "
                          "'stochastic' block")
        if kind not in ("coherent", "squeezed"):
            errors.append("state.kind: ensemble runs need a pure coherent "
                          "or squeezed initial state")
    if kind in ("coherent", "squeezed", "thermal") and omega_S is not None \
            and omega_S <= 0.0:
        errors.append(f"system.omega_S: state kind '{kind}' requires a "
                      "confining potential (omega_S > 0)")

    if errors:
        raise ScenarioError(errors)

    return Scenario(
        name=name if name is not None else default_name,
        units=PhysicalConstants(hbar=hbar, k_B=k_B),
        system=SystemBlock(m=m, omega_S=omega_S),
        bath=BathBlock(gamma=gamma, T=T, cutoff=cutoff, Omega=Omega,
                       quad_tol=quad_tol),
        state=StateBlock(kind=kind, mean_q=mean_q, mean_p=mean_p, r=r,
                         nbar=nbar, sigma_qq=sigma_qq, sigma_pp=sigma_pp,
                         sigma_qp=sigma_qp),
        equation=EquationBlock(variant=variant, order=order, mu=mu,
                               grid_t_max=grid_t_max, grid_n=grid_n),
        run=RunBlock(t_span=t_span, dt=dt, store_every=store_every,
                     outputs=tuple(outputs)),
        stochastic=stochastic,
    )


def scenario_to_dict(scenario):
    """Canonical dictionary form with every default materialized."""
    out = {
        "name": scenario.name,
        "units": {"hbar": scenario.units.hbar, "k_B": scenario.units.k_B},
        "system": {"m": scenario.system.m,
                   "omega_S": scenario.system.omega_S},
        "bath": {"gamma": scenario.bath.gamma, "T": scenario.bath.T,
                 "cutoff": scenario.bath.cutoff,
                 "quad_tol": scenario.bath.quad_tol},
        "state": {"kind": scenario.state.kind,
                  "mean_q": scenario.state.mean_q,
                  "mean_p": scenario.state.mean_p},
        "equation": {"variant": scenario.equation.variant,
                     "order": scenario.equation.order},
        "run": {"t_span": list(scenario.run.t_span),
                "dt": scenario.run.dt,
                "store_every": scenario.run.store_every,
                "outputs": list(scenario.run.outputs)},
    }
    if scenario.bath.Omega is not None:
        out["bath"]["Omega"] = scenario.bath.Omega
    state = scenario.state
    for key, value in (("r", state.r), ("nbar", state.nbar),
                       ("sigma_qq", state.sigma_qq),
                       ("sigma_pp", state.sigma_pp),
                       ("sigma_qp", state.sigma_qp)):
        if value is not None:
            out["state"][key] = value
    if scenario.equation.mu is not None:
        out["equation"]["mu"] = scenario.equation.mu
    if scenario.equation.grid_t_max is not None:
        out["equation"]["coefficient_grid"] = {
            "t_max": scenario.equation.grid_t_max,
            "n": scenario.equation.grid_n}
    if scenario.stochastic is not None:
        sto = scenario.stochastic
        out["stochastic"] = {"dim": sto.dim, "n_traj": sto.n_traj,
                             "seed": sto.seed,
                             "S_scalar": [sto.S_scalar.real,
                                          sto.S_scalar.imag]}
    return out


def scenario_to_json(scenario):
    """Canonical serialization: sorted keys, minimal whitespace."""
    return json.dumps(scenario_to_dict(scenario), sort_keys=True,
                      separators=(",", ":"))


def scenario_hash(scenario):
    """Hex SHA-256 of the canonical serialization."""
    return hashlib.sha256(scenario_to_json(scenario).encode()).hexdigest()
