"""Scenario files: strict JSON configs that drive the CLI pipelines.

A scenario is a JSON object: an optional `name` (default: the file
stem) and the blocks units, system, bath, state, equation, run and
stochastic.  Each key is declared once, as a field of the block
dataclasses below.  `key` gives its JSON kind or nested block class,
its lower bound (`gt`/`ge`) and its allowed values; the field default
is the key's default, and a field without one is a required key.  One
reader (`_read`) and one writer (`scenario_to_dict`) walk those fields;
`_cross_rules` holds the rules that involve more than one key or block.

Parsing is strict by default: unknown keys anywhere are rejected, and
every missing, ill-typed or non-finite entry is reported in a single
ScenarioError.  Physics parameters (m, omega_S, gamma, T) are never
defaulted.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields

from .bath import (_SPAN_RTOL, CutoffKind, PhysicalConstants, _is_int,
                   _is_seed)
from .coefficients import MAX_CHEAP_ORDER
from .dynamics import MasterEquationSpec, SystemSpec, Variant
from .positivity import check_noise_realizable, rank_one_factor

_VALID_OUTPUTS = ("kernel", "coefficients", "audit", "moments", "ensemble")
_STATE_KINDS = ("coherent", "squeezed", "thermal", "gaussian")


class ScenarioError(ValueError):
    """All validation problems of one scenario, collected together."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


def key(kind, default=MISSING, **rules):
    """Declare one scenario key as a dataclass field (no default: required).

    `kind` is a `_KINDS` name or a block dataclass.  Rules: `gt`/`ge`
    (lower bound), `choices` (allowed strings; an unknown one is named
    `noun`, default the key), and for blocks `make` (the class built
    from the block's fields).
    """
    return field(default=default, metadata={"kind": kind, **rules})


@dataclass(frozen=True)
class _Units:
    hbar: float = key("number", 1.0, gt=0.0)
    k_B: float = key("number", 1.0, gt=0.0)


@dataclass(frozen=True)
class SystemBlock:
    m: float = key("number", gt=0.0)
    omega_S: float = key("number", ge=0.0)


@dataclass(frozen=True)
class BathBlock:
    gamma: float = key("number", ge=0.0)
    T: float = key("number", gt=0.0)
    cutoff: str = key("string", "sharp",
                      choices=tuple(k.value for k in CutoffKind), noun="kind")
    Omega: float | None = key("number", None, gt=0.0)
    quad_tol: float = key("number", 1e-8, gt=0.0)


@dataclass(frozen=True)
class StateBlock:
    kind: str = key("string", "coherent", choices=_STATE_KINDS)
    mean_q: float = key("number", 0.0)
    mean_p: float = key("number", 0.0)
    r: float | None = key("number", None)
    nbar: float | None = key("number", None, ge=0.0)
    sigma_qq: float | None = key("number", None, gt=0.0)
    sigma_pp: float | None = key("number", None, gt=0.0)
    sigma_qp: float | None = key("number", None)


@dataclass(frozen=True)
class GridBlock:
    t_max: float = key("number", gt=0.0)
    n: int = key("int")


@dataclass(frozen=True)
class EquationBlock:
    variant: str = key("string", choices=tuple(v.value for v in Variant))
    order: int = key("int", 1)
    mu: float | None = key("number", None)
    coefficient_grid: GridBlock | None = key(GridBlock, None)

    @property
    def grid_t_max(self):
        return self.coefficient_grid and self.coefficient_grid.t_max

    @property
    def grid_n(self):
        return self.coefficient_grid and self.coefficient_grid.n


@dataclass(frozen=True)
class RunBlock:
    t_span: tuple = key("pair")
    dt: float = key("number", gt=0.0)
    store_every: int = key("int", 1, ge=1)
    outputs: tuple = key("string-list", ("moments",))


@dataclass(frozen=True)
class StochasticBlock:
    n_traj: int = key("int", ge=1)
    seed: int = key("int")
    S_scalar: complex = key("complex", 0j)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    name: str = key("string", None)  # None: the file stem
    units: PhysicalConstants = key(_Units, PhysicalConstants(),
                                   make=PhysicalConstants)
    system: SystemSpec = key(SystemBlock, make=SystemSpec)
    bath: BathBlock = key(BathBlock)
    state: StateBlock = key(StateBlock, StateBlock())
    equation: EquationBlock = key(EquationBlock)
    run: RunBlock = key(RunBlock)
    stochastic: StochasticBlock | None = key(StochasticBlock, None)


def needs_kernel(variant, outputs):
    """Whether a run tabulates the bath kernel and its coefficients."""
    return variant == "hpz" or "kernel" in outputs or "coefficients" in outputs


def _number(value):
    """`value` as a finite float, or None if it is not one."""
    if not (_is_int(value) or isinstance(value, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        return None
    return value if math.isfinite(value) else None


def _pair(value):
    if isinstance(value, list) and len(value) == 2:
        pair = tuple(_number(v) for v in value)
        if None not in pair:
            return pair
    return None


def _complex(value):
    parts = _pair(value) or (_number(value),)
    return None if None in parts else complex(*parts)


# kind -> (converter returning None on failure, what was expected)
_KINDS = {
    "number": (_number, "a number"),
    "int": (lambda v: v if _is_int(v) else None, "an integer"),
    "string": (lambda v: v if isinstance(v, str) else None, "a string"),
    "pair": (_pair, "[number, number]"),
    "string-list": (lambda v: tuple(v) if isinstance(v, list) and all(
        isinstance(s, str) for s in v) else None, "a list of strings"),
    "complex": (_complex, "a number or [re, im]"),
}


def _bound(errors, where, value, gt=None, ge=None):
    """Report a `value` that is not > gt, or not >= ge."""
    if gt is not None and not value > gt:
        op, low = ">", gt
    elif ge is not None and not value >= ge:
        op, low = ">=", ge
    else:
        return
    shown = f"{value:g}" if isinstance(value, float) else value
    errors.append(f"{where}: must be {op} {low:g}, got {shown}")


def _read(cls, raw, where, errors, strict):
    """Values of the keys `cls` declares, read from the JSON object `raw`.

    Every problem is appended to `errors`.  A missing required key reads
    as None, an ill-typed one as its default; a value that breaks its
    bound or choices is kept.  Blocks read as dicts of values.  An
    optional block whose default is None reads as None when absent and
    as {} when it is not an object; any other block is read from {}
    then, so its own defaults and missing keys show.
    """
    raw = dict(raw)
    values = {}
    for f in fields(cls):
        name, meta, kind = f.name, f.metadata, f.metadata["kind"]
        default = None if f.default is MISSING else f.default
        is_block = isinstance(kind, type)
        path = name if is_block and where == "scenario" else f"{where}.{name}"
        value = raw.pop(name, MISSING)
        if value is MISSING:
            if f.default is MISSING:
                noun = "block" if is_block else "key"
                errors.append(f"{where}: missing required {noun} '{name}'")
            if not is_block or f.default is None:
                values[name] = default
                continue
            value = {}
        if is_block:
            if not isinstance(value, dict):
                errors.append(f"{where}.{name}: expected an object")
                if f.default is None:
                    values[name] = {}
                    continue
                value = {}
            values[name] = _read(kind, value, path, errors, strict)
            continue
        convert, expected = _KINDS[kind]
        value = convert(value)
        if value is None:
            errors.append(f"{path}: expected {expected}")
            values[name] = default
            continue
        values[name] = value
        _bound(errors, path, value, meta.get("gt"), meta.get("ge"))
        choices = meta.get("choices")
        if choices is not None and value not in choices:
            errors.append(f"{path}: unknown {meta.get('noun', name)} "
                          f"'{value}' (valid: {', '.join(choices)})")
    if strict and raw:
        errors.append(f"{where}: unknown keys: {', '.join(sorted(raw))}")
    return values


def _build(cls, values, make=None):
    """The block object of `cls` from the values `_read` returned."""
    kwargs = {}
    for f in fields(cls):
        value = values[f.name]
        if isinstance(f.metadata["kind"], type) and value is not None:
            value = _build(f.metadata["kind"], value, f.metadata.get("make"))
        kwargs[f.name] = value
    return (make or cls)(**kwargs)


def _cross_rules(sc, errors):
    """The rules that involve more than one key or block."""
    state, eq, run = sc["state"], sc["equation"], sc["run"]
    kind, variant, outputs = state["kind"], eq["variant"], run["outputs"]
    grid, t_span, sto = eq["coefficient_grid"], run["t_span"], sc["stochastic"]

    for needs, name in (("squeezed", "r"), ("thermal", "nbar")):
        if kind == needs and state[name] is None:
            errors.append(f"state: {needs} state requires '{name}'")
    if kind == "gaussian":
        missing = [k for k in ("sigma_qq", "sigma_pp", "sigma_qp")
                   if state[k] is None]
        if missing:
            errors.append("state: gaussian state requires "
                          + ", ".join(missing))
    omega_S = sc["system"]["omega_S"]
    if kind in ("coherent", "squeezed", "thermal") and omega_S is not None \
            and omega_S <= 0.0:
        errors.append(f"system.omega_S: state kind '{kind}' requires a "
                      "confining potential (omega_S > 0)")

    if not 1 <= eq["order"] <= MAX_CHEAP_ORDER:
        errors.append(f"equation.order: must be between 1 and "
                      f"{MAX_CHEAP_ORDER}, got {eq['order']}")
    if variant == "qp" and eq["mu"] is None:
        errors.append("equation: variant 'qp' requires 'mu'")
    if grid and grid["n"] is not None and grid["n"] < 2:
        errors.append("equation.coefficient_grid.n: need at least 2 nodes")

    if t_span is not None and not t_span[1] > t_span[0]:
        errors.append(f"run.t_span: need t1 > t0, got {list(t_span)}")
    unknown = [o for o in outputs if o not in _VALID_OUTPUTS]
    if unknown:
        errors.append(f"run.outputs: unknown outputs {unknown} "
                      f"(valid: {', '.join(_VALID_OUTPUTS)})")
    if not outputs:
        errors.append("run.outputs: need at least one output")
    if sto and sto["seed"] is not None and not _is_seed(sto["seed"]):
        errors.append("stochastic.seed: must fit in an unsigned 64-bit "
                      "integer")

    if needs_kernel(variant, outputs):
        needed = ("required when a tabulated kernel is needed (hpz variant "
                  "or kernel/coefficients outputs)")
        if sc["bath"]["Omega"] is None:
            errors.append(f"bath.Omega: {needed}")
        if grid is None:
            errors.append(f"equation.coefficient_grid: {needed}")
    t_max = grid.get("t_max") if grid else None
    if variant == "hpz" and t_max is not None and t_span is not None \
            and t_span[1] > t_max * (1.0 + _SPAN_RTOL):
        errors.append("equation.coefficient_grid.t_max: must cover "
                      f"run.t_span (need >= {t_span[1]:g}, got {t_max:g})")
    if variant == "hpz" and t_span is not None and t_span[0] < 0.0:
        errors.append("run.t_span: the hpz coefficient grid starts at "
                      f"t = 0, so t0 must be >= 0, got {t_span[0]:g}")
    if "ensemble" in outputs:
        if variant == "hpz":
            errors.append("run.outputs: the ensemble pipeline needs a "
                          "constant generator; 'hpz' is tabulated")
        else:
            _unraveling_rules(sc, errors)
        if not sto:
            errors.append("scenario: ensemble output requires a "
                          "'stochastic' block")
        if kind not in ("coherent", "squeezed"):
            errors.append("state.kind: ensemble runs need a pure coherent "
                          "or squeezed initial state")


def _unraveling_rules(sc, errors):
    """An ensemble needs a = D v v^dag (rank <= 1) and |S_scalar| <= D."""
    eq, bath, sto = sc["equation"], sc["bath"], sc["stochastic"]
    try:
        a = MasterEquationSpec(
            eq["variant"], SystemSpec(**sc["system"]),
            constants=PhysicalConstants(**sc["units"]), gamma=bath["gamma"],
            T=bath["T"], mu=eq["mu"]).generator.a
    except (TypeError, ValueError):
        return  # a key the generator needs is reported already
    try:
        d, _ = rank_one_factor(a)
    except ValueError as exc:
        errors.append(f"run.outputs: the '{eq['variant']}' generator has no "
                      f"linear unraveling: {exc}")
        return
    s = (sto or {}).get("S_scalar")
    if s is not None:
        try:
            check_noise_realizable(d, s)
        except ValueError as exc:
            errors.append(f"stochastic.S_scalar: {exc}")


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
    values = _read(Scenario, raw, "scenario", errors, strict)
    if values["name"] is None:
        values["name"] = default_name
    _cross_rules(values, errors)
    if errors:
        raise ScenarioError(errors)
    return _build(Scenario, values)


def scenario_to_dict(scenario, cls=Scenario):
    """Canonical dictionary form with every default materialized."""
    out = {}
    for f in fields(cls):
        value = getattr(scenario, f.name)
        if isinstance(f.metadata["kind"], type) and value is not None:
            value = scenario_to_dict(value, f.metadata["kind"])
        elif isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, complex):
            value = [value.real, value.imag]
        if value is not None:
            out[f.name] = value
    return out


def scenario_to_json(scenario):
    """Canonical serialization: sorted keys, minimal whitespace."""
    return json.dumps(scenario_to_dict(scenario), sort_keys=True,
                      separators=(",", ":"))


def scenario_hash(scenario):
    """Hex SHA-256 of the canonical serialization."""
    return hashlib.sha256(scenario_to_json(scenario).encode()).hexdigest()
