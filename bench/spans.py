"""Spans around the program's layer boundaries, recorded from outside.

`Tracer.install` replaces public functions at the names their callers
look up (`qbmlab.cli.<name>`, `qbmlab.io.<name>`, the module attributes
the library tasks call, and `CorrelationKernel.from_bath`) with wrappers
that record one span per call and pass arguments, return values and
exceptions through unchanged.  `scipy.integrate.quad` is wrapped only to
count calls.  Spans are recorded only while a task is running, and only
on the main thread; they stay in memory until `layer_metrics` reads them.

A span's self time is its duration minus the time its child spans cover.
"""

import functools
import inspect
import itertools
import os
import threading
import time
import warnings
from collections import Counter
from contextlib import contextmanager

# Per RK4 stage, the dense Fock generator does this many dim x dim matrix
# products: 2 for [H, rho], 4 for [q, [q, rho]], 4 for the friction term
# (cl, ccl), 4 for the CCL [p, [p, rho]] term; qp: 2 + 4; hpz: 2+2+4+4+4.
_FOCK_MATMULS = {"jz": 6, "cl": 10, "ccl": 14, "qp": 6, "hpz": 16}


def rk4_steps(t_span, dt):
    """Step count of the fixed-step integrators for a span and step."""
    return max(1, int(round((float(t_span[1]) - float(t_span[0])) / dt)))


def dress_flops(n, order):
    """Real flops of the triangular dressing recursion on an n-node grid.

    Each order above 1 does, for every row k = 2..n, two complex k x k
    matrix-vector products and two complex k x n vector-matrix products,
    at 8 real flops per complex multiply-add.
    """
    per_order = sum(16 * k * k + 16 * k * n for k in range(2, n + 1))
    return (order - 1) * per_order


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.task = None
        self._stack = []
        self._undo = []
        self._ids = itertools.count()
        self._main = threading.main_thread()

    # ---------------------------------------------------------- recording

    def _recording(self):
        return self.task is not None \
            and threading.current_thread() is self._main

    def _open(self, layer):
        span = {"layer": layer, "task": self.task,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "id": next(self._ids)}
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def task_span(self, task_id):
        """Root span of one task; layer spans are recorded inside it."""
        self.task = task_id
        span = self._open("task")
        try:
            yield
        finally:
            self._close(span)
            self.task = None

    def _wrap(self, fn, layer, describe=None, catch_warnings=False):
        signature = inspect.signature(fn) if describe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording():
                return fn(*args, **kwargs)
            span = self._open(layer)
            try:
                if catch_warnings:
                    result = self._call_counting_warnings(fn, args, kwargs,
                                                          span)
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if describe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(describe(result, bound.arguments))
            return result
        return traced

    @staticmethod
    def _call_counting_warnings(fn, args, kwargs, span):
        """Call fn, count its QuadratureWarnings and re-emit every warning.

        Each recorded warning is re-issued with its original message
        object, category, file and line, so the caller's own warning
        handling (the manifest's warning capture) sees the same records.
        """
        from qbmlab.bath import QuadratureWarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        span["quad_warnings"] = sum(
            issubclass(w.category, QuadratureWarning) for w in caught)
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename,
                                   w.lineno, source=w.source)
        return result

    # ---------------------------------------------------------- wrappers

    def _replace(self, owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def _count_calls(self, name):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self._recording():
                    self.counters[name] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def install(self):
        """Wrap the layer boundaries; `uninstall` restores them."""
        import scipy.integrate
        from qbmlab import (bath, cli, coefficients, dynamics, fock, io,
                            positivity)

        def wrap(owner, attr, layer, describe=None, catch=False):
            self._replace(owner, attr,
                          lambda fn: self._wrap(fn, layer, describe, catch))

        self._replace(scipy.integrate, "quad",
                      self._count_calls("bath.quad_calls"))
        wrap(bath.CorrelationKernel, "from_bath", "bath", _describe_bath,
             catch=True)
        for module in (cli, coefficients):
            wrap(module, "dressed_kernel", "coefficients.dress",
                 _describe_dress)
            wrap(module, "compute_coefficients", "coefficients.window")
        for module in (cli, dynamics):
            wrap(module, "integrate_moments", "dynamics", _describe_moments)
        for module in (cli, positivity):
            wrap(module, "audit_cp", "positivity", _describe_audit)
        wrap(cli, "assemble_constant_matrix", "positivity")
        wrap(fock, "fock_propagate", "fock", _describe_fock)
        wrap(cli, "ensemble_run", "stochastic", _describe_ensemble)
        wrap(io, "write_csv", "io.write", _describe_file)
        wrap(io, "write_json", "io.write", _describe_file)
        wrap(io, "read_csv", "io.read", _describe_file)
        wrap(cli, "parse_scenario", "scenario")
        wrap(cli, "run_scenario", "cli", _describe_run)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- summary

    def layer_metrics(self, passes, health):
        """Per-layer figures per pass, from the spans and counters.

        `health` carries the numerical-health figures the oracle checks
        measured (kernel, Fock and ensemble deviations).
        """
        child = Counter()
        for s in self.spans:
            s["dur"] = s["end"] - s["start"]
            if s["parent"] is not None:
                child[s["parent"]] += s["dur"]
        for s in self.spans:
            s["self"] = s["dur"] - child[s["id"]]

        def total(key, layer, **match):
            return sum(s.get(key, 0.0) for s in self.spans
                       if s["layer"] == layer
                       and all(s.get(k) == v for k, v in match.items()))

        def ratio(num, den, factor=1.0):
            return factor * num / den if den else 0.0

        n = max(passes, 1)
        bath_sharp = total("self", "bath", rule="sharp")
        bath_tail = total("self", "bath", rule="tail")
        dress_s = total("self", "coefficients.dress")
        dress_flop = total("flops", "coefficients.dress")
        const_s = total("self", "dynamics", kind="const")
        hpz_s = total("self", "dynamics", kind="hpz")
        pos_s = total("self", "positivity")
        fock_s = total("self", "fock")
        sto_s = total("self", "stochastic")
        task_s = total("dur", "task")
        return {
            "bath.self_s": (bath_sharp + bath_tail) / n,
            "bath.nodes": total("nodes", "bath") / n,
            "bath.quad_calls": self.counters["bath.quad_calls"] / n,
            "bath.us_per_node_sharp": ratio(
                bath_sharp, total("nodes", "bath", rule="sharp"), 1e6),
            "bath.us_per_node_tail": ratio(
                bath_tail, total("nodes", "bath", rule="tail"), 1e6),
            "bath.quad_warnings": total("quad_warnings", "bath") / n,
            "bath.im_rel_err": health.get("bath.im_rel_err", 0.0),
            "coefficients.dress_self_s": dress_s / n,
            "coefficients.window_self_s":
                total("self", "coefficients.window") / n,
            "coefficients.dress_gflop": dress_flop / n / 1e9,
            "coefficients.dress_gflops": ratio(dress_flop, dress_s, 1e-9),
            "coefficients.table_mb":
                total("table_bytes", "coefficients.dress") / n / 1e6,
            "dynamics.self_s": (const_s + hpz_s) / n,
            "dynamics.steps": total("steps", "dynamics") / n,
            "dynamics.const_us_per_step": ratio(
                const_s, total("steps", "dynamics", kind="const"), 1e6),
            "dynamics.hpz_us_per_step": ratio(
                hpz_s, total("steps", "dynamics", kind="hpz"), 1e6),
            "positivity.self_s": pos_s / n,
            "positivity.matrices": total("matrices", "positivity") / n,
            "positivity.us_per_matrix": ratio(
                pos_s, total("matrices", "positivity"), 1e6),
            "fock.self_s": fock_s / n,
            "fock.steps": total("steps", "fock") / n,
            "fock.ms_per_step": ratio(fock_s, total("steps", "fock"), 1e3),
            "fock.gflop": total("flops", "fock") / n / 1e9,
            "fock.max_dev": health.get("fock.max_dev", 0.0),
            "fock.leak_max": health.get("fock.leak_max", 0.0),
            "stochastic.self_s": sto_s / n,
            "stochastic.traj_steps": total("traj_steps", "stochastic") / n,
            "stochastic.ns_per_traj_step": ratio(
                sto_s, total("traj_steps", "stochastic"), 1e9),
            "stochastic.alive_frac": ratio(
                total("alive", "stochastic"), total("n_traj", "stochastic")),
            "stochastic.z_max": health.get("stochastic.z_max", 0.0),
            "io.write_self_s": total("self", "io.write") / n,
            "io.files_written": sum(
                s["layer"] == "io.write" for s in self.spans) / n,
            "io.bytes_written": total("bytes", "io.write") / n,
            "io.read_self_s": total("self", "io.read") / n,
            "io.bytes_read": total("bytes", "io.read") / n,
            "scenario.parse_s": total("self", "scenario") / n,
            "cli.self_s": total("self", "cli") / n,
            "cli.warnings": total("warnings", "cli") / n,
            "trace.unattributed_frac": ratio(total("self", "task"), task_s),
        }


# -------------------------------------------- span attributes per layer

def _describe_bath(kernel, a):
    rule = "sharp" if a["bath"].spectral.cutoff_kind.value == "sharp" \
        else "tail"
    return {"nodes": int(kernel.grid.size), "rule": rule}


def _describe_dress(dressed, a):
    n = int(dressed.grid.size)
    table = 0 if dressed.table is None else dressed.table.nbytes
    return {"flops": dress_flops(n, dressed.order), "table_bytes": table}


def _describe_moments(_, a):
    kind = "hpz" if a["spec"].variant.value == "hpz" else "const"
    return {"steps": rk4_steps(a["t_span"], a["dt"]), "kind": kind}


def _describe_audit(report, _):
    return {"matrices": int(report.times.size)}


def _describe_fock(_, a):
    dim = len(a["rho0"])
    steps = rk4_steps(a["t_span"], a["dt"])
    matmuls = 4 * _FOCK_MATMULS[a["spec"].variant.value]
    return {"steps": steps, "flops": steps * matmuls * 8 * dim ** 3}


def _describe_ensemble(result, a):
    config = a["config"]
    return {"traj_steps": config.n_traj * rk4_steps(config.t_span,
                                                    config.dt),
            "alive": int(result.alive[-1]), "n_traj": config.n_traj}


def _describe_file(_, a):
    return {"bytes": os.path.getsize(a["path"])}


def _describe_run(manifest, _):
    return {"warnings": len(manifest.warnings)}
