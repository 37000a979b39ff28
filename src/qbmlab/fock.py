"""Brute-force Fock-space propagation of the same master equations.

This module exists to cross-check the Gaussian moment maps in
:mod:`qbmlab.dynamics` against direct density-matrix integration in a
truncated number basis.  Both derive from the spec's generator (G, a),
here in the Lindblad form K rho + rho K^dag + sum_jk a_jk F_j rho F_k.
It is deliberately simple: dense matrices, the RK4 step of the moment
ODE, explicit monitors for trace drift and truncation leakage.  Matrix
elements use the oscillator length of the system frequency as the basis
scale.  `observables` and `central_moments` are the read-out that the
unraveling shares.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .bath import PhysicalConstants
from .dynamics import (GaussianMomentState, rk4_stage_times, rk4_step,
                       step_plan)

_LEAK_THRESHOLD = 1e-6  # combined population of the top two levels
_TRACE_RATE = 1e-8  # allowed trace drift per unit time


class TruncationWarning(UserWarning):
    """State weight reached the top of the truncated basis."""


class TraceDriftWarning(UserWarning):
    """Propagation lost more trace than the per-unit-time budget."""


def ladder(dim):
    """Lowering operator a."""
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def position_momentum(dim, system, constants=PhysicalConstants()):
    """q and p matrices in the number basis of omega_S."""
    if system.omega_S <= 0.0:
        raise ValueError("number basis needs omega_S > 0")
    a = ladder(dim)
    ad = a.conj().T
    ell = np.sqrt(constants.hbar / (system.m * system.omega_S))
    q = ell / np.sqrt(2.0) * (a + ad)
    p = 1j * np.sqrt(constants.hbar * system.m * system.omega_S / 2.0) \
        * (ad - a)
    return q, p


def vacuum_state(dim):
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    return psi


def coherent_state(dim, alpha):
    """|alpha> via the displacement operator (exact within truncation)."""
    a = ladder(dim)
    d_op = expm(alpha * a.conj().T - np.conj(alpha) * a)
    return d_op @ vacuum_state(dim)


def squeezed_state(dim, r, alpha=0.0):
    """Displaced position-squeezed vacuum, D(alpha) S(r) |0>."""
    a = ladder(dim)
    s_op = expm(0.5 * r * (a @ a - a.conj().T @ a.conj().T))
    psi = s_op @ vacuum_state(dim)
    if alpha != 0.0:
        psi = expm(alpha * a.conj().T - np.conj(alpha) * a) @ psi
    return psi


def thermal_density(dim, nbar):
    """Thermal density matrix with mean occupation nbar."""
    if nbar < 0.0:
        raise ValueError("nbar must be non-negative")
    if nbar == 0.0:
        w = np.zeros(dim)
        w[0] = 1.0
    else:
        n = np.arange(dim)
        w = np.exp(n * np.log(nbar / (1.0 + nbar))) / (1.0 + nbar)
        w /= w.sum()  # renormalize the truncated tail
    return np.diag(w).astype(complex)


def alpha_from_moments(system, mean_q, mean_p, constants=PhysicalConstants()):
    """Coherent amplitude with the given expectation values."""
    ell = np.sqrt(constants.hbar / (system.m * system.omega_S))
    return (mean_q / ell + 1j * mean_p * ell / constants.hbar) / np.sqrt(2.0)


OBSERVABLES = ("norm2", "q", "p", "qq", "pp", "qp")


def observables(q, p):
    """Operators 1, q, p, q^2, p^2, {q, p}/2 of the raw moments, stacked
    in the order of `OBSERVABLES`.
    """
    return np.stack([np.eye(q.shape[0]), q, p, q @ q, p @ p,
                     0.5 * (q @ p + p @ q)])


def central_moments(raw):
    """(<q>, <p>, s_qq, s_pp, s_qp) from raw moments ordered as `OBSERVABLES`."""
    _, q, p, qq, pp, qp = raw
    return np.array([q, p, qq - q * q, pp - p * p, qp - q * p])


def _read(rho, obs):
    """Five central moments of rho from the stacked observables."""
    return central_moments(np.einsum('kij,ji->k', obs, rho).real)


def moments_from_density(rho, q, p):
    """First and symmetrized second central moments of rho."""
    return GaussianMomentState.from_array(_read(rho, observables(q, p)))


def check_truncation(top, t, dim, stacklevel):
    """Warn TruncationWarning, and return True, when `top`, the population
    of the two highest levels, exceeds the leakage threshold.
    """
    if top <= _LEAK_THRESHOLD:
        return False
    warnings.warn(f"truncation leakage {top:.3e} at t = {t:.6g} "
                  f"(dim = {dim})", TruncationWarning,
                  stacklevel=stacklevel + 1)
    return True


def lindblad_operators(spec, dim):
    """q, p and the map (G, a) -> (K, K^dag, pairs (F_j, sum_k a_jk F_k))
    with K = -(i/hbar) H - (1/2) sum_jk a_jk F_k F_j.
    """
    hbar = spec.constants.hbar
    F = position_momentum(dim, spec.system, spec.constants)
    FF = [[x @ y for y in F] for x in F]
    pairs = ((0, 0), (0, 1), (1, 0), (1, 1))

    def operators(G, a):
        K = sum((-0.5j / hbar) * G[j, k] * FF[j][k] - 0.5 * a[j, k] * FF[k][j]
                for j, k in pairs)
        jumps = [(F[j], a[j, 0] * F[0] + a[j, 1] * F[1]) for j in (0, 1)]
        return K, K.conj().T, jumps

    return F, operators


def _lindblad_rhs(rho, ops):
    """K rho + rho K^dag + sum_jk a_jk F_j rho F_k."""
    K, K_dag, jumps = ops
    out = K @ rho + rho @ K_dag
    for f, L in jumps:
        out += (f @ rho) @ L
    return out


@dataclass
class FockTrajectory:
    times: np.ndarray
    data: np.ndarray  # (n, 5) moment history, same layout as MomentTrajectory
    trace: np.ndarray
    top_population: np.ndarray
    rho_final: np.ndarray
    first_leak_time: float | None


def fock_propagate(spec, rho0, t_span, dt, store_every=1):
    """RK4 integration of the density matrix; monitors trace and leakage.

    The steps and the stored states follow `dynamics.step_plan`, as for
    the moment ODE, so both histories share their time nodes.
    """
    rho = np.array(rho0, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("rho0 must be a square matrix")
    dim = rho.shape[0]
    t0, h, n_steps, stored = step_plan(t_span, dt, store_every)
    times = t0 + h * stored

    (q, p), operators = lindblad_operators(spec, dim)
    obs = observables(q, p)
    # the table is looked up at every stage time in one pass
    G, a = spec.generator.at(rk4_stage_times(t0, h, 0, n_steps))
    tabulated = spec.generator.grid is not None

    rows, traces, tops = [], [], []
    first_leak = None

    def observe(rho_now):
        nonlocal first_leak
        t_now = float(times[len(rows)])
        rows.append(_read(rho_now, obs))
        traces.append(float(np.trace(rho_now).real))
        top = float(rho_now[-1, -1].real + rho_now[-2, -2].real)
        tops.append(top)
        if first_leak is None and check_truncation(top, t_now, dim, 3):
            first_leak = t_now

    observe(rho)
    keep = set(stored.tolist())
    for i in range(n_steps):
        if i == 0 or tabulated:  # constant operators are built once
            ops = [operators(G[i, s], a[i, s]) for s in range(3)]
        rho = rk4_step(lambda s, r: _lindblad_rhs(r, ops[s]), rho, h)
        if i + 1 in keep:
            observe(rho)

    traces = np.array(traces)
    drift = np.max(np.abs(traces - traces[0]))
    span = n_steps * h
    if drift > _TRACE_RATE * max(1.0, span):
        warnings.warn(
            f"trace drifted by {drift:.3e} over span {span:g}",
            TraceDriftWarning, stacklevel=2)

    return FockTrajectory(times=times, data=np.array(rows),
                          trace=traces, top_population=np.array(tops),
                          rho_final=rho, first_leak_time=first_leak)
