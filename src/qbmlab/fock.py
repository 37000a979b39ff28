"""Brute-force Fock-space propagation of the same master equations.

This module exists to cross-check the Gaussian moment maps in
:mod:`qbmlab.dynamics` against direct density-matrix integration in a
truncated number basis.  Both derive from the spec's generator (G, a),
here in the Lindblad form K rho + rho K^dag + sum_jk a_jk F_j rho F_k.
It is deliberately simple: dense matrices, fixed-step RK4, explicit
monitors for trace drift and truncation leakage.  Matrix elements use
the oscillator length of the system frequency as the basis scale.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .bath import PhysicalConstants
from .dynamics import GaussianMomentState, rk4_stage_times

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


def moments_from_density(rho, q, p):
    """First and symmetrized second central moments of rho."""
    def ev(op):
        return float(np.einsum('ij,ji->', op, rho).real)

    mq = ev(q)
    mp = ev(p)
    qp_sym = 0.5 * (q @ p + p @ q)
    return GaussianMomentState(
        mean_q=mq, mean_p=mp,
        sigma_qq=ev(q @ q) - mq * mq,
        sigma_pp=ev(p @ p) - mp * mp,
        sigma_qp=ev(qp_sym) - mq * mp)


def _lindblad_operators(spec, dim):
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


def make_generator(spec, dim):
    """Right-hand side rho, t -> drho/dt of the spec's generator (G, a)."""
    _, operators = _lindblad_operators(spec, dim)
    return lambda rho, t: _lindblad_rhs(
        rho, operators(*spec.generator.at(t)))


@dataclass
class FockTrajectory:
    times: np.ndarray
    data: np.ndarray  # (n, 5) moment history, same layout as MomentTrajectory
    trace: np.ndarray
    top_population: np.ndarray
    rho_final: np.ndarray
    first_leak_time: float | None


def fock_propagate(spec, rho0, t_span, dt, store_every=1):
    """RK4 integration of the density matrix; monitors trace and leakage."""
    rho = np.array(rho0, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("rho0 must be a square matrix")
    dim = rho.shape[0]
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    span = t1 - t0
    n_steps = max(1, int(round(span / dt)))
    h = span / n_steps

    (q, p), operators = _lindblad_operators(spec, dim)
    # the table is looked up at every stage time in one pass
    G, a = spec.generator.at(rk4_stage_times(t0, h, 0, n_steps))
    tabulated = spec.generator.grid is not None

    def observe(rho_now, t_now, first_leak):
        st = moments_from_density(rho_now, q, p)
        tr = float(np.trace(rho_now).real)
        top = float(rho_now[-1, -1].real + rho_now[-2, -2].real)
        if top > _LEAK_THRESHOLD and first_leak is None:
            warnings.warn(
                f"truncation leakage {top:.3e} at t = {t_now:.6g} "
                f"(dim = {dim})", TruncationWarning, stacklevel=3)
            first_leak = t_now
        return st.as_array(), tr, top, first_leak

    first_leak = None
    row, tr, top, first_leak = observe(rho, t0, first_leak)
    times, rows, traces, tops = [t0], [row], [tr], [top]
    for i in range(n_steps):
        if i == 0 or tabulated:  # constant operators are built once
            o1, o2, o4 = (operators(G[i, s], a[i, s]) for s in range(3))
        k1 = _lindblad_rhs(rho, o1)
        k2 = _lindblad_rhs(rho + 0.5 * h * k1, o2)
        k3 = _lindblad_rhs(rho + 0.5 * h * k2, o2)
        k4 = _lindblad_rhs(rho + h * k3, o4)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (i + 1) % store_every == 0 or i == n_steps - 1:
            row, tr, top, first_leak = observe(rho, t0 + (i + 1) * h,
                                               first_leak)
            times.append(t0 + (i + 1) * h)
            rows.append(row)
            traces.append(tr)
            tops.append(top)

    traces = np.array(traces)
    drift = np.max(np.abs(traces - traces[0]))
    if drift > _TRACE_RATE * max(1.0, span):
        warnings.warn(
            f"trace drifted by {drift:.3e} over span {span:g}",
            TraceDriftWarning, stacklevel=2)

    return FockTrajectory(times=np.array(times), data=np.array(rows),
                          trace=traces, top_population=np.array(tops),
                          rho_final=rho, first_leak_time=first_leak)
