"""Brute-force Fock-space propagation of the same master equations.

This module exists to cross-check the Gaussian moment maps in
:mod:`qbmlab.dynamics` against direct density-matrix integration in a
truncated number basis.  Both derive from the spec's generator (G, a),
here in the Lindblad form K rho + rho K^dag + sum_jk a_jk F_j rho F_k.
Since q and p are tridiagonal in the number basis, that right-hand side
couples rho[m, n] only to rho[m + dl, n + dr] at nine offsets, and it is
applied as that stencil: its coefficients are read off the bands of the
dense operators of each of the generator's `units` and weighted by its
`params`, as the moment ODE and the CP audit read it.  The nine offsets
form the grid (dl, dr) = (u + v, u - v), u, v = -1, 0, 1, so their reads
of the padded state are one strided (3, 3, .) view, and a right-hand side
is one product with the stencil, summed over the offsets by one BLAS
product (`_stencil_rhs`).  States step with the RK4 step of the moment
ODE, in place on the rows of rho and bit for bit (`_rk4_stepper`), under
monitors for trace drift, truncation leakage and non-finite states.
Matrix elements use the oscillator length of omega_S as the basis scale.
States are read out through `dynamics.OBSERVABLES` and
`dynamics.central_moments`, as the unraveling reads its packets.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bath import NumericalFailure, PhysicalConstants, _is_int
from .dynamics import central_moments, rk4_stage_times, step_plan

_LEAK_THRESHOLD = 1e-6  # combined population of the top two levels
_TRACE_RATE = 1e-8  # allowed trace drift per unit of omega_S t


class TruncationWarning(UserWarning):
    """State weight reached the top of the truncated basis."""


class TraceDriftWarning(UserWarning):
    """Propagation lost more trace than its budget per unit of omega_S t."""


def _checked_dim(dim):
    """A basis size as an int: an integer >= 2, as `bath._is_int` reads
    one (the dimension `fock_propagate` asks of rho0)."""
    if not (_is_int(dim) and dim >= 2):
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
    return int(dim)


def ladder(dim):
    """Lowering operator a on `dim` levels, an integer >= 2."""
    dim = _checked_dim(dim)
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def position_momentum(dim, system, constants=PhysicalConstants()):
    """q and p matrices on `dim` levels of the number basis of omega_S."""
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
    """|0> on `dim` levels, an integer >= 2."""
    psi = np.zeros(_checked_dim(dim), dtype=complex)
    psi[0] = 1.0
    return psi


def coherent_state(dim, alpha):
    """|alpha> truncated to `dim` levels (an integer >= 2): the amplitudes
    e^{-|alpha|^2 / 2} alpha^n / sqrt(n!), n < dim, scaled to unit norm as
    the unitary truncated displacement is (the scaling absorbs
    e^{-|alpha|^2 / 2}); alpha = 0 gives the vacuum."""
    dim = _checked_dim(dim)
    ratios = np.full(dim, complex(alpha))
    ratios[0] = 1.0
    ratios[1:] /= np.sqrt(np.arange(1.0, dim))
    psi = np.cumprod(ratios)
    return psi / np.linalg.norm(psi)


def _exp_anti_hermitian(k, psi):
    """e^K psi = V e^{-i lambda} V^dag psi for anti-Hermitian K, iK = V
    lambda V^dag."""
    lam, v = np.linalg.eigh(1j * k)
    return v @ (np.exp(-1j * lam) * (v.conj().T @ psi))


def squeezed_state(dim, r, alpha=0.0):
    """Displaced position-squeezed vacuum, D(alpha) S(r) |0>, on `dim`
    levels; S and D are e^K of the anti-Hermitian K of the truncated a."""
    a = ladder(dim)
    ad = a.conj().T
    psi = _exp_anti_hermitian(0.5 * r * (a @ a - ad @ ad), vacuum_state(dim))
    if alpha != 0.0:
        psi = _exp_anti_hermitian(alpha * ad - np.conj(alpha) * a, psi)
    return psi


def thermal_density(dim, nbar):
    """Thermal density matrix with mean occupation nbar on `dim` levels,
    an integer >= 2."""
    dim = _checked_dim(dim)
    if not 0.0 <= nbar < math.inf:
        raise ValueError("nbar must be finite and non-negative")
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


def observables(q, p):
    """Operators 1, q, p, q^2, p^2, {q, p}/2 of the raw moments, stacked
    in the order of `dynamics.OBSERVABLES`.
    """
    return np.stack([np.eye(q.shape[0]), q, p, q @ q, p @ p,
                     0.5 * (q @ p + p @ q)])


def _read(rho, obs):
    """Five central moments of rho from the stacked observables."""
    return central_moments(np.einsum('kij,ji->k', obs, rho).real)


def moments_from_density(rho, q, p):
    """First and symmetrized second central moments of rho, a `MOMENTS` row."""
    return _read(rho, observables(q, p))


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


# (dl, dr) of each rho[m + dl, n + dr] that the right-hand side couples
# to rho[m, n]: K rho reaches rows m + dl, rho K^dag columns n + dr, and
# each F_j rho L_j both, one step each.  They are the 3 x 3 grid
# (dl, dr) = (u + v, u - v), u, v = -1, 0, 1, row by row, so that their
# reads of a `_padded` buffer are one strided view (`_shifts`)
_OFFSETS = tuple((u + v, u - v) for u in (-1, 0, 1) for v in (-1, 0, 1))


def _band(A, d):
    """A[m, m + d] for m = 0 .. dim - 1, zero where m + d is off the matrix."""
    out = np.zeros(A.shape[0], dtype=complex)
    diag = np.diagonal(A, d)
    out[max(0, -d):max(0, -d) + diag.size] = diag
    return out


def _stencil(ops):
    """Coefficients C_o of K rho + rho K^dag + sum_j F_j rho L_j as
    sum_o C_o[m, n] rho[m + dl_o, n + dr_o], in `_OFFSETS` order, each laid
    out (dim, dim + 2) as the rows of `_padded` hold rho, and flattened.
    """
    K, K_dag, jumps = ops
    dim = K.shape[0]
    C = np.zeros((len(_OFFSETS), dim, dim + 2), dtype=complex)
    for c, (dl, dr) in zip(C[:, :, :dim], _OFFSETS):
        if dr == 0:
            c += _band(K, dl)[:, None]
        if dl == 0:
            c += _band(K_dag.T, dr)
        if dl and dr:
            for f, L in jumps:
                c += np.outer(_band(f, dl), _band(L.T, dr))
    return C.ravel()


def _padded(rho):
    """rho with two zero rows above and below and two zero columns on the
    right, flattened: the layout in which each offset of `_OFFSETS` is a
    shift by a constant number of elements (`_shifts`), since a column off
    either edge lands in a zero column.
    """
    dim = rho.shape[0]
    y = np.zeros((dim + 4, dim + 2), dtype=complex)
    y[2:dim + 2, :dim] = rho
    return y.ravel()


def _interior(y, dim):
    """The dim x dim matrix held in the `_padded` layout y (a view)."""
    return y.reshape(dim + 4, dim + 2)[2:dim + 2, :dim]


def _shifts(y, dim):
    """The nine reads rho[m + dl, n + dr] of `_OFFSETS` off the `_padded`
    buffer y as one read-only (3, 3, dim (dim + 2)) view: offset (u, v)
    starts (2 + dl) (dim + 2) + dr = (1 + u) (dim + 3) + (1 + v) (dim + 1)
    elements in, so the view spans y[0] to y[y.size - 1] and no further.
    """
    width = dim + 2
    step = y.strides[0]
    return np.lib.stride_tricks.as_strided(
        y, shape=(3, 3, dim * width),
        strides=((width + 1) * step, (width - 1) * step, step),
        writeable=False)


def _stencil_rhs(dim):
    """rhs(shifts, C, out, rows=None) = sum_o C_o o shift_o(rho) for rho
    held `_padded` in a buffer whose `_shifts` view is `shifts` and a
    `_stencil` C: one product into a reused (3, 3, size) buffer, summed
    over the offsets by one BLAS product (ones(9) times its real view) into
    `rows`, a float view of rows of rho, by default those of `out`, of y's
    layout, and `out` is returned.  The zero columns of C keep the padding
    columns zero; out's other rows are left as they are."""
    width = dim + 2
    size = dim * width
    prod = np.empty((3, 3, size), dtype=complex)
    ones, terms = np.ones(9), prod.reshape(9, size).view(float)

    def rhs(shifts, C, out, rows=None):
        np.multiply(C.reshape(3, 3, size), shifts, out=prod)
        if rows is None:
            rows = out[2 * width:2 * width + size].view(float)
        np.matmul(ones, terms, out=rows)
        return out

    return rhs


def _rk4_stepper(y, dim):
    """step(stencils, h): one `dynamics.rk4_step` of the `_stencil_rhs`
    with stencils[s] at stage s, applied to the `_padded` buffer y in
    place.  Its stages and final combination run operation for operation
    as `rk4_step`'s (k1 + 2 k2 + 2 k3 + k4 summed in that order as the
    stages come) on the rows of rho only, so the result is the same bit
    for bit; every buffer, row and `_shifts` view is taken once."""
    rhs = _stencil_rhs(dim)
    z = np.zeros_like(y)
    y_shifts, z_shifts = _shifts(y, dim), _shifts(z, dim)
    y, z = (b[2 * (dim + 2):(dim + 2) ** 2] for b in (y, z))  # rho's rows
    acc_f, k_f = np.empty((2, 2 * y.size))
    acc, k = acc_f.view(complex), k_f.view(complex)

    def step(stencils, h):
        rhs(y_shifts, stencils[0], acc, acc_f)  # k1
        np.multiply(acc, 0.5 * h, out=z)
        np.add(z, y, out=z)
        for factor in (0.5 * h, h):  # k2, k3
            rhs(z_shifts, stencils[1], k, k_f)
            np.multiply(k, factor, out=z)
            np.add(z, y, out=z)
            np.multiply(k, 2.0, out=k)
            np.add(acc, k, out=acc)
        rhs(z_shifts, stencils[2], k, k_f)  # k4
        np.add(acc, k, out=acc)
        np.multiply(acc, h / 6.0, out=acc)
        np.add(y, acc, out=y)

    return step


@dataclass
class FockTrajectory:
    times: np.ndarray
    data: np.ndarray  # (n, 5), columns in the order of dynamics.MOMENTS
    trace: np.ndarray
    top_population: np.ndarray
    rho_final: np.ndarray
    first_leak_time: float | None


def fock_propagate(spec, rho0, t_span, dt, store_every=1):
    """RK4 integration of the density matrix; monitors trace and leakage.

    The steps and the stored states follow `dynamics.step_plan`, and the
    stages `dynamics.rk4_stage_times`, as for the moment ODE.  The
    right-hand side is applied as the nine-offset stencil of
    `_stencil_rhs`, linear in (G, a): one stencil per unit of the
    generator, weighted by `params` at every stage time (once for a
    constant generator), and stepped by `_rk4_stepper`.  rho0 must be
    finite, of dimension 2 or more.  A stored state whose moments are not
    finite raises NumericalFailure with its time, the overflow and invalid
    warnings up to it suppressed as `integrate_moments` suppresses them.
    """
    rho = np.array(rho0, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 2:
        raise ValueError("rho0 must be a square matrix of dimension >= 2")
    if not np.all(np.isfinite(rho)):
        raise ValueError("rho0 must be finite")
    dim = rho.shape[0]
    y = _padded(rho)
    t0, h, n_steps, stored = step_plan(t_span, dt, store_every)
    times = t0 + h * stored

    (q, p), operators = lindblad_operators(spec, dim)
    gen = spec.generator
    obs = observables(q, p)
    # one stencil per unit of (G, a), weighted at every stage time
    basis = np.stack([_stencil(operators(*u)) for u in zip(*gen.units)])
    theta = gen.params(rk4_stage_times(t0, h, 0, n_steps))
    stencils = [theta[k] @ basis for k in range(3)]
    tabulated = gen.grid is not None
    step = _rk4_stepper(y, dim)

    rows, traces, tops = [], [], []
    first_leak = None

    def observe(rho_now):
        nonlocal first_leak
        t_now = float(times[len(rows)])
        rows.append(_read(rho_now, obs))
        if not np.isfinite(rows[-1]).all():  # and so is every later one
            raise NumericalFailure(f"non-finite state at t = {t_now:.6g}")
        traces.append(float(np.trace(rho_now).real))
        top = float(rho_now[-1, -1].real + rho_now[-2, -2].real)
        tops.append(top)
        if first_leak is None and top > _LEAK_THRESHOLD:
            first_leak = t_now
            warnings.warn(f"truncation leakage {top:.3e} at t = {t_now:.6g} "
                          f"(dim = {dim})", TruncationWarning, stacklevel=3)

    keep = set(stored.tolist())
    with np.errstate(over="ignore", invalid="ignore"):
        observe(rho)
        for i in range(n_steps):
            if i and tabulated:  # step i's first stage is step i - 1's last
                stencils = [stencils[2], theta[2 * i + 1] @ basis,
                            theta[2 * i + 2] @ basis]
            step(stencils, h)
            if i + 1 in keep:
                observe(_interior(y, dim))

    traces = np.array(traces)
    drift = np.max(np.abs(traces - traces[0]))
    span = n_steps * h
    if drift > _TRACE_RATE * max(1.0, spec.system.omega_S * span):
        warnings.warn(
            f"trace drifted by {drift:.3e} over span {span:g}",
            TraceDriftWarning, stacklevel=2)

    return FockTrajectory(times=times, data=np.array(rows),
                          trace=traces, top_population=np.array(tops),
                          rho_final=_interior(y, dim).copy(),
                          first_leak_time=first_leak)
