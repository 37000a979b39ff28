"""Time-dependent master-equation coefficients from bath kernels.

For a harmonic system coordinate the exact generator is parametrized by
four real functions of time (Gamma, Theta, Xi, Upsilon), each a windowed
overlap of the bath correlation kernel with the free system kernels

    C(tau) = cos(omega_S tau),     C~(tau) = sin(omega_S tau) / omega_S.

At leading order in the coupling the overlaps use the bare kernel D; the
higher-order ("dressed") kernel resums back-action corrections through a
Volterra-type recursion

    DD = sum_n (-1)^(n-1) D^(n),      D^(1) = D,
    D^(n)(t, s) = int_0^t dt' int_0^t ds' c(t', s')
                  [ Dbar(t', s) D^(n-1)(t, s') + D(t', s) conj(D^(n-1)(t, s')) ]

with c(t, s) = (i hbar / m) C~(s - t) for t > s (zero otherwise) and
Dbar(t, s) = D(|t - s|).  The recursion is evaluated row by row on a
uniform grid with trapezoid weights, at O(N^3) per order.

Coefficient sign conventions (fixed here once and used consistently by
the dynamics and positivity modules):

    Gamma(t)   = - int_0^t ds  DD_re(t, s) C(t - s)
    Theta(t)   = + int_0^t ds  DD_re(t, s) C~(t - s)
    Xi(t)      = - int_0^t ds  DD_im(t, s) C(t - s)
    Upsilon(t) = + int_0^t ds  DD_im(t, s) C~(t - s)

The sign of Upsilon is the one convention in the literature that varies;
`upsilon_sign_flip` flips it for side-by-side comparisons.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .bath import CorrelationKernel

MAX_CHEAP_ORDER = 3  # each extra order costs another O(N^3) sweep


@dataclass(frozen=True)
class OscillatorKernels:
    """Free-evolution kernels of a harmonic coordinate with frequency omega_S."""

    omega_S: float

    def __post_init__(self):
        if self.omega_S < 0.0:
            raise ValueError("omega_S must be non-negative")

    def c(self, tau):
        """cos(omega_S tau)."""
        return np.cos(self.omega_S * np.asarray(tau, dtype=float))

    def c_tilde(self, tau):
        """sin(omega_S tau) / omega_S, analytic at omega_S = 0."""
        tau = np.asarray(tau, dtype=float)
        return tau * np.sinc(self.omega_S * tau / np.pi)


def commutator_contraction(kernels, m, t, s, hbar=1.0):
    """Response kernel c(t, s) = (i hbar / m) C~(s - t) theta(t - s).

    Vanishes for t <= s (causality of the system response, including at
    equal times).  Vectorizes over t and s together.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    val = (1j * hbar / m) * kernels.c_tilde(s - t)
    out = np.where(t > s, val, 0.0 + 0.0j)
    return complex(out) if out.ndim == 0 else out


@dataclass
class DressedKernel:
    """Back-action-corrected kernel DD(t, s) on a uniform grid.

    At order 1 the kernel is stationary (a function of t - s only) and no
    two-time table is stored; `row` and `values` synthesize entries from
    the base kernel on demand.
    """

    base: CorrelationKernel
    order: int
    grid: np.ndarray
    table: np.ndarray | None = None

    @property
    def stationary(self):
        return self.table is None

    def row(self, i):
        """DD(t_i, s) for all grid values of s."""
        if self.table is not None:
            return self.table[i]
        return self.base.at(self.grid[i] - self.grid)

    @property
    def values(self):
        """Full (N, N) table, synthesized for the stationary case."""
        if self.table is not None:
            return self.table
        diff = self.grid[:, None] - self.grid[None, :]
        return self.base.re_at(diff) + 1j * self.base.im_at(diff)


def _validate_uniform_grid(grid, what):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError(f"{what} must be 1-D with at least two nodes")
    if grid[0] != 0.0:
        raise ValueError(f"{what} must start at t = 0")
    steps = np.diff(grid)
    if np.any(steps <= 0.0) or not np.allclose(steps, steps[0],
                                               rtol=1e-9, atol=0.0):
        raise ValueError(f"{what} must be uniform and increasing")
    return grid


def dressed_kernel(base, kernels, order, grid=None, *, m=1.0, hbar=1.0,
                   allow_high_order=False):
    """Resum the kernel to the given order on a uniform grid.

    Parameters
    ----------
    base : CorrelationKernel
        Bare kernel; must cover [0, grid[-1]].
    kernels : OscillatorKernels
    order : int
        Number of terms kept in the alternating series.  Orders above
        3 are rejected unless `allow_high_order` is set, since each one
        costs a full O(N^3) sweep and the series is asymptotic.
    grid : array, optional
        Defaults to the base kernel grid.
    m, hbar : float
        Enter through the response kernel.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError("order must be a positive integer")
    if order > MAX_CHEAP_ORDER and not allow_high_order:
        raise ValueError(
            f"order {order} exceeds {MAX_CHEAP_ORDER}; "
            "pass allow_high_order=True to force")
    if grid is None:
        grid = base.grid
    grid = _validate_uniform_grid(grid, "dressed kernel grid")
    if grid[-1] > base.span * (1.0 + 1e-12):
        raise ValueError("grid extends beyond the tabulated base kernel")

    if order == 1:
        return DressedKernel(base=base, order=1, grid=grid, table=None)

    n_t = grid.size
    h = float(grid[1] - grid[0])
    diff = grid[:, None] - grid[None, :]
    d_signed = base.re_at(diff) + 1j * base.im_at(diff)   # D(t - s)
    d_even = base.re_at(diff) + 1j * base.im_at(np.abs(diff))  # D(|t - s|)
    # response matrix c(t_j, s_l); strictly lower triangular
    contraction = commutator_contraction(kernels, m, grid[:, None],
                                         grid[None, :], hbar)

    total = d_signed.copy()
    prev = d_signed
    sign = -1.0
    for _ in range(2, order + 1):
        cur = np.zeros_like(d_signed)
        for it in range(1, n_t):
            k = it + 1
            w = np.full(k, h)
            w[0] *= 0.5
            w[-1] *= 0.5
            pr = prev[it, :k]
            inner = contraction[:k, :k] @ (w * pr)
            inner_c = contraction[:k, :k] @ (w * np.conj(pr))
            cur[it] = (w * inner) @ d_even[:k, :] \
                + (w * inner_c) @ d_signed[:k, :]
        total = total + sign * cur
        prev = cur
        sign = -sign
    return DressedKernel(base=base, order=int(order), grid=grid, table=total)


def interp_table(grid, t, columns):
    """Columns sampled on `grid`, linearly interpolated at times t."""
    t = np.asarray(t, dtype=float)
    span = float(grid[-1])
    if np.any(t < -1e-15) or np.any(t > span * (1.0 + 1e-12) + 1e-15):
        raise ValueError(f"t outside tabulated range [0, {span:g}]")
    return [np.interp(t, grid, col) for col in columns]


@dataclass
class HPZCoefficients:
    """Tabulated generator coefficients on a uniform time grid."""

    grid: np.ndarray
    Gamma: np.ndarray
    Theta: np.ndarray
    Xi: np.ndarray
    Upsilon: np.ndarray

    def __post_init__(self):
        self.grid = _validate_uniform_grid(self.grid, "coefficient grid")
        for name in ("Gamma", "Theta", "Xi", "Upsilon"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.shape:
                raise ValueError(f"{name} must match the grid shape")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            setattr(self, name, arr)

    @property
    def span(self):
        return float(self.grid[-1])

    def at(self, t):
        """(Gamma, Theta, Xi, Upsilon) at time t by linear interpolation."""
        out = interp_table(self.grid, t, (self.Gamma, self.Theta, self.Xi,
                                          self.Upsilon))
        if np.ndim(t) == 0:
            return tuple(float(v) for v in out)
        return tuple(out)


def compute_coefficients(dressed, kernels, t_grid=None, *,
                         upsilon_sign_flip=False):
    """Window the (dressed) kernel into the four generator coefficients.

    `t_grid` defaults to the dressed-kernel grid and must otherwise be a
    prefix of it (same spacing, same origin).  The stationary order-1
    case reduces to cumulative trapezoid sums over tau = t - s; the
    general case integrates each table row.
    """
    if t_grid is None:
        t_grid = dressed.grid
    t_grid = np.asarray(t_grid, dtype=float)
    n = t_grid.size
    if n > dressed.grid.size or not np.allclose(
            dressed.grid[:n], t_grid, rtol=0.0,
            atol=1e-12 * max(1.0, abs(float(dressed.grid[-1])))):
        raise ValueError("t_grid must be a prefix of the dressed kernel grid")

    if dressed.stationary:
        tau = t_grid
        re = dressed.base.re_at(tau)
        im = dressed.base.im_at(tau)
        cos_w = kernels.c(tau)
        sin_w = kernels.c_tilde(tau)
        gamma_t = -cumulative_trapezoid(re * cos_w, tau, initial=0.0)
        theta_t = cumulative_trapezoid(re * sin_w, tau, initial=0.0)
        xi_t = -cumulative_trapezoid(im * cos_w, tau, initial=0.0)
        upsilon_t = cumulative_trapezoid(im * sin_w, tau, initial=0.0)
    else:
        gamma_t = np.zeros(n)
        theta_t = np.zeros(n)
        xi_t = np.zeros(n)
        upsilon_t = np.zeros(n)
        for it in range(1, n):
            s = dressed.grid[:it + 1]
            row = dressed.row(it)[:it + 1]
            cos_w = kernels.c(t_grid[it] - s)
            sin_w = kernels.c_tilde(t_grid[it] - s)
            gamma_t[it] = -np.trapezoid(row.real * cos_w, s)
            theta_t[it] = np.trapezoid(row.real * sin_w, s)
            xi_t[it] = -np.trapezoid(row.imag * cos_w, s)
            upsilon_t[it] = np.trapezoid(row.imag * sin_w, s)

    if upsilon_sign_flip:
        upsilon_t = -upsilon_t
    return HPZCoefficients(grid=t_grid.copy(), Gamma=gamma_t, Theta=theta_t,
                           Xi=xi_t, Upsilon=upsilon_t)


def delta_limit_coefficients(strength, t_grid):
    """Coefficients for a memoryless kernel of the given delta weight.

    Gamma jumps immediately to -strength/2 (half of the delta sits at
    tau = 0, and that value is kept at t = 0 as well so the table is
    constant); the other three coefficients vanish identically.
    """
    if strength < 0.0:
        raise ValueError("delta strength must be non-negative")
    t_grid = _validate_uniform_grid(t_grid, "coefficient grid")
    const = np.full(t_grid.shape, -0.5 * strength)
    zero = np.zeros_like(const)
    return HPZCoefficients(grid=t_grid, Gamma=const, Theta=zero.copy(),
                           Xi=zero.copy(), Upsilon=zero.copy())
