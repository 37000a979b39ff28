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
Dbar(t, s) = D(|t - s|).  On a uniform grid each integral over
[0, t_i] is row i of one trapezoid-weight matrix W, so with X = W o
D^(n-1) (o: entrywise) an order is four matrix products,

    D^(n) = (W o (X c^T)) Dbar + (W o (conj(X) c^T)) D,

at O(N^3) per order, and the windowing below is a row sum against W.
Both run over blocks of table rows.

Coefficient sign conventions (fixed here once and used consistently by
the dynamics and positivity modules):

    Gamma(t)   = - int_0^t ds  DD_re(t, s) C(t - s)
    Theta(t)   = + int_0^t ds  DD_re(t, s) C~(t - s)
    Xi(t)      = - int_0^t ds  DD_im(t, s) C(t - s)
    Upsilon(t) = + int_0^t ds  DD_im(t, s) C~(t - s)

The sign of Upsilon is the one convention in the literature that varies.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .bath import CorrelationKernel, _checked_grid, interp_table

MAX_CHEAP_ORDER = 3  # each extra order costs another O(N^3) sweep
_ROW_BLOCK = 128  # table rows per block of weighted products


class NumericalFailure(RuntimeError):
    """A table or a propagation came out non-finite."""


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
    two-time table is stored; `values` synthesizes it from the base
    kernel on demand.
    """

    base: CorrelationKernel
    order: int
    grid: np.ndarray
    table: np.ndarray | None = None

    @property
    def stationary(self):
        return self.table is None

    @property
    def values(self):
        """Full (N, N) table, synthesized for the stationary case."""
        if self.table is not None:
            return self.table
        return self.base.at(self.grid[:, None] - self.grid[None, :])


def _trapezoid_weights(start, stop, h):
    """Trapezoid weights of int_0^{t_i} on nodes 0..stop-1, i in [start, stop).

    Row i holds h/2 at nodes 0 and i, h in between and zeros after node
    i; row 0 is all zeros, since the integral over [0, 0] is empty.
    """
    i = np.arange(start, stop)[:, None]
    nodes = np.arange(stop)
    return h * ((nodes <= i) - 0.5 * (nodes == 0) - 0.5 * (nodes == i))


def dressed_kernel(base, kernels, order, *, m=1.0, hbar=1.0):
    """Resum the kernel to the given order on the base kernel's grid.

    `order` is the number of terms kept in the alternating series.
    Orders above MAX_CHEAP_ORDER are rejected, since each one costs a
    full O(N^3) sweep and the series is asymptotic.  m and hbar enter
    through the response kernel.  Raises NumericalFailure if the table
    is not finite.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError("order must be a positive integer")
    if order > MAX_CHEAP_ORDER:
        raise ValueError(f"order {order} exceeds {MAX_CHEAP_ORDER}")
    grid = base.grid
    if order == 1:
        return DressedKernel(base=base, order=1, grid=grid, table=None)

    diff = grid[:, None] - grid[None, :]
    d = base.at(diff)                    # D(t - s)
    d_bar = base.at(np.abs(diff))        # D(|t - s|)
    c_t = commutator_contraction(kernels, m, grid[:, None], grid[None, :],
                                 hbar).T
    h = base.spacing
    total, prev = d.copy(), d
    for n in range(2, order + 1):
        cur = np.empty_like(d)
        for start in range(0, grid.size, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, grid.size)
            w = _trapezoid_weights(start, stop, h)
            x = w * prev[start:stop, :stop]
            c_blk = c_t[:stop, :stop]
            cur[start:stop] = (w * (x @ c_blk)) @ d_bar[:stop] \
                + (w * (np.conj(x) @ c_blk)) @ d[:stop]
        total += (-1) ** (n - 1) * cur
        prev = cur
    if not np.all(np.isfinite(total)):
        raise NumericalFailure(f"order-{order} dressed kernel is not finite")
    return DressedKernel(base=base, order=int(order), grid=grid, table=total)


@dataclass
class HPZCoefficients:
    """Tabulated generator coefficients on a uniform time grid."""

    grid: np.ndarray
    Gamma: np.ndarray
    Theta: np.ndarray
    Xi: np.ndarray
    Upsilon: np.ndarray

    def __post_init__(self):
        self.grid = _checked_grid(self.grid, "coefficient grid", "t")
        for name in ("Gamma", "Theta", "Xi", "Upsilon"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.shape:
                raise ValueError(f"{name} must match the grid shape")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            setattr(self, name, arr)

    def at(self, t):
        """(Gamma, Theta, Xi, Upsilon) at time t by linear interpolation."""
        out = interp_table(self.grid, t, (self.Gamma, self.Theta, self.Xi,
                                          self.Upsilon))
        if np.ndim(t) == 0:
            return tuple(float(v) for v in out)
        return tuple(out)


def compute_coefficients(dressed, kernels):
    """Window the (dressed) kernel into the four generator coefficients.

    The stationary order-1 case reduces to cumulative trapezoid sums over
    tau = t - s; the general case sums each table row against W.
    """
    grid = dressed.grid
    if dressed.stationary:
        tau = grid
        re = dressed.base.re_at(tau)
        im = dressed.base.im_at(tau)
        cos_w = kernels.c(tau)
        sin_w = kernels.c_tilde(tau)
        gamma_t = -cumulative_trapezoid(re * cos_w, tau, initial=0.0)
        theta_t = cumulative_trapezoid(re * sin_w, tau, initial=0.0)
        xi_t = -cumulative_trapezoid(im * cos_w, tau, initial=0.0)
        upsilon_t = cumulative_trapezoid(im * sin_w, tau, initial=0.0)
    else:
        h = float(grid[1] - grid[0])
        cols = np.empty((4, grid.size))
        for start in range(0, grid.size, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, grid.size)
            w = _trapezoid_weights(start, stop, h)
            tau = grid[start:stop, None] - grid[None, :stop]
            w_cos, w_sin = w * kernels.c(tau), w * kernels.c_tilde(tau)
            dd = dressed.table[start:stop, :stop]
            cols[:, start:stop] = [-(w_cos * dd.real).sum(1),
                                   (w_sin * dd.real).sum(1),
                                   -(w_cos * dd.imag).sum(1),
                                   (w_sin * dd.imag).sum(1)]
        gamma_t, theta_t, xi_t, upsilon_t = cols
    for name, col in zip(("Gamma", "Theta", "Xi", "Upsilon"),
                         (gamma_t, theta_t, xi_t, upsilon_t)):
        if not np.all(np.isfinite(col)):
            raise NumericalFailure(f"windowed {name} is not finite")
    return HPZCoefficients(grid=grid.copy(), Gamma=gamma_t, Theta=theta_t,
                           Xi=xi_t, Upsilon=upsilon_t)


def delta_limit_coefficients(strength, t_grid):
    """Coefficients for a memoryless kernel of the given delta weight.

    Gamma jumps immediately to -strength/2 (half of the delta sits at
    tau = 0, and that value is kept at t = 0 as well so the table is
    constant); the other three coefficients vanish identically.
    """
    if strength < 0.0:
        raise ValueError("delta strength must be non-negative")
    const = np.full(np.shape(t_grid), -0.5 * strength)
    zero = np.zeros_like(const)
    return HPZCoefficients(grid=t_grid, Gamma=const, Theta=zero.copy(),
                           Xi=zero.copy(), Upsilon=zero.copy())
