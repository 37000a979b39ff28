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
Dbar(t, s) = D(|t - s|), which parity (D_re even, D_im odd) gives as
D(t - s) for t >= s and its conjugate otherwise.  On a uniform grid each
integral over [0, t_i] is row i of one trapezoid-weight matrix W, so
with X = W o D^(n-1) (o: entrywise) an order is

    D^(n) = (W o (X c^T)) Dbar + (W o (conj(X) c^T)) D.

The response kernel separates by the sine addition formula,
c(t_j, t_k) = (i hbar / m) [C~(t_k) C(t_j) - C(t_k) C~(t_j)] for k < j,
so X c^T = (i hbar / m) U, each row of U two exclusive cumulative sums
along that row of X weighted by the real C and C~, and conj(X) c^T =
(i hbar / m) conj(U).  With W o U = P + iQ (so W o conj(U) = P - iQ, W
being real), D = R + i(L + V) and Dbar = R + i(L - V) (R even, L and V
the odd part below and above the diagonal), an order is 2 (i hbar / m)
[(P R + Q V) + i P L], three real O(N^3) products.  R and L are the
kernel's `lag_factors`, the two real Toeplitz factors of D at the node
lags i - j (not interpolated), and V = -L^T is read as a transposed view
of L.  Row i of an order reads only row i of the order before, so one
block of table rows goes through every order before the next block
starts, each order added straight into the one N x N table: besides that
table only R and L (one complex table's worth) and one block's reused
workspace are held, about 2.7 tables at N = 1001 and order 3.
The windowing splits C(t - s) and C~(t - s) by the addition formulas,
also over blocks of table rows.

Coefficient sign conventions (fixed here once and used consistently by
the dynamics and positivity modules):

    Gamma(t)   = - int_0^t ds  DD_re(t, s) C(t - s)
    Theta(t)   = + int_0^t ds  DD_re(t, s) C~(t - s)
    Xi(t)      = - int_0^t ds  DD_im(t, s) C(t - s)
    Upsilon(t) = + int_0^t ds  DD_im(t, s) C~(t - s)

The sign of Upsilon is the one convention in the literature that varies.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bath import (CorrelationKernel, NumericalFailure, _checked_grid,
                   _lag_table)

MAX_CHEAP_ORDER = 3  # each extra order costs another O(N^3) sweep
_ROW_BLOCK = 128  # table rows per block of weighted products


@dataclass(frozen=True)
class OscillatorKernels:
    """Free-evolution kernels of a harmonic coordinate with frequency omega_S."""

    omega_S: float

    def __post_init__(self):
        if not 0.0 <= self.omega_S < np.inf:
            raise ValueError("omega_S must be finite and non-negative")

    def c(self, tau):
        """cos(omega_S tau)."""
        return np.cos(self.omega_S * np.asarray(tau, dtype=float))

    def c_tilde(self, tau):
        """sin(omega_S tau) / omega_S, analytic at omega_S = 0."""
        tau = np.asarray(tau, dtype=float)
        return tau * np.sinc(self.omega_S * tau / np.pi)


@dataclass
class DressedKernel:
    """Back-action-corrected kernel DD(t, s) on a uniform grid.

    At order 1 the kernel is stationary (a function of t - s only), so
    `table` is None and `values` is the base kernel's `lag_table`.  At
    orders 2 and 3 `table` is the one (N, N) complex table the dressing
    holds: it starts as the bare kernel's rows and each block of rows
    gathers every order's term before the next block is dressed.
    """

    base: CorrelationKernel
    order: int
    grid: np.ndarray
    table: np.ndarray | None = None

    @property
    def values(self):
        """Full (N, N) table; at order 1 the bare `lag_table`."""
        if self.table is not None:
            return self.table
        return self.base.lag_table()


def _trapezoid_weights(start, stop, h):
    """Trapezoid weights of int_0^{t_i} on nodes 0..stop-1, i in [start, stop).

    Row i holds h/2 at nodes 0 and i, h in between and zeros after node
    i; row 0 is all zeros, since the integral over [0, 0] is empty.
    """
    i = np.arange(start, stop)[:, None]
    nodes = np.arange(stop)
    return h * ((nodes <= i) - 0.5 * (nodes == 0) - 0.5 * (nodes == i))


def _exclusive_cumsum(y, out):
    """Sum along each row of y over the columns before each column."""
    out[:, 0] = 0.0
    np.cumsum(y[:, :-1], axis=1, out=out[:, 1:])
    return out


def _shaped(buf, *shape):
    """The first entries of a flat buffer as a C-contiguous array."""
    return buf[:math.prod(shape)].reshape(shape)


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

    re_d, lo = base.lag_factors()  # D = R + i(L + V) with V = -L^T
    total = _lag_table(re_d, lo)
    cos_t, sin_t = kernels.c(grid), kernels.c_tilde(grid)
    h, size = base.spacing, grid.size
    # an order is linear in the one before, so with -i hbar / m in place
    # of i hbar / m each cur is the signed term (-1)^(n-1) D^(n)
    k = 2.0 * hbar / m
    # row i of an order reads only row i of the order before, so a block
    # of rows runs through every order before the next block starts,
    # adding each cur to its rows of total; the block's temporaries live
    # in four flat buffers that every block and order reuse
    work = [np.empty(_ROW_BLOCK * size, dtype=complex) for _ in range(4)]
    for start in range(0, size, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, size)
        w = _trapezoid_weights(start, stop, h)
        nb = stop - start
        rows, cur = total[start:stop], _shaped(work[0], nb, size)
        x, y, u = (_shaped(buf, nb, stop) for buf in work[1:])
        # read as reals once spent: x holds p and q, y P R and Q L^T, u P L
        p, q = _shaped(work[1].view(float), 2, nb, stop)
        pr, ql = _shaped(work[2].view(float), 2, nb, size)
        pl = _shaped(work[3].view(float), nb, stop)
        cur.real[:, stop:] = 0.0  # p L vanishes past column i of row i
        prev = rows[:, :stop]
        for _ in range(2, order + 1):
            np.multiply(w, prev, out=x)
            # X c^T = (i hbar / m) u: u[:, b] sums x[:, a] [C~(t_a) C(t_b)
            # - C(t_a) C~(t_b)] over the nodes a < b
            _exclusive_cumsum(np.multiply(x, sin_t[:stop], out=y), u)
            _exclusive_cumsum(np.multiply(x, cos_t[:stop], out=x), y)
            np.subtract(np.multiply(cos_t[:stop], u, out=u),
                        np.multiply(sin_t[:stop], y, out=y), out=u)
            # p + iq = W o u
            np.multiply(w, u.real, out=p)
            np.multiply(w, u.imag, out=q)
            np.multiply(k, np.matmul(p, lo[:stop, :stop], out=pl),
                        out=cur.real[:, :stop])
            # P R + Q V = P R - Q L^T, V read as a view of L
            np.matmul(p, re_d[:stop], out=pr)
            np.matmul(q, lo[:, :stop].T, out=ql)
            np.multiply(-k, np.subtract(pr, ql, out=pr), out=cur.imag)
            rows += cur
            prev = cur[:, :stop]
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

    def __post_init__(self):  # copies: the table owns its columns
        self.grid = _checked_grid(np.array(self.grid, dtype=float),
                                  "coefficient grid", "t")
        for name in ("Gamma", "Theta", "Xi", "Upsilon"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != self.grid.shape:
                raise ValueError(f"{name} must match the grid shape")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            setattr(self, name, arr)


def compute_coefficients(dressed, kernels):
    """Window the (dressed) kernel into the four generator coefficients.

    The stationary order-1 case reduces to cumulative trapezoid sums over
    tau = t - s, in scipy's `cumulative_trapezoid` order of operations;
    the general case sums each table row against W.
    """
    grid = dressed.grid
    if dressed.table is None:
        tau = grid  # the base kernel's own nodes
        re, im = dressed.base.re_values, dressed.base.im_values
        cos_w, sin_w = kernels.c(tau), kernels.c_tilde(tau)
        y = np.stack([d * w for d in (re, im) for w in (cos_w, sin_w)])
        cols = np.zeros(y.shape)
        cols[:, 1:] = np.cumsum(np.diff(tau) * (y[:, 1:] + y[:, :-1]) / 2.0,
                                axis=1)
    else:
        h = float(grid[1] - grid[0])
        cos_t, sin_t = kernels.c(grid), kernels.c_tilde(grid)
        a, b = np.empty((2, grid.size), dtype=complex)
        for start in range(0, grid.size, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, grid.size)
            y = _trapezoid_weights(start, stop, h) \
                * dressed.table[start:stop, :stop]
            a[start:stop], b[start:stop] = y @ cos_t[:stop], y @ sin_t[:stop]
        # C(t - s) = C(t) C(s) + omega_S^2 C~(t) C~(s) and
        # C~(t - s) = C~(t) C(s) - C(t) C~(s)
        on_c = cos_t * a + kernels.omega_S ** 2 * sin_t * b
        on_s = sin_t * a - cos_t * b
        cols = np.stack([on_c.real, on_s.real, on_c.imag, on_s.imag])
    gamma_t, theta_t, xi_t, upsilon_t = -cols[0], cols[1], -cols[2], cols[3]
    for name, col in zip(("Gamma", "Theta", "Xi", "Upsilon"),
                         (gamma_t, theta_t, xi_t, upsilon_t)):
        if not np.all(np.isfinite(col)):
            raise NumericalFailure(f"windowed {name} is not finite")
    return HPZCoefficients(grid=grid, Gamma=gamma_t, Theta=theta_t,
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
    return HPZCoefficients(grid=t_grid, Gamma=const, Theta=zero, Xi=zero,
                           Upsilon=zero)
