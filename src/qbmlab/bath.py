"""Ohmic spectral densities and thermal bath correlation kernels.

The bath is a continuum of harmonic oscillators coupled linearly to the
system coordinate, with coupling density

    J(omega) = (2 m gamma / pi) * omega * f(omega / Omega)

where f is a high-frequency cutoff profile (sharp window, exponential,
or Drude-Lorentz).  At temperature T the force-force correlation
function splits into even and odd parts,

    D_re(tau) =  hbar * int_0^inf J(w) coth(hbar w / 2 kB T) cos(w tau) dw
    D_im(tau) = -hbar * int_0^inf J(w) sin(w tau) dw

`eval_correlation` evaluates both at one tau by adaptive quadrature with
oscillatory weight functions (QUADPACK).  Tabulated kernels take every
tau at once instead: D_im from its closed form, and D_re from a
composite Gauss-Legendre rule checked against the same rule with twice
the panels.  For the exponential and Drude cutoffs the rule covers only
the thermal part, J(w) 2w / (e^{2aw} - 1) with a = hbar / 2 kB T, since
the zero-temperature part has a closed form.  Nodes the rule cannot
certify to `quad_tol` go through the adaptive quadrature, which stays
the oracle.  The high-temperature closed form of the sharp even part is
provided for cross-checks.

Conventions: tau may be any real number; D_re is even and D_im is odd in
tau, and tabulated kernels store tau >= 0 only.
"""

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import integrate, special

_DRUDE_TRUNCATION = 1e6  # upper limit, in units of Omega, for the divergent case
_EXP_TAIL = 60.0  # e^-60 ~ 1e-26, negligible relative to any epsabs we use

# Tabulation rule (CorrelationKernel.from_bath).  32-point Gauss-Legendre
# integrates cos over a panel spanning 60 rad of phase to ~1e-14; panels
# no wider than pi/a stay a factor 2 from the poles of w coth(aw) at
# i pi k / a (and of the Drude profile at i Omega).
_GL_POINTS = 32
_PANEL_PHASE = 60.0
_THERMAL_REACH = 40.0  # 2w / (e^{2aw} - 1) < 80 e^-80 / a beyond w = 40 / a
_NODE_BUDGET = 100_000  # coarse plus fine nodes; beyond, QUADPACK is cheaper
_TAU_BLOCK = 8  # tau values per cosine-sum block
_DRUDE_SERIES_FROM = 100.0  # Omega tau beyond which an asymptotic series is used


class ValidityWarning(UserWarning):
    """A closed form or truncation was used outside its safe regime."""


class QuadratureWarning(UserWarning):
    """Adaptive quadrature finished but missed its accuracy target."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed outright (non-finite result)."""


@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float = 1.0
    k_B: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0.0 or self.k_B <= 0.0:
            raise ValueError("hbar and k_B must be strictly positive")


class CutoffKind(str, Enum):
    SHARP = "sharp"
    EXPONENTIAL = "exponential"
    DRUDE = "drude"


@dataclass(frozen=True)
class SpectralDensity:
    """Ohmic coupling density with mass m, damping rate gamma, cutoff Omega."""

    m: float
    gamma: float
    Omega: float
    cutoff_kind: CutoffKind = CutoffKind.SHARP

    def __post_init__(self):
        if self.m <= 0.0:
            raise ValueError("mass m must be strictly positive")
        if self.gamma < 0.0:
            raise ValueError("damping rate gamma must be non-negative")
        if self.Omega <= 0.0:
            raise ValueError("cutoff frequency Omega must be strictly positive")
        if not isinstance(self.cutoff_kind, CutoffKind):
            object.__setattr__(self, "cutoff_kind", CutoffKind(self.cutoff_kind))


@dataclass(frozen=True)
class ThermalBathSpec:
    """Spectral density plus temperature and unit conventions."""

    spectral: SpectralDensity
    T: float
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError("temperature T must be strictly positive")

    @property
    def thermal_time(self):
        """hbar / (2 kB T), the argument scale of the coth factor."""
        return self.constants.hbar / (2.0 * self.constants.k_B * self.T)


def _cutoff_factor(kind, u):
    """Dimensionless cutoff profile f(u), u = omega / Omega."""
    if kind is CutoffKind.SHARP:
        return np.where(u < 1.0, 1.0, 0.0)
    if kind is CutoffKind.EXPONENTIAL:
        return np.exp(-u)
    return 1.0 / (1.0 + u * u)


def eval_spectral_density(spectral, omega):
    """J(omega) for omega >= 0 (scalar or array)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0.0):
        raise ValueError("spectral density is defined for omega >= 0")
    pref = 2.0 * spectral.m * spectral.gamma / np.pi
    out = pref * omega * _cutoff_factor(spectral.cutoff_kind, omega / spectral.Omega)
    return out if out.ndim else float(out)


def _omega_coth(omega, a):
    """omega * coth(a * omega), analytic through omega = 0.

    Uses the Laurent series x coth x = 1 + x^2/3 - x^4/45 + ... for
    |a*omega| < 1e-4, which keeps the quantum/classical crossover smooth
    and avoids the 0/0 at the origin.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    x = a * omega
    out = np.empty_like(omega)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = (1.0 + xs * xs / 3.0 - xs ** 4 / 45.0) / a
    out[~small] = omega[~small] / np.tanh(x[~small])
    return out if out.shape != (1,) else float(out[0])


def _quad_checked(func, a, b, *, what, epsabs, epsrel, scale, **kwargs):
    """scipy.integrate.quad with non-convergence turned into warnings."""
    out = integrate.quad(func, a, b, epsabs=epsabs, epsrel=epsrel,
                         full_output=1, **kwargs)
    result, abserr = out[0], out[1]
    if not np.isfinite(result):
        raise QuadratureError(f"{what}: quadrature returned {result}")
    if len(out) > 3:  # quadpack appended an explanation message
        warnings.warn(
            f"{what}: quadrature did not converge to target "
            f"(achieved abs error {abserr:.3e}); {out[3]}",
            QuadratureWarning, stacklevel=3)
    elif abserr > 10.0 * max(epsabs, epsrel * abs(result), epsrel * scale):
        warnings.warn(
            f"{what}: achieved abs error {abserr:.3e} exceeds target "
            f"for result {result:.6e}",
            QuadratureWarning, stacklevel=3)
    return result


def _correlation_re(bath, tau, quad_tol):
    """Even part of the correlation function at tau >= 0."""
    sd = bath.spectral
    c = bath.constants
    a = bath.thermal_time
    pref = 2.0 * sd.m * sd.gamma * c.hbar / np.pi
    kind = sd.cutoff_kind

    def integrand(w):
        return pref * _cutoff_factor(kind, w / sd.Omega) * _omega_coth(w, a)

    # Magnitude scale of the integral, used for absolute tolerances where
    # quadpack cannot work in relative terms (semi-infinite weighted rules).
    scale = pref * sd.Omega * _omega_coth(sd.Omega, a)

    if tau == 0.0:
        if kind is CutoffKind.SHARP:
            upper = sd.Omega
        elif kind is CutoffKind.EXPONENTIAL:
            upper = _EXP_TAIL * sd.Omega
        else:
            upper = _DRUDE_TRUNCATION * sd.Omega
            warnings.warn(
                "D_re(0) diverges logarithmically for the drude cutoff; "
                f"integral truncated at {_DRUDE_TRUNCATION:g} * Omega",
                ValidityWarning, stacklevel=3)
        return _quad_checked(integrand, 0.0, upper, what="D_re(0)",
                             epsabs=quad_tol * scale, epsrel=quad_tol,
                             scale=scale, limit=500)

    if kind is CutoffKind.SHARP:
        return _quad_checked(integrand, 0.0, sd.Omega, what=f"D_re({tau:g})",
                             epsabs=quad_tol * scale, epsrel=quad_tol,
                             scale=scale, weight="cos", wvar=tau, limit=500)
    return _quad_checked(integrand, 0.0, np.inf, what=f"D_re({tau:g})",
                         epsabs=quad_tol * scale, epsrel=quad_tol,
                         scale=scale, weight="cos", wvar=tau, limlst=200)


def _correlation_im(bath, tau, quad_tol):
    """Odd part of the correlation function at tau >= 0."""
    if tau == 0.0:
        return 0.0
    sd = bath.spectral
    c = bath.constants
    pref = 2.0 * sd.m * sd.gamma * c.hbar / np.pi
    kind = sd.cutoff_kind
    scale = pref * sd.Omega ** 2

    def integrand(w):
        return pref * w * _cutoff_factor(kind, w / sd.Omega)

    if kind is CutoffKind.SHARP:
        val = _quad_checked(integrand, 0.0, sd.Omega, what=f"D_im({tau:g})",
                            epsabs=quad_tol * scale, epsrel=quad_tol,
                            scale=scale, weight="sin", wvar=tau, limit=500)
    else:
        val = _quad_checked(integrand, 0.0, np.inf, what=f"D_im({tau:g})",
                            epsabs=quad_tol * scale, epsrel=quad_tol,
                            scale=scale, weight="sin", wvar=tau, limlst=200)
    return -val


def eval_correlation(bath, tau, quad_tol=1e-8):
    """Correlation function D(tau) = D_re(tau) + i D_im(tau) at one time.

    Parameters
    ----------
    bath : ThermalBathSpec
    tau : float
        Any real time difference; parity is applied internally.
    quad_tol : float
        Relative quadrature target.  Semi-infinite oscillatory rules only
        accept absolute tolerances, so the target is rescaled by the
        natural magnitude of each integral; a QuadratureWarning reports
        the achieved estimate whenever the target is missed.

    Returns
    -------
    complex
    """
    tau = float(tau)
    re = _correlation_re(bath, abs(tau), quad_tol)
    im = _correlation_im(bath, abs(tau), quad_tol)
    if tau < 0.0:
        im = -im
    return complex(re, im)


def im_closed_form(bath, tau):
    """Exact odd part D_im(tau) for each cutoff profile (vectorized).

    Temperature never enters the odd part.  These expressions come from
    elementary antiderivatives and serve as an independent check on the
    oscillatory quadrature.
    """
    sd = bath.spectral
    hbar = bath.constants.hbar
    tau = np.asarray(tau, dtype=float)
    scalar = tau.ndim == 0
    tau = np.atleast_1d(tau)
    pref = 2.0 * sd.m * sd.gamma * hbar / np.pi
    W = np.float64(sd.Omega)  # overflows to inf, not OverflowError
    x = W * tau

    if sd.cutoff_kind is CutoffKind.SHARP:
        out = np.empty_like(tau)
        small = np.abs(x) < 1e-3
        xs = x[small]
        # (sin x - x cos x) / tau^2 = W^2 * (x/3 - x^3/30 + ...) / x ... expanded in x
        out[small] = -pref * W ** 2 * (xs / 3.0) * (1.0 - xs * xs / 10.0)
        tl = tau[~small]
        xl = x[~small]
        out[~small] = -pref * (np.sin(xl) - xl * np.cos(xl)) / (tl * tl)
    elif sd.cutoff_kind is CutoffKind.EXPONENTIAL:
        out = -pref * 2.0 * tau * W ** 3 / (1.0 + x * x) ** 2
    else:  # drude
        out = -sd.m * sd.gamma * hbar * W ** 2 * np.exp(-np.abs(x)) * np.sign(tau)
    return float(out[0]) if scalar else out


def high_temperature_closed_form(bath, tau):
    """High-temperature even part for the sharp cutoff (vectorized).

    D_re(tau) ~ (4 m gamma kB T / pi) sin(Omega tau) / tau, valid when
    kB T far exceeds hbar Omega; a ValidityWarning fires when
    hbar Omega / kB T > 0.1.
    """
    sd = bath.spectral
    if sd.cutoff_kind is not CutoffKind.SHARP:
        raise ValueError("high-temperature closed form applies to the sharp cutoff")
    c = bath.constants
    ratio = c.hbar * sd.Omega / (c.k_B * bath.T)
    if ratio > 0.1:
        warnings.warn(
            f"high-temperature form used at hbar*Omega/(kB*T) = {ratio:.3g} > 0.1",
            ValidityWarning, stacklevel=2)
    tau = np.asarray(tau, dtype=float)
    pref = 4.0 * sd.m * sd.gamma * c.k_B * bath.T / np.pi
    out = pref * sd.Omega * np.sinc(sd.Omega * tau / np.pi)
    return float(out) if out.ndim == 0 else out


def _re_zero_temperature(kind, x):
    """T = 0 even part over pref * Omega^2 at x = Omega * tau.

    Exponential: (1 - x^2) / (1 + x^2)^2.  Drude (G&R 3.723.5, x > 0):
    -[e^-x Ei(x) - e^x E1(x)] / 2; beyond _DRUDE_SERIES_FROM its
    asymptotic series -sum_{k odd} k! / x^(k+1) is exact to rounding
    and keeps e^x from overflowing (past x ~ 709).
    """
    if kind is CutoffKind.EXPONENTIAL:
        r = 1.0 / (1.0 + x * x)
        return r * (2.0 * r - 1.0)
    out = np.empty_like(x)
    near = x <= _DRUDE_SERIES_FROM
    xn = x[near]
    out[near] = -0.5 * (np.exp(-xn) * special.expi(xn)
                        - np.exp(xn) * special.exp1(xn))
    y = 1.0 / x[~near] ** 2
    odd_factorials = [math.factorial(2 * j + 1) for j in range(10)]
    out[~near] = -y * np.polynomial.polynomial.polyval(y, odd_factorials)
    return out


def _panel_rule(upper, panels):
    """Nodes and weights of the composite Gauss-Legendre rule on [0, upper]."""
    x, w = np.polynomial.legendre.leggauss(_GL_POINTS)
    half = 0.5 * upper / panels
    mid = half * (2.0 * np.arange(panels) + 1.0)
    return (mid[:, None] + half * x).ravel(), np.tile(half * w, panels)


def _re_table(bath, tau, quad_tol):
    """Even part on tau >= 0 from closed forms plus a panel rule.

    Returns (value, error estimate, target) per node.  The estimate is
    the change from the rule with half the panels; the target is
    QUADPACK's, max(quad_tol * scale, quad_tol * |value|).  Nodes the
    rule does not cover (Drude tau = 0, or every node when the rule
    would exceed _NODE_BUDGET) carry NaN.
    """
    sd = bath.spectral
    a = bath.thermal_time
    pref = 2.0 * sd.m * sd.gamma * bath.constants.hbar / np.pi
    kind = sd.cutoff_kind
    W = sd.Omega
    scale = pref * W * _omega_coth(W, a)

    width = np.pi / a
    if kind is CutoffKind.SHARP:
        upper = W
        zero_temp = 0.0

        def integrand(w):
            return pref * _omega_coth(w, a)
    else:
        upper = _THERMAL_REACH / a
        if kind is CutoffKind.EXPONENTIAL:
            upper = min(upper, _EXP_TAIL * W)
        else:
            width = min(width, W)
        # the Drude D_re(0) diverges; its NaN sends it to the fallback
        covered = (tau > 0.0) | (kind is CutoffKind.EXPONENTIAL)
        zero_temp = np.full(tau.shape, np.nan)
        zero_temp[covered] = pref * W * W \
            * _re_zero_temperature(kind, W * tau[covered])

        def integrand(w):
            return pref * _cutoff_factor(kind, w / W) * 2.0 * w \
                / np.expm1(2.0 * a * w)

    tau_max = float(np.max(tau))
    if tau_max > 0.0:
        width = min(width, _PANEL_PHASE / tau_max)
    panels = math.ceil(upper / width)
    if 3 * _GL_POINTS * panels > _NODE_BUDGET:
        uncovered = np.full(tau.shape, np.nan)
        return uncovered, uncovered, uncovered

    coarse, w_coarse = _panel_rule(upper, panels)
    fine, w_fine = _panel_rule(upper, 2 * panels)
    omega = np.concatenate([coarse, fine])
    weights = np.zeros((omega.size, 2))
    weights[:coarse.size, 0] = w_coarse
    weights[coarse.size:, 1] = w_fine
    weights *= integrand(omega)[:, None]
    sums = np.empty((tau.size, 2))
    for start in range(0, tau.size, _TAU_BLOCK):
        block = tau[start:start + _TAU_BLOCK]
        sums[start:start + block.size] = np.cos(np.outer(block, omega)) \
            @ weights
    value = zero_temp + sums[:, 1]
    err = np.abs(sums[:, 1] - sums[:, 0])
    return value, err, quad_tol * np.maximum(scale, np.abs(value))


def delta_limit_strength(bath):
    """Weight 4 m gamma kB T of the delta-function kernel limit."""
    sd = bath.spectral
    return 4.0 * sd.m * sd.gamma * bath.constants.k_B * bath.T


def _checked_grid(grid, noun="kernel grid", var="tau"):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError(f"{noun} must be 1-D with at least two nodes")
    if grid[0] != 0.0:
        raise ValueError(f"{noun} must start at {var} = 0")
    steps = np.diff(grid)
    if np.any(steps <= 0.0) or not np.allclose(steps, steps[0],
                                               rtol=1e-9, atol=0.0):
        raise ValueError(f"{noun} must be uniform and increasing")
    return grid


def interp_table(grid, t, columns):
    """Columns sampled on `grid`, linearly interpolated at times t."""
    t = np.asarray(t, dtype=float)
    span = float(grid[-1])
    if np.any(t < -1e-15) or np.any(t > span * (1.0 + 1e-12) + 1e-15):
        raise ValueError(f"t outside tabulated range [0, {span:g}]")
    return [np.interp(t, grid, col) for col in columns]


@dataclass
class CorrelationKernel:
    """Correlation function tabulated on a uniform grid of tau >= 0.

    Evaluation at arbitrary tau uses linear interpolation with the even /
    odd parity of the two parts; requests beyond the tabulated range are
    an error rather than a silent clamp.
    """

    grid: np.ndarray
    re_values: np.ndarray
    im_values: np.ndarray
    bath: ThermalBathSpec | None = None
    quad_tol: float = 1e-8
    health: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        self.grid = _checked_grid(self.grid)
        self.re_values = np.asarray(self.re_values, dtype=float)
        self.im_values = np.asarray(self.im_values, dtype=float)
        if self.re_values.shape != self.grid.shape \
                or self.im_values.shape != self.grid.shape:
            raise ValueError("kernel value arrays must match the grid shape")
        if not (np.all(np.isfinite(self.re_values))
                and np.all(np.isfinite(self.im_values))):
            raise ValueError("kernel values must be finite")
        scale = float(np.max(np.abs(self.im_values)) or 1.0)
        if abs(self.im_values[0]) > 1e-10 * scale:
            raise ValueError("odd part must vanish at tau = 0")
        self.im_values[0] = 0.0
        if self.bath is not None and self.bath.spectral.gamma > 0.0 \
                and self.re_values[0] <= 0.0:
            raise ValueError("even part must be positive at tau = 0")

    @classmethod
    def from_bath(cls, bath, grid, quad_tol=1e-8):
        """Tabulate D on `grid` (uniform, starting at 0).

        D_im is `im_closed_form`; D_re comes from `_re_table`, and every
        node the rule leaves uncertified goes through the adaptive
        quadrature of `eval_correlation`.  `health` records the node
        count, the number of such fallbacks and the worst error
        estimate over its target among the nodes the rule kept.
        """
        grid = _checked_grid(grid)
        re, err, target = _re_table(bath, grid, quad_tol)
        fallback = ~(err <= target) | ~np.isfinite(re)
        for i in np.flatnonzero(fallback):
            re[i] = _correlation_re(bath, float(grid[i]), quad_tol)
        im = im_closed_form(bath, grid)
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise QuadratureError("kernel table has non-finite values")
        kept = ~fallback
        health = {"nodes": int(grid.size),
                  "quad_fallbacks": int(np.count_nonzero(fallback)),
                  "worst_err_over_target": float(
                      np.max(err[kept] / target[kept])) if kept.any()
                  else None}
        return cls(grid=grid, re_values=re, im_values=im, bath=bath,
                   quad_tol=quad_tol, health=health)

    @classmethod
    def from_samples(cls, grid, re_values, im_values, bath=None):
        """Wrap externally computed samples (synthetic kernels, tests)."""
        return cls(grid=np.asarray(grid, dtype=float),
                   re_values=np.array(re_values, dtype=float),
                   im_values=np.array(im_values, dtype=float), bath=bath)

    @property
    def spacing(self):
        return float(self.grid[1] - self.grid[0])

    @property
    def values(self):
        """Complex samples on the stored grid."""
        return self.re_values + 1j * self.im_values

    def re_at(self, tau):
        (out,) = interp_table(self.grid, np.abs(tau), [self.re_values])
        return float(out) if out.ndim == 0 else out

    def im_at(self, tau):
        (out,) = interp_table(self.grid, np.abs(tau), [self.im_values])
        out = np.sign(tau) * out
        return float(out) if out.ndim == 0 else out

    def at(self, tau):
        tau = np.asarray(tau, dtype=float)
        out = self.re_at(tau) + 1j * self.im_at(tau)
        return complex(out) if np.ndim(out) == 0 else out

    def scaled(self, factor):
        """Kernel with all values multiplied by `factor`.

        Rescaling corresponds to changing the system-bath coupling
        strength; the originating bath spec no longer matches, so it is
        dropped from the result.
        """
        return CorrelationKernel(grid=self.grid.copy(),
                                 re_values=factor * self.re_values,
                                 im_values=factor * self.im_values,
                                 bath=None, quad_tol=self.quad_tol)
