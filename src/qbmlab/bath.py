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
tau at once: one closed-form zero-temperature kernel
hbar int J(w) e^{-i w tau} dw (`_zero_temperature`) gives D_im and D_re
at T = 0, and `_re_table` the thermal part of D_re, the cosine transform
of 2 hbar J(w) / (e^{2aw} - 1) with a = hbar / 2 kB T, by a composite
Gauss-Legendre rule checked against twice the panels.  Its sums
sum_k c_k cos(w_k tau_j) over the uniform grid are factored: writing
tau_j = tau_j0 + b h, with j0 the start of a block of B ~ sqrt(n) nodes,
they are the real parts of one complex matrix product
(c_k e^{i w_k tau_j0}) (e^{i w_k b h})^T.  A node is a panel midpoint
plus a Gauss offset shared by every panel, so the product costs
(n / B + B) complex exponentials per panel instead of n cosines per
node.  Nodes the rule cannot certify to `quad_tol` go through the
adaptive quadrature, which stays the oracle, and so does every node when
the rule would need so many frequency nodes that it costs more than that.
The high-temperature closed form of the sharp even part is provided for
cross-checks.

Conventions: tau may be any real number; D_re is even and D_im is odd in
tau, and tabulated kernels store tau >= 0 only.
"""

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

_DRUDE_TRUNCATION = 1e6  # upper limit, in units of Omega, for the divergent case
_EXP_TAIL = 60.0  # e^-60 ~ 1e-26, negligible relative to any epsabs we use

# Tabulation rule (CorrelationKernel.from_bath).  32-point Gauss-Legendre
# integrates cos over a panel spanning 60 rad of phase to ~1e-14; panels
# no wider than pi/a stay a factor 2 from the poles of w coth(aw) at
# i pi k / a (and of the Drude profile at i Omega).
_GL_POINTS = 32
_gauss_legendre = functools.cache(  # x, w on [-1, 1], at first use
    lambda: np.polynomial.legendre.leggauss(_GL_POINTS))
_PANEL_PHASE = 60.0
_THERMAL_REACH = 40.0  # 2w / (e^{2aw} - 1) < 80 e^-80 / a beyond w = 40 / a
# Coarse plus fine nodes the rule may use, min(_NODE_BUDGET_PER_TAU * n,
# _NODE_BUDGET).  The rule costs about 0.05 us per omega node at n = 11
# tau nodes and 0.5 us at n = 1,001 (2-vCPU machine), per-node QUADPACK
# about 2 ms per tau node: they break even near 4e4 n omega nodes for
# small n and 4e6 at n = 1,001.  The budgets date from 0.2 and 1.8 us per
# node and are kept on purpose, so every table falls back where it did.
_NODE_BUDGET_PER_TAU = 10_000
_NODE_BUDGET = 1_000_000
_OMEGA_CHUNK = 1024  # omega nodes per product; keeps temporaries near 1 MB
_DRUDE_SERIES_FROM = 100.0  # Omega tau beyond which an asymptotic series is used
_DRUDE_DIVERGENCE = ("D_re(0) diverges logarithmically for the drude cutoff; "
                     f"integral truncated at {_DRUDE_TRUNCATION:g} * Omega")


class ValidityWarning(UserWarning):
    """A closed form or truncation was used outside its safe regime."""


class QuadratureWarning(UserWarning):
    """Adaptive quadrature finished but missed its accuracy target."""


class NumericalFailure(RuntimeError):
    """A table, a quadrature or a propagation came out non-finite or
    unrealizable; the base of every numerical error in qbmlab."""


class QuadratureError(NumericalFailure):
    """Adaptive quadrature failed outright (non-finite result)."""


@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float = 1.0
    k_B: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.hbar < math.inf and 0.0 < self.k_B < math.inf):
            raise ValueError(
                "hbar and k_B must be finite and strictly positive")


class CutoffKind(str, Enum):
    SHARP = "sharp"
    EXPONENTIAL = "exponential"
    DRUDE = "drude"


# upper limit of the frequency integrals, in units of Omega
_REACH = {CutoffKind.SHARP: 1.0, CutoffKind.EXPONENTIAL: _EXP_TAIL,
          CutoffKind.DRUDE: _DRUDE_TRUNCATION}


@dataclass(frozen=True)
class SpectralDensity:
    """Ohmic coupling density with mass m, damping rate gamma, cutoff Omega."""

    m: float
    gamma: float
    Omega: float
    cutoff_kind: CutoffKind = CutoffKind.SHARP

    def __post_init__(self):
        if not 0.0 < self.m < math.inf:
            raise ValueError("mass m must be finite and strictly positive")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(
                "damping rate gamma must be finite and non-negative")
        if not 0.0 < self.Omega < math.inf:
            raise ValueError(
                "cutoff frequency Omega must be finite and strictly positive")
        if not isinstance(self.cutoff_kind, CutoffKind):
            object.__setattr__(self, "cutoff_kind", CutoffKind(self.cutoff_kind))


@dataclass(frozen=True)
class ThermalBathSpec:
    """Spectral density plus temperature and unit conventions."""

    spectral: SpectralDensity
    T: float
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self):
        if not 0.0 < self.T < math.inf:
            raise ValueError(
                "temperature T must be finite and strictly positive")

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
    """omega * coth(a * omega) as omega / tanh(a * omega), exact to rounding
    wherever a * omega is nonzero, and its limit 1 / a where it is 0."""
    x = a * np.asarray(omega, dtype=float)
    out = np.divide(omega, np.tanh(x), out=np.full(x.shape, 1.0 / a),
                    where=x != 0.0)
    return float(out) if out.ndim == 0 else out


def _quad_checked(func, cuts, *, what, epsabs, epsrel, scale, **kwargs):
    """scipy.integrate.quad summed over the pieces between consecutive
    `cuts`, with non-convergence (of the summed error estimate) turned
    into warnings.
    """
    from scipy import integrate  # read quad at call time: tracers patch it

    result = abserr = 0.0
    notes = []
    for lo, hi in itertools.pairwise(cuts):
        out = integrate.quad(func, lo, hi, epsabs=epsabs, epsrel=epsrel,
                             full_output=1, **kwargs)
        result, abserr = result + out[0], abserr + out[1]
        notes += out[3:4]  # quadpack appended an explanation message
    if not np.isfinite(result):
        raise QuadratureError(f"{what}: quadrature returned {result}")
    if notes:
        warnings.warn(
            f"{what}: quadrature did not converge to target "
            f"(achieved abs error {abserr:.3e}); {'; '.join(notes)}",
            QuadratureWarning, stacklevel=3)
    elif abserr > 10.0 * max(epsabs, epsrel * abs(result), epsrel * scale):
        warnings.warn(
            f"{what}: achieved abs error {abserr:.3e} exceeds target "
            f"for result {result:.6e}",
            QuadratureWarning, stacklevel=3)
    return result


def _correlation_quad(bath, tau, quad_tol, part):
    """Even (part "re") or odd (part "im") part of the correlation
    function at tau >= 0 by adaptive quadrature, weighted by cos or sin
    (QUADPACK).  The even part is split at the bends of w coth(aw) near
    1/a and 10/a: QAWO on each finite piece, QAWF beyond the last.
    """
    sd = bath.spectral
    pref = 2.0 * sd.m * sd.gamma * bath.constants.hbar / np.pi
    kind = sd.cutoff_kind
    if part == "re":
        a = bath.thermal_time

        def integrand(w):
            return pref * _cutoff_factor(kind, w / sd.Omega) \
                * _omega_coth(w, a)

        scale = pref * sd.Omega * _omega_coth(sd.Omega, a)
        sign, weight, bends = 1.0, "cos", (1.0 / a, 10.0 / a)
    else:
        if tau == 0.0:
            return 0.0

        def integrand(w):
            return pref * w * _cutoff_factor(kind, w / sd.Omega)

        scale = pref * sd.Omega ** 2
        sign, weight, bends = -1.0, "sin", ()

    # scale: the magnitude of the integral, used for absolute tolerances
    # where quadpack cannot work in relative terms (semi-infinite
    # weighted rules)
    args = {"what": f"D_{part}({tau:g})", "epsabs": quad_tol * scale,
            "epsrel": quad_tol, "scale": scale}
    if tau == 0.0:  # the even part only; no oscillatory weight
        upper = _REACH[kind] * sd.Omega
        # the bends of w coth(aw) near 1/a and of the profile near Omega
        points = sorted({p for p in (*bends, sd.Omega) if p < upper})
        return _quad_checked(integrand, (0.0, upper), limit=500,
                             points=points or None, **args)
    if pref == 0.0:  # zero coupling; the semi-infinite rules need epsabs > 0
        return 0.0
    upper = sd.Omega if kind is CutoffKind.SHARP else np.inf
    cuts = (0.0, *(p for p in bends if p < upper), upper)
    return sign * _quad_checked(integrand, cuts, weight=weight, wvar=tau,
                                limit=500, limlst=200, **args)


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
    if not 0.0 < quad_tol < math.inf:
        raise ValueError("quad_tol must be finite and strictly positive")
    tau = float(tau)
    if tau == 0.0 and bath.spectral.cutoff_kind is CutoffKind.DRUDE:
        warnings.warn(_DRUDE_DIVERGENCE, ValidityWarning, stacklevel=2)
    re = _correlation_quad(bath, abs(tau), quad_tol, "re")
    im = _correlation_quad(bath, abs(tau), quad_tol, "im")
    if tau < 0.0:
        im = -im
    return complex(re, im)


def im_closed_form(bath, tau):
    """Exact odd part D_im(tau) for each cutoff profile (vectorized).

    Temperature never enters the odd part, so it is that of
    `_zero_temperature`, an independent check on the quadrature.
    """
    tau = np.asarray(tau, dtype=float)
    out = _zero_temperature(bath, np.atleast_1d(tau))[1]
    return float(out[0]) if tau.ndim == 0 else out


def _zero_temperature(bath, tau):
    """(D_re, D_im) at T = 0, hbar int_0^inf J(w) e^{-i w tau} dw, on an
    array of tau in closed form.  With pref = 2 m gamma hbar / pi and
    x = Omega tau, D_re is pref Omega^2 (x sin x - 2 sin^2(x/2)) / x^2
    (sharp, a series near x = 0), pref Omega^2 (1 - x^2) / (1 + x^2)^2
    (exponential) and -pref Omega^2 [e^-x Ei(x) - e^x E1(x)] / 2 at
    x = |Omega tau| (Drude, G&R 3.723.5; past _DRUDE_SERIES_FROM its
    asymptotic series -sum_{k odd} k! / x^(k+1), exact to rounding,
    keeps e^x finite).  The divergent Drude D_re(0) is the integral
    truncated at _DRUDE_TRUNCATION * Omega.
    """
    sd = bath.spectral
    hbar = bath.constants.hbar
    pref = 2.0 * sd.m * sd.gamma * hbar / np.pi
    W = np.float64(sd.Omega)  # overflows to inf, not OverflowError
    x = W * tau

    if sd.cutoff_kind is CutoffKind.SHARP:
        re, im = np.empty_like(tau), np.empty_like(tau)
        small = np.abs(x) < 1e-3
        xs = x[small]
        re[small] = pref * W ** 2 * (0.5 - xs * xs / 8.0 + xs ** 4 / 144.0)
        im[small] = -pref * W ** 2 * (xs / 3.0) * (1.0 - xs * xs / 10.0)
        tl = tau[~small]
        xl = x[~small]
        re[~small] = pref * (xl * np.sin(xl) - 2.0 * np.sin(0.5 * xl) ** 2) \
            / (tl * tl)
        im[~small] = -pref * (np.sin(xl) - xl * np.cos(xl)) / (tl * tl)
    elif sd.cutoff_kind is CutoffKind.EXPONENTIAL:
        r = 1.0 / (1.0 + x * x)
        re = pref * W * W * (r * (2.0 * r - 1.0))
        im = -pref * 2.0 * tau * W ** 3 / (1.0 + x * x) ** 2
    else:  # drude
        from scipy import special

        ax = np.abs(x)
        g = np.full(tau.shape, 0.5 * math.log1p(_DRUDE_TRUNCATION ** 2))
        near = (ax > 0.0) & (ax <= _DRUDE_SERIES_FROM)
        far = ax > _DRUDE_SERIES_FROM
        xn = ax[near]
        g[near] = -0.5 * (np.exp(-xn) * special.expi(xn)
                          - np.exp(xn) * special.exp1(xn))
        y = 1.0 / ax[far] ** 2
        odd_factorials = [math.factorial(2 * j + 1) for j in range(10)]
        g[far] = -y * np.polynomial.polynomial.polyval(y, odd_factorials)
        re = pref * W * W * g
        im = -sd.m * sd.gamma * hbar * W ** 2 * np.exp(-ax) * np.sign(tau)
    return re, im


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


def _panel_rule(upper, panels):
    """Composite Gauss-Legendre rule on [0, upper]: panel midpoints, Gauss
    offsets (nodes mid[:, None] + offsets) and weights[panel, offset]."""
    x, w = _gauss_legendre()
    half = 0.5 * upper / panels
    mid = half * (2.0 * np.arange(panels) + 1.0)
    return mid, half * x, np.tile(half * w, (panels, 1))


def _cosine_sums(tau, mid, offsets, weights):
    """sum_{p,g} weights[p, g] cos((mid[p] + offsets[g]) tau[j]) for each
    node of a uniform grid.

    With blocks of B ~ sqrt(n) nodes, tau[j] = tau[j0] + b h for a block
    start j0 = 0, B, 2B, ... and 0 <= b < B, so every sum is the real part
    of one entry of (e^{i omega tau[j0]} weights) (e^{i omega b h})^T.
    With e^{i omega t} = e^{i mid t} e^{i offset t}, the offset factors are
    taken once and the panel factors per chunk of about _OMEGA_CHUNK nodes,
    whose products are accumulated: (n / B + B) exponentials per panel in
    place of n cosines per node.
    """
    block = math.ceil(math.sqrt(tau.size))
    starts = tau[::block]
    shifts = (tau[1] - tau[0]) * np.arange(block)
    start_offset = np.exp(1j * np.outer(starts, offsets))[:, None, :]
    offset_shift = np.exp(1j * np.outer(offsets, shifts))
    per_chunk = _OMEGA_CHUNK // offsets.size
    acc = np.zeros((starts.size, block), dtype=complex)
    for lo in range(0, mid.size, per_chunk):
        chunk = slice(lo, lo + per_chunk)
        left = np.exp(1j * np.outer(starts, mid[chunk]))[:, :, None] \
            * start_offset * weights[chunk]
        right = np.exp(1j * np.outer(mid[chunk], shifts))[:, None, :] \
            * offset_shift
        acc += left.reshape(starts.size, -1) @ right.reshape(-1, block)
    return acc.real.ravel()[:tau.size]


def _re_table(bath, tau):
    """Thermal part of D_re on tau >= 0: a panel rule on 2 hbar J(w) /
    (e^{2aw} - 1) up to min(_THERMAL_REACH / a, the cutoff's reach).

    Returns (value, error estimate) per node, the estimate being the
    change from the rule with half the panels.  Every node carries NaN
    when the rule would exceed its node budget.
    """
    sd = bath.spectral
    a = bath.thermal_time
    pref = 2.0 * sd.m * sd.gamma * bath.constants.hbar / np.pi
    kind = sd.cutoff_kind
    W = sd.Omega

    upper = min(_THERMAL_REACH / a, _REACH[kind] * W)
    width = min(np.pi / a, W) if kind is CutoffKind.DRUDE else np.pi / a
    tau_max = float(np.max(tau))
    if tau_max > 0.0:
        width = min(width, _PANEL_PHASE / tau_max)
    panels = math.ceil(upper / width)
    if 3 * _GL_POINTS * panels > min(_NODE_BUDGET_PER_TAU * tau.size,
                                     _NODE_BUDGET):
        return np.full((2, tau.size), np.nan)  # (value, estimate) rows

    def integrand(w):
        return pref * _cutoff_factor(kind, w / W) * 2.0 * w \
            / np.expm1(2.0 * a * w)

    def rule_sum(panels):
        mid, offsets, weights = _panel_rule(upper, panels)
        return _cosine_sums(tau, mid, offsets,
                            weights * integrand(mid[:, None] + offsets))

    coarse_sum, fine_sum = rule_sum(panels), rule_sum(2 * panels)
    return fine_sum, np.abs(fine_sum - coarse_sum)


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
    if not (np.all(t >= -1e-15) and np.all(t <= span * (1.0 + 1e-12) + 1e-15)):
        raise ValueError(f"t outside tabulated range [0, {span:g}]")
    return [np.interp(t, grid, col) for col in columns]


def _lag_table(re_d, lo):
    """R + i(L - L^T): the complex table of `CorrelationKernel.lag_factors`."""
    table = np.empty(re_d.shape, dtype=complex)
    table.real = re_d
    np.subtract(lo, lo.T, out=table.imag)
    return table


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
    health: dict | None = field(default=None, repr=False)

    def __post_init__(self):  # copies: the kernel owns its tables
        self.grid = _checked_grid(np.array(self.grid, dtype=float))
        self.re_values = np.array(self.re_values, dtype=float)
        self.im_values = np.array(self.im_values, dtype=float)
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

        One `_zero_temperature` call gives D_im and D_re at T = 0, and
        D_re adds `_re_table`.  A node whose rule error exceeds QUADPACK's
        target max(quad_tol * scale, quad_tol * |D_re|) goes through the
        adaptive quadrature of `eval_correlation`.  `health` records the
        node count, the number of such fallbacks and the worst error
        estimate over its target among the nodes the rule kept.
        """
        if not 0.0 < quad_tol < math.inf:
            raise ValueError("quad_tol must be finite and strictly positive")
        grid = _checked_grid(grid)
        zero_re, im = _zero_temperature(bath, grid)
        thermal, err = _re_table(bath, grid)
        re = zero_re + thermal
        sd = bath.spectral  # QUADPACK's scale, as in _correlation_quad
        scale = 2.0 * sd.m * sd.gamma * bath.constants.hbar / np.pi \
            * sd.Omega * _omega_coth(sd.Omega, bath.thermal_time)
        target = quad_tol * np.maximum(scale, np.abs(re))
        if sd.cutoff_kind is CutoffKind.DRUDE:
            warnings.warn(_DRUDE_DIVERGENCE, ValidityWarning, stacklevel=2)
        fallback = ~(err <= target) | ~np.isfinite(re)
        for i in np.flatnonzero(fallback):
            re[i] = _correlation_quad(bath, float(grid[i]), quad_tol, "re")
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise QuadratureError("kernel table has non-finite values")
        kept = ~fallback
        # err <= target on a kept node, so a zero target (zero coupling)
        # has a zero err there: its ratio is 0, not 0/0
        ratio = np.divide(err, target, out=np.zeros_like(err),
                          where=err > 0.0)
        health = {"nodes": int(grid.size),
                  "quad_fallbacks": int(np.count_nonzero(fallback)),
                  "worst_err_over_target": float(np.max(ratio[kept]))
                  if kept.any() else None}
        return cls(grid=grid, re_values=re, im_values=im, bath=bath,
                   health=health)

    @classmethod
    def from_samples(cls, grid, re_values, im_values, bath=None):
        """Wrap externally computed samples (synthetic kernels, tests)."""
        return cls(grid, re_values, im_values, bath=bath)

    @property
    def spacing(self):
        return float(self.grid[1] - self.grid[0])

    def at(self, tau):
        """D(tau) = D_re(|tau|) + i sign(tau) D_im(|tau|), interpolated."""
        tau = np.asarray(tau, dtype=float)
        re, im = interp_table(self.grid, np.abs(tau),
                              [self.re_values, self.im_values])
        out = re + 1j * (np.sign(tau) * im)
        return complex(out) if out.ndim == 0 else out

    def lag_factors(self):
        """The two real Toeplitz factors of D(t_i - t_j) on this grid,
        read exactly from node |i - j|: R[i, j] = D_re(|t_i - t_j|), and
        L[i, j] = D_im(t_i - t_j) for i >= j, zero above the diagonal.
        The one two-time layout of D; `lag_table` is R + i(L - L^T)."""
        n = self.grid.size

        def toeplitz(by_lag):  # entries at lags -(n - 1)..n - 1
            return np.lib.stride_tricks.sliding_window_view(
                by_lag, n)[:, ::-1].copy()
        return (toeplitz(np.r_[self.re_values[:0:-1], self.re_values]),
                toeplitz(np.r_[np.zeros(n - 1), self.im_values]))

    def lag_table(self):
        """`at` at t_i - t_j on this grid, read exactly from node |i - j|
        (conjugated above the diagonal), assembled from `lag_factors`."""
        return _lag_table(*self.lag_factors())

    def scaled(self, factor):
        """Kernel with all values multiplied by `factor`.

        Rescaling corresponds to changing the system-bath coupling
        strength; the originating bath spec no longer matches, so it is
        dropped from the result.
        """
        return CorrelationKernel(grid=self.grid,
                                 re_values=factor * self.re_values,
                                 im_values=factor * self.im_values,
                                 bath=None)
