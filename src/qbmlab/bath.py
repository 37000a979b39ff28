"""Ohmic spectral densities and thermal bath correlation kernels.

The bath is a continuum of harmonic oscillators coupled linearly to the
system coordinate, with coupling density

    J(omega) = (2 m gamma / pi) * omega * f(omega / Omega)

where f is a high-frequency cutoff profile (sharp window, exponential,
or Drude-Lorentz).  At temperature T the force-force correlation
function splits into even and odd parts,

    D_re(tau) =  hbar * int_0^inf J(w) coth(hbar w / 2 kB T) cos(w tau) dw
    D_im(tau) = -hbar * int_0^inf J(w) sin(w tau) dw

Tabulated kernels take every tau at once, with no adaptive quadrature.
D_im is a closed form (`_zero_temperature`).  The exponential D_re is its
closed form in psi' at every T (`_exponential_re`).  The sharp and Drude
D_re are their T = 0 closed forms plus the thermal part, the cosine
transform of 2 hbar J(w) / (e^{2aw} - 1) with a = hbar / 2 kB T, by a
composite Gauss-Legendre rule (`_re_table`) while it fits its node
budget; over it a Drude table takes its Matsubara series
(`_drude_series`) and a sharp table raises QuadratureError.

The rule's sums sum_k c_k cos(w_k tau_j) over the uniform grid are
factored: writing tau_j = tau_j0 + b h, with j0 the start of a block of
B ~ sqrt(n) nodes, they are the real parts of one complex matrix product
(c_k e^{i w_k tau_j0}) (e^{i w_k b h})^T.  A node is a panel midpoint
plus a Gauss offset shared by every panel, so the product costs
(n / B + B) complex exponentials per panel instead of n cosines per
node.  The rule is checked against itself with half the panels, and a
node whose error misses `quad_tol` raises a QuadratureWarning.  The
high-temperature closed form of the sharp even part is provided for
cross-checks.

Conventions: tau may be any real number; D_re is even and D_im is odd in
tau, and tabulated kernels store tau >= 0 only.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

_DRUDE_TRUNCATION = 1e6  # upper limit, in units of Omega, for the divergent case
_DRUDE_G0 = 0.5 * math.log1p(_DRUDE_TRUNCATION ** 2)  # the truncated g(0)
_EXP_TAIL = 60.0  # the exponential profile's reach, in units of Omega: e^-60

# Tabulation rule (CorrelationKernel.from_bath).  32-point Gauss-Legendre
# integrates cos over a panel spanning 60 rad of phase to ~1e-14; panels
# no wider than pi/a stay a factor 2 from the poles of w coth(aw) at
# i pi k / a (and of the Drude profile at i Omega).
_GL_POINTS = 32
_gauss_legendre = functools.cache(  # x, w on [-1, 1], at first use
    lambda: np.polynomial.legendre.leggauss(_GL_POINTS))
_PANEL_PHASE = 60.0
_THERMAL_REACH = 40.0  # 2w / (e^{2aw} - 1) < 80 e^-80 / a beyond w = 40 / a
# Coarse plus fine nodes the rule may use on n tau nodes,
# min(_NODE_BUDGET_PER_TAU * n, _NODE_BUDGET); past it a Drude table takes
# its Matsubara series and a sharp table is refused.  At 0.05 (n = 11) to
# 0.5 us (n = 1,001) per omega node on a 2-vCPU machine, a table within it
# takes at most about 0.5 s.  Every table on the rule keeps its bits.
_NODE_BUDGET_PER_TAU = 10_000
_NODE_BUDGET = 1_000_000
_OMEGA_CHUNK = 1024  # omega nodes per product; keeps temporaries near 1 MB
# The Drude D_re(T = 0) (`_drude_g`): Ei's series of _EI_TERMS terms (the
# last below rounding at x = 40), E1's up to _E1_SERIES_TO and its continued
# fraction of _E1_LEVELS levels above, and past _DRUDE_SERIES_FROM the
# asymptotic series of _ODD_TERMS terms (optimal there).  The coefficients
# are exact integers rounded once: a float product of k! drifts by 1e-14.
_DRUDE_SERIES_FROM = 40.0
_EI_TERMS, _ODD_TERMS = 105, 20
_E1_SERIES_TO, _E1_LEVELS = 2.0, 50
_EI_COEF = [1.0 / (k * math.factorial(k)) for k in range(1, _EI_TERMS + 1)]
_ODD_FACTORIALS = [float(math.factorial(2 * i + 1)) for i in range(_ODD_TERMS)]
_EULER_GAMMA = 0.5772156649015329
# psi' (`_trigamma`) and Binet's ln x - 1/2x - psi(x) (`_binet`) recur up to
# _ASYMPTOTIC_FROM, then take their asymptotic series in the Bernoulli
# numbers B_2 ... B_16, whose last term is below 4e-17 of the sum there.
_ASYMPTOTIC_FROM = 12.0
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510)
# The Drude Matsubara series (`_drude_series`) keeps the terms e^{-nu_k tau}
# >= e^-_SERIES_REACH (4e-18) at each node, _SERIES_BLOCK terms per product
# (added one at a time, 2e5 terms lose 3e-13 to rounding), and joins the cot
# term and the term of a pole a Omega = pi k within _POLE_GAP of it, where
# cot e - 1/e takes its series: 2^2n |B_2n| e^(2n-1) / (2n)!, the next one
# 2e-20 at 0.1.
_SERIES_REACH = 40.0
_SERIES_BLOCK = 64
_POLE_GAP = 0.1
_COT_SERIES = [4.0 ** n * abs(b) / math.factorial(2 * n)
               for n, b in enumerate(_BERNOULLI[:6], 1)]
_DRUDE_DIVERGENCE = ("D_re(0) diverges logarithmically for the drude cutoff; "
                     f"integral truncated at {_DRUDE_TRUNCATION:g} * Omega")


class ValidityWarning(UserWarning):
    """A closed form or truncation was used outside its safe regime."""


class QuadratureWarning(UserWarning):
    """The kernel rule missed its accuracy target at some node."""


class NumericalFailure(RuntimeError):
    """A table or a propagation came out non-finite or unrealizable; the
    base of every numerical error in qbmlab."""


class QuadratureError(NumericalFailure):
    """A kernel table came out non-finite, or its rule would exceed its
    node budget."""


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


def im_closed_form(bath, tau):
    """Exact odd part D_im(tau) for each cutoff profile (vectorized).

    Temperature never enters the odd part, so it is that of
    `_zero_temperature`.
    """
    tau = np.asarray(tau, dtype=float)
    out = _zero_temperature(bath, np.atleast_1d(tau))[1]
    return float(out[0]) if tau.ndim == 0 else out


def _zero_temperature(bath, tau):
    """(D_re, D_im) at T = 0, hbar int_0^inf J(w) e^{-i w tau} dw, on an
    array of tau in closed form.  With pref = 2 m gamma hbar / pi and
    x = Omega tau, D_re is pref Omega^2 (x sin x - 2 sin^2(x/2)) / x^2
    (sharp, a series near x = 0), pref Omega^2 (1 - x^2) / (1 + x^2)^2
    (exponential) and pref Omega^2 g(x), g(x) = -[e^-x Ei(x) - e^x
    E1(x)] / 2 at x = |Omega tau| (Drude, G&R 3.723.5; `_drude_g`).  The
    divergent Drude D_re(0) is the integral truncated at
    _DRUDE_TRUNCATION * Omega.
    """
    sd = bath.spectral
    hbar = bath.constants.hbar
    pref = 2.0 * sd.m * sd.gamma * hbar / np.pi
    # W * W, not W ** 2: libm's pow can misround by an ulp, and not alike
    # at W and 2 W, which would break unit covariance
    W = np.float64(sd.Omega)  # overflows to inf, not OverflowError
    x = W * tau

    if sd.cutoff_kind is CutoffKind.SHARP:
        re, im = np.empty_like(tau), np.empty_like(tau)
        small = np.abs(x) < 1e-3
        xs = x[small]
        re[small] = pref * W * W * (0.5 - xs * xs / 8.0 + xs ** 4 / 144.0)
        im[small] = -pref * W * W * (xs / 3.0) * (1.0 - xs * xs / 10.0)
        tl = tau[~small]
        xl = x[~small]
        re[~small] = pref * (xl * np.sin(xl) - 2.0 * np.sin(0.5 * xl) ** 2) \
            / (tl * tl)
        im[~small] = -pref * (np.sin(xl) - xl * np.cos(xl)) / (tl * tl)
    elif sd.cutoff_kind is CutoffKind.EXPONENTIAL:
        r = 1.0 / (1.0 + x * x)
        re = pref * W * W * (r * (2.0 * r - 1.0))
        im = -pref * 2.0 * tau * (W * W * W) / (1.0 + x * x) ** 2
    else:  # drude
        ax = np.abs(x)
        g = np.full(tau.shape, _DRUDE_G0)
        live = ax > 0.0
        g[live] = _drude_g(ax[live])
        re = pref * W * W * g
        im = -sd.m * sd.gamma * hbar * W * W * np.exp(-ax) * np.sign(tau)
    return re, im


def _power_series(coef, u):
    """sum_k coef[k - 1] u^k, in Horner form."""
    s = np.zeros_like(u)
    for c in reversed(coef):
        s += c
        s *= u
    return s


def _drude_g(x):
    """g(x) = -[e^-x Ei(x) - e^x E1(x)] / 2 for x > 0, in numpy alone, from
    four pieces of A&S 5.1, with S(u) = sum_k u^k / (k k!):
    - e^-x Ei(x) = e^-x (gamma + ln x + S(x)) (5.1.10), all terms positive;
    - e^x E1(x) = e^x (-gamma - ln x - S(-x)) (5.1.11) up to _E1_SERIES_TO,
      from the same Horner pass as S(x);
    - above it, e^x E1(x) = 1 / (x + 1 - 1 / (x + 3 - 4 / (x + 5 - ...))),
      the even form of the continued fraction 5.1.22, from its last level up;
    - past _DRUDE_SERIES_FROM, g = -sum_{k odd} k! / x^(k+1), the two
      asymptotic series (5.1.51) subtracted term by term: 3e-15 at x = 40.
    """
    g = np.empty_like(x)
    far = x > _DRUDE_SERIES_FROM
    g[far] = -_power_series(_ODD_FACTORIALS, 1.0 / x[far] ** 2)
    xs = x[~far]
    log_x = _EULER_GAMMA + np.log(xs)
    small = xs <= _E1_SERIES_TO
    s = _power_series(_EI_COEF, np.concatenate((xs, -xs[small])))
    ei_x = np.exp(-xs) * (log_x + s[:xs.size])
    e1_x = np.empty_like(xs)
    e1_x[small] = np.exp(xs[small]) * (-log_x[small] - s[xs.size:])
    u = xs[~small]
    f = u + (2 * _E1_LEVELS + 1)
    for j in range(_E1_LEVELS, 0, -1):
        f = u + (2 * j - 1) - j * j / f
    e1_x[~small] = 1.0 / f
    g[~far] = -0.5 * (ei_x - e1_x)
    return g


def _trigamma(z):
    """psi'(z) on an array of complex z with Re z > 0: the recurrence
    psi'(z) = 1/z^2 + psi'(z + 1) up to Re z >= _ASYMPTOTIC_FROM, then
    1/w + 1/2w^2 + sum_k B_2k / w^(2k+1) (A&S 6.4.6, 6.4.12)."""
    shift = max(0, math.ceil(_ASYMPTOTIC_FROM - float(np.min(z.real))))
    u = 1.0 / (z + shift)
    v, s = u * u, np.zeros_like(z)
    for b in reversed(_BERNOULLI):
        s = (s + b) * v
    out = u * (1.0 + 0.5 * u + s)
    for j in reversed(range(shift)):  # the smallest terms first
        out += 1.0 / ((z + j) * (z + j))
    return out


def _binet(x):
    """ln x - 1/2x - psi(x) for a float x > 0: the recurrence
    psi(x) = psi(x + 1) - 1/x up to w = x + shift >= _ASYMPTOTIC_FROM,
    then sum_k B_2k / (2k w^2k) (A&S 6.3.18)."""
    shift = max(0, math.ceil(_ASYMPTOTIC_FROM - x))
    w = x + shift
    s = 0.0
    for k in range(len(_BERNOULLI), 0, -1):
        s = (s + _BERNOULLI[k - 1] / (2 * k)) / (w * w)
    head = sum(1.0 / (x + j) for j in reversed(range(shift)))
    return s + head + math.log(x / w) - 0.5 / x + 0.5 / w


def _exponential_re(bath, tau):
    """D_re of the exponential cutoff on an array of tau >= 0 at any T,
    (2 m gamma hbar / pi) Re[psi'(z) + psi'(z + 1)] / 4a^2 with the pure
    number z = (1/Omega + i tau) / 2a, and psi'(z) = 1/z^2 + psi'(z + 1)."""
    sd = bath.spectral
    a = bath.thermal_time
    pref = 2.0 * sd.m * sd.gamma * bath.constants.hbar / np.pi
    z = np.empty(tau.shape, dtype=complex)
    z.real = 1.0 / (2.0 * a * sd.Omega)
    z.imag = tau / (2.0 * a)
    psi_sum = 1.0 / (z * z) + 2.0 * _trigamma(z + 1.0)
    return pref / (4.0 * a * a) * psi_sum.real


def _drude_series(bath, tau):
    """D_re of the Drude cutoff on a grid of tau >= 0 starting at 0, by the
    Matsubara series (Haake & Reibold, PRA 32, 2462 (1985)) in the pure
    numbers y = a Omega, x = Omega tau and s = pi tau / a,
    m gamma hbar Omega^2 [cot(y) e^{-x} + sum_k 2 pi k e^{-ks} / ((pi k)^2
    - y^2)], with the terms ks <= _SERIES_REACH at each node, a block of
    terms per product up to its first term's reach.  Near a pole y = pi k,
    with e = y - pi k, the cot term and term k are joined into
    (cot e - 1/e) e^{-x} + e^{-ks} [(e^{-es/pi} - 1) / e + 1 / (y + pi k)].
    D_re(0) is the truncated T = 0 value plus its thermal part (Binet),
    (2 m gamma hbar / pi) Omega^2 (ln x - 1/2x - psi(x)) at x = y / pi.
    """
    sd = bath.spectral
    a, W = bath.thermal_time, sd.Omega
    y = a * W
    x, s = W * tau[1:], np.pi * tau[1:] / a
    pole = round(y / np.pi)
    gap = y - np.pi * pole
    if pole >= 1 and abs(gap) < _POLE_GAP:
        cot_gap = 0.0  # (cot e - 1/e) / e, by its series
        for c in reversed(_COT_SERIES):
            cot_gap = cot_gap * gap * gap - c
        slope = np.expm1(-gap * s / np.pi) / gap if gap else -s / np.pi
        sums = cot_gap * gap * np.exp(-x) \
            + np.exp(-pole * s) * (slope + 1.0 / (y + np.pi * pole))
    else:
        pole, sums = 0, np.exp(-x) / np.tan(y)
    k = np.arange(1, int(_SERIES_REACH / s[0]) + 1)
    k = k[k != pole]
    nu = np.pi * k
    coef = 2.0 * nu / (nu * nu - y * y)
    for lo in range(0, k.size, _SERIES_BLOCK):
        block = slice(lo, lo + _SERIES_BLOCK)
        near = np.searchsorted(s, _SERIES_REACH / k[lo], side="right")
        sums[:near] += coef[block] @ np.exp(-np.outer(k[block], s[:near]))
    hbar = bath.constants.hbar
    out = np.empty_like(tau)
    out[0] = 2.0 * sd.m * sd.gamma * hbar / np.pi * W * W \
        * (_DRUDE_G0 + _binet(y / np.pi))
    out[1:] = sd.m * sd.gamma * hbar * W * W * sums
    return out


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
    change from the rule with half the panels, or None when the rule
    would exceed its node budget.
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
        return None

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


def _is_int(value):  # an int or numpy integer, never a bool
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_seed(value):  # an integer that fits a seed word, 0 <= value < 2^64
    return _is_int(value) and 0 <= int(value) < 2 ** 64


# how far past [0, span] a table lookup may reach, relative to the span: the
# rounding of the times that step to the table's end
_SPAN_RTOL = 1e-12


def interp_table(grid, t, columns):
    """Columns sampled on `grid`, linearly interpolated at times t, which
    may stray past [0, span] by _SPAN_RTOL of the span (rounding)."""
    t = np.asarray(t, dtype=float)
    span = float(grid[-1])
    if not (np.all(t >= -_SPAN_RTOL * span)
            and np.all(t <= span * (1.0 + _SPAN_RTOL))):
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
        """Tabulate D on `grid` (uniform, starting at 0), D_re as the
        module docstring says.  A rule node whose error estimate exceeds
        its target max(quad_tol * scale, quad_tol * |D_re|) raises a
        QuadratureWarning.  `health` records the node count, the `method`
        ("rule", "series" or "closed_form") and, for the rule, the worst
        error estimate over its target.
        """
        if not 0.0 < quad_tol < math.inf:
            raise ValueError("quad_tol must be finite and strictly positive")
        grid = _checked_grid(grid)
        zero_re, im = _zero_temperature(bath, grid)
        sd = bath.spectral
        if sd.cutoff_kind is CutoffKind.DRUDE:
            warnings.warn(_DRUDE_DIVERGENCE, ValidityWarning, stacklevel=2)
        worst = None
        if sd.cutoff_kind is CutoffKind.EXPONENTIAL:
            method, re = "closed_form", _exponential_re(bath, grid)
        elif (rule := _re_table(bath, grid)) is not None:
            method, (thermal, err) = "rule", rule
            re = zero_re + thermal
            scale = 2.0 * sd.m * sd.gamma * bath.constants.hbar / np.pi \
                * sd.Omega * _omega_coth(sd.Omega, bath.thermal_time)
            target = quad_tol * np.maximum(scale, np.abs(re))
            # a zero target (zero coupling) comes with a zero err: its
            # ratio is 0, not 0/0
            ratio = np.divide(err, target, out=np.zeros_like(err),
                              where=err > 0.0)
            worst = float(np.max(ratio))
            missed = np.count_nonzero(~(err <= target))
            if missed:
                warnings.warn(
                    f"kernel rule: {missed} of {grid.size} nodes miss their "
                    f"target quad_tol * max(scale, |D_re|), the worst by "
                    f"{worst:.3g} times", QuadratureWarning, stacklevel=2)
        elif sd.cutoff_kind is CutoffKind.DRUDE:
            method, re = "series", _drude_series(bath, grid)
        else:
            raise QuadratureError(
                "sharp-cutoff kernel: the thermal rule needs more than its "
                f"budget of min({_NODE_BUDGET_PER_TAU} n, {_NODE_BUDGET}) "
                f"frequency nodes on n = {grid.size} tau nodes")
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise QuadratureError("kernel table has non-finite values")
        health = {"nodes": int(grid.size), "method": method,
                  "worst_err_over_target": worst}
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
