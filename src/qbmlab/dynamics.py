"""Gaussian moment dynamics for the quantum Brownian motion variants.

All equation variants considered here are quadratic in (q, p), so
Gaussian states stay Gaussian and the state reduces to five numbers:
two means and three second central moments.  The right-hand sides below
were obtained by tracing the corresponding operator master equations
against q, p, q^2, p^2, {q,p}/2; the brute-force Fock propagator in
:mod:`qbmlab.fock` locks every term by regression.

Variant map (on top of the closed-system flow):

    JZ   : position-coupled pure decoherence,
           d sigma_pp += 4 m gamma kB T
    CL   : JZ plus friction,
           d<p> += -2 gamma <p>,  d sigma_pp += -4 gamma sigma_pp,
           d sigma_qp += -2 gamma sigma_qp
    CCL  : CL plus the minimal position-diffusion correction,
           d sigma_qq += gamma hbar^2 / (4 m kB T)
    QP   : decoherence in the rotated coordinate A = q - mu p; means are
           untouched, all three covariances pick up constant diffusion
    HPZ  : time-dependent coefficients (Gamma, Theta, Xi, Upsilon):
           d<p>        += (2 Xi / hbar) <q> + (2 Upsilon / (m hbar)) <p>
           d sigma_pp  += -2 Gamma + (4 Xi / hbar) sigma_qp
                          + (4 Upsilon / (m hbar)) sigma_pp
           d sigma_qp  += Theta / m + (2 Xi / hbar) sigma_qq
                          + (2 Upsilon / (m hbar)) sigma_qp
"""

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .bath import PhysicalConstants
from .coefficients import HPZCoefficients


class NumericalFailure(RuntimeError):
    """Propagation produced non-finite values."""


@dataclass(frozen=True)
class SystemSpec:
    """Harmonic system: mass m and bare frequency omega_S."""

    m: float
    omega_S: float

    def __post_init__(self):
        if self.m <= 0.0:
            raise ValueError("mass m must be strictly positive")
        if self.omega_S < 0.0:
            raise ValueError("omega_S must be non-negative")


class Variant(str, Enum):
    CL = "cl"
    CCL = "ccl"
    JZ = "jz"
    HPZ = "hpz"
    QP_COUPLED = "qp"


@dataclass
class GaussianMomentState:
    """Means and symmetrized second central moments of a Gaussian state."""

    mean_q: float
    mean_p: float
    sigma_qq: float
    sigma_pp: float
    sigma_qp: float

    def as_array(self):
        return np.array([self.mean_q, self.mean_p, self.sigma_qq,
                         self.sigma_pp, self.sigma_qp], dtype=float)

    @classmethod
    def from_array(cls, y):
        return cls(*(float(v) for v in y))


def rs_uncertainty(state, constants=PhysicalConstants()):
    """Robertson-Schroedinger witness det(sigma) - hbar^2/4.

    Negative values flag a state outside the quantum state space; that
    can legitimately happen under non-CP evolutions and is reported by
    callers rather than raised.
    """
    return (state.sigma_qq * state.sigma_pp - state.sigma_qp ** 2
            - 0.25 * constants.hbar ** 2)


def ground_state_moments(system, constants=PhysicalConstants(),
                         mean_q=0.0, mean_p=0.0):
    """Oscillator ground state (requires omega_S > 0)."""
    if system.omega_S <= 0.0:
        raise ValueError("ground state needs omega_S > 0")
    hbar = constants.hbar
    return GaussianMomentState(
        mean_q=mean_q, mean_p=mean_p,
        sigma_qq=hbar / (2.0 * system.m * system.omega_S),
        sigma_pp=hbar * system.m * system.omega_S / 2.0,
        sigma_qp=0.0)


def thermal_state_moments(system, T, constants=PhysicalConstants(),
                          mean_q=0.0, mean_p=0.0):
    """Thermal oscillator state at temperature T."""
    if system.omega_S <= 0.0:
        raise ValueError("thermal state needs omega_S > 0")
    if T <= 0.0:
        raise ValueError("temperature T must be strictly positive")
    hbar, kb = constants.hbar, constants.k_B
    c = 1.0 / math.tanh(hbar * system.omega_S / (2.0 * kb * T))
    g = ground_state_moments(system, constants)
    return GaussianMomentState(mean_q=mean_q, mean_p=mean_p,
                               sigma_qq=c * g.sigma_qq,
                               sigma_pp=c * g.sigma_pp, sigma_qp=0.0)


def squeezed_state_moments(system, r, constants=PhysicalConstants(),
                           mean_q=0.0, mean_p=0.0):
    """Position-squeezed (r > 0) minimum-uncertainty state."""
    g = ground_state_moments(system, constants)
    return GaussianMomentState(mean_q=mean_q, mean_p=mean_p,
                               sigma_qq=math.exp(-2.0 * r) * g.sigma_qq,
                               sigma_pp=math.exp(2.0 * r) * g.sigma_pp,
                               sigma_qp=0.0)


@dataclass
class MasterEquationSpec:
    """Which equation to propagate, with its parameters.

    gamma and T are required by every variant except HPZ (which takes
    everything from its coefficient table); mu is the rotation parameter
    of the QP-coupled variant; there are no silent defaults.
    """

    variant: Variant
    system: SystemSpec
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    gamma: float | None = None
    T: float | None = None
    mu: float | None = None
    coefficients: HPZCoefficients | None = None

    def __post_init__(self):
        self.variant = Variant(self.variant)
        if self.variant is Variant.HPZ:
            if self.coefficients is None:
                raise ValueError("HPZ variant requires a coefficient table")
            return
        if self.gamma is None or self.T is None:
            raise ValueError(
                f"variant {self.variant.value} requires gamma and T")
        if self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")
        if self.T <= 0.0:
            raise ValueError("temperature T must be strictly positive")
        if self.variant is Variant.QP_COUPLED and self.mu is None:
            raise ValueError("QP-coupled variant requires mu")

    @property
    def diffusion_strength(self):
        """4 m gamma kB T, the momentum-diffusion rate of JZ/CL/CCL/QP."""
        return 4.0 * self.system.m * self.gamma * self.constants.k_B * self.T


def _rhs_array(spec, y, coeffs):
    """Moment derivatives; `coeffs` is (Gamma, Theta, Xi, Upsilon) for HPZ."""
    m = spec.system.m
    mw2 = m * spec.system.omega_S ** 2
    hbar = spec.constants.hbar
    q, p, sqq, spp, sqp = y

    dq = p / m
    dp = -mw2 * q
    dsqq = 2.0 * sqp / m
    dspp = -2.0 * mw2 * sqp
    dsqp = spp / m - mw2 * sqq

    v = spec.variant
    if v is Variant.HPZ:
        gamma_t, theta_t, xi_t, upsilon_t = coeffs
        dp += (2.0 * xi_t / hbar) * q + (2.0 * upsilon_t / (m * hbar)) * p
        dspp += -2.0 * gamma_t + (4.0 * xi_t / hbar) * sqp \
            + (4.0 * upsilon_t / (m * hbar)) * spp
        dsqp += theta_t / m + (2.0 * xi_t / hbar) * sqq \
            + (2.0 * upsilon_t / (m * hbar)) * sqp
    else:
        diff = spec.diffusion_strength
        dspp += diff
        if v is Variant.QP_COUPLED:
            dsqq += spec.mu ** 2 * diff
            dsqp += spec.mu * diff
        if v in (Variant.CL, Variant.CCL):
            dp += -2.0 * spec.gamma * p
            dspp += -4.0 * spec.gamma * spp
            dsqp += -2.0 * spec.gamma * sqp
        if v is Variant.CCL:
            dsqq += spec.gamma * hbar ** 2 \
                / (4.0 * m * spec.constants.k_B * spec.T)

    return np.array([dq, dp, dsqq, dspp, dsqp])


def moment_rhs(spec, state, t=0.0):
    """Time derivative of the five moments, as a GaussianMomentState."""
    coeffs = spec.coefficients.at(float(t)) \
        if spec.variant is Variant.HPZ else None
    return GaussianMomentState.from_array(
        _rhs_array(spec, state.as_array(), coeffs))


@dataclass
class MomentTrajectory:
    """Moment history on a uniform output grid."""

    times: np.ndarray
    data: np.ndarray  # (n, 5): mean_q, mean_p, sigma_qq, sigma_pp, sigma_qp
    system: SystemSpec
    constants: PhysicalConstants

    @property
    def mean_q(self):
        return self.data[:, 0]

    @property
    def mean_p(self):
        return self.data[:, 1]

    @property
    def sigma_qq(self):
        return self.data[:, 2]

    @property
    def sigma_pp(self):
        return self.data[:, 3]

    @property
    def sigma_qp(self):
        return self.data[:, 4]

    def rs_witness(self):
        return (self.sigma_qq * self.sigma_pp - self.sigma_qp ** 2
                - 0.25 * self.constants.hbar ** 2)

    def state_at(self, i):
        return GaussianMomentState.from_array(self.data[i])

    def __len__(self):
        return self.times.size


def integrate_moments(spec, state0, t_span, dt, store_every=1):
    """Propagate moments with fixed-step RK4.

    dt is adjusted (at most fractionally) so an integer number of steps
    lands exactly on t_span[1]; outputs are every `store_every` steps
    plus the final point.  Non-finite values abort with
    NumericalFailure.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if store_every < 1:
        raise ValueError("store_every must be >= 1")
    if state0.sigma_qq <= 0.0 or state0.sigma_pp <= 0.0:
        raise ValueError("initial variances must be positive")
    if rs_uncertainty(state0, spec.constants) < -1e-12 * spec.constants.hbar ** 2:
        warnings.warn("initial state violates the uncertainty relation",
                      UserWarning, stacklevel=2)

    span = t1 - t0
    n_steps = max(1, int(round(span / dt)))
    h = span / n_steps

    # HPZ coefficients at the three stage times of every step, looked up
    # in one pass; the times are formed exactly as a scalar loop would.
    stage_coeffs = None
    if spec.variant is Variant.HPZ:
        t = t0 + np.arange(n_steps) * h
        stage_coeffs = np.stack(spec.coefficients.at(
            np.stack([t, t + 0.5 * h, t + h], axis=1)), axis=-1)

    y = state0.as_array()
    times = [t0]
    rows = [y.copy()]
    c_start = c_mid = c_end = None
    for i in range(n_steps):
        if stage_coeffs is not None:
            c_start, c_mid, c_end = stage_coeffs[i].tolist()
        k1 = _rhs_array(spec, y, c_start)
        k2 = _rhs_array(spec, y + 0.5 * h * k1, c_mid)
        k3 = _rhs_array(spec, y + 0.5 * h * k2, c_mid)
        k4 = _rhs_array(spec, y + h * k3, c_end)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (i % 64 == 63 or i == n_steps - 1) and not np.all(np.isfinite(y)):
            raise NumericalFailure(
                f"non-finite moments at t = {t0 + (i + 1) * h:.6g}")
        if (i + 1) % store_every == 0 or i == n_steps - 1:
            times.append(t0 + (i + 1) * h)
            rows.append(y.copy())

    return MomentTrajectory(times=np.array(times), data=np.array(rows),
                            system=spec.system, constants=spec.constants)
