"""Gaussian moment dynamics for the quantum Brownian motion variants.

Every variant is one quadratic generator in canonical form

    drho/dt = -(i/hbar)[H, rho]
              + sum_jk a_jk (F_j rho F_k - (1/2){F_k F_j, rho})

with F = x = (q, p), H = x^T G x / 2 (q p symmetrized), G real symmetric
and the Kossakowski matrix a Hermitian.  `MasterEquationSpec` builds
(G, a) once; the moments here, the Fock oracle, the CP audit and the
unraveling all derive from it.  With D = 4 m gamma kB T, w = omega_S:

    JZ   G = [[m w^2, 0], [0, 1/m]]    a = [[D, 0], [0, 0]] / hbar^2
    CL   G = JZ, G_qp = gamma          a = JZ, a_qp = -i gamma / hbar
    CCL  G = CL                        a = CL, a_pp = gamma / (4 m kB T)
    QP   G = JZ                        a = (D / hbar^2) v v^T, v = (1, -mu)
    HPZ  G = [[m w^2 - 2 Xi / hbar, -Upsilon / (m hbar)], [G_qp, 1/m]]
         a = [[-2 Gamma, (-Theta + i Upsilon) / m], [a_qp^*, 0]] / hbar^2

HPZ tabulates (G, a) on its coefficient grid.  With J = [[0, 1], [-1, 0]],
d<x>/dt = A <x> and d sigma/dt = A sigma + sigma A^T + B, with friction
A = J (G - hbar Im a) and diffusion B = hbar^2 J Re(a) J^T.
"""

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .bath import NumericalFailure, PhysicalConstants, interp_table
from .coefficients import HPZCoefficients


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


_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_MAP_BLOCK = 512  # RK4 maps built and composed at once; bounds the memory


@dataclass(frozen=True)
class QuadraticGenerator:
    """G and a of a generator: (2, 2), or (n, 2, 2) on an n-node `grid`."""

    G: np.ndarray
    a: np.ndarray
    hbar: float
    grid: np.ndarray | None = None

    def __post_init__(self):
        if np.shape(self.G)[-2:] != (2, 2) or np.shape(self.a)[-2:] != (2, 2):
            raise ValueError("G and a must be 2x2 matrices")

    def at(self, t):
        """(G, a) at times t by linear interpolation, shape t.shape + (2, 2)."""
        shape = np.shape(t) + (2, 2)
        if self.grid is None:
            return (np.broadcast_to(self.G, shape),
                    np.broadcast_to(self.a, shape))
        cols = interp_table(self.grid, t, [*self.G.reshape(-1, 4).T,
                                           *self.a.reshape(-1, 4).T])
        return (np.stack(cols[:4], axis=-1).reshape(shape),
                np.stack(cols[4:], axis=-1).reshape(shape))

    def moment_matrix(self, t):
        """[[M, c], [0, 0]] at times t: (y, 1) -> (M y + c, 0) on the
        moments y = (<q>, <p>, s_qq, s_pp, s_qp).
        """
        G, a = self.at(t)
        A = _J @ (G - self.hbar * a.imag)
        B = self.hbar ** 2 * (_J @ a.real @ _J.T)
        a00, a01, a10, a11 = (A[..., i, j] for i in (0, 1) for j in (0, 1))
        out = np.zeros(A.shape[:-2] + (6, 6))
        out[..., :2, :2] = A
        out[..., 2, 2], out[..., 2, 4] = 2.0 * a00, 2.0 * a01
        out[..., 3, 3], out[..., 3, 4] = 2.0 * a11, 2.0 * a10
        out[..., 4, 2], out[..., 4, 3], out[..., 4, 4] = a10, a01, a00 + a11
        out[..., 2:5, 5] = B[..., (0, 1, 0), (0, 1, 1)]  # qq, pp, qp
        return out


def _hermitian(xx, xy, yy):
    """[[xx, xy], [xy^*, yy]], broadcast to shape (..., 2, 2)."""
    xx, xy, yy = np.broadcast_arrays(xx, xy, yy)
    return np.stack([np.stack([xx, xy], axis=-1),
                     np.stack([np.conj(xy), yy], axis=-1)], axis=-2)


def _generator(spec):
    """(G, a) of the spec: the one place that turns a variant into physics."""
    m, hbar, v = spec.system.m, spec.constants.hbar, spec.variant
    mw2 = m * spec.system.omega_S ** 2
    if v is Variant.HPZ:
        c = spec.coefficients
        G = _hermitian(mw2 - 2.0 * c.Xi / hbar, -c.Upsilon / (m * hbar),
                       1.0 / m)
        a = _hermitian(-2.0 * c.Gamma + 0j, (-c.Theta + 1j * c.Upsilon) / m,
                       0j)
        return QuadraticGenerator(G, a / hbar ** 2, hbar, c.grid)
    d = spec.diffusion_strength / hbar ** 2
    mu = spec.mu if v is Variant.QP_COUPLED else 0.0
    friction = spec.gamma if v in (Variant.CL, Variant.CCL) else 0.0
    a_pp = spec.gamma / (4.0 * m * spec.constants.k_B * spec.T) \
        if v is Variant.CCL else 0.0
    G = _hermitian(mw2, friction, 1.0 / m)
    a = _hermitian(d + 0j, -d * mu - 1j * friction / hbar, d * mu * mu + a_pp)
    return QuadraticGenerator(G, a, hbar)


@dataclass
class MasterEquationSpec:
    """Which equation to propagate, with its parameters.

    gamma and T are required by every variant except HPZ (which takes
    everything from its coefficient table); mu is the rotation parameter
    of the QP-coupled variant; there are no silent defaults.  The
    generator (G, a) is built on construction.
    """

    variant: Variant
    system: SystemSpec
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    gamma: float | None = None
    T: float | None = None
    mu: float | None = None
    coefficients: HPZCoefficients | None = None
    generator: QuadraticGenerator = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        self.variant = Variant(self.variant)
        if self.variant is Variant.HPZ:
            if self.coefficients is None:
                raise ValueError("HPZ variant requires a coefficient table")
        elif self.gamma is None or self.T is None:
            raise ValueError(
                f"variant {self.variant.value} requires gamma and T")
        elif self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")
        elif self.T <= 0.0:
            raise ValueError("temperature T must be strictly positive")
        elif self.variant is Variant.QP_COUPLED and self.mu is None:
            raise ValueError("QP-coupled variant requires mu")
        self.generator = _generator(self)

    @property
    def diffusion_strength(self):
        """4 m gamma kB T, the momentum-diffusion rate of JZ/CL/CCL/QP."""
        return 4.0 * self.system.m * self.gamma * self.constants.k_B * self.T


def moment_rhs(spec, state, t=0.0):
    """Time derivative M y + c of the five moments, as a GaussianMomentState."""
    w = spec.generator.moment_matrix(float(t))
    return GaussianMomentState.from_array(
        w[:5] @ np.append(state.as_array(), 1.0))


def step_plan(t_span, dt, store_every):
    """How every propagator cuts `t_span` into steps.

    Returns (t0, h, n_steps, stored): n_steps, the integer nearest to
    span / dt but at least 1, steps of h = span / n_steps, which land
    exactly on t1, and the indices i of the states kept, every
    `store_every`-th plus the last, at times t0 + h * stored.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_span must be finite")
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not isinstance(store_every, numbers.Integral):
        raise ValueError("store_every must be an integer")
    if store_every < 1:
        raise ValueError("store_every must be >= 1")
    n_steps = max(1, int(round((t1 - t0) / dt)))
    stored = np.append(np.arange(0, n_steps, store_every), n_steps)
    return t0, (t1 - t0) / n_steps, n_steps, stored


class UnstableGeneratorWarning(UserWarning):
    """The friction matrix has an eigenvalue with positive real part."""


def _warn_if_unstable(gen, t0, t1):
    """Warn if A = J (G - hbar Im a) has an eigenvalue with real part
    above 1e-12 max|A|: at t0, the table nodes strictly inside (t0, t1)
    and t1, or once for a constant generator.  The means then grow as
    exp(rate t).
    """
    times = np.array([t0]) if gen.grid is None else np.concatenate(
        [[t0], gen.grid[(gen.grid > t0) & (gen.grid < t1)], [t1]])
    A = gen.moment_matrix(times)[:, :2, :2]
    # the larger real part of the eigenvalues tr/2 +- sqrt(tr^2/4 - det)
    half_tr = 0.5 * (A[:, 0, 0] + A[:, 1, 1])
    det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
    rate = half_tr + np.sqrt(np.maximum(half_tr ** 2 - det, 0.0))
    bad = rate > 1e-12 * np.abs(A).max(axis=(-2, -1))
    if np.any(bad):
        warnings.warn(f"unstable generator: from t = {times[np.argmax(bad)]:g}"
                      " the friction matrix has an eigenvalue with real part"
                      f" up to {rate[bad].max():.3g}, so the moments grow "
                      "exponentially", UnstableGeneratorWarning, stacklevel=3)


def rk4_stage_times(t0, h, lo, hi):
    """Stage times (t, t + h/2, t + h) of RK4 steps lo..hi-1, t = t0 + i h."""
    t = t0 + np.arange(lo, hi) * h
    return np.stack([t, t + 0.5 * h, t + h], axis=1)


def rk4_step(f, y, h):
    """One classical RK4 step of y' = f(s, y), where f evaluates the
    derivative at stage s = 0, 1, 2 of `rk4_stage_times`.
    """
    k1 = f(0, y)
    k2 = f(1, y + 0.5 * h * k1)
    k3 = f(1, y + 0.5 * h * k2)
    k4 = f(2, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
        return rs_uncertainty(self, self.constants)

    def state_at(self, i):
        return GaussianMomentState.from_array(self.data[i])

    def __len__(self):
        return self.times.size


def _step_maps(gen, t0, h):
    """maps(lo, hi): the RK4 maps of steps lo..hi-1, shape (hi - lo, 6, 6)."""
    def maps(lo, hi):
        w = gen.moment_matrix(rk4_stage_times(t0, h, lo, hi))
        return rk4_step(lambda s, y: w[:, s] @ y, np.eye(6), h)
    if gen.grid is not None:
        return maps
    step = maps(0, 1)[0]  # a constant generator has one map
    return lambda lo, hi: np.broadcast_to(step, (hi - lo, 6, 6))


def _compose(maps):
    """Product of maps (..., n, 6, 6) along axis -3, later maps on the
    left, by one fixed pairwise tree: log2(n) batched matmuls.
    """
    while maps.shape[-3] > 1:
        pairs = maps[..., 1::2, :, :] @ maps[..., :-1:2, :, :]
        if maps.shape[-3] % 2:
            pairs = np.concatenate([pairs, maps[..., -1:, :, :]], axis=-3)
        maps = pairs
    return maps[..., 0, :, :]


def _composite(maps, lo, hi):
    """The map of steps lo..hi-1, composed _MAP_BLOCK steps at a time."""
    return _compose(np.stack([_compose(maps(a, min(hi, a + _MAP_BLOCK)))
                              for a in range(lo, hi, _MAP_BLOCK)]))


def _interval_maps(maps, n_steps, every, constant):
    """The composite map of each interval between two stored steps of
    `step_plan`, in order: `every` steps each, the last possibly fewer.
    A constant generator's full intervals share one composite; tabulated
    ones are composed _MAP_BLOCK // every intervals at a time.
    """
    n_full, rest = divmod(n_steps, every)
    per_block = _MAP_BLOCK // every
    if constant:
        if n_full:
            yield from itertools.repeat(_composite(maps, 0, every), n_full)
    elif per_block == 0:
        for lo in range(0, n_full * every, every):
            yield _composite(maps, lo, lo + every)
    else:
        for j in range(0, n_full, per_block):
            k = min(per_block, n_full - j)
            yield from _compose(maps(j * every, (j + k) * every)
                                .reshape(k, every, 6, 6))
    if rest:
        yield _composite(maps, n_full * every, n_steps)


def _replay(maps, z, lo, hi, n_steps, t0, h):
    """Step z from step lo one RK4 map at a time, as a step-by-step run
    does: return the state at step hi if it is finite, else step on to
    the next check (every 64th step and the last) and raise
    NumericalFailure there, since a non-finite state stays non-finite.
    """
    i = lo
    while True:
        for step in maps(i, min(i + _MAP_BLOCK, n_steps)):
            z = step @ z
            i += 1
            finite = np.isfinite(z).all()
            if finite and i >= hi:
                return z
            if not finite and (i % 64 == 0 or i == n_steps):
                raise NumericalFailure(
                    f"non-finite moments at t = {t0 + i * h:.6g}")


def integrate_moments(spec, state0, t_span, dt, store_every=1):
    """Propagate moments with fixed-step RK4, one affine map per stored row.

    The steps and the stored states follow `step_plan`: dt is adjusted
    (at most fractionally) so an integer number of steps lands exactly
    on t_span[1], and outputs are every `store_every` steps plus the
    final point.  The RK4 maps of the steps between two stored states
    are multiplied into one composite (`_interval_maps`), so the state
    takes one matrix-vector product per stored row.  Non-finite values
    abort with NumericalFailure: an interval whose end is not finite is
    replayed step by step, which reports the time of the first of every
    64 steps found non-finite.  A friction matrix with a growing mode
    warns (UnstableGeneratorWarning).
    """
    t0, h, n_steps, stored = step_plan(t_span, dt, store_every)
    if state0.sigma_qq <= 0.0 or state0.sigma_pp <= 0.0:
        raise ValueError("initial variances must be positive")
    if rs_uncertainty(state0, spec.constants) < -1e-12 * spec.constants.hbar ** 2:
        warnings.warn("initial state violates the uncertainty relation",
                      UserWarning, stacklevel=2)

    gen = spec.generator
    _warn_if_unstable(gen, t0, float(t_span[1]))
    maps = _step_maps(gen, t0, h)
    z = np.append(state0.as_array(), 1.0)
    rows = [z[:5]]
    outer = np.geterr()
    with np.errstate(over="ignore", invalid="ignore"):
        composites = _interval_maps(maps, n_steps, store_every,
                                    gen.grid is None)
        for (lo, hi), c in zip(itertools.pairwise(stored.tolist()),
                               composites):
            nxt = c @ z
            # a sum of finite entries that overflows only costs a replay
            if not math.isfinite(sum(nxt.tolist())):
                with np.errstate(**outer):
                    nxt = _replay(maps, z, lo, hi, n_steps, t0, h)
            z = nxt
            rows.append(z[:5])

    return MomentTrajectory(times=t0 + h * stored, data=np.array(rows),
                            system=spec.system, constants=spec.constants)
