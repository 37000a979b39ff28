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
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .bath import NumericalFailure, PhysicalConstants, _is_int, interp_table
from .coefficients import HPZCoefficients


@dataclass(frozen=True)
class SystemSpec:
    """Harmonic system: mass m and bare frequency omega_S."""

    m: float
    omega_S: float

    def __post_init__(self):
        if not 0.0 < self.m < math.inf:
            raise ValueError("mass m must be finite and strictly positive")
        if not 0.0 <= self.omega_S < math.inf:
            raise ValueError("omega_S must be finite and non-negative")


class Variant(str, Enum):
    CL = "cl"
    CCL = "ccl"
    JZ = "jz"
    HPZ = "hpz"
    QP_COUPLED = "qp"


MOMENTS = ("mean_q", "mean_p", "s_qq", "s_pp", "s_qp")  # (..., 5) columns
OBSERVABLES = ("norm2", "q", "p", "qq", "pp", "qp")  # raw moments


def central_moments(raw):
    """Moments in `MOMENTS` order from raw moments ordered as `OBSERVABLES`."""
    _, q, p, qq, pp, qp = raw
    return np.array([q, p, qq - q * q, pp - p * p, qp - q * p])


def moment_row(state):
    """A state's five moments as a (5,) float array in `MOMENTS` order."""
    row = np.array(state, dtype=float)
    if row.shape != (len(MOMENTS),):
        raise ValueError(f"a state is five moments, got shape {row.shape}")
    if not np.all(np.isfinite(row)):
        raise ValueError("a state's five moments must be finite")
    return row


def rs_uncertainty(moments, constants=PhysicalConstants()):
    """Robertson-Schroedinger witness det(sigma) - hbar^2/4 of `MOMENTS` rows.

    Negative values flag a state outside the quantum state space; that
    can legitimately happen under non-CP evolutions and is reported by
    callers rather than raised.
    """
    y = np.asarray(moments, dtype=float)
    return y[..., 2] * y[..., 3] - y[..., 4] ** 2 - 0.25 * constants.hbar ** 2


def ground_state_moments(system, constants=PhysicalConstants(),
                         mean_q=0.0, mean_p=0.0):
    """Oscillator ground state as a `MOMENTS` row (needs omega_S > 0)."""
    if system.omega_S <= 0.0:
        raise ValueError("ground state needs omega_S > 0")
    hbar, m, w = constants.hbar, system.m, system.omega_S
    return np.array([mean_q, mean_p, hbar / (2.0 * m * w), hbar * m * w / 2.0,
                     0.0])


def thermal_state_moments(system, T, constants=PhysicalConstants(),
                          mean_q=0.0, mean_p=0.0):
    """Thermal state at temperature T: the ground row with its variances
    times coth(hbar omega_S / 2 kB T)."""
    if system.omega_S <= 0.0:
        raise ValueError("thermal state needs omega_S > 0")
    if not 0.0 < T < math.inf:
        raise ValueError("temperature T must be finite and > 0")
    hbar, kb = constants.hbar, constants.k_B
    row = ground_state_moments(system, constants, mean_q, mean_p)
    row[2:4] *= 1.0 / math.tanh(hbar * system.omega_S / (2.0 * kb * T))
    return row


def squeezed_state_moments(system, r, constants=PhysicalConstants(),
                           mean_q=0.0, mean_p=0.0):
    """Position-squeezed (r > 0) ground row: s_qq e^{-2r}, s_pp e^{2r}."""
    if not abs(r) <= 354.0:  # where e^{2|r|} is still a finite float
        raise ValueError("squeeze parameter r must be finite with |r| <= 354")
    row = ground_state_moments(system, constants, mean_q, mean_p)
    row[2:4] *= (math.exp(-2.0 * r), math.exp(2.0 * r))
    return row


_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
# RK4 maps built and composed at once: bounds the memory, and sizes the
# workspace that `_step_maps` reuses for every block of a run
_MAP_BLOCK = 512


@dataclass(frozen=True)
class QuadraticGenerator:
    """G and a of a generator: (2, 2), or (n, 2, 2) on an n-node `grid`.

    It is read one way: as `params(t)`, the real parameters G, Re a and
    Im a (flattened, those nonzero at some node) at times t, weighting
    `units`, the (G, a) of each parameter set to 1.  `at`, the moment
    matrix and the Fock oracle's stencils are all linear in (G, a), so
    each is `params(t)` times the same quantity of each unit.
    """

    G: np.ndarray
    a: np.ndarray
    hbar: float
    grid: np.ndarray | None = None

    def __post_init__(self):
        if np.shape(self.G)[-2:] != (2, 2) or np.shape(self.a)[-2:] != (2, 2):
            raise ValueError("G and a must be 2x2 matrices")
        if not (np.all(np.isfinite(self.G)) and np.all(np.isfinite(self.a))):
            raise ValueError("G or a is not finite")

    @cached_property
    def _live(self):
        """Indices among the 12 real parameters of those nonzero at some
        node, and their values at the nodes, (P, nodes)."""
        G, a = self.G.reshape(-1, 4), self.a.reshape(-1, 4)
        theta = np.concatenate([G, a.real, a.imag], axis=1).T
        live = np.flatnonzero(np.any(theta != 0.0, axis=1))
        return live, theta[live]

    @cached_property
    def units(self):
        """(G, a) of each live real parameter set to 1, each (P, 2, 2)."""
        u = np.eye(12)[self._live[0]].reshape(-1, 3, 2, 2)
        return u[:, 0], u[:, 1] + 1j * u[:, 2]

    def params(self, t):
        """Weights of `units` at times t by linear interpolation, shape
        t.shape + (P,); a constant generator broadcasts its one row."""
        values = self._live[1]
        shape = np.shape(t) + values.shape[:1]
        if self.grid is None:
            return np.broadcast_to(values[:, 0], shape)
        cols = interp_table(self.grid, t, values)
        return np.moveaxis(np.reshape(cols, shape[-1:] + shape[:-1]), 0, -1)

    def at(self, t):
        """(G, a) at times t, shape t.shape + (2, 2)."""
        w = self.params(t)
        return tuple(np.tensordot(w, u, 1) for u in self.units)

    @cached_property
    def _unit_matrices(self):
        """The moment matrix of each unit, flattened: (P, 36)."""
        G, a = self.units
        A = _J @ (G - self.hbar * a.imag)
        B = self.hbar ** 2 * (_J @ a.real @ _J.T)
        a00, a01, a10, a11 = (A[:, i, j] for i in (0, 1) for j in (0, 1))
        out = np.zeros((len(A), 6, 6))
        out[:, :2, :2] = A
        out[:, 2, 2], out[:, 2, 4] = 2.0 * a00, 2.0 * a01
        out[:, 3, 3], out[:, 3, 4] = 2.0 * a11, 2.0 * a10
        out[:, 4, 2], out[:, 4, 3], out[:, 4, 4] = a10, a01, a00 + a11
        out[:, 2:5, 5] = B[:, (0, 1, 0), (0, 1, 1)]  # qq, pp, qp
        return out.reshape(-1, 36)

    def moment_matrix(self, t, out=None):
        """[[M, c], [0, 0]] at times t: (y, 1) -> (M y + c, 0) on the
        moments y, ordered as `MOMENTS`.  With `out`, a float array of
        shape t.shape + (36,), the flattened matrices are written into it.
        """
        return np.matmul(self.params(t), self._unit_matrices,
                         out=out).reshape(np.shape(t) + (6, 6))


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
        elif not 0.0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and non-negative")
        elif not 0.0 < self.T < math.inf:
            raise ValueError("temperature T must be finite and > 0")
        elif self.variant is Variant.QP_COUPLED and not (
                self.mu is not None and math.isfinite(self.mu)):
            raise ValueError("QP-coupled variant requires a finite mu")
        self.generator = _generator(self)

    @property
    def diffusion_strength(self):
        """4 m gamma kB T, the momentum-diffusion rate of JZ/CL/CCL/QP."""
        return 4.0 * self.system.m * self.gamma * self.constants.k_B * self.T


def moment_rhs(spec, state, t=0.0):
    """Time derivative M y + c of the five moments y, as a (5,) row."""
    w = spec.generator.moment_matrix(float(t))
    return w[:5] @ np.append(state, 1.0)


def step_plan(t_span, dt, store_every):
    """How every propagator cuts `t_span` into steps.

    Returns (t0, h, n_steps, stored): n_steps, the integer nearest to
    span / dt but at least 1, steps of h = span / n_steps, which land
    exactly on t1, and the indices i of the states kept, every
    `store_every`-th plus the last, at times t0 + h * stored.
    `store_every` is a count >= 1 (`bath._is_int`: an int or numpy
    integer, never a bool).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_span must be finite")
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not _is_int(store_every):
        raise ValueError("store_every must be an integer")
    if store_every < 1:
        raise ValueError("store_every must be >= 1")
    ratio = (t1 - t0) / dt
    if not math.isfinite(ratio):
        raise ValueError("span / dt must be finite")
    n_steps = max(1, int(round(ratio)))
    too_many = ValueError(f"span / dt gives {n_steps:.3g} steps, more than "
                          "a step plan can index")
    if n_steps >= 2 ** 62:  # where np.arange fails or miscounts (near 2^63)
        raise too_many
    try:
        stored = np.append(np.arange(0, n_steps, store_every), n_steps)
    except (MemoryError, ValueError) as exc:  # an index array too large
        raise too_many from exc
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
    """Stage times t0 + (h/2) k, k = 2 lo..2 hi, of RK4 steps lo..hi-1:
    stage s = 0, 1, 2 of step i is entry 2 (i - lo) + s.
    """
    return t0 + 0.5 * h * np.arange(2 * lo, 2 * hi + 1)


def rk4_step(f, y, h):
    """One classical RK4 step of y' = f(s, y), where f evaluates the
    derivative at stage s = 0, 1, 2: `rk4_stage_times` entry 2 (i - lo) + s.
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
    data: np.ndarray  # (n, 5), columns in the order of MOMENTS
    constants: PhysicalConstants

    def rs_witness(self):
        return rs_uncertainty(self.data, self.constants)


def _step_maps(gen, t0, h):
    """maps(lo, hi): the RK4 maps of steps lo..hi-1, shape (hi - lo, 6, 6).

    Each call does what `rk4_step` does from y = I, operation for
    operation, in one workspace that is allocated for the longest span
    asked for and reused, so the array returned is overwritten by the
    next call: a caller keeps nothing of it across calls.  A constant
    generator's one map is copied out of the workspace.
    """
    eye = np.eye(6)
    work = []  # the stage matrices, then y, acc and k, (n, 6, 6) each

    def maps(lo, hi):
        n = hi - lo
        if not work or len(work[1]) < n:
            work[:] = [np.empty((2 * n + 1, 36)),
                       *(np.empty((n, 6, 6)) for _ in range(3))]
        w = gen.moment_matrix(rk4_stage_times(t0, h, lo, hi),
                              out=work[0][:2 * n + 1])
        # rk4_step's operations in its order; stage 0 is evaluated only at
        # y = I, so k1 is W0 itself, and acc holds k2, then the sum of the k
        k1, w1, w2 = w[:2 * n:2], w[1:2 * n:2], w[2::2]
        y, acc, k = (b[:n] for b in work[1:])
        np.add(eye, np.multiply(k1, 0.5 * h, out=y), out=y)   # I + (h/2) k1
        np.matmul(w1, y, out=acc)                             # k2
        np.add(eye, np.multiply(acc, 0.5 * h, out=y), out=y)  # I + (h/2) k2
        np.matmul(w1, y, out=k)                               # k3
        np.add(k1, np.multiply(acc, 2.0, out=acc), out=acc)   # k1 + 2 k2
        np.add(eye, np.multiply(k, h, out=y), out=y)          # I + h k3
        np.add(acc, np.multiply(k, 2.0, out=k), out=acc)      # + 2 k3
        np.add(acc, np.matmul(w2, y, out=k), out=acc)         # + k4
        return np.add(eye, np.multiply(acc, h / 6.0, out=acc), out=acc)
    if gen.grid is not None:
        return maps
    step = maps(0, 1)[0].copy()  # a constant generator has one map
    return lambda lo, hi: np.broadcast_to(step, (hi - lo, 6, 6))


def _compose(maps):
    """Product of maps (..., n, 6, 6) along axis -3, later maps on the
    left, by one fixed pairwise tree: log2(n) batched matmuls.  The
    result is an array of its own, never a view of `maps`, which may be
    the reused workspace of `_step_maps`.
    """
    while maps.shape[-3] > 1:
        pairs = maps[..., 1::2, :, :] @ maps[..., :-1:2, :, :]
        if maps.shape[-3] % 2:
            pairs = np.concatenate([pairs, maps[..., -1:, :, :]], axis=-3)
        maps = pairs
    return maps[..., 0, :, :].copy()


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
    """Propagate the moments state0 (five numbers in `MOMENTS` order)
    with fixed-step RK4, one affine map per stored row.

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
    state0 = moment_row(state0)
    if state0[2] <= 0.0 or state0[3] <= 0.0:
        raise ValueError("initial variances must be positive")
    if rs_uncertainty(state0, spec.constants) < -1e-12 * spec.constants.hbar ** 2:
        warnings.warn("initial state violates the uncertainty relation",
                      UserWarning, stacklevel=2)

    gen = spec.generator
    _warn_if_unstable(gen, t0, float(t_span[1]))
    maps = _step_maps(gen, t0, h)
    z = np.append(state0, 1.0)
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
                            constants=spec.constants)
