"""Stochastic Schroedinger unravelings and Gaussian colored noise.

Unraveling: the linear Ito scheme

    d psi = [ -(i/hbar) H - (D/2) A^dag A ] psi dt  - i A psi dW

with a single complex Wiener increment obeying

    E[dW conj(dW)] = D dt,      E[dW dW] = S dt,      |S| <= D.

H = x^T G x / 2 and A = v . (q, p) come from the spec's constant
generator (G, a), whose Kossakowski matrix must factor as a = D v v^dag
(rank <= 1: JZ, CCL, QP; `positivity.rank_one_factor`).  The ensemble
average E[psi psi^dag] reproduces the Lindblad dissipator
D (A rho A^dag - {A^dag A, rho}/2) regardless of S: the pseudo-correlation
only redistributes noise between the two quadratures of dW (`S = D`
makes dW real).

H is quadratic and A linear, so a Gaussian psi stays Gaussian: each
trajectory is psi(x) = exp(-s x^2 + b x + c), with the width s
deterministic and shared by all trajectories and (b, c) per trajectory
(`_packet_sde`).  s is stepped exactly, (b, c) by Euler-Maruyama.
Individual trajectories do not preserve norm, only the ensemble mean
does, so all estimators below are plain averages of unnormalized
quadratic forms: the six raw moments in the order of
`dynamics.OBSERVABLES`, converted by `dynamics.central_moments`.

Trajectory k draws its noise from the stream default_rng([seed, k]).
The trajectories run in chunks of _CHUNK, whose streams live together,
and a chunk runs in groups of _GROUP trajectories.  The steps run in
blocks of _STEP_BLOCK steps, only the last shorter, so a block is long
however close the stored steps are (`_propagate`).  Inside a block, b's
recurrence is a cumulative sum scaled by cumulative products of the
growth factors, which are shared by every trajectory and taken once per
block (`_block_plan`) as per-step rows that broadcast over a group.
c's increments are summed over each run of steps that ends at a stored
node or at the block's end (`np.add.reduceat`, exact over a run of one
step), and only those run sums are added up, by one cumulative sum: c is
read nowhere else.  A group's draws (`_noise_block`) and its block
arithmetic are whole-array numpy calls that release the interpreter
lock, so a run opens one thread pool, and at each block the calling
thread and up to one pool thread per further CPU step the groups through
it (`_advance`), each in a workspace allocated once per run.  b and c at
the block's stored nodes are read after it over the whole chunk, so the
output bits do not depend on how many threads ran.
A trajectory dropped at a node keeps stepping to the end of its block,
where a runaway may overflow, unwarned (the read catches what is not
finite), and restarts from b = c = 0 there with its noise zeroed: its
b stays 0 and its c gains only the drift that every trajectory shares.

Colored noise: `sample_colored_noise` draws stationary complex Gaussian
paths with prescribed correlation E[z_i conj(z_j)] = D_ij and pseudo
correlation E[z_i z_j] = S_ij by factoring the equivalent real 2N x 2N
covariance with a symmetric eigenvalue decomposition.
"""

import cmath
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bath import NumericalFailure, _is_int, _is_seed
from .dynamics import (
    MOMENTS,
    OBSERVABLES,
    MasterEquationSpec,
    central_moments,
    moment_row,
    rs_uncertainty,
    step_plan,
)
from .positivity import check_noise_realizable, rank_one_factor

_CHUNK = 512  # trajectories per chunk; fixed: it sets the summation order
_GROUP = 32  # trajectories per group, stepped by one thread at a time
_STEP_BLOCK = 512  # time steps per block of noise and of stepping, at most
_READ_NODES = 16  # stored nodes read at once; keeps the read's arrays small
_LOG2_SPAN = 256  # |log2| bound of a segment's running growth product
_LOG_NORM_LIMIT = math.log(1e12)  # squared-norm runaway limit per trajectory
_PURE_TOL = 1e-10  # |rs_uncertainty| of a pure state, relative to s_qq s_pp
_RIDGE = 1e-12  # negative covariance eigenvalues tolerated, relative


class NoiseFactorizationError(NumericalFailure):
    """Requested noise covariance is not positive semidefinite."""


class EnsembleHealthWarning(UserWarning):
    """The ensemble is statistically fragile (few or failed trajectories)."""


# --------------------------------------------------------- colored noise

@dataclass
class NoiseSpec:
    """Target correlation matrices of a discrete complex Gaussian path."""

    grid: np.ndarray
    D: np.ndarray
    S: np.ndarray | None = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.D = np.asarray(self.D, dtype=complex)
        n = self.grid.size
        if self.D.shape != (n, n):
            raise ValueError("D must be (n, n) for an n-node grid")
        if self.S is None:
            self.S = np.zeros((n, n), dtype=complex)
        else:
            self.S = np.asarray(self.S, dtype=complex)
            if self.S.shape != (n, n):
                raise ValueError("S must be (n, n)")
        # before the differences below, where an infinite entry is inf - inf
        if not (np.all(np.isfinite(self.D)) and np.all(np.isfinite(self.S))):
            raise ValueError("D and S must be finite")
        scale = max(float(np.max(np.abs(self.D))), 1e-300)
        if np.max(np.abs(self.D - self.D.conj().T)) > 1e-10 * scale:
            raise ValueError("D must be Hermitian")
        if np.max(np.abs(self.S - self.S.T)) > 1e-10 * scale:
            raise ValueError("S must be symmetric")

    @classmethod
    def from_kernel(cls, kernel, grid, S=None):
        """Stationary target D_ij = D_kernel(t_i - t_j) from a tabulated kernel."""
        grid = np.asarray(grid, dtype=float)
        return cls(grid=grid, D=kernel.at(grid[:, None] - grid[None, :]),
                   S=S)


def _real_covariance(spec):
    """Equivalent covariance of (x, y) with z = x + i y."""
    d_re, d_im = spec.D.real, spec.D.imag
    s_re, s_im = spec.S.real, spec.S.imag
    a = 0.5 * (d_re + s_re)
    b = 0.5 * (d_re - s_re)
    m = 0.5 * (s_im - d_im)
    return np.block([[a, m], [m.T, b]])


def sample_colored_noise(spec, n_samples, rng):
    """Draw complex Gaussian paths matching the NoiseSpec.

    Returns an (n_samples, n_nodes) complex array.  Raises
    NoiseFactorizationError (reporting the most negative eigenvalue) if
    the requested pair (D, S) is not jointly realizable.
    """
    cov = _real_covariance(spec)
    evals, evecs = np.linalg.eigh(cov)
    scale = max(float(evals[-1]), 1e-300)
    if evals[0] < -_RIDGE * scale:
        raise NoiseFactorizationError(
            f"covariance not PSD: most negative eigenvalue {evals[0]:.6e} "
            f"(largest {evals[-1]:.6e})")
    # symmetric root V sqrt(L) V^T: unlike V sqrt(L), continuous in cov
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
    n = spec.grid.size
    z = rng.standard_normal((n_samples, 2 * n)) @ root.T
    return z[:, :n] + 1j * z[:, n:]


@dataclass
class NoiseEstimate:
    """Empirical second moments of complex samples, with standard errors."""

    D: np.ndarray
    S: np.ndarray
    se_D_re: np.ndarray
    se_D_im: np.ndarray
    se_S_re: np.ndarray
    se_S_im: np.ndarray
    n_samples: int


def empirical_noise_moments(samples):
    """Estimate D, S entrywise from (n, N) samples, with standard errors.

    Variances of the entrywise products are computed with matrix
    products only (no (n, N, N) intermediate).
    """
    samples = np.asarray(samples, dtype=complex)
    n = samples.shape[0]
    if n < 2:
        raise ValueError("need at least two samples")
    zc = np.conj(samples)
    d_hat = samples.T @ zc / n
    s_hat = samples.T @ samples / n
    abs2 = (samples.real ** 2 + samples.imag ** 2)
    sq = samples ** 2
    # for U_ij = z_i conj(z_j):  E|U|^2 and E[U^2] via matmuls
    e_abs2 = abs2.T @ abs2 / n          # shared by U and V = z_i z_j
    e_u2 = sq.T @ np.conj(sq) / n
    e_v2 = sq.T @ sq / n

    def se_pair(second_abs, second_sq, mean):
        var_re = 0.5 * (second_abs + second_sq.real) - mean.real ** 2
        var_im = 0.5 * (second_abs - second_sq.real) - mean.imag ** 2
        var_re = np.clip(var_re, 0.0, None)
        var_im = np.clip(var_im, 0.0, None)
        return np.sqrt(var_re / n), np.sqrt(var_im / n)

    se_d_re, se_d_im = se_pair(e_abs2, e_u2, d_hat)
    se_s_re, se_s_im = se_pair(e_abs2, e_v2, s_hat)
    return NoiseEstimate(D=d_hat, S=s_hat, se_D_re=se_d_re, se_D_im=se_d_im,
                         se_S_re=se_s_re, se_S_im=se_s_im, n_samples=n)


# ------------------------------------------------------------ unraveling

@dataclass
class SSEConfig:
    """Parameters of a linear-unraveling run of the spec's generator.

    D_scalar and v (a = D v v^dag, the rank-1 Kossakowski matrix) and
    plan (the run's `step_plan`) are derived on construction; S_scalar is
    the white-noise pseudo-correlation.  n_traj >= 1 and store_every are
    counts (`bath._is_int`: ints or numpy integers, never bools), and
    seed is a count in [0, 2^64) (`bath._is_seed`).
    """

    spec: MasterEquationSpec
    dt: float
    n_traj: int
    seed: int
    t_span: tuple[float, float] = (0.0, 10.0)
    S_scalar: complex = 0.0
    store_every: int = 100
    D_scalar: float = field(init=False, repr=False, compare=False)
    v: np.ndarray = field(init=False, repr=False, compare=False)
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.spec.generator.grid is not None:
            raise ValueError("cannot unravel a tabulated generator")
        try:
            self.D_scalar, self.v = rank_one_factor(self.spec.generator.a)
        except ValueError as exc:
            raise ValueError(f"the '{self.spec.variant.value}' generator has "
                             f"no linear unraveling: {exc}") from None
        check_noise_realizable(self.D_scalar, self.S_scalar)
        self.plan = step_plan(self.t_span, self.dt, self.store_every)
        for name in ("n_traj", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        if self.n_traj < 1:
            raise ValueError("n_traj must be at least 1")
        if not _is_seed(self.seed):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _packet_sde(config):
    """Ito SDE of the packet psi(x) = exp(phi), phi = -s x^2 + b x + c.

    q -> x and p -> -i hbar (d/dx + phi') act on exp(phi), so
    F_j F_k psi / psi is

        q q = x^2                  q p = 2i hbar s x^2 - i hbar b x
        p q = q p - i hbar         p p = 2 hbar^2 s - hbar^2 (2 s x - b)^2

    K = sum_jk W_jk F_j F_k with W = -(i / 2 hbar) G - a^T / 2 is the
    sum of `fock.lindblad_operators`, and A psi / psi = l x + k b with
    l = v0 + 2i hbar v1 s, k = -i hbar v1.  The powers of x in

        d phi = [K psi/psi + (S/2) (A psi/psi)^2] dt - i (A psi/psi) dW

    give ds = (r0 + r1 s + r2 s^2) dt, a deterministic Riccati equation,
    db = (r1/2 + r2 s) b dt - i l dW and dc = (nu0 + nu1 s + rho b^2) dt
    - i k b dW.  Returns (r0, r1, r2), (l0, l1), k, (nu0, nu1), rho.
    """
    hbar, S = config.spec.constants.hbar, complex(config.S_scalar)
    w = (-0.5j / hbar) * config.spec.generator.G \
        - 0.5 * config.spec.generator.a.T
    v0, v1 = (complex(x) for x in config.v)
    k = -1j * hbar * v1
    r = (-w[0, 0] - 0.5 * S * v0 ** 2,
         -2j * hbar * (w[0, 1] + w[1, 0] + S * v0 * v1),
         4.0 * hbar ** 2 * w[1, 1] + 2.0 * S * (hbar * v1) ** 2)
    nu = (-1j * hbar * w[1, 0], 2.0 * hbar ** 2 * w[1, 1])
    return r, (v0, 2j * hbar * v1), k, nu, \
        -hbar ** 2 * w[1, 1] + 0.5 * S * k ** 2


def _expm_2x2(m):
    """e^m of a complex 2 x 2 matrix in closed form.  With mu = tr m / 2
    and d^2 = -det(m - mu), Cayley-Hamilton gives e^m = e^mu (cosh d +
    (sinh d / d) (m - mu)), even in d, so either root serves; sinh d / d
    is 1 at d = 0.
    """
    (a, b), (c, e) = ((complex(v) for v in row) for row in m)
    mu = 0.5 * (a + e)
    d = cmath.sqrt((0.5 * (a - e)) ** 2 + b * c)
    scale = cmath.exp(mu)
    ch = scale * cmath.cosh(d)
    sh = scale * (cmath.sinh(d) / d if d else 1.0)
    return np.array([[ch + sh * (a - mu), sh * b],
                     [sh * c, ch + sh * (e - mu)]])


def _width_path(r, s0, h, n_steps):
    """s at every step of h, exactly: s = y / x with (x, y)' =
    [[0, -r2], [r0, r1]] (x, y), so each step is one Moebius map.
    """
    e00, e01, e10, e11 = (complex(x) for x in _expm_2x2(
        h * np.array([[0.0, -r[2]], [r[0], r[1]]])).ravel())
    path = np.empty(n_steps + 1, dtype=complex)
    s = path[0] = complex(s0)
    for n in range(1, n_steps + 1):
        s = path[n] = (e10 + e11 * s) / (e00 + e01 * s)
    return path


def _initial_packet(state, constants):
    """(s, b, c) of the pure Gaussian `state`, a `MOMENTS` row, normalized."""
    mean_q, mean_p, s_qq, s_pp, s_qp = moment_row(state).tolist()
    if not (s_qq > 0.0 and abs(rs_uncertainty(state, constants))
            <= _PURE_TOL * s_qq * s_pp):
        raise ValueError("state0 must be a pure Gaussian state "
                         "(s_qq s_pp - s_qp^2 = hbar^2 / 4)")
    hbar = constants.hbar
    s = (1.0 - 2j * s_qp / hbar) / (4.0 * s_qq)
    b = 2.0 * s.real * mean_q + 1j * (mean_p / hbar + 2.0 * s.imag * mean_q)
    return s, b, -0.5 * (b.real * mean_q
                         + 0.5 * math.log(math.pi / (2.0 * s.real)))


def _read_packets(s, b, c, hbar):
    """Raw observables (rows in `OBSERVABLES` order) of the packets
    exp(-s x^2 + b x + c), and their log norm2; needs Re s > 0.
    """
    rs = s.real
    mean_q = b.real / (2.0 * rs)
    mean_p = hbar * (b.imag - 2.0 * s.imag * mean_q)
    log_norm2 = 2.0 * c.real + b.real * mean_q \
        + 0.5 * np.log(np.pi / (2.0 * rs))
    # capped only where the caller drops the trajectory as diverged
    norm2 = np.exp(np.minimum(log_norm2, _LOG_NORM_LIMIT))
    raw = norm2 * np.array([np.ones_like(mean_q), mean_q, mean_p,
                            mean_q * mean_q + 0.25 / rs,
                            mean_p * mean_p + hbar ** 2 * abs(s) ** 2 / rs,
                            mean_q * mean_p - 0.5 * hbar * s.imag / rs])
    return raw, log_norm2


def _cpu_count():
    """CPUs this process may run on.  The affinity mask counts them, not
    a cgroup CPU quota: a container that lists more CPUs than its quota
    allows gets more threads than it can run at once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _noise_root(config, h):
    """2 x 2 root of one step's noise: for a pair n of unit normals,
    dW = (1, i) . root n has E[dW conj(dW)] = D h and E[dW dW] = S h."""
    d, s = config.D_scalar, complex(config.S_scalar)
    evals, evecs = np.linalg.eigh(0.5 * h * np.array(
        [[d + s.real, s.imag], [s.imag, d - s.real]]))
    return evecs * np.sqrt(np.clip(evals, 0.0, None))


def _noise_block(streams, root, draws, pairs):
    """dW of the next steps of each stream, (streams, steps) complex.

    Stream i fills row i of `draws`, (streams, steps, 2), with its next
    unit normal pairs n, and (Re dW, Im dW) = root n lands adjacent in
    `pairs`, of the same shape, so dW is a complex view of it.  Both
    buffers are the caller's: the next block overwrites them.
    """
    for stream, row in zip(streams, draws):
        stream.standard_normal(out=row)
    np.matmul(draws, root.T, out=pairs)
    return pairs.view(complex)[..., 0]


def _block_plan(g, kick):
    """Segments of one block of steps, and their factors shared by every
    trajectory.

    In a segment of steps [a, e), b's recurrence b <- g_n b + kick_n dW_n
    is, for a < i <= e,

        b_i = q_{i-1} (g_a b_a + sum_{a <= n < i} w_n dW_n),

    with q_a = 1, q_n = g_{a+1} ... g_n and w = kick / q.  A segment ends
    before a factor that would take |q| out of 2^(+-_LOG2_SPAN), so no
    step divides by a product that under- or overflows: a zero, huge or
    NaN g_n starts a segment of its own, where it only multiplies b_a,
    as in the recurrence.  Indices are block-relative.  Returns the
    segments (a, e, g_a) and q, w.
    """
    cuts, log_q = [], 0.0
    for i, x in enumerate(np.abs(g[1:]).tolist(), 1):
        step = math.log2(x) if x > 0.0 else math.inf  # NaN too
        if abs(log_q + step) <= _LOG2_SPAN:
            log_q += step
        else:
            cuts.append(i)
            log_q = 0.0
    starts, ends = [0, *cuts], [*cuts, g.size]
    q = g.copy()
    for a, e in zip(starts, ends):
        q[a] = 1.0
        np.cumprod(q[a:e], out=q[a:e])
    return list(zip(starts, ends, g[starts].tolist())), q, kick / q


@dataclass
class _Block:
    """One block of m steps and what every trajectory shares in it: b's
    segments and factors q and w (`_block_plan`) and c's drift, each one
    row of m steps, the block-relative steps `cols` of its stored nodes,
    their indices `nodes` into the stored steps, and the first steps
    `runs` of the runs of steps that end at a stored node or at the
    block's end.
    """

    m: int
    segments: list
    q: np.ndarray
    w: np.ndarray
    drift: np.ndarray
    cols: np.ndarray
    nodes: np.ndarray
    runs: np.ndarray


def _advance(streams, alive, root, b, c, workspace, block, h_rho, c_kick,
             b_nodes, c_nodes):
    """Step the trajectories of `streams`, at b and c, through `block` in
    `workspace`, and put their b and c at its stored nodes in b_nodes and
    c_nodes, (trajectories, nodes).  A trajectory not `alive` draws its
    noise but steps with dW = 0; one that runs away may overflow before
    the block's end, unwarned, and the caller drops it at its first node.

    b after each step fills `after`, segment by segment.  c's increments
    (h rho b + c_kick dW) b + drift, with b before each step, are summed
    over each of the block's `runs` of steps (`np.add.reduceat`, which
    copies a run of one step), and those sums added to c in order by one
    cumulative sum, which gives c at the end of every run: at each stored
    node and at the block's end.  The block's rows q, w and drift
    broadcast over the group's rows, and every other product is between
    contiguous arrays of one shape, so none needs a scratch buffer.
    """
    n, m = len(streams), block.m
    draws, pairs, after = (x[:2 * n * m] for x in workspace[:3])
    tmp = workspace[3][:n]
    dw = _noise_block(streams, root, draws.reshape(n, m, 2),
                      pairs.reshape(n, m, 2))
    if not alive.all():
        dw[~alive] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        after = after.view(complex).reshape(n, m)
        for a, e, g_a in block.segments:
            seg = after[:, a:e]
            np.multiply(dw[:, a:e], block.w[a:e], out=seg)
            np.multiply(b if a == 0 else after[:, a - 1], g_a, out=tmp)
            seg[:, 0] += tmp
            np.cumsum(seg, axis=1, out=seg)
            seg *= block.q[a:e]
        before = draws.view(complex).reshape(n, m)  # the spent draws' place
        before[:, 0] = b
        before[:, 1:] = after[:, :-1]
        if block.cols.size:
            np.take(after, block.cols - 1, axis=1, out=b_nodes, mode="clip")
        b[:] = after[:, -1]
        inc = after
        np.multiply(before, h_rho, out=inc)
        dw *= c_kick
        inc += dw
        inc *= before
        inc += block.drift
        # in `before`'s place, which is spent
        runs = draws.view(complex)[:n * block.runs.size].reshape(n, -1)
        np.add.reduceat(inc, block.runs, axis=1, out=runs)
        runs[:, 0] += c
        np.cumsum(runs, axis=1, out=runs)  # c at the end of each run
        c_nodes[...] = runs[:, :block.cols.size]
        c[:] = runs[:, -1]


def _propagate(config, packet0, indices):
    """Step the trajectories `indices` from one setup; return the stored
    times and the accumulators.

    The trajectories run in chunks of _CHUNK, whose noise streams live
    together, added into the sums in index order; a chunk runs in groups
    of _GROUP.  The steps run in blocks of _STEP_BLOCK steps, only the
    last shorter, whatever the stored steps.  Each block's factors are
    taken once per chunk; then up to `_cpu_count()` workers step the
    groups through it (`_advance`), each in one workspace of its own, and
    write b and c at the block's nodes, at most _STEP_BLOCK a trajectory.
    The first worker is the calling thread, the others the threads of one
    pool opened per run, so a run of one group starts no thread.  The
    nodes are read after the block, over the whole chunk and _READ_NODES
    at a time, so the output bits do not depend on how many threads ran.
    A trajectory that fails at a node is dropped there and restarts from
    b = c = 0 at the end of the block, stepped from then on with dW = 0.
    """
    # not at the top: concurrent.futures loads logging, 5 ms of any import
    from concurrent.futures import ThreadPoolExecutor

    t0, h, n_steps, stored = config.plan
    hbar = config.spec.constants.hbar
    r, (l0, l1), k, (nu0, nu1), rho = _packet_sde(config)
    s = _width_path(r, packet0[0], h, n_steps)
    root = _noise_root(config, h)
    h_rho, c_kick = h * rho, -1j * k

    # each block's steps [lo, hi) and stored nodes [node, last)
    size, width = min(_GROUP, indices.size), min(_STEP_BLOCK, n_steps)
    edges = [*range(0, n_steps, _STEP_BLOCK), n_steps]
    lasts = np.searchsorted(stored, edges, side="right").tolist()
    spans = list(zip(edges, edges[1:], lasts, lasts[1:]))

    def blocks():
        """The blocks of the run, in order."""
        for lo, hi, node, last in spans:
            s_n = s[lo:hi]
            segments, q, w = _block_plan(
                1.0 + h * (0.5 * r[1] + r[2] * s_n), -1j * (l0 + l1 * s_n))
            cols = stored[node:last] - lo
            yield _Block(hi - lo, segments, q, w, h * (nu0 + nu1 * s_n),
                         cols, np.arange(node, last),
                         np.concatenate(([0], cols[cols < hi - lo])))

    n_workers = min(_cpu_count(),
                    math.ceil(min(_CHUNK, indices.size) / _GROUP))
    workspaces = [(np.empty(2 * size * width), np.empty(2 * size * width),
                   np.empty(2 * size * width), np.empty(size, dtype=complex))
                  for _ in range(n_workers)]
    max_nodes = max(last - node for _, _, node, last in spans)
    node_buffers = [np.empty(min(_CHUNK, indices.size) * max_nodes,
                             dtype=complex) for _ in range(2)]

    sums = np.zeros((stored.size, len(OBSERVABLES)))
    sumsqs = np.zeros_like(sums)
    alive_counts = np.zeros(stored.size, dtype=np.int64)
    failed = []

    # the calling thread is worker 0; a pool starts threads only at submits
    with ThreadPoolExecutor(max(n_workers - 1, 1)) as pool:
        for lo in range(0, indices.size, _CHUNK):
            chunk = indices[lo:lo + _CHUNK]
            streams = [np.random.default_rng([int(config.seed), int(i)])
                       for i in chunk]
            b = np.full(chunk.size, packet0[1])
            c = np.full(chunk.size, complex(packet0[2]))
            alive = np.ones(chunk.size, dtype=bool)
            groups = [slice(j, j + _GROUP)
                      for j in range(0, chunk.size, _GROUP)]

            def record(nodes, b_nodes, c_nodes):  # of the current chunk
                """Add the packets at `nodes`, b and c (nodes,
                trajectories), to the sums; a trajectory that fails at a
                node is dropped there."""
                with np.errstate(over="ignore", invalid="ignore"):
                    vals, log_norm2 = _read_packets(s[stored[nodes], None],
                                                    b_nodes, c_nodes, hbar)
                ok = (log_norm2 <= _LOG_NORM_LIMIT) \
                    & np.isfinite(vals).all(axis=0)
                live = np.logical_and.accumulate(ok, axis=0)
                live &= alive
                newly_dead = alive & ~live[-1]
                if np.any(newly_dead):
                    failed.extend(int(i) for i in chunk[newly_dead])
                    b[newly_dead] = c[newly_dead] = 0.0
                    alive[newly_dead] = False
                # (trajectories, observables, nodes), so that the sums run
                # over the trajectories one after another, as a node's did
                vals = np.where(live, vals, 0.0).transpose(2, 0, 1).copy()
                sums[nodes] += vals.sum(axis=0).T
                sumsqs[nodes] += (vals ** 2).sum(axis=0).T
                alive_counts[nodes] += live.sum(axis=1)

            n_threads = min(n_workers, len(groups))

            def work(t, block, b_nodes, c_nodes):
                for sl in groups[t::n_threads]:
                    _advance(streams[sl], alive[sl], root, b[sl], c[sl],
                             workspaces[t], block, h_rho, c_kick,
                             b_nodes[sl], c_nodes[sl])

            record(np.zeros(1, dtype=int), b[None], c[None])
            for block in blocks():
                b_nodes, c_nodes = (
                    x[:chunk.size * block.nodes.size].reshape(chunk.size, -1)
                    for x in node_buffers)
                shares = [pool.submit(work, t, block, b_nodes, c_nodes)
                          for t in range(1, n_threads)]
                work(0, block, b_nodes, c_nodes)
                for share in shares:
                    share.result()  # raises here what the share raised
                for j in range(0, block.nodes.size, _READ_NODES):
                    part = slice(j, j + _READ_NODES)
                    record(block.nodes[part],
                           *(np.ascontiguousarray(x[:, part].T)
                             for x in (b_nodes, c_nodes)))
    return t0 + h * stored, sums, sumsqs, alive_counts, sorted(failed)


@dataclass
class EnsembleResult:
    """Ensemble averages of the unraveling with their standard errors.

    `means`/`stderr` hold the six raw observables (norm2, q, p, qq, pp,
    qp) as plain unnormalized averages; `moment_table` converts them to
    the five central moments with delta-method error bounds.
    """

    times: np.ndarray
    means: dict
    stderr: dict
    alive: np.ndarray
    failed_trajectories: list

    def moment_table(self):
        """Columns keyed and ordered as `io.ENSEMBLE_COLUMNS`."""
        m, se = self.means, self.stderr
        values = central_moments([m[name] for name in OBSERVABLES])
        errors = (se["q"], se["p"],
                  se["qq"] + 2.0 * np.abs(m["q"]) * se["q"],
                  se["pp"] + 2.0 * np.abs(m["p"]) * se["p"],
                  se["qp"] + np.abs(m["q"]) * se["p"]
                  + np.abs(m["p"]) * se["q"])
        table = {"t": self.times}
        for name, value, error in zip(MOMENTS, values, errors):
            table[name], table["se_" + name] = value, error
        table.update(norm2=m["norm2"], se_norm2=se["norm2"],
                     alive=self.alive.astype(float))
        return table


def ensemble_run(config, state0):
    """Monte-Carlo average of the linear unraveling from the pure
    Gaussian state `state0`, five moments in `MOMENTS` order.

    Deterministic for a fixed config: trajectories own counter-based
    generator streams seeded by (seed, index), the chunk size is a
    module constant, and the chunks are summed in index order.
    """
    packet0 = _initial_packet(state0, config.spec.constants)
    if config.n_traj < 100:
        warnings.warn(
            f"only {config.n_traj} trajectories; error bars are unreliable",
            EnsembleHealthWarning, stacklevel=2)

    times, sums, sumsqs, alive, failed = _propagate(
        config, packet0, np.arange(config.n_traj))

    if len(failed) > 0.01 * config.n_traj:
        raise NumericalFailure(
            f"{len(failed)} of {config.n_traj} trajectories diverged")
    if failed:
        warnings.warn(
            f"{len(failed)} trajectories diverged and were dropped from "
            "the averages", EnsembleHealthWarning, stacklevel=2)

    counts = np.maximum(alive, 1)[:, None]
    mean = sums / counts
    var = np.clip(sumsqs - counts * mean ** 2, 0.0, None) \
        / np.maximum(counts - 1, 1)
    return EnsembleResult(times=times, means=dict(zip(OBSERVABLES, mean.T)),
                          stderr=dict(zip(OBSERVABLES,
                                          np.sqrt(var / counts).T)),
                          alive=alive, failed_trajectories=failed)


@dataclass
class TrajectoryPath:
    times: np.ndarray
    observables: np.ndarray  # (n_nodes, 6) raw quadratic forms
    aborted: bool


def sse_trajectory(config, state0, traj_index=0):
    """Observable history of a single trajectory, by its ensemble index
    traj_index: an int or numpy integer in [0, n_traj), never a bool."""
    if not (_is_int(traj_index) and 0 <= traj_index < config.n_traj):
        raise ValueError(f"traj_index must be an integer in "
                         f"[0, {config.n_traj}), got {traj_index!r}")
    times, obs, _, alive_counts, failed = _propagate(
        config, _initial_packet(state0, config.spec.constants),
        np.array([traj_index]))
    # with a single trajectory the sums are the raw observables
    obs[alive_counts == 0] = np.nan
    return TrajectoryPath(times=times, observables=obs, aborted=bool(failed))
