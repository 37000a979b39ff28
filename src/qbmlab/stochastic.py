"""Stochastic Schroedinger unravelings and Gaussian colored noise.

Unraveling: the linear Ito scheme

    d psi = [ -(i/hbar) H_det - (D/2) A^dag A ] psi dt  - i A psi dW

with a single complex Wiener increment obeying

    E[dW conj(dW)] = D dt,      E[dW dW] = S dt,      |S| <= D,

and A = alpha q + i beta p.  The ensemble average E[psi psi^dag]
reproduces the Lindblad dissipator D (A rho A^dag - {A^dag A, rho}/2)
regardless of S: the pseudo-correlation only redistributes noise between
the two quadratures of dW (`S = D` makes dW real).  Individual
trajectories do not preserve norm, only the ensemble mean does, so all
estimators below are plain averages of unnormalized quadratic forms.

The corrected-CL master equation has one extra wrinkle: its friction is
asymmetric (only p is damped) while the pure Lindblad part damps q and p
symmetrically.  The difference is the Hamiltonian shear g {q,p}/2 with
g = D alpha beta hbar; `ccl_sse_config` reads D, beta and g off the
corrected-CL generator of :mod:`qbmlab.dynamics`.

Colored noise: `sample_colored_noise` draws stationary complex Gaussian
paths with prescribed correlation E[z_i conj(z_j)] = D_ij and pseudo
correlation E[z_i z_j] = S_ij by factoring the equivalent real 2N x 2N
covariance with a symmetric eigenvalue decomposition.
"""

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bath import PhysicalConstants
from .dynamics import MasterEquationSpec, NumericalFailure, SystemSpec
from .fock import position_momentum

_CHUNK = 512  # trajectories per batch; fixed so results never depend on threading
_STEP_BLOCK = 512  # time steps per noise-draw block
_NORM_LIMIT = 1e12  # squared-norm runaway threshold per trajectory
_MAX_DUMPED = 100  # hard cap on stored per-trajectory histories

_OBS_NAMES = ("norm2", "q", "p", "qq", "pp", "qp")


class NoiseFactorizationError(RuntimeError):
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
    ridge: float = 1e-12

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.D = np.asarray(self.D, dtype=complex)
        n = self.grid.size
        if self.D.shape != (n, n):
            raise ValueError("D must be (n, n) for an n-node grid")
        scale = max(float(np.max(np.abs(self.D))), 1e-300)
        if np.max(np.abs(self.D - self.D.conj().T)) > 1e-10 * scale:
            raise ValueError("D must be Hermitian")
        if self.S is None:
            self.S = np.zeros((n, n), dtype=complex)
        else:
            self.S = np.asarray(self.S, dtype=complex)
            if self.S.shape != (n, n):
                raise ValueError("S must be (n, n)")
            if np.max(np.abs(self.S - self.S.T)) > 1e-10 * scale:
                raise ValueError("S must be symmetric")

    @classmethod
    def from_kernel(cls, kernel, grid, S=None):
        """Stationary target D_ij = D_kernel(t_i - t_j) from a tabulated kernel."""
        grid = np.asarray(grid, dtype=float)
        diff = grid[:, None] - grid[None, :]
        d_mat = kernel.re_at(diff) + 1j * kernel.im_at(diff)
        return cls(grid=grid, D=d_mat, S=S)


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
    if evals[0] < -spec.ridge * scale:
        raise NoiseFactorizationError(
            f"covariance not PSD: most negative eigenvalue {evals[0]:.6e} "
            f"(largest {evals[-1]:.6e})")
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
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
    """Parameters of a linear-unraveling run.

    alpha/beta define A = alpha q + i beta p; D_scalar and S_scalar are
    the white-noise moments; qp_hamiltonian is the coefficient g of the
    shear term g {q,p}/2 added to the system Hamiltonian (needed to
    unravel generators whose friction is not quadrature-symmetric).
    """

    system: SystemSpec
    alpha: float
    beta: float
    D_scalar: float
    dim: int
    dt: float
    n_traj: int
    seed: int
    t_span: tuple[float, float] = (0.0, 10.0)
    S_scalar: complex = 0.0
    qp_hamiltonian: float = 0.0
    store_every: int = 100
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self):
        if self.D_scalar < 0.0:
            raise ValueError("D_scalar must be non-negative")
        if abs(self.S_scalar) > self.D_scalar * (1.0 + 1e-12):
            raise ValueError("need |S_scalar| <= D_scalar for realizable noise")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.n_traj < 1:
            raise ValueError("n_traj must be at least 1")
        if self.store_every < 1:
            raise ValueError("store_every must be >= 1")
        t0, t1 = self.t_span
        if not t1 > t0:
            raise ValueError("t_span must satisfy t1 > t0")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def ccl_sse_config(system, gamma, T, *, dim, dt, n_traj, seed,
                   t_span=(0.0, 10.0), S_scalar=0.0, store_every=100,
                   constants=PhysicalConstants()):
    """SSE configuration whose ensemble mean obeys the corrected-CL equation.

    Reads the corrected-CL generator (G, a): its rank-1 Kossakowski
    matrix a = D v v^dag with v = (1, i beta) gives the rate D and
    A = q + i beta p, and the shear is g = G_qp.
    """
    gen = MasterEquationSpec("ccl", system, constants=constants,
                             gamma=gamma, T=T).generator
    d_scalar = float(gen.a[0, 0].real)
    beta = float(gen.a[1, 0].imag) / d_scalar if d_scalar > 0.0 else 0.0
    return SSEConfig(system=system, alpha=1.0, beta=beta, D_scalar=d_scalar,
                     dim=dim, dt=dt, n_traj=n_traj, seed=seed, t_span=t_span,
                     S_scalar=S_scalar, qp_hamiltonian=float(gen.G[0, 1]),
                     store_every=store_every, constants=constants)


def _build_operators(config):
    """Step matrix, noise operator and observable matrices."""
    c = config.constants
    q, p = position_momentum(config.dim, config.system, c)
    m = config.system.m
    h_det = p @ p / (2.0 * m) \
        + 0.5 * m * config.system.omega_S ** 2 * (q @ q)
    if config.qp_hamiltonian != 0.0:
        h_det = h_det + 0.5 * config.qp_hamiltonian * (q @ p + p @ q)
    a_op = config.alpha * q + 1j * config.beta * p
    ada = a_op.conj().T @ a_op
    drift = -1j * h_det / c.hbar - 0.5 * config.D_scalar * ada
    step = np.eye(config.dim, dtype=complex) + config.dt * drift
    obs = {
        "norm2": np.eye(config.dim, dtype=complex),
        "q": q.astype(complex),
        "p": p,
        "qq": (q @ q).astype(complex),
        "pp": p @ p,
        "qp": 0.5 * (q @ p + p @ q),
    }
    return step, a_op, obs


def _noise_root(config):
    """2x2 root mapping unit normals to (Re dW, Im dW) per step."""
    d, s = config.D_scalar, complex(config.S_scalar)
    cov = 0.5 * config.dt * np.array([[d + s.real, s.imag],
                                      [s.imag, d - s.real]])
    evals, evecs = np.linalg.eigh(cov)
    return evecs * np.sqrt(np.clip(evals, 0.0, None))


def _store_nodes(config):
    t0, t1 = config.t_span
    n_steps = max(1, int(round((t1 - t0) / config.dt)))
    h = (t1 - t0) / n_steps
    nodes = list(range(0, n_steps + 1, config.store_every))
    if nodes[-1] != n_steps:
        nodes.append(n_steps)
    return n_steps, h, np.array(nodes)


def _measure(obs_mats, psi):
    """Quadratic forms psi^dag O psi for every observable, per column."""
    out = np.empty((len(_OBS_NAMES), psi.shape[1]))
    pc = psi.conj()
    for k, name in enumerate(_OBS_NAMES):
        out[k] = np.einsum("ij,jk,ik->k", obs_mats[name], psi, pc,
                           optimize=True).real
    return out


def _run_chunk(config, psi0, indices, step, a_op, obs_mats, root,
               n_steps, nodes, dump_upto):
    """Propagate one batch of trajectories; return accumulators."""
    k = indices.size
    psi = np.tile(psi0[:, None], (1, k)).astype(complex)
    gens = [np.random.default_rng([int(config.seed), int(i)])
            for i in indices]

    n_nodes = nodes.size
    sums = np.zeros((n_nodes, len(_OBS_NAMES)))
    sumsqs = np.zeros_like(sums)
    alive_counts = np.zeros(n_nodes, dtype=np.int64)
    alive = np.ones(k, dtype=bool)
    failed = []
    dump_mask = indices < dump_upto
    dumped = np.zeros((int(dump_mask.sum()), n_nodes, len(_OBS_NAMES))) \
        if dump_upto else None

    node_pos = 0

    def record(node_idx):
        vals = _measure(obs_mats, psi)
        bad = ~np.isfinite(vals).all(axis=0) | (vals[0] > _NORM_LIMIT)
        newly_dead = bad & alive
        if np.any(newly_dead):
            for j in np.where(newly_dead)[0]:
                failed.append(int(indices[j]))
            psi[:, newly_dead] = 0.0
            alive[newly_dead] = False
        sums[node_idx] += vals[:, alive].sum(axis=1)
        sumsqs[node_idx] += (vals[:, alive] ** 2).sum(axis=1)
        alive_counts[node_idx] += int(alive.sum())
        if dumped is not None and dumped.size:
            dumped[:, node_idx, :] = vals[:, dump_mask].T

    record(node_pos)
    node_pos += 1
    step_done = 0
    while step_done < n_steps:
        blk = min(_STEP_BLOCK, n_steps - step_done)
        normals = np.stack([g.standard_normal((blk, 2)) for g in gens])
        dw = normals @ root.T
        dw = dw[..., 0] + 1j * dw[..., 1]  # (k, blk)
        for b in range(blk):
            psi = step @ psi + (a_op @ psi) * (-1j * dw[:, b])[None, :]
            step_done += 1
            if node_pos < nodes.size and step_done == nodes[node_pos]:
                record(node_pos)
                node_pos += 1
    return sums, sumsqs, alive_counts, failed, dumped


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
    n_traj: int
    seed: int
    failed_trajectories: list
    dumped: np.ndarray | None  # (k, n_nodes, 6) for the first trajectories

    def moment_table(self):
        m, se = self.means, self.stderr
        sigma_qq = m["qq"] - m["q"] ** 2
        sigma_pp = m["pp"] - m["p"] ** 2
        sigma_qp = m["qp"] - m["q"] * m["p"]
        return {
            "t": self.times,
            "mean_q": m["q"], "se_mean_q": se["q"],
            "mean_p": m["p"], "se_mean_p": se["p"],
            "s_qq": sigma_qq,
            "se_s_qq": se["qq"] + 2.0 * np.abs(m["q"]) * se["q"],
            "s_pp": sigma_pp,
            "se_s_pp": se["pp"] + 2.0 * np.abs(m["p"]) * se["p"],
            "s_qp": sigma_qp,
            "se_s_qp": se["qp"] + np.abs(m["q"]) * se["p"]
                       + np.abs(m["p"]) * se["q"],
            "norm2": m["norm2"], "se_norm2": se["norm2"],
            "alive": self.alive.astype(float),
        }


def ensemble_run(config, psi0, threads=1, keep_trajectories=0):
    """Monte-Carlo average of the linear unraveling.

    Deterministic for a fixed config: trajectories own counter-based
    generator streams seeded by (seed, index), the chunk size is a
    module constant, and chunk results are merged in index order, so
    neither `threads` nor scheduling can change any output bit.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (config.dim,):
        raise ValueError("psi0 must be a vector of length dim")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise ValueError("psi0 must be normalized")
    if config.n_traj < 100:
        warnings.warn(
            f"only {config.n_traj} trajectories; error bars are unreliable",
            EnsembleHealthWarning, stacklevel=2)
    keep_trajectories = min(int(keep_trajectories), _MAX_DUMPED,
                            config.n_traj)

    step, a_op, obs_mats = _build_operators(config)
    root = _noise_root(config)
    n_steps, h, nodes = _store_nodes(config)
    t0 = config.t_span[0]
    times = t0 + h * nodes

    chunks = [np.arange(lo, min(lo + _CHUNK, config.n_traj))
              for lo in range(0, config.n_traj, _CHUNK)]

    def work(idx_chunk):
        return _run_chunk(config, psi0, idx_chunk, step, a_op, obs_mats,
                          root, n_steps, nodes, keep_trajectories)

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, chunks))
    else:
        results = [work(ch) for ch in chunks]

    n_nodes = nodes.size
    sums = np.zeros((n_nodes, len(_OBS_NAMES)))
    sumsqs = np.zeros_like(sums)
    alive = np.zeros(n_nodes, dtype=np.int64)
    failed = []
    dump_parts = []
    for s_, sq_, al_, fl_, dp_ in results:
        sums += s_
        sumsqs += sq_
        alive += al_
        failed.extend(fl_)
        if dp_ is not None and dp_.size:
            dump_parts.append(dp_)

    if len(failed) > 0.01 * config.n_traj:
        raise NumericalFailure(
            f"{len(failed)} of {config.n_traj} trajectories diverged")
    if failed:
        warnings.warn(
            f"{len(failed)} trajectories diverged and were dropped from "
            "the averages", EnsembleHealthWarning, stacklevel=2)

    counts = np.maximum(alive, 1)
    means = {}
    stderr = {}
    for k, name in enumerate(_OBS_NAMES):
        mean = sums[:, k] / counts
        var = np.clip(sumsqs[:, k] - counts * mean ** 2, 0.0, None) \
            / np.maximum(counts - 1, 1)
        means[name] = mean
        stderr[name] = np.sqrt(var / counts)

    dumped = np.concatenate(dump_parts, axis=0) if dump_parts else None
    return EnsembleResult(times=times, means=means, stderr=stderr,
                          alive=alive, n_traj=config.n_traj,
                          seed=config.seed, failed_trajectories=sorted(failed),
                          dumped=dumped)


@dataclass
class TrajectoryPath:
    times: np.ndarray
    observables: np.ndarray  # (n_nodes, 6) raw quadratic forms
    aborted: bool


def sse_trajectory(config, psi0, traj_index=0):
    """Observable history of a single trajectory (by its ensemble index)."""
    psi0 = np.asarray(psi0, dtype=complex)
    step, a_op, obs_mats = _build_operators(config)
    root = _noise_root(config)
    n_steps, h, nodes = _store_nodes(config)
    sums, _, alive_counts, failed, _ = _run_chunk(
        config, psi0, np.array([traj_index]), step, a_op, obs_mats, root,
        n_steps, nodes, 0)
    # with a single trajectory the sums are the raw observables
    obs = sums
    obs[alive_counts == 0] = np.nan
    return TrajectoryPath(times=config.t_span[0] + h * nodes,
                          observables=obs, aborted=bool(failed))
