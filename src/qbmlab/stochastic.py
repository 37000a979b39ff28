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
makes dW real).  Individual trajectories do not preserve norm, only the
ensemble mean does, so all estimators below are plain averages of
unnormalized quadratic forms: the six raw moments of `fock.observables`,
converted by `fock.central_moments`.  An initial state that already
fills the top of the truncated basis warns `fock.TruncationWarning`, as
in the Fock oracle.

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
from .dynamics import MasterEquationSpec, NumericalFailure, step_plan
from .fock import (
    OBSERVABLES,
    central_moments,
    check_truncation,
    lindblad_operators,
    observables,
)
from .positivity import check_noise_realizable, rank_one_factor

_CHUNK = 512  # trajectories per batch; fixed so results never depend on threading
_STEP_BLOCK = 512  # time steps per noise-draw block
_NORM_LIMIT = 1e12  # squared-norm runaway threshold per trajectory
_RIDGE = 1e-12  # negative covariance eigenvalues tolerated, relative


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

    D_scalar and v, the rank-1 factor a = D v v^dag of the Kossakowski
    matrix, are derived on construction; S_scalar is the white-noise
    pseudo-correlation.
    """

    spec: MasterEquationSpec
    dim: int
    dt: float
    n_traj: int
    seed: int
    t_span: tuple[float, float] = (0.0, 10.0)
    S_scalar: complex = 0.0
    store_every: int = 100
    D_scalar: float = field(init=False, repr=False, compare=False)
    v: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.spec.generator.grid is not None:
            raise ValueError("cannot unravel a tabulated generator")
        self.D_scalar, self.v = rank_one_factor(self.spec.generator.a)
        check_noise_realizable(self.D_scalar, self.S_scalar)
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        step_plan(self.t_span, self.dt, self.store_every)
        if self.n_traj < 1:
            raise ValueError("n_traj must be at least 1")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def ccl_sse_config(system, gamma, T, *, constants=PhysicalConstants(),
                   **run):
    """SSEConfig of the corrected-CL generator; `run` sets its other fields."""
    return SSEConfig(MasterEquationSpec("ccl", system, constants=constants,
                                        gamma=gamma, T=T), **run)


def _build_operators(config, h):
    """Step matrix I + h K, noise operator A, observable matrices and the
    2x2 root mapping unit normals to (Re dW, Im dW) per step of size h.
    """
    gen = config.spec.generator
    (q, p), operators = lindblad_operators(config.spec, config.dim)
    step = np.eye(config.dim, dtype=complex) + h * operators(gen.G, gen.a)[0]
    a_op = config.v[0] * q + config.v[1] * p
    d, s = config.D_scalar, complex(config.S_scalar)
    evals, evecs = np.linalg.eigh(0.5 * h * np.array(
        [[d + s.real, s.imag], [s.imag, d - s.real]]))
    return (step, a_op, observables(q, p),
            evecs * np.sqrt(np.clip(evals, 0.0, None)))


def _run_chunk(config, psi0, indices):
    """Propagate one batch of trajectories; return the stored times and
    the accumulators.
    """
    t0, h, n_steps, stored = step_plan(config.t_span, config.dt,
                                       config.store_every)
    step, a_op, obs_mats, root = _build_operators(config, h)
    k = indices.size
    psi = np.tile(psi0[:, None], (1, k)).astype(complex)
    gens = [np.random.default_rng([int(config.seed), int(i)])
            for i in indices]

    sums = np.zeros((stored.size, len(OBSERVABLES)))
    sumsqs = np.zeros_like(sums)
    alive_counts = np.zeros(stored.size, dtype=np.int64)
    alive = np.ones(k, dtype=bool)
    failed = []

    def record(node_idx):
        # quadratic forms psi^dag O psi of every observable, per column
        pc = psi.conj()
        vals = np.array([np.einsum("ij,jk,ik->k", o, psi, pc,
                                   optimize=True).real for o in obs_mats])
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

    keep = stored.tolist()  # plain ints: cheap to compare every step
    record(0)
    node_pos = 1
    step_done = 0
    while step_done < n_steps:
        blk = min(_STEP_BLOCK, n_steps - step_done)
        normals = np.stack([g.standard_normal((blk, 2)) for g in gens])
        dw = normals @ root.T
        dw = dw[..., 0] + 1j * dw[..., 1]  # (k, blk)
        for b in range(blk):
            psi = step @ psi + (a_op @ psi) * (-1j * dw[:, b])[None, :]
            step_done += 1
            if step_done == keep[node_pos]:
                record(node_pos)
                node_pos += 1
    return t0 + h * stored, sums, sumsqs, alive_counts, failed


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

    def moment_table(self):
        m, se = self.means, self.stderr
        _, _, sigma_qq, sigma_pp, sigma_qp = central_moments(
            [m[name] for name in OBSERVABLES])
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


def ensemble_run(config, psi0, threads=1):
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
    check_truncation(float(np.sum(np.abs(psi0[-2:]) ** 2)),
                     float(config.t_span[0]), config.dim, 2)

    chunks = [np.arange(lo, min(lo + _CHUNK, config.n_traj))
              for lo in range(0, config.n_traj, _CHUNK)]

    def work(idx_chunk):
        return _run_chunk(config, psi0, idx_chunk)

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, chunks))
    else:
        results = [work(ch) for ch in chunks]

    times = results[0][0]
    sums, sumsqs, alive = (sum(r[k] for r in results) for k in (1, 2, 3))
    failed = sorted(i for r in results for i in r[4])

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
                          alive=alive, n_traj=config.n_traj,
                          seed=config.seed, failed_trajectories=failed)


@dataclass
class TrajectoryPath:
    times: np.ndarray
    observables: np.ndarray  # (n_nodes, 6) raw quadratic forms
    aborted: bool


def sse_trajectory(config, psi0, traj_index=0):
    """Observable history of a single trajectory (by its ensemble index)."""
    psi0 = np.asarray(psi0, dtype=complex)
    times, obs, _, alive_counts, failed = _run_chunk(
        config, psi0, np.array([traj_index]))
    # with a single trajectory the sums are the raw observables
    obs[alive_counts == 0] = np.nan
    return TrajectoryPath(times=times, observables=obs, aborted=bool(failed))
