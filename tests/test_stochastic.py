"""Colored-noise sampling and the linear stochastic unraveling engine."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qbmlab import stochastic
from qbmlab.bath import CorrelationKernel, SpectralDensity, ThermalBathSpec
from qbmlab.coefficients import delta_limit_coefficients
from qbmlab.dynamics import (
    MOMENTS,
    OBSERVABLES,
    MasterEquationSpec,
    NumericalFailure,
    SystemSpec,
    ground_state_moments,
    integrate_moments,
    rk4_step,
    step_plan,
)
from qbmlab.fock import (
    alpha_from_moments,
    coherent_state,
    fock_propagate,
    lindblad_operators,
    observables,
    position_momentum,
)
from qbmlab.stochastic import (
    EnsembleHealthWarning,
    NoiseFactorizationError,
    NoiseSpec,
    SSEConfig,
    _expm_2x2,
    _noise_blocks,
    _packet_sde,
    _width_path,
    empirical_noise_moments,
    ensemble_run,
    sample_colored_noise,
    sse_trajectory,
)

SYS = SystemSpec(m=1.0, omega_S=1.0)


# --------------------------------------------------------- colored noise

@pytest.fixture(scope="module")
def bath_noise_spec():
    bath = ThermalBathSpec(SpectralDensity(1.0, 0.5, 5.0), T=2.0)
    grid = np.linspace(0.0, 3.0, 16)
    kernel = CorrelationKernel.from_bath(bath, grid)
    return NoiseSpec.from_kernel(kernel, grid)


def test_sampled_noise_reproduces_kernel_moments(bath_noise_spec):
    spec = bath_noise_spec
    rng = np.random.default_rng(7)
    z = sample_colored_noise(spec, 30_000, rng)
    assert z.shape == (30_000, 16) and np.iscomplexobj(z)
    est = empirical_noise_moments(z)
    floor = 1e-12
    assert np.all(np.abs((est.D - spec.D).real)
                  <= 5.0 * np.maximum(est.se_D_re, floor))
    assert np.all(np.abs((est.D - spec.D).imag)
                  <= 5.0 * np.maximum(est.se_D_im, floor))
    # relation moments were requested to vanish
    assert np.all(np.abs(est.S.real) <= 5.0 * np.maximum(est.se_S_re, floor))
    assert np.all(np.abs(est.S.imag) <= 5.0 * np.maximum(est.se_S_im, floor))


def test_noise_with_full_relation_matrix_is_real():
    grid = np.linspace(0.0, 1.0, 5)
    d = np.exp(-np.abs(grid[:, None] - grid[None, :])).astype(complex)
    spec = NoiseSpec(grid=grid, D=d, S=d)
    z = sample_colored_noise(spec, 4000, np.random.default_rng(3))
    assert np.max(np.abs(z.imag)) <= 1e-7 * np.max(np.abs(z.real))
    est = empirical_noise_moments(z)
    assert np.all(np.abs((est.D - d).real)
                  <= 5.0 * np.maximum(est.se_D_re, 1e-12))


def test_unrealizable_relation_matrix_raises():
    grid = np.array([0.0, 1.0])
    d = np.eye(2, dtype=complex)
    spec = NoiseSpec(grid=grid, D=d, S=3.0 * d)
    with pytest.raises(NoiseFactorizationError, match="negative eigenvalue"):
        sample_colored_noise(spec, 10, np.random.default_rng(0))


@pytest.mark.filterwarnings("error")
def test_noise_spec_validation():
    # warnings as errors: an infinite entry is rejected before the
    # Hermitian and symmetry checks form inf - inf
    grid = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="Hermitian"):
        NoiseSpec(grid=grid, D=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        NoiseSpec(grid=grid, D=np.eye(2),
                  S=np.array([[0.0, 0.3], [-0.3, 0.0]]))
    with pytest.raises(ValueError, match=r"\(n, n\)"):
        NoiseSpec(grid=grid, D=np.eye(3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="D and S must be finite"):
            NoiseSpec(grid=grid, D=np.array([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(ValueError, match="D and S must be finite"):
            NoiseSpec(grid=grid, D=np.eye(2), S=np.diag([bad, 0.0]))


def test_empirical_moments_need_two_samples():
    with pytest.raises(ValueError, match="two samples"):
        empirical_noise_moments(np.ones((1, 4)))


# --------------------------------------------------------- configuration

def _spec(variant, gamma, T, mu=None):
    return MasterEquationSpec(variant, SYS, gamma=gamma, T=T, mu=mu)


def test_config_validation():
    # D = 4 m gamma kB T / hbar^2 = 1
    kw = dict(spec=_spec("ccl", 0.25, 1.0), dt=1e-2, n_traj=10, seed=1)
    for bad in (1.5, float("nan")):
        with pytest.raises(ValueError, match="S_scalar"):
            SSEConfig(S_scalar=bad, **kw)
    # CL has no Lindblad form, HPZ no constant generator
    with pytest.raises(ValueError, match="positive semidefinite"):
        SSEConfig(**{**kw, "spec": _spec("cl", 0.25, 1.0)})
    hpz = MasterEquationSpec("hpz", SYS, coefficients=delta_limit_coefficients(
        0.4, np.linspace(0.0, 1.0, 11)))
    with pytest.raises(ValueError, match="tabulated"):
        SSEConfig(**{**kw, "spec": hpz})
    with pytest.raises(ValueError, match="seed"):
        SSEConfig(**{**kw, "seed": 2 ** 64})
    # as the scenario reader: a float or a bool is not an integer, even
    # where it would round to one
    for name in ("seed", "n_traj"):
        for bad in (4.5, 4.0, True, np.float64(4.0)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SSEConfig(**{**kw, name: bad})
    SSEConfig(**{**kw, "seed": np.uint64(2 ** 64 - 1),
                 "n_traj": np.int64(10)})
    config, state0 = SSEConfig(**kw), ground_state_moments(SYS)
    for bad in (1.5, True, -1, 10):
        with pytest.raises(ValueError, match="traj_index"):
            sse_trajectory(config, state0, traj_index=bad)


def test_ccl_config_prefactors():
    cfg = SSEConfig(_spec("ccl", 0.05, 2.0), dt=1e-2, n_traj=100, seed=5)
    assert cfg.D_scalar == pytest.approx(0.4, rel=1e-12)
    assert cfg.v[0] == 1.0
    assert cfg.v[1] == pytest.approx(1j / 8.0, rel=1e-12)
    assert cfg.spec.generator.G[0, 1] == pytest.approx(0.05, rel=1e-12)
    with pytest.raises(ValueError, match="gamma"):
        SSEConfig(_spec("ccl", -0.1, 2.0), dt=1e-2, n_traj=100, seed=5)


def test_configs_compare_by_their_settable_fields():
    # D_scalar and v derive from spec, so == must not compare the array v
    cfg = SSEConfig(_spec("ccl", 0.05, 2.0), dt=1e-2, n_traj=100, seed=5)
    assert cfg == replace(cfg)
    assert cfg != replace(cfg, seed=6)


# ------------------------------------------------------- the Fock reference

def _fock_euler(config, psi0, n_traj):
    """Dense Fock-Euler reference of the unraveling: per step,
    psi <- (I + h K) psi - i dW A psi on the engine's own dW.

    Returns the six raw observables, (n_nodes, 6, n_traj).
    """
    _, h, n_steps, stored = step_plan(config.t_span, config.dt,
                                      config.store_every)
    gen = config.spec.generator
    (q, p), operators = lindblad_operators(config.spec, psi0.size)
    step = np.eye(psi0.size) + h * operators(gen.G, gen.a)[0]
    a_op = config.v[0] * q + config.v[1] * p
    obs = observables(q, p)
    psi = np.tile(psi0[:, None], (1, n_traj)).astype(complex)
    nodes = [np.einsum("oij,jk,ik->ok", obs, psi, psi.conj()).real]
    n = 0
    for dw in _noise_blocks(config, np.arange(n_traj), h, n_steps):
        for dw_n in dw:
            psi = step @ psi - 1j * (a_op @ psi) * dw_n
            n += 1
            if n in stored:
                nodes.append(np.einsum("oij,jk,ik->ok", obs, psi,
                                       psi.conj()).real)
    return np.array(nodes)


def _one_step_expectation(config, psi0):
    """Exact ensemble expectation of every observable after one step.

    Written from (G, a) alone, without the rank-1 factor: the step
    psi -> M psi - i dW A psi averages to rho -> M rho M^dag
    + dt sum_jk a_jk F_j rho F_k, with M = I + dt K.
    """
    spec, dim = config.spec, psi0.size
    G, a = spec.generator.G, spec.generator.a
    F = position_momentum(dim, spec.system, spec.constants)
    pairs = [(j, k) for j in (0, 1) for k in (0, 1)]
    h_det = 0.5 * sum(G[j, k] * (F[j] @ F[k]) for j, k in pairs)
    drift = -1j * h_det / spec.constants.hbar \
        - 0.5 * sum(a[j, k] * (F[k] @ F[j]) for j, k in pairs)
    m_step = np.eye(dim) + config.dt * drift
    rho0 = np.outer(psi0, psi0.conj())
    rho1 = m_step @ rho0 @ m_step.conj().T + config.dt * sum(
        a[j, k] * (F[j] @ rho0 @ F[k]) for j, k in pairs)
    q, p = F
    obs = {"norm2": np.eye(dim), "q": q, "p": p, "qq": q @ q,
           "pp": p @ p, "qp": 0.5 * (q @ p + p @ q)}
    return {k: float(np.trace(o @ rho1).real) for k, o in obs.items()}, \
        {k: float(np.trace(o @ rho0).real) for k, o in obs.items()}


def _check_one_step(spec, s_frac):
    config = SSEConfig(spec, dt=0.05, t_span=(0.0, 0.05), store_every=1,
                       n_traj=20_000, seed=11)
    config = replace(config, S_scalar=s_frac * config.D_scalar)
    psi0 = coherent_state(14, 0.6 + 0.2j)
    raw = _fock_euler(config, psi0, config.n_traj)
    mean = raw.mean(axis=2)
    se = raw.std(axis=2, ddof=1) / np.sqrt(config.n_traj)
    exact1, exact0 = _one_step_expectation(config, psi0)
    for k, name in enumerate(OBSERVABLES):
        assert mean[0, k] == pytest.approx(exact0[name], rel=1e-10)
        z = abs(mean[1, k] - exact1[name]) / max(se[1, k], 1e-15)
        assert z < 4.0, f"{name}: z = {z:.2f}"
    return config


def test_one_step_mean_matches_exact_expectation():
    # CCL with D = 0.8 and A = q + 0.3i p
    config = _check_one_step(_spec("ccl", 0.24, 5.0 / 6.0), 0.3 + 0.4j)
    assert config.v[1] == pytest.approx(0.3j, rel=1e-12)


def test_qp_one_step_mean_matches_exact_expectation():
    # a = D0 (1, -mu)(1, -mu)^T is larger on p: A = -q / mu + p, D = D0 mu^2
    config = _check_one_step(_spec("qp", 0.1, 1.0, mu=2.0), -0.5)
    assert np.array_equal(config.v, [-0.5, 1.0])
    assert config.D_scalar == pytest.approx(1.6, rel=1e-12)


# ------------------------------------------------------------- the engine

@pytest.mark.parametrize("variant, mu, s_frac", [
    ("ccl", None, 0.0), ("ccl", None, 0.3 + 0.4j), ("jz", None, 0.0),
    ("qp", 0.3, 0.0)], ids=["ccl", "ccl-complex-S", "jz", "qp"])
def test_wavepackets_match_the_fock_reference_on_the_same_noise(
        variant, mu, s_frac):
    # Both schemes converge to one solution per noise path, so their
    # ensemble means differ by far less than the Monte-Carlo error.
    config = SSEConfig(_spec(variant, 0.05, 2.0, mu=mu), dt=2e-3,
                       t_span=(0.0, 2.0), store_every=125, n_traj=512,
                       seed=17)
    config = replace(config, S_scalar=s_frac * config.D_scalar)
    state0 = ground_state_moments(SYS, mean_q=0.4, mean_p=0.1)
    psi0 = coherent_state(30, alpha_from_moments(SYS, 0.4, 0.1))
    result = ensemble_run(config, state0)
    fock = _fock_euler(config, psi0, config.n_traj).mean(axis=2)
    for k, name in enumerate(OBSERVABLES):
        assert np.allclose(result.means[name][0], fock[0, k], rtol=0.0,
                           atol=1e-12), name
        z = np.abs(result.means[name][1:] - fock[1:, k]) \
            / result.stderr[name][1:]
        assert np.max(z) < 0.5, f"{name}: max z = {np.max(z):.3f}"


WIDTH_CASES = [("ccl", None, 0.0), ("ccl", None, 0.3 + 0.4j),
               ("qp", 2.0, -0.5)]


def _width_coefficients(variant, mu, s_frac):
    config = SSEConfig(_spec(variant, 0.24, 5.0 / 6.0, mu=mu), dt=0.05,
                       n_traj=1, seed=1)
    config = replace(config, S_scalar=s_frac * config.D_scalar)
    return _packet_sde(config)[0]


@pytest.mark.parametrize("variant, mu, s_frac", WIDTH_CASES)
def test_width_step_is_exact(variant, mu, s_frac):
    # the Moebius steps of the width against RK4 at a 20x finer step
    r = _width_coefficients(variant, mu, s_frac)
    s0 = 0.3 - 0.2j
    exact = _width_path(r, s0, 0.05, 40)
    s = s0
    for _ in range(800):
        s = rk4_step(lambda _, y: r[0] + r[1] * y + r[2] * y * y, s, 0.0025)
    assert abs(exact[-1] - s) <= 1e-10 * abs(s)
    assert np.all(exact.real > 0.0)


def test_width_exponential_matches_scipy_expm():
    # the closed-form 2 x 2 exponential against scipy's Pade expm: the
    # width steps of WIDTH_CASES, random complex matrices, and d^2 =
    # -det(m - tr m / 2) at 1e-20 and 0, where sinh d / d is near or at 1
    from scipy.linalg import expm

    def moebius_path(r, s0, h, n_steps):
        e = expm(h * np.array([[0.0, -r[2]], [r[0], r[1]]]))
        path = [s0]
        for _ in range(n_steps):
            path.append((e[1, 0] + e[1, 1] * path[-1])
                        / (e[0, 0] + e[0, 1] * path[-1]))
        return np.array(path)

    rng = np.random.default_rng(11)
    lam = 0.3 + 0.1j
    matrices = list(rng.standard_normal((200, 2, 2))
                    + 1j * rng.standard_normal((200, 2, 2)))
    matrices += [np.array([[lam, 1.0], [1e-20, lam]]),
                 np.array([[lam, 1.0], [0.0, lam]])]
    for case in WIDTH_CASES:
        r = _width_coefficients(*case)
        matrices.append(0.05 * np.array([[0.0, -r[2]], [r[0], r[1]]]))
        want = moebius_path(r, 0.3 - 0.2j, 0.05, 40)
        got = _width_path(r, 0.3 - 0.2j, 0.05, 40)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    for m in matrices:
        want = expm(m)
        assert np.max(np.abs(_expm_2x2(m) - want)) \
            <= 1e-14 * np.max(np.abs(want))


def reference_noise(config, indices, h, n_steps):
    """dW as first laid out: blocks of 512 steps, each the transpose of a
    fresh trajectory-major product, (steps, trajectories) with a stride of
    one trajectory's draws between the entries of a step.
    """
    d, s = config.D_scalar, complex(config.S_scalar)
    evals, evecs = np.linalg.eigh(0.5 * h * np.array(
        [[d + s.real, s.imag], [s.imag, d - s.real]]))
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    gens = [np.random.default_rng([int(config.seed), int(i)])
            for i in indices]
    buf = np.empty((len(gens), 512, 2))
    for lo in range(0, n_steps, 512):
        rows = buf[:, :min(512, n_steps - lo)]
        for g, row in zip(gens, rows):
            g.standard_normal(out=row)
        yield (rows @ root.T).view(complex)[..., 0].T


@pytest.mark.parametrize("s_frac", [0.0, 0.3 + 0.4j])
def test_noise_layout_keeps_the_seeded_ensemble_bit_for_bit(
        monkeypatch, s_frac):
    # 701 steps end in a ragged block of either layout; 600 trajectories
    # are a full chunk and a partial one
    config = SSEConfig(_spec("ccl", 0.0625, 2.0), dt=1e-2,
                       t_span=(0.0, 7.01), store_every=50, n_traj=600,
                       seed=42)
    config = replace(config, S_scalar=s_frac * config.D_scalar)
    _, h, n_steps, _ = step_plan(config.t_span, config.dt,
                                 config.store_every)
    assert n_steps == 701 and n_steps % stochastic._STEP_BLOCK
    for chunk in (np.arange(512), np.arange(512, 600)):
        # a block is overwritten by the next: copy each as it comes
        got = np.concatenate([dw.copy() for dw in _noise_blocks(
            config, chunk, h, n_steps)])
        want = np.concatenate(list(reference_noise(config, chunk, h,
                                                   n_steps)))
        assert got.shape == (n_steps, chunk.size)
        assert got.tobytes() == want.tobytes()
    state0 = ground_state_moments(SYS, mean_q=0.4 * np.sqrt(2.0))
    result = ensemble_run(config, state0)
    monkeypatch.setattr(stochastic, "_noise_blocks", reference_noise)
    reference = ensemble_run(config, state0)
    for name in OBSERVABLES:
        assert result.means[name].tobytes() \
            == reference.means[name].tobytes()
        assert result.stderr[name].tobytes() \
            == reference.stderr[name].tobytes()


def test_a_chunk_holds_about_one_noise_block():
    # 512 trajectories over 1,000 steps: one chunk.  Its draws, their
    # transform and the step-major dW are blocks of _STEP_BLOCK steps
    # reused throughout; a complex 512 x 512 block is 4 MiB
    config = SSEConfig(_spec("ccl", 0.02, 2.0), dt=1e-3, t_span=(0.0, 1.0),
                       store_every=500, n_traj=512, seed=1)
    state0 = ground_state_moments(SYS, mean_q=0.5)
    ensemble_run(config, state0)  # first-call allocations are not counted
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ensemble_run(config, state0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < 1.5 * 512 * 512 * 16, f"traced peak {peak / 2 ** 20:.2f} MiB"


def test_unraveling_tables_do_not_grow_with_the_run():
    # one chunk of 512 trajectories over t = 1 in 1,000 and in 20,000
    # steps: of the per-step tables only the width path s, 16 B a step,
    # may grow with the run (19,000 more steps are 0.3 MB of it)
    state0 = ground_state_moments(SYS, mean_q=0.5)

    def traced_peak(dt):
        config = SSEConfig(_spec("ccl", 0.02, 2.0), dt=dt,
                           t_span=(0.0, 1.0), store_every=500, n_traj=512,
                           seed=1)
        ensemble_run(config, state0)  # first-call allocations not counted
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ensemble_run(config, state0)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()

    short, long = traced_peak(1e-3), traced_peak(5e-5)
    assert long - short < 0.5e6, \
        f"traced peak {short / 1e6:.2f} MB at 1,000 steps, " \
        f"{long / 1e6:.2f} MB at 20,000"


def test_ensemble_is_bit_deterministic():
    config = SSEConfig(_spec("ccl", 0.0625, 2.0), dt=1e-2,
                       t_span=(0.0, 0.5), store_every=10, n_traj=600, seed=42)
    state0 = ground_state_moments(SYS, mean_q=0.4 * np.sqrt(2.0))
    # 600 trajectories: a full chunk of 512 and a partial one
    first, again = (ensemble_run(config, state0) for _ in range(2))
    for name in first.means:
        assert np.array_equal(first.means[name], again.means[name])
        assert np.array_equal(first.stderr[name], again.stderr[name])
    assert np.array_equal(first.alive, again.alive)


def test_a_run_is_set_up_once(monkeypatch):
    calls = []
    for name in ("_packet_sde", "_width_path"):
        monkeypatch.setattr(stochastic, name, lambda *a, f=getattr(
            stochastic, name), n=name: calls.append(n) or f(*a))
    # 1,100 trajectories are three chunks
    config = SSEConfig(_spec("ccl", 0.0625, 2.0), dt=0.1,
                       t_span=(0.0, 0.5), store_every=1, n_traj=1100, seed=3)
    ensemble_run(config, ground_state_moments(SYS))
    assert sorted(calls) == ["_packet_sde", "_width_path"]


def test_steps_and_times_use_the_adjusted_step():
    # dt = 0.03 and dt = 1/33 both take 33 steps of h = 1/33 over (0, 1)
    state0 = ground_state_moments(SYS, mean_q=0.3 * np.sqrt(2.0))
    runs = [ensemble_run(SSEConfig(
        _spec("ccl", 0.05, 2.0), dt=dt, t_span=(0.0, 1.0), store_every=11,
        n_traj=200, seed=4), state0) for dt in (0.03, 1 / 33)]
    assert np.array_equal(runs[0].times, runs[1].times)
    for name in runs[0].means:
        assert np.array_equal(runs[0].means[name], runs[1].means[name])


def _step_plan_runs():
    """Stored times of the moment ODE, the Fock oracle and the unraveling
    of one CCL generator, as functions of (t_span, dt, store_every)."""
    spec = _spec("ccl", 0.05, 2.0)
    psi0 = coherent_state(12, 0.3)
    state0 = (0.0, 0.0, 0.5, 0.5, 0.0)  # ground state

    def sse(t_span, dt, store_every):
        config = SSEConfig(spec, dt=dt, n_traj=1, seed=1, t_span=t_span,
                           store_every=store_every)
        with pytest.warns(EnsembleHealthWarning):
            return ensemble_run(config, state0).times

    return [lambda *plan: integrate_moments(spec, state0, *plan).times,
            lambda *plan: fock_propagate(
                spec, np.outer(psi0, psi0.conj()), *plan).times,
            sse]


@pytest.mark.parametrize("t_span, dt, store_every, message", [
    ((1.0, 1.0), 1e-3, 1, "t_span must satisfy t1 > t0"),
    ((1.0, 0.5), 1e-3, 1, "t_span must satisfy t1 > t0"),
    ((0.0, 1.0), 0.0, 1, "dt must be positive"),
    ((0.0, 1.0), -0.1, 1, "dt must be positive"),
    ((0.0, 1.0), float("nan"), 1, "dt must be positive"),
    ((0.0, 1.0), 1e-3, 0, "store_every must be >= 1"),
    ((0.0, 1.0), 1e-3, 2.5, "store_every must be an integer"),
    ((0.0, 1.0), 1e-3, 2.0, "store_every must be an integer"),
    ((0.0, float("inf")), 1e-3, 1, "t_span must be finite"),
    ((float("-inf"), 1.0), 1e-3, 1, "t_span must be finite"),
    ((0.0, float("nan")), 1e-3, 1, "t_span must be finite"),
    ((0.0, 1e300), 1e-10, 1, "span / dt must be finite"),
    # more steps than NumPy allocates an index array for, or can index
    ((0.0, 1.0), 1e-15, 1,
     "span / dt gives 1e+15 steps, more than a step plan can index"),
    ((0.0, 1.0), 1e-300, 1,
     "span / dt gives 1e+300 steps, more than a step plan can index"),
    # a step no span can hold
    ((0.0, 1.0), float("inf"), 1, "dt must be positive and finite"),
    # a count is an int or numpy integer, never a bool or a float
    ((0.0, 1.0), 1e-3, True, "store_every must be an integer"),
    ((0.0, 1.0), 1e-3, np.float64(2.0), "store_every must be an integer"),
])
def test_propagators_reject_the_same_step_plans(t_span, dt, store_every,
                                                message):
    for run in _step_plan_runs():
        with pytest.raises(ValueError) as exc:
            run(t_span, dt, store_every)
        assert str(exc.value) == message


@pytest.mark.parametrize("t_span, dt, store_every, expected", [
    ((0.0, 0.9), 1e-3, 400, [0.0, 0.4, 0.8, 0.9]),  # dt does not divide
    ((0.0, 0.05), 0.2, 1, [0.0, 0.05]),  # dt larger than the span
    ((0.5, 1.5), 0.1, 50, [0.5, 1.5]),  # store_every > n_steps
])
def test_propagators_store_the_same_times(t_span, dt, store_every, expected):
    times = [run(t_span, dt, store_every) for run in _step_plan_runs()]
    assert np.allclose(times[0], expected, rtol=0.0, atol=1e-12)
    for other in times[1:]:
        assert np.array_equal(other, times[0])


def test_means_do_not_depend_on_relation_scalar():
    common = dict(dt=5e-3, t_span=(0.0, 0.5), store_every=20, n_traj=2000,
                  seed=13)
    state0 = ground_state_moments(SYS, mean_q=0.3 * np.sqrt(2.0))
    res0 = ensemble_run(SSEConfig(_spec("ccl", 0.05, 2.0), S_scalar=0.0,
                                  **common), state0)
    res1 = ensemble_run(SSEConfig(_spec("ccl", 0.05, 2.0), S_scalar=0.4,
                                  **common), state0)
    for name in ("q", "p", "qq", "pp", "qp", "norm2"):
        gap = np.abs(res0.means[name] - res1.means[name])
        band = 5.0 * (res0.stderr[name] + res1.stderr[name]) + 1e-12
        assert np.all(gap <= band), name


def _check_tracks_moment_equations(spec):
    config = SSEConfig(spec, dt=2e-3, n_traj=2000, seed=99,
                       t_span=(0.0, 2.0), store_every=250)
    state0 = (0.4, 0.0, 0.5, 0.5, 0.0)
    result = ensemble_run(config, state0)
    assert not result.failed_trajectories

    ode = integrate_moments(spec, state0, (0.0, 2.0), dt=1e-4,
                            store_every=5000)
    table = result.moment_table()
    assert np.allclose(table["t"], ode.times)
    for key, ref in zip(MOMENTS, ode.data.T):
        z = np.abs(table[key][1:] - ref[1:]) \
            / np.maximum(table["se_" + key][1:], 1e-12)
        assert np.max(z) < 6.0, f"{key}: max z = {np.max(z):.2f}"
    # the linear unraveling keeps the mean squared norm near one
    assert np.all(np.abs(table["norm2"] - 1.0)
                  <= 6.0 * table["se_norm2"] + 1e-9)


def test_ccl_ensemble_tracks_moment_equations():
    _check_tracks_moment_equations(_spec("ccl", 0.05, 2.0))


@pytest.mark.parametrize("variant, mu", [("jz", None), ("qp", 0.3)])
def test_rank_one_ensembles_track_moment_equations(variant, mu):
    _check_tracks_moment_equations(_spec(variant, 0.05, 2.0, mu=mu))


def test_tiny_ensemble_matches_average_of_single_trajectories():
    config = SSEConfig(_spec("jz", 0.0375, 2.0), dt=1e-2,
                       t_span=(0.0, 0.3), store_every=10, n_traj=3, seed=21)
    state0 = ground_state_moments(SYS, mean_q=0.2 * np.sqrt(2.0))
    with pytest.warns(EnsembleHealthWarning, match="error bars"):
        result = ensemble_run(config, state0)
    paths = [sse_trajectory(config, state0, traj_index=i) for i in range(3)]
    stacked = np.stack([p.observables for p in paths])
    avg = stacked.mean(axis=0)
    for k, name in enumerate(OBSERVABLES):
        assert np.allclose(result.means[name], avg[:, k], rtol=1e-10,
                           atol=1e-13)
    assert np.array_equal(paths[0].times, result.times)


def test_diverging_trajectories_raise_numerical_failure():
    # JZ with D = 4 m gamma kB T = 50: A = q
    config = SSEConfig(_spec("jz", 12.5, 1.0), dt=0.5,
                       t_span=(0.0, 50.0), store_every=100, n_traj=1, seed=2)
    state0 = ground_state_moments(SYS, mean_q=np.sqrt(2.0))
    with pytest.warns(EnsembleHealthWarning):
        with pytest.raises(NumericalFailure, match="diverged"):
            ensemble_run(config, state0)
    path = sse_trajectory(config, state0)
    assert path.aborted
    assert np.all(np.isnan(path.observables[-1]))


def test_small_ensembles_warn():
    config = SSEConfig(_spec("ccl", 0.0125, 2.0), dt=1e-2,
                       t_span=(0.0, 0.1), store_every=10, n_traj=5, seed=3)
    with pytest.warns(EnsembleHealthWarning, match="trajectories"):
        ensemble_run(config,
                     ground_state_moments(SYS, mean_q=0.1 * np.sqrt(2.0)))


def test_psi0_validation():
    # psi0 is given by its moments; only a pure Gaussian state has a packet
    config = SSEConfig(_spec("ccl", 0.0125, 2.0), dt=1e-2,
                       t_span=(0.0, 0.1), n_traj=200, seed=3)
    for impure in ((0.0, 0.0, 1.0, 1.0, 0.0), (0.0, 0.0, 0.5, 0.5, 1e-4),
                   (0.0, 0.0, -0.5, -0.5, 0.0)):
        for run in (ensemble_run, sse_trajectory):
            with pytest.raises(ValueError, match="pure Gaussian state"):
                run(config, impure)
    # a correlated pure state reads back exactly at t = 0
    state0 = (0.3, -0.2, 0.5, 1.0, 0.5)
    table = ensemble_run(config, state0).moment_table()
    read = [table[name][0] for name in (*MOMENTS, "norm2")]
    assert np.allclose(read, [*state0, 1.0], rtol=0.0, atol=1e-14)
    # a state is five moments, in any sequence, and nothing else
    for run in (ensemble_run, sse_trajectory):
        for bad in (state0[:4], (*state0, 1.0), [state0]):
            with pytest.raises(ValueError, match="five moments"):
                run(config, bad)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                run(config, (bad, *state0[1:]))


def test_moment_table_layout_and_trajectory_dump():
    config = SSEConfig(_spec("ccl", 0.025, 2.0), dt=1e-2,
                       t_span=(0.0, 0.25), store_every=5, n_traj=120, seed=8)
    result = ensemble_run(
        config, ground_state_moments(SYS, mean_q=0.3 * np.sqrt(2.0)))
    table = result.moment_table()
    assert set(table) == {
        "t", "mean_q", "se_mean_q", "mean_p", "se_mean_p",
        "s_qq", "se_s_qq", "s_pp", "se_s_pp", "s_qp", "se_s_qp",
        "norm2", "se_norm2", "alive"}
    n_nodes = result.times.size
    assert all(v.shape == (n_nodes,) for v in table.values())
    # uneven span: final node is kept even off the store stride
    assert result.times[-1] == pytest.approx(0.25)
    assert np.all(table["alive"] == 120)
