"""Fock-space oracle: operator algebra, state builders, and the moment
locks that pin every term of the Gaussian right-hand sides."""

import math
import warnings

import numpy as np
import pytest

from qbmlab import dynamics, fock
from qbmlab.coefficients import HPZCoefficients
from qbmlab.dynamics import (
    MasterEquationSpec,
    QuadraticGenerator,
    SystemSpec,
    integrate_moments,
    rk4_stage_times,
    step_plan,
)
from qbmlab.positivity import audit_cp

SYS = SystemSpec(m=1.0, omega_S=1.0)


def coherent_density(dim, alpha):
    psi = fock.coherent_state(dim, alpha)
    return np.outer(psi, psi.conj())


# ------------------------------------------------------- operator algebra

def test_ladder_matrix_elements():
    a = fock.ladder(5)
    assert a[0, 1] == 1.0
    assert a[3, 4] == 2.0
    assert np.all(a[:, 0] == 0.0)


def test_canonical_commutator_on_interior_block():
    q, p = fock.position_momentum(25, SystemSpec(m=1.7, omega_S=0.6))
    comm = q @ p - p @ q
    interior = comm[:-1, :-1]
    assert np.allclose(interior, 1j * np.eye(24), atol=1e-12)


def test_coherent_state_moments_roundtrip():
    alpha = fock.alpha_from_moments(SYS, 0.6, -0.4)
    row = fock.moments_from_density(coherent_density(30, alpha),
                                    *fock.position_momentum(30, SYS))
    assert row.shape == (5,)
    mean_q, mean_p, s_qq, s_pp, s_qp = row
    assert mean_q == pytest.approx(0.6, rel=1e-10)
    assert mean_p == pytest.approx(-0.4, rel=1e-10)
    assert s_qq == pytest.approx(0.5, rel=1e-10)
    assert s_pp == pytest.approx(0.5, rel=1e-10)
    assert s_qp == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("dim", [12, 30, 40])
def test_coherent_state_matches_truncated_displacement(dim):
    # the normalized series against expm of the truncated displacement
    # generator on the vacuum, at the amplitudes of the tests and of the
    # bench's unraveling states (mean_q 0.4 to 0.6): both are unit
    # vectors, and they differ by about the amplitude the truncation drops
    from scipy.linalg import expm

    a = fock.ladder(dim)
    alphas = [0.0, 0.3, 0.5 - 0.2j, 0.6 + 0.2j,
              *(fock.alpha_from_moments(SYS, q, p) for q, p in (
                  (0.4, 0.1), (0.6, -0.4), (0.6, 0.4), (0.4, 0.0),
                  (0.5, 0.0), (0.6, 0.0)))]
    for alpha in alphas:
        psi = fock.coherent_state(dim, alpha)
        want = expm(alpha * a.conj().T - np.conj(alpha) * a)[:, 0]
        r2 = abs(alpha) ** 2
        dropped = sum(math.exp(-r2) * r2 ** n / math.factorial(n)
                      for n in range(dim, dim + 100))
        assert np.linalg.norm(psi - want) <= math.sqrt(dropped) + 1e-15
    assert np.array_equal(fock.coherent_state(dim, 0.0),
                          fock.vacuum_state(dim))


@pytest.mark.parametrize("build", [
    fock.ladder, fock.vacuum_state,
    lambda dim: fock.coherent_state(dim, 0.3),
    lambda dim: fock.thermal_density(dim, 0.3),
    lambda dim: fock.position_momentum(dim, SYS),
    lambda dim: fock.squeezed_state(dim, 0.2),
], ids=["ladder", "vacuum", "coherent", "thermal", "position_momentum",
        "squeezed"])
def test_fock_builders_take_an_integer_dimension_of_two_or_more(build):
    # as fock_propagate asks of rho0: no empty, one-level or float basis
    for bad in (-3, 0, 1, 2.0, 4.0, True, np.float64(4.0), "4"):
        with pytest.raises(ValueError, match="dim must be an integer >= 2"):
            build(bad)
    for dim in (2, np.int64(5)):
        out = build(dim)
        shapes = [x.shape for x in out] if isinstance(out, tuple) \
            else [out.shape]
        assert all(s[0] == int(dim) for s in shapes)


def test_squeezed_state_variances():
    psi = fock.squeezed_state(40, 0.4)
    rho = np.outer(psi, psi.conj())
    _, _, s_qq, s_pp, _ = fock.moments_from_density(
        rho, *fock.position_momentum(40, SYS))
    assert s_qq == pytest.approx(0.5 * np.exp(-0.8), rel=1e-8)
    assert s_pp == pytest.approx(0.5 * np.exp(0.8), rel=1e-8)


def test_thermal_density_moments():
    nbar = 1.7
    rho = fock.thermal_density(60, nbar)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    _, _, s_qq, s_pp, _ = fock.moments_from_density(
        rho, *fock.position_momentum(60, SYS))
    assert s_qq == pytest.approx(0.5 * (2 * nbar + 1), rel=1e-8)
    assert s_pp == pytest.approx(0.5 * (2 * nbar + 1), rel=1e-8)


@pytest.mark.parametrize("variant,kw", [
    ("jz", dict(gamma=0.1, T=2.0)),
    ("cl", dict(gamma=0.15, T=2.0)),
    ("ccl", dict(gamma=0.15, T=2.0)),
    ("qp", dict(gamma=0.1, T=2.0, mu=0.3)),
])
def test_generator_is_trace_free(variant, kw):
    spec = MasterEquationSpec(variant=variant, system=SYS, **kw)
    _, operators = fock.lindblad_operators(spec, 12)
    K, K_dag, jumps = operators(spec.generator.G, spec.generator.a)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    rhs = K @ rho + rho @ K_dag + sum(f @ rho @ L for f, L in jumps)
    assert abs(np.trace(rhs)) < 1e-13


# ------------------------------------------------- stencil right-hand side

def _hpz_spec():
    grid = np.linspace(0.0, 1.5, 16)
    table = HPZCoefficients(grid=grid, Gamma=-0.2 - 0.3 * np.sin(2 * grid),
                            Theta=0.1 * grid, Xi=0.2 * np.cos(grid),
                            Upsilon=-0.05 * grid ** 2 - 0.1)
    return MasterEquationSpec(variant="hpz",
                              system=SystemSpec(m=1.7, omega_S=0.9),
                              coefficients=table)


STENCIL_SPECS = {
    "jz": lambda: MasterEquationSpec("jz", SYS, gamma=0.1, T=2.0),
    "cl": lambda: MasterEquationSpec("cl", SYS, gamma=0.15, T=2.0),
    "ccl": lambda: MasterEquationSpec("ccl", SYS, gamma=0.15, T=2.0),
    "qp": lambda: MasterEquationSpec("qp", SYS, gamma=0.1, T=2.0, mu=0.3),
    "hpz": _hpz_spec,
}


def stencil_against_dense(spec, dim, times, seed=5):
    """(stencil, dense) right-hand sides on a random non-Hermitian rho at
    each time, the stencil of each of the generator's `units` weighted by
    its `params`, as `fock_propagate` combines them, the dense one as
    K rho + rho K^dag + sum_j F_j rho L_j from `lindblad_operators` at
    (G, a) read through `at`.
    """
    rng = np.random.default_rng(seed)
    rho = rng.standard_normal((dim, dim)) \
        + 1j * rng.standard_normal((dim, dim))
    _, operators = fock.lindblad_operators(spec, dim)
    gen = spec.generator
    basis = np.array([fock._stencil(operators(*u)) for u in zip(*gen.units)])
    theta = gen.params(np.asarray(times))
    G, a = gen.at(np.asarray(times))
    rhs = fock._stencil_rhs(dim)
    for k in range(len(times)):
        out = rhs(fock._padded(rho), theta[k] @ basis)
        # the padding stays zero, so RK4 combinations of it do as well
        pad = out.reshape(dim + 4, dim + 2).copy()
        pad[2:dim + 2, :dim] = 0.0
        assert not np.any(pad)
        K, K_dag, jumps = operators(G[k], a[k])
        dense = K @ rho + rho @ K_dag + sum(f @ rho @ L for f, L in jumps)
        yield fock._interior(out, dim), dense


@pytest.mark.parametrize("variant", sorted(STENCIL_SPECS))
@pytest.mark.parametrize("dim", [2, 3, 12, 40])
def test_stencil_rhs_matches_dense_products(variant, dim):
    # hpz reads its table between nodes; its a_qp, and cl's and ccl's, are
    # imaginary in part, which K^dag conjugates
    spec = STENCIL_SPECS[variant]()
    times = [0.0, 0.37, 0.8125, 1.5] if variant == "hpz" else [0.0]
    for got, dense in stencil_against_dense(spec, dim, times):
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_fock_propagate_rejects_bad_rho0():
    spec = MasterEquationSpec(variant="cl", system=SYS, gamma=0.1, T=1.0)
    # the leakage monitor reads the top two levels
    with pytest.raises(ValueError, match="dimension >= 2"):
        fock.fock_propagate(spec, np.ones((1, 1)), (0.0, 0.1), 1e-2)
    rho0 = coherent_density(6, 0.3)
    rho0[2, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        fock.fock_propagate(spec, rho0, (0.0, 0.1), 1e-2)
    rho0[2, 3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        fock.fock_propagate(spec, rho0, (0.0, 0.1), 1e-2)


# ----------------------------------------------- moment locks per variant

@pytest.mark.parametrize("variant,kw,tol", [
    ("jz", dict(gamma=0.1, T=2.0), 5e-6),
    ("cl", dict(gamma=0.15, T=2.0), 1e-7),
    ("ccl", dict(gamma=0.15, T=2.0), 1e-7),
    ("qp", dict(gamma=0.1, T=2.0, mu=0.3), 5e-6),
])
def test_moment_map_matches_density_matrix(variant, kw, tol):
    dim = 30
    spec = MasterEquationSpec(variant=variant, system=SYS, **kw)
    rho0 = coherent_density(dim, fock.alpha_from_moments(SYS, 0.6, 0.4))
    q, p = fock.position_momentum(dim, SYS)
    state0 = fock.moments_from_density(rho0, q, p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.TruncationWarning)
        ftr = fock.fock_propagate(spec, rho0, (0.0, 2.0), 1e-3,
                                  store_every=200)
    mtr = integrate_moments(spec, state0, (0.0, 2.0), 1e-3, store_every=200)
    assert np.max(np.abs(ftr.data - mtr.data)) < tol
    assert np.max(np.abs(ftr.trace - 1.0)) < 1e-12


def test_hpz_moment_map_matches_density_matrix():
    # constant synthetic coefficients pin each hbar / m placement
    grid = np.linspace(0.0, 1.5, 16)
    n = grid.size
    table = HPZCoefficients(grid=grid, Gamma=np.full(n, -1.3),
                            Theta=np.full(n, 0.7), Xi=np.full(n, 0.4),
                            Upsilon=np.full(n, -0.2))
    system = SystemSpec(m=1.7, omega_S=0.9)
    spec = MasterEquationSpec(variant="hpz", system=system,
                              coefficients=table)
    dim = 45
    q, p = fock.position_momentum(dim, system)
    psi = fock.squeezed_state(dim, 0.3, alpha=0.5 + 0.2j)
    rho0 = np.outer(psi, psi.conj())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.TruncationWarning)
        ftr = fock.fock_propagate(spec, rho0, (0.0, 1.5), 5e-4,
                                  store_every=300)
    mtr = integrate_moments(spec, fock.moments_from_density(rho0, q, p),
                            (0.0, 1.5), 5e-4, store_every=300)
    assert np.max(np.abs(ftr.data - mtr.data)) < 5e-4


def test_fock_and_moments_step_a_table_at_the_same_stage_times(monkeypatch):
    # both read the generator through `params` at rk4_stage_times, 2 n + 1
    # distinct times, and so does the audit at the times it is given
    calls = []

    def record(self, t, params=QuadraticGenerator.params):
        calls.append(np.ravel(t))
        return params(self, t)

    monkeypatch.setattr(QuadraticGenerator, "params", record)
    # the stability check reads the table at its nodes as well
    monkeypatch.setattr(dynamics, "_warn_if_unstable", lambda *args: None)
    grid = np.linspace(0.0, 1.5, 16)
    table = HPZCoefficients(grid=grid, Gamma=-0.2 - 0.3 * np.sin(2 * grid),
                            Theta=0.1 * grid, Xi=0.2 * np.cos(grid),
                            Upsilon=-0.05 * grid ** 2)
    spec = MasterEquationSpec(variant="hpz", system=SYS, coefficients=table)
    dim, t_span, dt = 30, (0.1, 1.4), 0.0137
    psi = fock.coherent_state(dim, 0.3)
    rho0 = np.outer(psi, psi.conj())
    q, p = fock.position_momentum(dim, SYS)
    ftr = fock.fock_propagate(spec, rho0, t_span, dt, store_every=7)
    fock_calls = calls[:]
    calls.clear()
    mtr = integrate_moments(spec, fock.moments_from_density(rho0, q, p),
                            t_span, dt, store_every=7)
    moment_calls = calls[:]
    calls.clear()

    t0, h, n_steps, _ = step_plan(t_span, dt, 7)
    stages = rk4_stage_times(t0, h, 0, n_steps)
    assert stages.shape == (2 * n_steps + 1,)
    assert len(fock_calls) == 1 and np.array_equal(fock_calls[0], stages)
    assert np.array_equal(np.unique(np.concatenate(moment_calls)), stages)
    audit_cp(spec.generator, stages)
    assert len(calls) == 1 and np.array_equal(calls[0], stages)
    # a step that reused the wrong stage's operators would be off by 3e-3
    assert np.max(np.abs(ftr.data - mtr.data)) < 1e-6


def test_truncation_leak_warns_at_small_dim():
    spec = MasterEquationSpec(variant="jz", system=SYS, gamma=0.2, T=5.0)
    rho0 = coherent_density(8, 1.2)
    with pytest.warns(fock.TruncationWarning):
        ftr = fock.fock_propagate(spec, rho0, (0.0, 1.0), 1e-3,
                                  store_every=100)
    assert ftr.first_leak_time is not None


def test_trace_drift_budget_counts_the_span_in_units_of_omega_S(monkeypatch):
    # a CCL run over omega_S t = 2 and its image at time x2 (omega_S, gamma
    # and T doubled, m and the times halved) drift by the same rounding, so
    # both are within the budget of omega_S t = 2 or both exceed it
    def traces(s):
        system = SystemSpec(m=1.0 / s, omega_S=s)
        spec = MasterEquationSpec("ccl", system, gamma=0.1 * s, T=0.5 * s)
        rho0 = coherent_density(12, fock.alpha_from_moments(system, 1.0, 0.0))
        return fock.fock_propagate(spec, rho0, (0.0, 2.0 / s), 1e-2 / s,
                                   store_every=100).trace

    trace = traces(1.0)
    assert np.array_equal(traces(2.0), trace)
    drift = np.max(np.abs(trace - trace[0]))
    assert drift > 0.0
    monkeypatch.setattr(fock, "_TRACE_RATE", 0.6 * drift)
    with warnings.catch_warnings():
        warnings.simplefilter("error", fock.TraceDriftWarning)
        for s in (1.0, 2.0):
            traces(s)
    monkeypatch.setattr(fock, "_TRACE_RATE", 0.4 * drift)
    for s in (1.0, 2.0):
        with pytest.warns(fock.TraceDriftWarning, match="trace drifted by"):
            traces(s)


def test_fock_propagate_api():
    spec = MasterEquationSpec(variant="cl", system=SYS, gamma=0.1, T=1.0)
    rho0 = coherent_density(15, 0.3)
    ftr = fock.fock_propagate(spec, rho0, (0.0, 0.5), 1e-3, store_every=100)
    assert ftr.times.shape == (6,)
    assert ftr.data.shape == (6, 5)
    assert np.trace(ftr.rho_final).real == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        fock.fock_propagate(spec, np.zeros((3, 4)), (0.0, 1.0), 1e-3)
    for nbar in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="nbar"):
            fock.thermal_density(10, nbar)
