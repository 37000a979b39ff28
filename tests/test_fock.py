"""Fock-space oracle: operator algebra, state builders, and the moment
locks that pin every term of the Gaussian right-hand sides."""

import warnings

import numpy as np
import pytest

from qbmlab import fock
from qbmlab.coefficients import HPZCoefficients
from qbmlab.dynamics import (
    GaussianMomentState,
    MasterEquationSpec,
    SystemSpec,
    integrate_moments,
)

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
    st = fock.moments_from_density(coherent_density(30, alpha),
                                   *fock.position_momentum(30, SYS))
    assert st.mean_q == pytest.approx(0.6, rel=1e-10)
    assert st.mean_p == pytest.approx(-0.4, rel=1e-10)
    assert st.sigma_qq == pytest.approx(0.5, rel=1e-10)
    assert st.sigma_pp == pytest.approx(0.5, rel=1e-10)
    assert st.sigma_qp == pytest.approx(0.0, abs=1e-12)


def test_squeezed_state_variances():
    psi = fock.squeezed_state(40, 0.4)
    rho = np.outer(psi, psi.conj())
    st = fock.moments_from_density(rho, *fock.position_momentum(40, SYS))
    assert st.sigma_qq == pytest.approx(0.5 * np.exp(-0.8), rel=1e-8)
    assert st.sigma_pp == pytest.approx(0.5 * np.exp(0.8), rel=1e-8)


def test_thermal_density_moments():
    nbar = 1.7
    rho = fock.thermal_density(60, nbar)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    st = fock.moments_from_density(rho, *fock.position_momentum(60, SYS))
    assert st.sigma_qq == pytest.approx(0.5 * (2 * nbar + 1), rel=1e-8)
    assert st.sigma_pp == pytest.approx(0.5 * (2 * nbar + 1), rel=1e-8)


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


def test_truncation_leak_warns_at_small_dim():
    spec = MasterEquationSpec(variant="jz", system=SYS, gamma=0.2, T=5.0)
    rho0 = coherent_density(8, 1.2)
    with pytest.warns(fock.TruncationWarning):
        ftr = fock.fock_propagate(spec, rho0, (0.0, 1.0), 1e-3,
                                  store_every=100)
    assert ftr.first_leak_time is not None


def test_fock_propagate_api():
    spec = MasterEquationSpec(variant="cl", system=SYS, gamma=0.1, T=1.0)
    rho0 = coherent_density(15, 0.3)
    ftr = fock.fock_propagate(spec, rho0, (0.0, 0.5), 1e-3, store_every=100)
    assert ftr.times.shape == (6,)
    assert ftr.data.shape == (6, 5)
    assert np.trace(ftr.rho_final).real == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        fock.fock_propagate(spec, np.zeros((3, 4)), (0.0, 1.0), 1e-3)
    with pytest.raises(ValueError):
        fock.thermal_density(10, -0.5)
