"""Moment propagation for all master-equation variants.

Analytic references: closed-form damped-oscillator means for CL, the
exact linear growth of sigma_pp + (m omega_S)^2 sigma_qq under pure
position decoherence, and steady states obtained by zeroing the linear
right-hand side.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbmlab.coefficients import (
    HPZCoefficients,
    OscillatorKernels,
    compute_coefficients,
    delta_limit_coefficients,
    dressed_kernel,
)
from qbmlab.bath import (
    CorrelationKernel,
    PhysicalConstants,
    SpectralDensity,
    ThermalBathSpec,
)
from qbmlab import dynamics
from qbmlab.dynamics import (
    GaussianMomentState,
    MasterEquationSpec,
    NumericalFailure,
    SystemSpec,
    UnstableGeneratorWarning,
    Variant,
    ground_state_moments,
    integrate_moments,
    moment_rhs,
    rk4_stage_times,
    rk4_step,
    rs_uncertainty,
    squeezed_state_moments,
    step_plan,
    thermal_state_moments,
)

SYS = SystemSpec(m=1.0, omega_S=1.0)
STATE = GaussianMomentState(1.0, 0.3, 0.5, 0.5, 0.0)


def spec_for(variant, **kw):
    return MasterEquationSpec(variant=variant, system=SYS, **kw)


# ------------------------------------------------------------ state setup

def test_state_builders():
    g = ground_state_moments(SYS)
    assert g.sigma_qq == 0.5 and g.sigma_pp == 0.5 and g.sigma_qp == 0.0
    th = thermal_state_moments(SYS, T=2.0)
    c = 1.0 / np.tanh(1.0 / 4.0)
    assert th.sigma_qq == pytest.approx(0.5 * c, rel=1e-12)
    sq = squeezed_state_moments(SYS, r=1.0, mean_q=0.3)
    assert sq.sigma_qq == pytest.approx(0.5 * np.exp(-2.0), rel=1e-12)
    assert sq.sigma_pp == pytest.approx(0.5 * np.exp(2.0), rel=1e-12)
    assert sq.mean_q == 0.3


def test_rs_uncertainty_values():
    assert rs_uncertainty(ground_state_moments(SYS)) == pytest.approx(0.0, abs=1e-15)
    assert rs_uncertainty(squeezed_state_moments(SYS, 0.7)) == pytest.approx(0.0, abs=1e-15)
    assert rs_uncertainty(thermal_state_moments(SYS, 3.0)) > 0.0


def test_state_array_roundtrip():
    st_ = GaussianMomentState(0.1, -0.2, 0.3, 0.4, 0.05)
    assert GaussianMomentState.from_array(st_.as_array()) == st_


def test_spec_validation():
    with pytest.raises(ValueError, match="gamma and T"):
        MasterEquationSpec(variant="cl", system=SYS)
    with pytest.raises(ValueError, match="mu"):
        MasterEquationSpec(variant="qp", system=SYS, gamma=0.1, T=1.0)
    with pytest.raises(ValueError, match="coefficient table"):
        MasterEquationSpec(variant="hpz", system=SYS)
    with pytest.raises(ValueError):
        MasterEquationSpec(variant="cl", system=SYS, gamma=-0.1, T=1.0)
    with pytest.raises(ValueError):
        MasterEquationSpec(variant="cl", system=SYS, gamma=0.1, T=0.0)
    # string variants are accepted and normalized
    assert spec_for("ccl", gamma=0.1, T=1.0).variant is Variant.CCL


# --------------------------------------------------------------- unitary

def test_unitary_rotation_of_means():
    spec = spec_for("jz", gamma=0.0, T=1.0)
    tr = integrate_moments(spec, STATE, (0.0, 1.7), 1e-3)
    t = tr.times
    q_ref = STATE.mean_q * np.cos(t) + STATE.mean_p * np.sin(t)
    p_ref = -STATE.mean_q * np.sin(t) + STATE.mean_p * np.cos(t)
    assert np.max(np.abs(tr.mean_q - q_ref)) < 1e-10
    assert np.max(np.abs(tr.mean_p - p_ref)) < 1e-10


def test_unitary_energy_conservation():
    spec = spec_for("jz", gamma=0.0, T=1.0)
    tr = integrate_moments(spec, STATE, (0.0, 5.0), 1e-3)
    energy = 0.5 * (tr.sigma_pp + tr.mean_p ** 2) \
        + 0.5 * (tr.sigma_qq + tr.mean_q ** 2)
    assert np.max(np.abs(energy - energy[0])) < 1e-10


# ------------------------------------------------------------ JZ variant

def test_jz_heating_invariant_is_exactly_linear():
    spec = spec_for("jz", gamma=0.1, T=10.0)
    tr = integrate_moments(spec, STATE, (0.0, 3.0), 1e-3)
    comb = tr.sigma_pp + tr.sigma_qq  # m^2 omega^2 = 1
    ref = comb[0] + spec.diffusion_strength * tr.times
    assert np.max(np.abs(comb - ref)) < 1e-10


def test_jz_means_identical_to_unitary():
    spec = spec_for("jz", gamma=0.1, T=10.0)
    spec0 = spec_for("jz", gamma=0.0, T=10.0)
    tr = integrate_moments(spec, STATE, (0.0, 3.0), 1e-3)
    tr0 = integrate_moments(spec0, STATE, (0.0, 3.0), 1e-3)
    assert np.array_equal(tr.data[:, :2], tr0.data[:, :2])


@given(m=st.floats(0.2, 5.0), omega=st.floats(0.1, 4.0),
       gamma=st.floats(0.0, 1.0), T=st.floats(0.2, 20.0))
@settings(max_examples=20)
def test_jz_invariant_property(m, omega, gamma, T):
    system = SystemSpec(m=m, omega_S=omega)
    spec = MasterEquationSpec(variant="jz", system=system, gamma=gamma, T=T)
    state = GaussianMomentState(0.5, -0.1, 0.4, 0.7, 0.1)
    tr = integrate_moments(spec, state, (0.0, 1.0), 1e-2)
    comb = tr.sigma_pp + (m * omega) ** 2 * tr.sigma_qq
    expected = comb[0] + 4.0 * m * gamma * T * tr.times
    assert np.allclose(comb, expected, rtol=1e-9, atol=1e-9)


# ------------------------------------------------------------ CL variant

def test_cl_means_follow_damped_oscillator():
    gamma = 0.15
    spec = spec_for("cl", gamma=gamma, T=2.0)
    tr = integrate_moments(spec, STATE, (0.0, 8.0), 1e-3)
    t = tr.times
    w_t = np.sqrt(1.0 - gamma ** 2)
    q_ref = np.exp(-gamma * t) * (
        STATE.mean_q * np.cos(w_t * t)
        + (STATE.mean_p + gamma * STATE.mean_q) / w_t * np.sin(w_t * t))
    assert np.max(np.abs(tr.mean_q - q_ref)) < 1e-8


def test_cl_mean_envelope_is_exactly_exponential():
    # A(t)^2 = e^{2 gamma t} [q^2 + ((dq/dt + gamma q)/w_t)^2] is conserved
    gamma = 0.05
    spec = spec_for("cl", gamma=gamma, T=2.0)
    tr = integrate_moments(spec, STATE, (0.0, 20.0), 1e-3)
    w_t = np.sqrt(1.0 - gamma ** 2)
    qdot = tr.mean_p  # m = 1
    amp2 = np.exp(2.0 * gamma * tr.times) * (
        tr.mean_q ** 2 + ((qdot + gamma * tr.mean_q) / w_t) ** 2)
    assert np.max(np.abs(amp2 - amp2[0])) < 1e-6 * amp2[0]


def test_cl_relaxes_to_classical_equipartition():
    gamma, T = 0.25, 5.0
    spec = spec_for("cl", gamma=gamma, T=T)
    tr = integrate_moments(spec, STATE, (0.0, 60.0), 1e-3, store_every=100)
    assert tr.sigma_pp[-1] == pytest.approx(T, rel=1e-6)  # m kB T
    assert tr.sigma_qq[-1] == pytest.approx(T, rel=1e-6)  # kB T / m omega^2
    assert tr.sigma_qp[-1] == pytest.approx(0.0, abs=1e-6)


# ----------------------------------------------------------- CCL variant

def test_ccl_differs_from_cl_only_in_position_diffusion():
    kw = dict(gamma=0.15, T=2.0)
    st_ = GaussianMomentState(0.3, -0.2, 0.6, 0.7, 0.1)
    d_cl = moment_rhs(spec_for("cl", **kw), st_).as_array()
    d_ccl = moment_rhs(spec_for("ccl", **kw), st_).as_array()
    diff = d_ccl - d_cl
    expected_qq = 0.15 / (4.0 * 2.0)  # gamma hbar^2 / (4 m kB T)
    assert diff[2] == pytest.approx(expected_qq, rel=1e-12)
    assert np.all(diff[[0, 1, 3, 4]] == 0.0)


def test_ccl_steady_state_zeroes_the_flow():
    spec = spec_for("ccl", gamma=0.3, T=4.0)
    tr = integrate_moments(spec, STATE, (0.0, 80.0), 1e-3, store_every=1000)
    final = tr.state_at(len(tr) - 1)
    residual = moment_rhs(spec, final, tr.times[-1]).as_array()
    assert np.max(np.abs(residual)) < 1e-8
    assert rs_uncertainty(final) > 0.0


# ------------------------------------------------------------ QP variant

def test_qp_rhs_offsets_against_jz():
    kw = dict(gamma=0.1, T=2.0)
    st_ = GaussianMomentState(0.3, -0.2, 0.6, 0.7, 0.1)
    d_jz = moment_rhs(spec_for("jz", **kw), st_).as_array()
    d_qp = moment_rhs(spec_for("qp", mu=0.3, **kw), st_).as_array()
    s = 4.0 * 0.1 * 2.0
    assert d_qp[2] - d_jz[2] == pytest.approx(0.3 ** 2 * s, rel=1e-12)
    assert d_qp[4] - d_jz[4] == pytest.approx(0.3 * s, rel=1e-12)
    assert d_qp[0] == d_jz[0] and d_qp[1] == d_jz[1]
    assert d_qp[3] == d_jz[3]


def test_qp_means_bitwise_equal_to_jz():
    kw = dict(gamma=0.1, T=2.0)
    tr_jz = integrate_moments(spec_for("jz", **kw), STATE, (0.0, 4.0), 1e-3)
    tr_qp = integrate_moments(spec_for("qp", mu=0.2, **kw), STATE,
                              (0.0, 4.0), 1e-3)
    assert np.array_equal(tr_jz.data[:, :2], tr_qp.data[:, :2])


# ----------------------------------------------------------- HPZ variant

def test_hpz_with_delta_table_reproduces_jz_bitwise():
    spec_jz = spec_for("jz", gamma=0.1, T=10.0)
    table = delta_limit_coefficients(spec_jz.diffusion_strength,
                                     np.linspace(0.0, 3.0, 4))
    spec_hpz = spec_for("hpz", coefficients=table)
    tr_jz = integrate_moments(spec_jz, STATE, (0.0, 3.0), 1e-3)
    tr_hpz = integrate_moments(spec_hpz, STATE, (0.0, 3.0), 1e-3)
    assert np.max(np.abs(tr_jz.data - tr_hpz.data)) == 0.0


def test_hpz_with_cl_limit_constants_matches_cl_rhs():
    gamma, T = 0.15, 2.0
    grid = np.linspace(0.0, 2.0, 5)
    n = grid.size
    table = HPZCoefficients(
        grid=grid, Gamma=np.full(n, -2.0 * gamma * T),  # -s/2, s = 4 m g kT
        Theta=np.zeros(n), Xi=np.zeros(n), Upsilon=np.full(n, -gamma))
    st_ = GaussianMomentState(0.3, -0.2, 0.6, 0.7, 0.1)
    d_hpz = moment_rhs(spec_for("hpz", coefficients=table), st_, 0.5)
    d_cl = moment_rhs(spec_for("cl", gamma=gamma, T=T), st_, 0.5)
    assert np.array_equal(d_hpz.as_array(), d_cl.as_array())


def test_hpz_requires_table_covering_the_span():
    table = delta_limit_coefficients(1.0, np.linspace(0.0, 1.0, 11))
    spec = spec_for("hpz", coefficients=table)
    with pytest.raises(ValueError, match="outside tabulated"):
        integrate_moments(spec, STATE, (0.0, 2.0), 1e-2)


def _runaway_spec():
    grid = np.linspace(0.0, 5.0, 6)
    table = HPZCoefficients(grid=grid, Gamma=np.zeros(6), Theta=np.zeros(6),
                            Xi=np.zeros(6), Upsilon=np.full(6, 1e3))
    return spec_for("hpz", coefficients=table)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_runaway_coefficients_raise_numerical_failure():
    with pytest.warns(UnstableGeneratorWarning, match="from t = 0 "), \
            pytest.raises(NumericalFailure, match="non-finite"):
        integrate_moments(_runaway_spec(), STATE, (0.0, 5.0), 1e-3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("store_every", [7, 64, 100, 1000])
def test_failure_time_does_not_depend_on_store_every(store_every):
    def failure(every):
        with pytest.warns(UnstableGeneratorWarning), \
                pytest.raises(NumericalFailure) as exc:
            integrate_moments(_runaway_spec(), STATE, (0.0, 5.0), 1e-3,
                              store_every=every)
        return str(exc.value)

    assert failure(store_every) == failure(1) \
        == "non-finite moments at t = 0.256"


# ------------------------------------------------------------- stability

@pytest.fixture(scope="module")
def hpz_audit_spec():
    """The generator of scenarios/hpz_audit.json, which has no counterterm."""
    bath = ThermalBathSpec(SpectralDensity(1.0, 0.1, 50.0), T=10.0)
    kernel = CorrelationKernel.from_bath(bath, np.linspace(0.0, 10.0, 1001))
    k = OscillatorKernels(1.0)
    table = compute_coefficients(dressed_kernel(kernel, k, 1), k)
    return spec_for("hpz", coefficients=table)


def test_growing_generator_warns_with_time_and_rate(hpz_audit_spec):
    state0 = ground_state_moments(SYS, mean_q=1.0)
    with pytest.warns(UnstableGeneratorWarning,
                      match=r"from t = 0\.03 .* up to 2\.42"):
        tr = integrate_moments(hpz_audit_spec, state0, (0.0, 10.0), 1e-3,
                               store_every=100)
    assert tr.sigma_qq[-1] > 1e18  # what the warning is about


@pytest.mark.parametrize("variant, kw", [
    ("jz", dict(gamma=0.1, T=2.0)),
    ("cl", dict(gamma=0.1, T=2.0)),
    ("ccl", dict(gamma=0.1, T=2.0)),
    ("qp", dict(gamma=0.1, T=2.0, mu=0.3)),
    ("hpz", dict(coefficients=delta_limit_coefficients(
        0.8, np.linspace(0.0, 1.0, 11)))),
])
@pytest.mark.parametrize("omega_S", [0.0, 1.0])
def test_stable_generators_do_not_warn(variant, kw, omega_S):
    spec = MasterEquationSpec(variant, SystemSpec(m=1.0, omega_S=omega_S),
                              **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnstableGeneratorWarning)
        integrate_moments(spec, STATE, (0.0, 1.0), 1e-2)


def test_stability_is_checked_at_the_nodes_inside_t_span(hpz_audit_spec):
    # the first growing node is t = 0.03
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnstableGeneratorWarning)
        integrate_moments(hpz_audit_spec, STATE, (0.0, 0.02), 1e-3)


def test_stability_is_checked_on_a_span_between_two_nodes(hpz_audit_spec):
    # (5.001, 5.009) holds no table node; its ends are checked
    with pytest.warns(UnstableGeneratorWarning, match=r"from t = 5\.001 "):
        integrate_moments(hpz_audit_spec, STATE, (5.001, 5.009), 1e-3)


# ---------------------------------------------------------- integrator api

def test_integrate_validations():
    spec = spec_for("cl", gamma=0.1, T=1.0)
    with pytest.raises(ValueError, match="t1 > t0"):
        integrate_moments(spec, STATE, (1.0, 1.0), 1e-3)
    with pytest.raises(ValueError, match="dt"):
        integrate_moments(spec, STATE, (0.0, 1.0), 0.0)
    with pytest.raises(ValueError, match="store_every"):
        integrate_moments(spec, STATE, (0.0, 1.0), 1e-3, store_every=0)
    bad = GaussianMomentState(0.0, 0.0, -0.5, 0.5, 0.0)
    with pytest.raises(ValueError, match="variances"):
        integrate_moments(spec, bad, (0.0, 1.0), 1e-3)


def test_initial_uncertainty_violation_warns():
    spec = spec_for("cl", gamma=0.1, T=1.0)
    squeezed_too_far = GaussianMomentState(0.0, 0.0, 0.1, 0.1, 0.0)
    with pytest.warns(UserWarning, match="uncertainty"):
        integrate_moments(spec, squeezed_too_far, (0.0, 0.1), 1e-3)


def test_store_every_thinning():
    spec = spec_for("cl", gamma=0.1, T=1.0)
    tr = integrate_moments(spec, STATE, (0.0, 1.0), 1e-3, store_every=250)
    assert np.allclose(tr.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    # uneven span keeps the final point
    tr2 = integrate_moments(spec, STATE, (0.0, 0.9), 1e-3, store_every=400)
    assert tr2.times[-1] == pytest.approx(0.9, abs=1e-12)


def test_rs_witness_tracks_purity_loss():
    spec = spec_for("jz", gamma=0.1, T=10.0)
    tr = integrate_moments(spec, ground_state_moments(SYS), (0.0, 2.0), 1e-3)
    w = tr.rs_witness()
    assert abs(w[0]) < 1e-12
    assert np.all(np.diff(w) > -1e-12)  # decoherence only adds noise


# ------------------------------------------------ composed interval maps

def _step_by_step(spec, state0, t_span, dt, store_every):
    """The stored rows of RK4 applied to the state one step at a time."""
    t0, h, n_steps, stored = step_plan(t_span, dt, store_every)
    w = spec.generator.moment_matrix(rk4_stage_times(t0, h, 0, n_steps))
    z = np.append(state0.as_array(), 1.0)
    rows = [z[:5]]
    for i in range(n_steps):
        z = rk4_step(lambda s, y: w[i, s] @ y, z, h)
        rows.append(z[:5])
    return np.array(rows)[stored]


def _assert_close_per_column(data, ref):
    assert data.shape == ref.shape
    assert np.all(np.abs(data - ref) <= 1e-12 * np.abs(ref).max(axis=0))


@pytest.mark.parametrize("t_span, store_every", [
    ((0.0, 2.5), 1),
    ((0.0, 2.5), 7),  # 357 intervals of 7 steps and one of 1
    ((0.0, 2.5), 100),
    ((0.0, 2.5), 1000),  # above _MAP_BLOCK: composed chunk by chunk
    ((0.0, 0.9), 400),  # 400, 400 and a ragged 100
])
@pytest.mark.parametrize("generator", ["ccl", "hpz_audit"])
def test_composed_maps_match_step_by_step(generator, t_span, store_every,
                                          hpz_audit_spec):
    assert 1000 > dynamics._MAP_BLOCK
    spec = hpz_audit_spec if generator == "hpz_audit" \
        else spec_for("ccl", gamma=0.1, T=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnstableGeneratorWarning)
        tr = integrate_moments(spec, STATE, t_span, 1e-3, store_every)
    _assert_close_per_column(
        tr.data, _step_by_step(spec, STATE, t_span, 1e-3, store_every))


def test_non_finite_composites_fall_back_to_the_steps(monkeypatch):
    # composites that overflow while the steps stay finite are replayed
    compose = dynamics._compose
    monkeypatch.setattr(dynamics, "_compose",
                        lambda maps: compose(maps) * np.inf)
    spec = spec_for("ccl", gamma=0.1, T=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and warn nothing on the way
        tr = integrate_moments(spec, STATE, (0.0, 0.9), 1e-3, 400)
    _assert_close_per_column(
        tr.data, _step_by_step(spec, STATE, (0.0, 0.9), 1e-3, 400))


@pytest.mark.parametrize("lam", [-1.3, 0.7 + 2.1j])
def test_rk4_step_is_the_degree_four_taylor_polynomial(lam):
    h, y0 = 0.1, np.array([1.0, -0.4 + 0.2j])
    stages = []

    def f(s, y):
        stages.append(s)
        return lam * y

    z = lam * h
    expected = y0 * (1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24)
    assert np.allclose(rk4_step(f, y0, h), expected, rtol=1e-15, atol=0.0)
    assert stages == [0, 1, 1, 2]
