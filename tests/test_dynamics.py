"""Moment propagation for all master-equation variants.

Analytic references: closed-form damped-oscillator means for CL, the
exact linear growth of sigma_pp + (m omega_S)^2 sigma_qq under pure
position decoherence, and steady states obtained by zeroing the linear
right-hand side.
"""

import math
import tracemalloc
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
    MasterEquationSpec,
    NumericalFailure,
    QuadraticGenerator,
    SystemSpec,
    UnstableGeneratorWarning,
    Variant,
    ground_state_moments,
    integrate_moments,
    moment_rhs,
    rk4_stage_times,
    rs_uncertainty,
    squeezed_state_moments,
    step_plan,
    thermal_state_moments,
)
from textbook_rk4 import rk4

SYS = SystemSpec(m=1.0, omega_S=1.0)
STATE = (1.0, 0.3, 0.5, 0.5, 0.0)  # mean_q, mean_p, s_qq, s_pp, s_qp
OFF_DIAGONAL = (0.3, -0.2, 0.6, 0.7, 0.1)


def spec_for(variant, **kw):
    return MasterEquationSpec(variant=variant, system=SYS, **kw)


# ------------------------------------------------------------ state setup

def test_state_builders():
    g = ground_state_moments(SYS)
    assert g.shape == (5,)
    mean_q, mean_p, s_qq, s_pp, s_qp = g
    assert s_qq == 0.5 and s_pp == 0.5 and s_qp == 0.0
    _, _, s_qq, _, _ = thermal_state_moments(SYS, T=2.0)
    c = 1.0 / np.tanh(1.0 / 4.0)
    assert s_qq == pytest.approx(0.5 * c, rel=1e-12)
    mean_q, mean_p, s_qq, s_pp, s_qp = squeezed_state_moments(SYS, r=1.0,
                                                              mean_q=0.3)
    assert s_qq == pytest.approx(0.5 * np.exp(-2.0), rel=1e-12)
    assert s_pp == pytest.approx(0.5 * np.exp(2.0), rel=1e-12)
    assert mean_q == 0.3


def test_rs_uncertainty_values():
    assert rs_uncertainty(ground_state_moments(SYS)) == pytest.approx(0.0, abs=1e-15)
    assert rs_uncertainty(squeezed_state_moments(SYS, 0.7)) == pytest.approx(0.0, abs=1e-15)
    assert rs_uncertainty(thermal_state_moments(SYS, 3.0)) > 0.0


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_specs_reject_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="mass m"):
        SystemSpec(m=bad, omega_S=1.0)
    with pytest.raises(ValueError, match="omega_S"):
        SystemSpec(m=1.0, omega_S=bad)
    for variant in ("jz", "cl", "ccl"):
        with pytest.raises(ValueError, match="gamma"):
            MasterEquationSpec(variant=variant, system=SYS, gamma=bad, T=1.0)
        with pytest.raises(ValueError, match="temperature T"):
            MasterEquationSpec(variant=variant, system=SYS, gamma=0.1, T=bad)
    with pytest.raises(ValueError, match="finite mu"):
        MasterEquationSpec(variant="qp", system=SYS, gamma=0.1, T=1.0,
                           mu=bad)
    with pytest.raises(ValueError, match="temperature T"):
        thermal_state_moments(SYS, bad)
    # e^{2|r|} overflows a float beyond |r| = 354
    for r in (bad, 400.0, -400.0):
        with pytest.raises(ValueError, match="squeeze parameter r"):
            squeezed_state_moments(SYS, r)


# --------------------------------------------------------------- unitary

def test_unitary_rotation_of_means():
    spec = spec_for("jz", gamma=0.0, T=1.0)
    tr = integrate_moments(spec, STATE, (0.0, 1.7), 1e-3)
    t = tr.times
    q0, p0, _, _, _ = STATE
    mean_q, mean_p, _, _, _ = tr.data.T
    q_ref = q0 * np.cos(t) + p0 * np.sin(t)
    p_ref = -q0 * np.sin(t) + p0 * np.cos(t)
    assert np.max(np.abs(mean_q - q_ref)) < 1e-10
    assert np.max(np.abs(mean_p - p_ref)) < 1e-10


def test_unitary_energy_conservation():
    spec = spec_for("jz", gamma=0.0, T=1.0)
    tr = integrate_moments(spec, STATE, (0.0, 5.0), 1e-3)
    mean_q, mean_p, s_qq, s_pp, _ = tr.data.T
    energy = 0.5 * (s_pp + mean_p ** 2) + 0.5 * (s_qq + mean_q ** 2)
    assert np.max(np.abs(energy - energy[0])) < 1e-10


# ------------------------------------------------------------ JZ variant

def test_jz_heating_invariant_is_exactly_linear():
    spec = spec_for("jz", gamma=0.1, T=10.0)
    tr = integrate_moments(spec, STATE, (0.0, 3.0), 1e-3)
    _, _, s_qq, s_pp, _ = tr.data.T
    comb = s_pp + s_qq  # m^2 omega^2 = 1
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
    state = (0.5, -0.1, 0.4, 0.7, 0.1)
    tr = integrate_moments(spec, state, (0.0, 1.0), 1e-2)
    _, _, s_qq, s_pp, _ = tr.data.T
    comb = s_pp + (m * omega) ** 2 * s_qq
    expected = comb[0] + 4.0 * m * gamma * T * tr.times
    assert np.allclose(comb, expected, rtol=1e-9, atol=1e-9)


# ------------------------------------------------------------ CL variant

def test_cl_means_follow_damped_oscillator():
    gamma = 0.15
    spec = spec_for("cl", gamma=gamma, T=2.0)
    tr = integrate_moments(spec, STATE, (0.0, 8.0), 1e-3)
    t = tr.times
    w_t = np.sqrt(1.0 - gamma ** 2)
    q0, p0, _, _, _ = STATE
    q_ref = np.exp(-gamma * t) * (
        q0 * np.cos(w_t * t) + (p0 + gamma * q0) / w_t * np.sin(w_t * t))
    mean_q, _, _, _, _ = tr.data.T
    assert np.max(np.abs(mean_q - q_ref)) < 1e-8


def test_cl_mean_envelope_is_exactly_exponential():
    # A(t)^2 = e^{2 gamma t} [q^2 + ((dq/dt + gamma q)/w_t)^2] is conserved
    gamma = 0.05
    spec = spec_for("cl", gamma=gamma, T=2.0)
    tr = integrate_moments(spec, STATE, (0.0, 20.0), 1e-3)
    w_t = np.sqrt(1.0 - gamma ** 2)
    mean_q, mean_p, _, _, _ = tr.data.T
    qdot = mean_p  # m = 1
    amp2 = np.exp(2.0 * gamma * tr.times) * (
        mean_q ** 2 + ((qdot + gamma * mean_q) / w_t) ** 2)
    assert np.max(np.abs(amp2 - amp2[0])) < 1e-6 * amp2[0]


def test_cl_relaxes_to_classical_equipartition():
    gamma, T = 0.25, 5.0
    spec = spec_for("cl", gamma=gamma, T=T)
    tr = integrate_moments(spec, STATE, (0.0, 60.0), 1e-3, store_every=100)
    _, _, s_qq, s_pp, s_qp = tr.data[-1]
    assert s_pp == pytest.approx(T, rel=1e-6)  # m kB T
    assert s_qq == pytest.approx(T, rel=1e-6)  # kB T / m omega^2
    assert s_qp == pytest.approx(0.0, abs=1e-6)


# ----------------------------------------------------------- CCL variant

def test_ccl_differs_from_cl_only_in_position_diffusion():
    kw = dict(gamma=0.15, T=2.0)
    d_cl = moment_rhs(spec_for("cl", **kw), OFF_DIAGONAL)
    d_ccl = moment_rhs(spec_for("ccl", **kw), OFF_DIAGONAL)
    diff = d_ccl - d_cl
    expected_qq = 0.15 / (4.0 * 2.0)  # gamma hbar^2 / (4 m kB T)
    assert diff[2] == pytest.approx(expected_qq, rel=1e-12)
    assert np.all(diff[[0, 1, 3, 4]] == 0.0)


def test_ccl_steady_state_zeroes_the_flow():
    spec = spec_for("ccl", gamma=0.3, T=4.0)
    tr = integrate_moments(spec, STATE, (0.0, 80.0), 1e-3, store_every=1000)
    final = tr.data[-1]
    residual = moment_rhs(spec, final, tr.times[-1])
    assert np.max(np.abs(residual)) < 1e-8
    assert rs_uncertainty(final) > 0.0


# ------------------------------------------------------------ QP variant

def test_qp_rhs_offsets_against_jz():
    kw = dict(gamma=0.1, T=2.0)
    d_jz = moment_rhs(spec_for("jz", **kw), OFF_DIAGONAL)
    d_qp = moment_rhs(spec_for("qp", mu=0.3, **kw), OFF_DIAGONAL)
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
    d_hpz = moment_rhs(spec_for("hpz", coefficients=table), OFF_DIAGONAL,
                       0.5)
    d_cl = moment_rhs(spec_for("cl", gamma=gamma, T=T), OFF_DIAGONAL, 0.5)
    assert np.array_equal(d_hpz, d_cl)


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
        == "non-finite moments at t = 0.201"


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
    _, _, s_qq, _, _ = tr.data[-1]
    assert s_qq > 1e18  # what the warning is about


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


@pytest.mark.parametrize("t_span, start, rate", [
    ((0.0, 10.0), "0.03", "2.42"),
    ((5.001, 5.009), "5.001", "2.22"),
])
def test_unstable_warning_text_is_kept(hpz_audit_spec, t_span, start, rate):
    with pytest.warns(UnstableGeneratorWarning) as records:
        integrate_moments(hpz_audit_spec, STATE, t_span, 1e-3, 100)
    assert [str(r.message) for r in records] == [
        f"unstable generator: from t = {start} the friction matrix has an "
        f"eigenvalue with real part up to {rate}, so the moments grow "
        "exponentially"]


# ------------------------------------------- node-tabulated moment matrix

def _direct_moment_matrix(gen, t):
    """The moment matrix built from (G, a) at time t itself."""
    return QuadraticGenerator(*gen.at(t), gen.hbar).moment_matrix(0.0)


def test_table_moment_matrix_is_exact_at_the_nodes(hpz_audit_spec):
    gen = hpz_audit_spec.generator
    direct = np.stack([_direct_moment_matrix(gen, t) for t in gen.grid])
    assert np.array_equal(gen.moment_matrix(gen.grid), direct)


def test_table_moment_matrix_interpolates_between_nodes(hpz_audit_spec):
    gen = hpz_audit_spec.generator
    times = np.random.default_rng(3).uniform(0.0, 10.0, 200)
    got = gen.moment_matrix(times)
    for t, w in zip(times, got):
        ref = _direct_moment_matrix(gen, t)
        assert np.max(np.abs(w - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("t_span", [(0.0, 1.01), (0.999, 1.5)])
def test_runs_past_the_table_end_are_refused(t_span):
    table = delta_limit_coefficients(1.0, np.linspace(0.0, 1.0, 11))
    spec = spec_for("hpz", coefficients=table)
    with pytest.raises(ValueError, match="outside tabulated range"):
        integrate_moments(spec, STATE, t_span, 1e-3)
    t0, h, n_steps, _ = step_plan(t_span, 1e-3, 1)
    with pytest.raises(ValueError, match="outside tabulated range"):
        dynamics._step_maps(spec.generator, t0, h)(0, n_steps)
    # a run that ends on the last node, whatever its step, is not
    integrate_moments(spec, STATE, (0.1, 1.0), 9e-4)


# ---------------------------------------------------------- integrator api

def test_integrate_validations():
    spec = spec_for("cl", gamma=0.1, T=1.0)
    with pytest.raises(ValueError, match="t1 > t0"):
        integrate_moments(spec, STATE, (1.0, 1.0), 1e-3)
    with pytest.raises(ValueError, match="dt"):
        integrate_moments(spec, STATE, (0.0, 1.0), 0.0)
    with pytest.raises(ValueError, match="store_every"):
        integrate_moments(spec, STATE, (0.0, 1.0), 1e-3, store_every=0)
    bad = (0.0, 0.0, -0.5, 0.5, 0.0)
    with pytest.raises(ValueError, match="variances"):
        integrate_moments(spec, bad, (0.0, 1.0), 1e-3)


def test_a_state_is_five_moments():
    spec = spec_for("cl", gamma=0.1, T=1.0)
    for bad in (STATE[:4], (*STATE, 0.0), [STATE]):
        with pytest.raises(ValueError, match="five moments"):
            integrate_moments(spec, bad, (0.0, 1.0), 1e-3)
    # a non-finite state is bad input, not a numerical failure
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            integrate_moments(spec, (bad, *STATE[1:]), (0.0, 1.0), 1e-3)
    # the witness reads the last axis of any stack of MOMENTS rows
    rows = np.array([[STATE, OFF_DIAGONAL]] * 3)
    w = rs_uncertainty(rows)
    assert w.shape == (3, 2)
    assert np.array_equal(w, np.broadcast_to(
        [rs_uncertainty(STATE), rs_uncertainty(OFF_DIAGONAL)], (3, 2)))


def test_initial_uncertainty_violation_warns():
    spec = spec_for("cl", gamma=0.1, T=1.0)
    squeezed_too_far = (0.0, 0.0, 0.1, 0.1, 0.0)
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
    z = np.append(state0, 1.0)
    rows = [z[:5]]
    for i in range(n_steps):
        z = rk4(lambda s, y: w[2 * i + s] @ y, z, h)
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


@pytest.mark.parametrize("generator", ["ccl", "hpz_audit"])
def test_step_maps_are_rk4_on_the_identity(generator, hpz_audit_spec):
    gen = hpz_audit_spec.generator if generator == "hpz_audit" \
        else spec_for("ccl", gamma=0.1, T=2.0).generator
    t0, h, lo, hi = 0.0, 1e-3, 3, 40
    w = gen.moment_matrix(rk4_stage_times(t0, h, lo, hi))
    ref = rk4(lambda s, y: w[s:s + 2 * (hi - lo):2] @ y, np.eye(6), h)
    assert np.array_equal(dynamics._step_maps(gen, t0, h)(lo, hi), ref)


def test_step_map_blocks_reuse_one_workspace(hpz_audit_spec):
    # after the first block, a block allocates its stage times and
    # weights, not its (_MAP_BLOCK, 6, 6) RK4 temporaries
    n = dynamics._MAP_BLOCK
    maps = dynamics._step_maps(hpz_audit_spec.generator, 0.0, 1e-3)
    maps(0, n)
    tracemalloc.start()
    try:
        maps(n, 2 * n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * 6 * 6 * 8


def test_replays_leave_the_rest_of_a_block_alone(monkeypatch,
                                                 hpz_audit_spec):
    # a replay builds step maps again; the composites of its block not
    # yet used (one map each at store_every 1) must not change with them
    compose, spoiled = dynamics._compose, []

    def spoil_one(maps):
        out = compose(maps)
        if out.ndim == 3 and not spoiled:  # the first block's composites
            out[5] = np.nan
            spoiled.append(5)
        return out
    monkeypatch.setattr(dynamics, "_compose", spoil_one)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnstableGeneratorWarning)
        tr = integrate_moments(hpz_audit_spec, STATE, (0.0, 2.5), 1e-3, 1)
    assert spoiled
    _assert_close_per_column(
        tr.data, _step_by_step(hpz_audit_spec, STATE, (0.0, 2.5), 1e-3, 1))


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
    # of the tests' textbook RK4, to which `rk4_step` is held byte for byte
    h, y0 = 0.1, np.array([1.0, -0.4 + 0.2j])
    stages = []

    def f(s, y):
        stages.append(s)
        return lam * y

    z = lam * h
    expected = y0 * (1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24)
    assert np.allclose(rk4(f, y0, h), expected, rtol=1e-15, atol=0.0)
    assert stages == [0, 1, 1, 2]


def test_step_plan_reads_store_every_by_the_integer_rule():
    # an int or numpy integer, never a bool: True is not a count of 1
    for bad in (True, False, 1.0):
        with pytest.raises(ValueError, match="^store_every must be an "
                           "integer$"):
            step_plan((0.0, 1.0), 0.25, bad)
    for count in (2, np.int64(2), np.uint8(2)):
        assert step_plan((0.0, 1.0), 0.25, count)[3].tolist() == [0, 2, 4]


def test_step_plan_refuses_a_count_arange_miscounts():
    # np.arange(0, 2**63) returns an empty array instead of failing
    with pytest.raises(ValueError, match=r"9\.22e\+18 steps, more than"):
        step_plan((0.0, 1.0), 2.0 ** -63, 1)
