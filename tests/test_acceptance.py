"""End-to-end acceptance criteria for the quantum Brownian motion lab.

Each test exercises one headline property of the package at pinned
parameters and tolerances, records an `ACCEPTANCE n: PASS/FAIL` line,
and then asserts.  The whole module is designed to finish in a few
minutes on a laptop; the stochastic criterion dominates the budget.
"""

import time

import numpy as np

from qbmlab import io
from qbmlab.bath import (
    CorrelationKernel,
    PhysicalConstants,
    SpectralDensity,
    ThermalBathSpec,
    delta_limit_strength,
)
from qbmlab.coefficients import (
    OscillatorKernels,
    compute_coefficients,
    delta_limit_coefficients,
    dressed_kernel,
)
from qbmlab.dynamics import (
    MOMENTS,
    MasterEquationSpec,
    SystemSpec,
    ground_state_moments,
    integrate_moments,
    squeezed_state_moments,
)
from qbmlab.fock import fock_propagate
from qbmlab.positivity import audit_cp
from qbmlab.stochastic import (
    NoiseSpec,
    SSEConfig,
    empirical_noise_moments,
    ensemble_run,
    sample_colored_noise,
)

SYS = SystemSpec(m=1.0, omega_S=1.0)
SEED = 20260814


def test_acceptance_01_delta_limit_reduction(acceptance_report):
    """A nascent-delta noise kernel reproduces the white-noise generator."""
    t_start = time.perf_counter()
    m, gamma, T = 1.0, 0.5, 2.0
    strength = 4.0 * m * gamma * T          # hbar = k_B = 1
    width = 0.01                            # in units of 1 / omega_S
    grid = np.linspace(0.0, 0.1, 2001)
    re = strength * np.exp(-0.5 * (grid / width) ** 2) \
        / (width * np.sqrt(2.0 * np.pi))
    kernel = CorrelationKernel.from_samples(grid, re, np.zeros_like(grid))
    kernels = OscillatorKernels(SYS.omega_S)
    table = compute_coefficients(dressed_kernel(kernel, kernels, 1), kernels)

    late = table.grid > 5.0 * width
    gamma_late = table.Gamma[late]
    target = -0.5 * strength                # -2 m gamma kB T
    gamma_dev = float(np.max(np.abs(gamma_late / target - 1.0)))
    cross = max(float(np.max(np.abs(table.Theta[late] / gamma_late))),
                float(np.max(np.abs(table.Xi[late] / gamma_late))),
                float(np.max(np.abs(table.Upsilon[late] / gamma_late))))
    runtime = time.perf_counter() - t_start

    ok = gamma_dev < 0.02 and cross < 0.02 and runtime < 10.0
    assert acceptance_report(
        1, ok, f"Gamma dev {gamma_dev:.2e}, cross terms {cross:.2e} "
               f"of |Gamma|, {runtime:.1f} s")


def test_acceptance_02_always_negative_eigenvalue(acceptance_report):
    """Exact-generator Kossakowski matrices stay non-positive over time."""
    t_start = time.perf_counter()
    kernels = OscillatorKernels(1.0)
    worst_over_norm = -np.inf
    verdicts = []
    for T, Omega in ((1.0, 10.0), (10.0, 50.0), (100.0, 100.0)):
        bath = ThermalBathSpec(SpectralDensity(1.0, 0.1, Omega), T=T)
        grid = np.linspace(0.0, 10.0, 401)
        kernel = CorrelationKernel.from_bath(bath, grid)
        table = compute_coefficients(dressed_kernel(kernel, kernels, 1),
                                     kernels)
        window = table.grid[table.grid >= 0.05]
        report = audit_cp(table, t_grid=window)
        verdicts.append(report.verdict)
        worst_over_norm = max(worst_over_norm,
                              float(np.max(report.lambda_min / report.norm)))
    runtime = time.perf_counter() - t_start

    ok = (all(v == "NotCP" for v in verdicts)
          and worst_over_norm < -1e-12 and runtime < 60.0)
    assert acceptance_report(
        2, ok, f"least-negative eig/norm {worst_over_norm:.2e}, "
               f"{runtime:.1f} s for 3 baths")


def test_acceptance_03_kossakowski_determinants(acceptance_report):
    """det(a_CL) = -gamma^2/hbar^2 and det(a_CCL) = 0, all parameters."""
    rng = np.random.default_rng(SEED)
    worst_cl = worst_ccl = 0.0
    for _ in range(20):
        m = rng.uniform(0.1, 5.0)
        gamma = rng.uniform(1e-3, 2.0)
        T = rng.uniform(0.1, 50.0)
        hbar = rng.choice([0.5, 1.0, 2.0])
        constants = PhysicalConstants(hbar=float(hbar))
        cl, ccl = (audit_cp(MasterEquationSpec(
            v, SystemSpec(m=m, omega_S=1.0), constants=constants,
            gamma=gamma, T=T).generator) for v in ("cl", "ccl"))
        target = -(gamma / hbar) ** 2
        worst_cl = max(worst_cl, abs(cl.det[0] / target - 1.0))
        worst_ccl = max(worst_ccl, abs(ccl.det[0]) / ccl.norm[0] ** 2)
    ok = worst_cl < 1e-12 and worst_ccl < 1e-12
    assert acceptance_report(
        3, ok, f"CL det rel dev {worst_cl:.1e}, "
               f"CCL |det|/norm^2 {worst_ccl:.1e} over 20 draws")


def test_acceptance_04_damping_dichotomy(acceptance_report):
    """CCL means damp at rate gamma; JZ and QP means never damp."""
    gamma = 0.05
    span = (0.0, 5.0 / gamma)
    state0 = ground_state_moments(SYS, mean_q=1.0)

    ccl = integrate_moments(MasterEquationSpec("ccl", SYS, gamma=gamma,
                                               T=2.0),
                            state0, span, 1e-3, store_every=100)
    omega_t = np.sqrt(1.0 - gamma ** 2)
    mean_q, mean_p, _, _, _ = ccl.data.T
    amp2 = np.exp(2.0 * gamma * ccl.times) * (
        mean_q ** 2 + ((mean_p + gamma * mean_q) / omega_t) ** 2)
    envelope_dev = float(np.max(np.abs(amp2 / amp2[0] - 1.0)))

    jz = integrate_moments(MasterEquationSpec("jz", SYS, gamma=gamma, T=2.0),
                           state0, span, 1e-3, store_every=100)
    jz_q, jz_p, _, _, _ = jz.data.T
    amp_jz = jz_q ** 2 + jz_p ** 2
    jz_dev = float(np.max(np.abs(amp_jz - amp_jz[0])))

    qp = integrate_moments(MasterEquationSpec("qp", SYS, gamma=gamma, T=2.0,
                                              mu=0.3),
                           state0, span, 1e-3, store_every=100)
    qp_q, qp_p, _, _, _ = qp.data.T
    qp_dev = max(float(np.max(np.abs(qp_q - jz_q))),
                 float(np.max(np.abs(qp_p - jz_p))))

    ok = envelope_dev < 0.01 and jz_dev < 1e-8 and qp_dev < 1e-10
    assert acceptance_report(
        4, ok, f"CCL envelope dev {envelope_dev:.1e}, JZ amplitude dev "
               f"{jz_dev:.1e}, QP-JZ mean dev {qp_dev:.1e}")


def test_acceptance_05_momentum_diffusion_rate(acceptance_report):
    """sigma_pp grows at 4 m gamma kB T, confirmed by the Fock oracle."""
    m, gamma, T = 1.0, 0.1, 2.0
    rate = 4.0 * m * gamma * T
    spec = MasterEquationSpec("jz", SYS, gamma=gamma, T=T)
    state0 = ground_state_moments(SYS)

    short = integrate_moments(spec, state0, (0.0, 0.05), 1e-4)
    _, _, _, s_pp, _ = short.data.T
    slope = (s_pp[-1] - s_pp[0]) / 0.05
    slope_dev = abs(slope / rate - 1.0)

    ode = integrate_moments(spec, state0, (0.0, 2.0), 1e-3, store_every=200)
    rho0 = np.zeros((40, 40), dtype=complex)
    rho0[0, 0] = 1.0
    fock = fock_propagate(spec, rho0, (0.0, 2.0), 1e-3, store_every=200)
    leak_free = fock.top_population < 1e-6
    _, _, _, fock_s_pp, _ = fock.data.T
    _, _, _, ode_s_pp, _ = ode.data.T
    fock_dev = float(np.max(np.abs(
        fock_s_pp[leak_free] / ode_s_pp[leak_free] - 1.0)))

    ok = slope_dev < 0.005 and fock_dev < 0.005 and bool(np.all(leak_free))
    assert acceptance_report(
        5, ok, f"slope dev {slope_dev:.2e}, Fock dim-40 dev {fock_dev:.2e} "
               f"with truncation leakage below 1e-6 throughout")


def test_acceptance_06_positivity_violation_detection(acceptance_report):
    """CL breaks the uncertainty relation for cold squeezed states; CCL
    does not."""
    r = 0.5 * np.log(100.0)                 # 20 dB position squeezing
    state0 = squeezed_state_moments(SYS, r)
    gamma, T = 0.05, 1.0                    # T = hbar omega_S / k_B

    cl = integrate_moments(MasterEquationSpec("cl", SYS, gamma=gamma, T=T),
                           state0, (0.0, 1.0 / gamma), 1e-3, store_every=20)
    ccl = integrate_moments(MasterEquationSpec("ccl", SYS, gamma=gamma, T=T),
                            state0, (0.0, 1.0 / gamma), 1e-3, store_every=20)
    w_cl = cl.rs_witness()
    w_ccl = ccl.rs_witness()
    # -1e-12 keeps rounding noise of the minimum-uncertainty start from
    # registering as a violation at t = 0
    violated = w_cl < -1e-12
    t_violation = float(cl.times[np.argmax(violated)]) \
        if np.any(violated) else np.inf

    ok = (np.any(violated) and t_violation < 1.0 / gamma
          and bool(np.all(w_ccl >= -1e-10)))
    assert acceptance_report(
        6, ok, f"CL witness min {w_cl.min():.2e} at t = {t_violation:.2f}; "
               f"CCL witness min {w_ccl.min():.2e}")


def test_acceptance_07_sse_unraveling(acceptance_report):
    """10^4 linear-unraveling trajectories track the CCL moment ODEs,
    for two choices of the free relation matrix S."""
    t_start = time.perf_counter()
    gamma, T = 0.02, 2.0
    d_scalar = 4.0 * gamma * T
    state0 = ground_state_moments(SYS, mean_q=0.5)
    ode = integrate_moments(MasterEquationSpec("ccl", SYS, gamma=gamma, T=T),
                            state0, (0.0, 10.0), 1e-3, store_every=1000)

    worst = {}
    clean = True
    for label, s_scalar in (("S=0", 0.0), ("S=D/2", 0.5 * d_scalar)):
        config = SSEConfig(MasterEquationSpec("ccl", SYS, gamma=gamma, T=T),
                           dt=1e-3, n_traj=10_000, seed=SEED,
                           t_span=(0.0, 10.0), S_scalar=s_scalar,
                           store_every=1000)
        result = ensemble_run(config, state0)
        clean = clean and not result.failed_trajectories
        table = result.moment_table()
        z_max = 0.0
        for name, ref in zip(MOMENTS, ode.data.T):
            z = np.abs(table[name][1:] - ref[1:]) \
                / np.maximum(table["se_" + name][1:], 1e-12)
            z_max = max(z_max, float(np.max(z)))
        worst[label] = z_max
    runtime = time.perf_counter() - t_start

    ok = (max(worst.values()) < 3.0 and runtime < 300.0 and clean)
    assert acceptance_report(
        7, ok, "max |z| " + ", ".join(f"{k}: {v:.2f}"
                                      for k, v in worst.items())
               + f" over 5 moments x 10 times, {runtime:.0f} s")


def test_acceptance_08_colored_noise_statistics(acceptance_report):
    """10^5 sampled paths reproduce the tabulated kernel moments."""
    bath = ThermalBathSpec(SpectralDensity(1.0, 0.5, 5.0), T=2.0)
    grid = np.linspace(0.0, 3.0, 64)
    kernel = CorrelationKernel.from_bath(bath, grid)
    spec = NoiseSpec.from_kernel(kernel, grid)
    samples = sample_colored_noise(spec, 100_000,
                                   np.random.default_rng(SEED))
    est = empirical_noise_moments(samples)
    floor = 1e-12
    z_d = max(
        float(np.max(np.abs((est.D - spec.D).real)
                     / np.maximum(est.se_D_re, floor))),
        float(np.max(np.abs((est.D - spec.D).imag)
                     / np.maximum(est.se_D_im, floor))))
    z_s = max(
        float(np.max(np.abs(est.S.real) / np.maximum(est.se_S_re, floor))),
        float(np.max(np.abs(est.S.imag) / np.maximum(est.se_S_im, floor))))
    ok = z_d < 5.0 and z_s < 5.0
    assert acceptance_report(
        8, ok, f"worst D entry {z_d:.2f} se, worst S entry {z_s:.2f} se, "
               f"64x64 grid, 1e5 samples")


def test_acceptance_09_dressed_kernel_scaling(acceptance_report):
    """The order-2 correction shrinks quadratically with the coupling."""
    bath = ThermalBathSpec(SpectralDensity(1.0, 0.1, 20.0), T=10.0)
    grid = np.linspace(0.0, 2.0, 32)
    base = CorrelationKernel.from_bath(bath, grid)
    kernels = OscillatorKernels(1.0)

    def correction(kernel):
        dressed = dressed_kernel(kernel, kernels, 2, m=1.0)
        bare = np.array([kernel.at(g - grid) for g in grid])
        return float(np.max(np.abs(dressed.values - bare))
                     / np.max(np.abs(bare)))

    full = correction(base)
    half = correction(base.scaled(0.25))    # coupling c -> c/2, J ~ c^2
    factor = full / half
    ok = 0.8 * 4.0 <= factor <= 1.2 * 4.0
    assert acceptance_report(
        9, ok, f"correction ratio {factor:.3f} (target 4 +- 20%)")


def test_acceptance_10_exact_reduction_via_csv(acceptance_report, tmp_path):
    """HPZ propagation with the delta-limit table equals JZ, through the
    CSV artifacts and the comparison tool."""
    gamma, T = 0.1, 2.0
    bath = ThermalBathSpec(SpectralDensity(1.0, gamma, 40.0), T=T)
    strength = delta_limit_strength(bath)
    table = delta_limit_coefficients(strength, np.linspace(0.0, 5.0, 501))
    state0 = ground_state_moments(SYS, mean_q=1.0)

    hpz = integrate_moments(MasterEquationSpec("hpz", SYS,
                                               coefficients=table),
                            state0, (0.0, 5.0), 1e-3, store_every=50)
    jz = integrate_moments(MasterEquationSpec("jz", SYS, gamma=gamma, T=T),
                           state0, (0.0, 5.0), 1e-3, store_every=50)
    path_hpz = tmp_path / "hpz_delta_moments.csv"
    path_jz = tmp_path / "jz_moments.csv"
    io.write_csv(path_hpz, io.moment_table(hpz))
    io.write_csv(path_jz, io.moment_table(jz))

    report = io.compare_runs(path_hpz, path_jz, atol=1e-8)
    worst = max(c.max_abs for c in report.columns)
    ok = report.passed
    assert acceptance_report(
        10, ok, f"max column deviation {worst:.1e} at atol 1e-8")


def test_constant_kossakowski_signs():
    """Sanity companion to criterion 3: the CL matrix is indefinite."""
    cl = MasterEquationSpec("cl", SYS, gamma=0.1, T=2.0).generator
    assert audit_cp(cl).lambda_min[0] < 0.0
