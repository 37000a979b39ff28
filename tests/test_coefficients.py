"""Generator coefficients and the dressed-kernel recursion.

Long-time limits used below (sharp cutoff, omega_S well inside the
cutoff) follow from half-range Fourier transforms of the kernel:

    Gamma   -> -m gamma hbar omega_S coth(hbar omega_S / 2 kB T)
    Upsilon -> -m gamma hbar
    Xi      -> (2 m gamma hbar / pi) (Omega + (omega_S/2) ln((Omega-omega_S)/(Omega+omega_S)))
    Theta   -> O(omega_S / Omega), small

Tails oscillate at the cutoff frequency, so comparisons average over the
last fifth of the window.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbmlab import coefficients
from qbmlab.bath import (
    CorrelationKernel,
    SpectralDensity,
    ThermalBathSpec,
    high_temperature_closed_form,
    im_closed_form,
    interp_table,
)
from qbmlab.coefficients import (
    DressedKernel,
    HPZCoefficients,
    OscillatorKernels,
    compute_coefficients,
    delta_limit_coefficients,
    dressed_kernel,
)
from qbmlab.dynamics import MasterEquationSpec, SystemSpec


def synthetic_kernel(grid, scale=1.0):
    """Smooth decaying kernel with odd imaginary part, for algebra tests."""
    re = scale * np.exp(-grid) * np.cos(2.0 * grid)
    im = -0.5 * scale * np.sin(1.5 * grid)
    return CorrelationKernel.from_samples(grid, re, im)


def steep_kernel(n):
    """The benchmark's dressing kernel: sharp cutoff, high temperature."""
    bath = ThermalBathSpec(SpectralDensity(1.0, 0.01, 20.0), T=230.0)
    grid = np.linspace(0.0, 10.0, n)
    return CorrelationKernel.from_samples(
        grid, high_temperature_closed_form(bath, grid),
        im_closed_form(bath, grid))


# --------------------------------------------------------- free kernels

def test_oscillator_kernels_values():
    k = OscillatorKernels(2.0)
    assert k.c(0.0) == 1.0
    assert k.c(0.7) == pytest.approx(np.cos(1.4), rel=1e-14)
    assert k.c_tilde(0.7) == pytest.approx(np.sin(1.4) / 2.0, rel=1e-12)


def test_oscillator_kernels_free_particle_limit():
    k = OscillatorKernels(0.0)
    assert k.c(5.0) == 1.0
    assert k.c_tilde(5.0) == 5.0
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="omega_S must be finite"):
            OscillatorKernels(bad)


# --------------------------------------------------- dressed kernel basics

def test_order_one_is_the_bare_kernel():
    grid = np.linspace(0.0, 3.0, 31)
    base = synthetic_kernel(grid)
    d = dressed_kernel(base, OscillatorKernels(1.0), 1)
    assert d.table is None
    lag = grid[:, None] - grid[None, :]
    expected = np.interp(np.abs(lag), grid, base.re_values) \
        + 1j * np.sign(lag) * np.interp(np.abs(lag), grid, base.im_values)
    assert np.allclose(d.values, expected)


def test_zero_kernel_stays_zero_at_any_order():
    grid = np.linspace(0.0, 2.0, 21)
    z = CorrelationKernel.from_samples(grid, np.zeros(21), np.zeros(21))
    d = dressed_kernel(z, OscillatorKernels(0.7), 3)
    assert np.max(np.abs(d.values)) == 0.0


def test_order_validation():
    grid = np.linspace(0.0, 1.0, 11)
    base = synthetic_kernel(grid)
    k = OscillatorKernels(1.0)
    with pytest.raises(ValueError):
        dressed_kernel(base, k, 0)
    with pytest.raises(ValueError, match="exceeds 3"):
        dressed_kernel(base, k, 4)
    # a count is an int or numpy integer, never a bool or a float
    for bad in (True, 2.0, np.float64(2.0)):
        with pytest.raises(ValueError,
                           match="^order must be a positive integer$"):
            dressed_kernel(base, k, bad)
    assert np.array_equal(dressed_kernel(base, k, np.int64(2)).values,
                          dressed_kernel(base, k, 2).values)


def test_second_order_correction_scales_quadratically():
    # exact property of the recursion, independent of grid resolution
    grid = np.linspace(0.0, 3.0, 61)
    base = synthetic_kernel(grid)
    half = synthetic_kernel(grid, scale=0.5)
    k = OscillatorKernels(1.3)
    corr = dressed_kernel(base, k, 2, m=0.9).values \
        - dressed_kernel(base, k, 1).values
    corr_half = dressed_kernel(half, k, 2, m=0.9).values \
        - dressed_kernel(half, k, 1).values
    assert np.max(np.abs(corr_half - 0.25 * corr)) <= 1e-12 * np.max(np.abs(corr))


def test_third_order_correction_scales_cubically():
    grid = np.linspace(0.0, 3.0, 41)
    base = synthetic_kernel(grid)
    half = synthetic_kernel(grid, scale=0.5)
    k = OscillatorKernels(1.3)
    c3 = dressed_kernel(base, k, 3).values - dressed_kernel(base, k, 2).values
    c3_half = dressed_kernel(half, k, 3).values \
        - dressed_kernel(half, k, 2).values
    assert np.max(np.abs(c3_half - 0.125 * c3)) <= 1e-12 * np.max(np.abs(c3))


def test_second_order_correction_quadratic_on_steep_kernel():
    # as the benchmark checks it: the order-1 table is subtracted through
    # `values`, which must share the dressing's bare table bit for bit
    # for the bare parts to cancel exactly
    base = steep_kernel(201)
    quarter = base.scaled(0.25)
    k = OscillatorKernels(1.0)
    corr = dressed_kernel(base, k, 2).table - dressed_kernel(base, k, 1).values
    corr_q = dressed_kernel(quarter, k, 2).table \
        - dressed_kernel(quarter, k, 1).values
    assert np.max(np.abs(corr_q - 0.0625 * corr)) \
        <= 1e-14 * np.max(np.abs(corr))


def test_lag_table_reads_the_node_samples():
    base = steep_kernel(1001)
    table = base.lag_table()
    i, j = np.indices(table.shape)
    lag = np.abs(i - j)
    assert np.array_equal(table.real, base.re_values[lag])
    assert np.array_equal(table.imag, np.sign(i - j) * base.im_values[lag])
    assert np.array_equal(table, table.conj().T)
    # R + i(L - L^T) from the two real factors, L zero above the diagonal
    re_d, lo = base.lag_factors()
    assert np.array_equal(re_d, base.re_values[lag])
    assert np.array_equal(lo, (i >= j) * base.im_values[lag])
    assert np.all(np.triu(lo, 1) == 0.0)
    assert table.real.tobytes() == re_d.tobytes()
    assert table.imag.tobytes() == (lo - lo.T).tobytes()
    assert np.array_equal(dressed_kernel(base, OscillatorKernels(1.0),
                                         1).values, table)
    # t_i - t_j rounds off node i - j, so interpolation moves by the slope
    grid = base.grid
    interpolated = base.at(grid[:, None] - grid[None, :])
    assert np.max(np.abs(table - interpolated)) \
        <= 1e-13 * np.max(np.abs(table))


def test_second_order_grid_refinement_is_second_order():
    # against a fine reference, errors from N and 2N-1 nodes should sit
    # close to the Richardson ratio (16 - 1) / (4 - 1) = 5
    k = OscillatorKernels(1.3)
    rows = {}
    for n in (31, 61, 121):
        grid = np.linspace(0.0, 3.0, n)
        d = dressed_kernel(synthetic_kernel(grid), k, 2, m=0.9)
        rows[n] = d.values[-1, ::(n - 1) // 30]
    e_coarse = np.max(np.abs(rows[31] - rows[121]))
    e_fine = np.max(np.abs(rows[61] - rows[121]))
    assert 3.5 < e_coarse / e_fine < 6.5


def reference_dressing(base, omega_S, order, m, hbar=1.0):
    """The recursion of the `coefficients` docstring, one row at a time.

    D^(n)(t, s) = int_0^t dt' int_0^t ds' c(t', s')
                  [Dbar(t', s) D^(n-1)(t, s') + D(t', s) conj(D^(n-1)(t, s'))]
    with every integral an explicit np.trapezoid over the nodes in [0, t].
    """
    grid = base.grid
    lag = grid[:, None] - grid[None, :]
    d = base.at(lag)                # D(t' - s)
    d_bar = base.at(np.abs(lag))    # D(|t' - s|)
    # c(t', s') = (i / hbar m) sin(omega_S (s' - t')) / omega_S for t' > s',
    # (i / hbar m) (s' - t') at omega_S = 0
    k = 1j / (hbar * m)
    c = np.where(lag > 0.0, k * (np.sin(-omega_S * lag) / omega_S
                                 if omega_S else -lag), 0.0)
    total, prev = d.copy(), d
    for n in range(2, order + 1):
        cur = np.zeros_like(d)
        for i in range(1, grid.size):
            t = grid[:i + 1]
            inner = np.trapezoid(c[:i + 1, :i + 1] * prev[i, :i + 1], t,
                                 axis=1)
            inner_c = np.trapezoid(c[:i + 1, :i + 1]
                                   * np.conj(prev[i, :i + 1]), t, axis=1)
            cur[i] = np.trapezoid(inner[:, None] * d_bar[:i + 1]
                                  + inner_c[:, None] * d[:i + 1], t, axis=0)
        total = total + (-1) ** (n - 1) * cur
        prev = cur
    return total


@pytest.mark.parametrize("n, hbar", [pytest.param(21, 1.0, id="21"),
                                     pytest.param(41, 1.0, id="41"),
                                     pytest.param(21, 2.0, id="21-hbar2")])
@pytest.mark.parametrize("order", [2, 3])
def test_dressing_matches_row_by_row_reference(n, hbar, order):
    grid = np.linspace(0.0, 3.0, n)
    base = synthetic_kernel(grid)
    table = dressed_kernel(base, OscillatorKernels(1.3), order, m=0.9,
                           hbar=hbar).table
    ref = reference_dressing(base, 1.3, order, 0.9, hbar)
    bare = base.at(grid[:, None] - grid[None, :])
    # the correction alone, so the bare kernel cannot hide an error
    assert np.max(np.abs(table - ref)) \
        <= 1e-13 * np.max(np.abs(ref - bare))


@pytest.mark.parametrize("omega_S,t_max", [(0.0, 3.0), (0.0, 10.0),
                                           (1.3, 10.0)])
@pytest.mark.parametrize("order", [2, 3])
def test_dressing_matches_reference_at_zero_frequency_and_long_times(
        omega_S, t_max, order):
    # the response kernel is split as C~(t_k) C(t_j) - C(t_k) C~(t_j); at
    # omega_S = 0 that is t_k - t_j, and at t_max = 10 its two terms are
    # large against their difference near the diagonal
    grid = np.linspace(0.0, t_max, 61)
    base = synthetic_kernel(grid)
    table = dressed_kernel(base, OscillatorKernels(omega_S), order,
                           m=0.9).table
    ref = reference_dressing(base, omega_S, order, 0.9)
    bare = base.at(grid[:, None] - grid[None, :])
    assert np.max(np.abs(table - ref)) \
        <= 1e-13 * np.max(np.abs(ref - bare))


def test_row_blocks_join_seamlessly(monkeypatch):
    # blocks of 8 rows split the 41-node grid unevenly
    grid = np.linspace(0.0, 3.0, 41)
    base = synthetic_kernel(grid)
    k = OscillatorKernels(1.3)
    whole = dressed_kernel(base, k, 3, m=0.9)
    whole_co = compute_coefficients(whole, k)
    monkeypatch.setattr(coefficients, "_ROW_BLOCK", 8)
    blocked = dressed_kernel(base, k, 3, m=0.9)
    blocked_co = compute_coefficients(blocked, k)
    scale = np.max(np.abs(whole.table))
    assert np.max(np.abs(blocked.table - whole.table)) <= 1e-14 * scale
    for name in ("Gamma", "Theta", "Xi", "Upsilon"):
        col = getattr(whole_co, name)
        assert np.max(np.abs(getattr(blocked_co, name) - col)) \
            <= 1e-14 * np.max(np.abs(col))


def whole_table_dressing(base, kernels, order, m=1.0, hbar=1.0):
    """The dressing order by order over whole tables: every order a full
    (N, N) table, built from copies R, L and V of the real part and the
    imaginary part below and above the diagonal of the complex
    `lag_table`, then added to the total."""
    prev = base.lag_table()
    re_d, lo, up = prev.real.copy(), np.tril(prev.imag), np.triu(prev.imag, 1)
    grid, h = base.grid, base.spacing
    cos_t, sin_t = kernels.c(grid), kernels.c_tilde(grid)
    k = 2.0 / (hbar * m)
    total = prev.copy()
    for _ in range(2, order + 1):
        cur = np.zeros_like(total)
        for start in range(0, grid.size, coefficients._ROW_BLOCK):
            stop = min(start + coefficients._ROW_BLOCK, grid.size)
            w = coefficients._trapezoid_weights(start, stop, h)
            x = w * prev[start:stop, :stop]
            cs, cc = (coefficients._exclusive_cumsum(x * f[:stop],
                                                     np.empty_like(x))
                      for f in (sin_t, cos_t))
            u = cos_t[:stop] * cs - sin_t[:stop] * cc
            p, q = w * u.real, w * u.imag
            cur.real[start:stop, :stop] = k * (p @ lo[:stop, :stop])
            cur.imag[start:stop] = -k * (p @ re_d[:stop] + q @ up[:stop])
        total += cur
        prev = cur
    return total


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("omega_S, hbar", [
    pytest.param(0.0, 1.0, id="0.0"), pytest.param(1.0, 1.0, id="1.0"),
    pytest.param(1.0, 2.0, id="1.0-hbar2")])
def test_row_blocks_through_every_order_match_whole_tables(order, omega_S,
                                                           hbar):
    # 201 rows leave a ragged last block of 73
    base = steep_kernel(201)
    k = OscillatorKernels(omega_S)
    table = dressed_kernel(base, k, order, m=0.9, hbar=hbar).table
    assert table.tobytes() == whole_table_dressing(base, k, order, m=0.9,
                                                   hbar=hbar).tobytes()


def test_first_row_of_higher_order_table_vanishes():
    # at t = 0 all memory integrals are empty
    grid = np.linspace(0.0, 2.0, 21)
    d = dressed_kernel(synthetic_kernel(grid), OscillatorKernels(1.0), 2)
    base_row = synthetic_kernel(grid).at(grid[0] - grid)
    assert np.allclose(d.table[0], base_row)


def test_order_three_dressing_holds_few_tables():
    # live at once: the table and the real factors R and L (half a
    # complex table each), plus one row block's workspace, which is small
    # next to a table at n = 1001; a whole-table order (the last one or
    # the one being built), a V copy of L^T, or a kept lag matrix lifts
    # the n = 1001 peak above its bound
    k = OscillatorKernels(1.3)
    for n, tables in ((301, 5), (1001, 3)):
        base = synthetic_kernel(np.linspace(0.0, 3.0, n))
        dressed_kernel(base, k, 3)
        tracemalloc.start()
        try:
            dressed_kernel(base, k, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= tables * n * n * 16, n


# ------------------------------------------------------- coefficient sums

@pytest.fixture(scope="module")
def cl_regime_coefficients():
    bath = ThermalBathSpec(SpectralDensity(1.0, 0.1, 20.0), T=10.0)
    grid = np.linspace(0.0, 10.0, 385)  # ~12 nodes per cutoff period
    kernel = CorrelationKernel.from_bath(bath, grid)
    k = OscillatorKernels(1.0)
    return compute_coefficients(dressed_kernel(kernel, k, 1), k)


def test_gamma_long_time_limit(cl_regime_coefficients):
    co = cl_regime_coefficients
    tail = co.Gamma[np.searchsorted(co.grid, 8.0):].mean()
    limit = -1.0 * 0.1 * 1.0 / np.tanh(1.0 / 20.0)
    assert tail == pytest.approx(limit, rel=1e-3)


def test_upsilon_long_time_limit(cl_regime_coefficients):
    co = cl_regime_coefficients
    tail = co.Upsilon[np.searchsorted(co.grid, 8.0):].mean()
    assert tail == pytest.approx(-0.1, rel=1e-2)


def test_xi_long_time_limit(cl_regime_coefficients):
    co = cl_regime_coefficients
    tail = co.Xi[np.searchsorted(co.grid, 8.0):].mean()
    limit = (0.2 / np.pi) * (20.0 + 0.5 * np.log(19.0 / 21.0))
    assert tail == pytest.approx(limit, rel=3e-2)


def test_theta_stays_small(cl_regime_coefficients):
    co = cl_regime_coefficients
    tail = np.abs(co.Theta[np.searchsorted(co.grid, 8.0):]).mean()
    assert tail < 0.1  # |Theta| / |Gamma| a few percent at Omega/omega_S = 20


def test_coefficients_vanish_at_origin(cl_regime_coefficients):
    co = cl_regime_coefficients
    assert co.Gamma[0] == 0.0 and co.Theta[0] == 0.0
    assert co.Xi[0] == 0.0 and co.Upsilon[0] == 0.0


def test_stationary_and_general_paths_agree():
    grid = np.linspace(0.0, 3.0, 61)
    base = synthetic_kernel(grid)
    k = OscillatorKernels(1.3)
    d1 = dressed_kernel(base, k, 1)
    materialized = DressedKernel(base=base, order=1, grid=grid,
                                 table=d1.values)
    fast = compute_coefficients(d1, k)
    slow = compute_coefficients(materialized, k)
    for name in ("Gamma", "Theta", "Xi", "Upsilon"):
        assert np.allclose(getattr(fast, name), getattr(slow, name),
                           rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("omega_S", [0.0, 1.3, 5.0])
def test_table_windowing_matches_trapezoid_reference(omega_S):
    # the general branch splits C(t - s) and C~(t - s) by the addition
    # formulas, whose terms are large against their sum at omega_S t = 50
    grid = np.linspace(0.0, 10.0, 201)
    k = OscillatorKernels(omega_S)
    dressed = dressed_kernel(synthetic_kernel(grid), k, 2, m=0.9)
    co = compute_coefficients(dressed, k)
    ref = np.zeros((4, grid.size))
    for i in range(1, grid.size):
        dd, lag = dressed.table[i, :i + 1], grid[i] - grid[:i + 1]
        ref[:, i] = [np.trapezoid(sign * part * w(lag), grid[:i + 1])
                     for sign, part, w in ((-1, dd.real, k.c),
                                           (1, dd.real, k.c_tilde),
                                           (-1, dd.imag, k.c),
                                           (1, dd.imag, k.c_tilde))]
    for name, col in zip(("Gamma", "Theta", "Xi", "Upsilon"), ref):
        assert np.max(np.abs(getattr(co, name) - col)) \
            <= 1e-13 * np.max(np.abs(col))


@given(lam=st.floats(0.1, 3.0))
@settings(max_examples=10)
def test_order_one_coefficients_linear_in_kernel(lam):
    grid = np.linspace(0.0, 2.0, 41)
    base = synthetic_kernel(grid)
    k = OscillatorKernels(0.8)
    a = compute_coefficients(dressed_kernel(base, k, 1), k)
    b = compute_coefficients(dressed_kernel(base.scaled(lam), k, 1), k)
    for name in ("Gamma", "Theta", "Xi", "Upsilon"):
        assert np.allclose(getattr(b, name), lam * getattr(a, name),
                           rtol=1e-12, atol=1e-14)


# ------------------------------------------------- nascent delta kernels

def test_narrow_gaussian_kernel_approaches_delta_coefficients():
    strength = 4.0 * 1.0 * 0.1 * 10.0  # 4 m gamma kB T
    width = 0.01
    grid = np.linspace(0.0, 0.1, 2001)
    re = strength * np.exp(-0.5 * (grid / width) ** 2) \
        / (width * np.sqrt(2.0 * np.pi))
    kernel = CorrelationKernel.from_samples(grid, re, np.zeros_like(grid))
    k = OscillatorKernels(1.0)
    co = compute_coefficients(dressed_kernel(kernel, k, 1), k)
    gamma_end, theta_end, xi_end, upsilon_end = interp_table(
        co.grid, 0.1, (co.Gamma, co.Theta, co.Xi, co.Upsilon))
    assert gamma_end == pytest.approx(-strength / 2.0, rel=1e-3)
    assert abs(theta_end) < 0.02 * abs(gamma_end)
    assert xi_end == 0.0 and upsilon_end == 0.0


def test_delta_limit_coefficients_table():
    t = np.linspace(0.0, 5.0, 11)
    co = delta_limit_coefficients(3.0, t)
    assert np.all(co.Gamma == -1.5)
    assert co.Gamma[0] == -1.5  # constant from t = 0, no ramp-up
    assert np.all(co.Theta == 0.0) and np.all(co.Xi == 0.0)
    assert np.all(co.Upsilon == 0.0)
    with pytest.raises(ValueError):
        delta_limit_coefficients(-1.0, t)


def test_coefficient_table_validation_and_interp():
    t = np.linspace(0.0, 1.0, 11)
    co = HPZCoefficients(grid=t, Gamma=t ** 2, Theta=0 * t, Xi=0 * t,
                         Upsilon=0 * t)
    (g,) = interp_table(co.grid, 0.55, [co.Gamma])
    assert g == pytest.approx(0.5 * (0.25 + 0.36), rel=1e-12)
    with pytest.raises(ValueError, match="outside tabulated"):
        interp_table(co.grid, 1.5, [co.Gamma])
    with pytest.raises(ValueError, match="finite"):
        HPZCoefficients(grid=t, Gamma=t * np.nan, Theta=0 * t, Xi=0 * t,
                        Upsilon=0 * t)


def test_table_owns_copies_of_its_columns():
    # later writes to the caller's arrays must not reach the table, nor a
    # generator built from it
    grid = np.linspace(0.0, 1.0, 11)
    cols = [-0.1 - grid, 0.2 * grid, np.cos(grid), grid ** 2]
    g, *c = grid.copy(), *(col.copy() for col in cols)
    co = HPZCoefficients(g, *c)
    g *= 2.0
    for arr in c:
        arr[:] = 7.0
    assert np.array_equal(co.grid, grid)
    assert all(np.array_equal(getattr(co, name), col) for name, col in zip(
        ("Gamma", "Theta", "Xi", "Upsilon"), cols))
    g = grid.copy()
    spec = MasterEquationSpec("hpz", SystemSpec(m=1.0, omega_S=1.0),
                              coefficients=delta_limit_coefficients(1.0, g))
    g *= 2.0
    assert spec.generator.grid[-1] == 1.0


def test_windowing_overflow_is_a_numerical_failure():
    # a finite kernel whose trapezoid sums overflow to inf
    grid = np.linspace(0.0, 1.0, 11)
    huge = CorrelationKernel.from_samples(grid, np.full(11, 1.5e308),
                                          np.zeros(11))
    k = OscillatorKernels(1.0)
    with np.errstate(over="ignore"):
        with pytest.raises(coefficients.NumericalFailure,
                           match="windowed Gamma is not finite"):
            compute_coefficients(dressed_kernel(huge, k, 1), k)

