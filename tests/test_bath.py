"""Bath spectral densities and correlation kernels.

Expected values here come from two independent routes: elementary
antiderivatives evaluated by hand (frozen below as literals) and scipy
quadrature with oscillatory weights.  Agreement between routes is the
point of several tests.
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qbmlab.bath import (
    CorrelationKernel,
    CutoffKind,
    PhysicalConstants,
    QuadratureError,
    QuadratureWarning,
    SpectralDensity,
    ThermalBathSpec,
    ValidityWarning,
    delta_limit_strength,
    eval_correlation,
    eval_spectral_density,
    high_temperature_closed_form,
    im_closed_form,
    interp_table,
    _DRUDE_SERIES_FROM,
    _E1_SERIES_TO,
    _GL_POINTS,
    _OMEGA_CHUNK,
    _correlation_quad,
    _cosine_sums,
    _drude_g,
    _omega_coth,
    _panel_rule,
    _re_table,
    _zero_temperature,
)


def make_bath(m=1.0, gamma=1.0, Omega=5.0, T=1.0, kind=CutoffKind.SHARP):
    return ThermalBathSpec(SpectralDensity(m, gamma, Omega, kind), T=T)


# ---------------------------------------------------------------- J(omega)

def test_spectral_density_sharp_at_pi():
    sd = SpectralDensity(m=1.0, gamma=1.0, Omega=10.0)
    assert eval_spectral_density(sd, np.pi) == pytest.approx(2.0, rel=1e-14)


def test_spectral_density_exponential_example():
    sd = SpectralDensity(1.0, 1.0, 2.0, CutoffKind.EXPONENTIAL)
    expected = (4.0 / np.pi) * np.exp(-1.0)  # = 0.46839865219455334
    assert eval_spectral_density(sd, 2.0) == pytest.approx(expected, rel=1e-14)


def test_spectral_density_vanishes_beyond_sharp_cutoff():
    sd = SpectralDensity(2.0, 0.5, 3.0)
    assert eval_spectral_density(sd, 3.5) == 0.0
    out = eval_spectral_density(sd, np.array([1.0, 2.9, 3.1, 30.0]))
    assert out[2] == 0.0 and out[3] == 0.0 and out[0] > 0.0


def test_spectral_density_rejects_negative_frequency():
    sd = SpectralDensity(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        eval_spectral_density(sd, -0.1)


@given(gamma=st.floats(0.01, 5.0), omega=st.floats(0.0, 40.0),
       m=st.floats(0.1, 10.0))
def test_spectral_density_linear_in_gamma_and_m(gamma, omega, m):
    sd1 = SpectralDensity(m, gamma, 7.0, CutoffKind.DRUDE)
    sd2 = SpectralDensity(m, 2.0 * gamma, 7.0, CutoffKind.DRUDE)
    assert eval_spectral_density(sd2, omega) == pytest.approx(
        2.0 * eval_spectral_density(sd1, omega), abs=1e-300)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SpectralDensity(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SpectralDensity(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        SpectralDensity(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ThermalBathSpec(SpectralDensity(1.0, 1.0, 1.0), T=-2.0)
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=0.0)
    bath = make_bath()
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="quad_tol must be finite"):
            CorrelationKernel.from_bath(bath, np.linspace(0.0, 1.0, 5),
                                        quad_tol=bad)
        with pytest.raises(ValueError, match="quad_tol must be finite"):
            eval_correlation(bath, 0.5, quad_tol=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bath_specs_reject_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="mass m must be finite"):
        SpectralDensity(bad, 1.0, 1.0)
    with pytest.raises(ValueError, match="gamma must be finite"):
        SpectralDensity(1.0, bad, 1.0)
    with pytest.raises(ValueError, match="Omega must be finite"):
        SpectralDensity(1.0, 1.0, bad)
    with pytest.raises(ValueError, match="temperature T must be finite"):
        ThermalBathSpec(SpectralDensity(1.0, 1.0, 1.0), T=bad)
    with pytest.raises(ValueError, match="hbar and k_B must be finite"):
        PhysicalConstants(hbar=bad)
    with pytest.raises(ValueError, match="hbar and k_B must be finite"):
        PhysicalConstants(k_B=bad)


# ------------------------------------------------------- odd part D_im(tau)

def test_sharp_odd_part_at_unit_time():
    # -(2/pi) * (sin 5 - 5 cos 5) with m = gamma = hbar = 1, Omega = 5
    bath = make_bath(Omega=5.0)
    expected = -(2.0 / np.pi) * (np.sin(5.0) - 5.0 * np.cos(5.0))
    assert expected == pytest.approx(1.513394933148244, rel=1e-12)
    d = eval_correlation(bath, 1.0)
    assert d.imag == pytest.approx(expected, rel=1e-9)
    assert im_closed_form(bath, 1.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind", list(CutoffKind))
@pytest.mark.parametrize("tau", [0.02, 0.3, 1.0, 4.0])
def test_im_quadrature_matches_closed_form(kind, tau):
    bath = make_bath(m=1.3, gamma=0.7, Omega=3.0, T=2.0, kind=kind)
    q = _correlation_quad(bath, tau, 1e-10, "im")
    cf = im_closed_form(bath, tau)
    assert q == pytest.approx(cf, rel=1e-7, abs=1e-12)


def test_quadpack_is_looked_up_on_its_module_at_call_time(monkeypatch):
    # a tracer counts QUADPACK calls by replacing scipy.integrate.quad;
    # a reference bound at import time would bypass the replacement
    import scipy.integrate

    quad, calls = scipy.integrate.quad, []

    def counting_quad(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
    bath = make_bath(m=1.3, gamma=0.7, Omega=3.0, T=2.0)
    q = _correlation_quad(bath, 0.3, 1e-10, "im")
    assert calls
    assert q == pytest.approx(im_closed_form(bath, 0.3), rel=1e-7)


def test_drude_table_loads_no_scipy_and_matches_scipy_special(fresh_python):
    # the Drude zero-temperature form takes Ei and E1 from their series
    # and continued fraction in numpy; scipy.special is the oracle here
    source = (
        "import json, sys, warnings\n"
        "import numpy as np\n"
        "from qbmlab.bath import (CorrelationKernel, CutoffKind,\n"
        "                         SpectralDensity, ThermalBathSpec)\n"
        "bath = ThermalBathSpec(\n"
        "    SpectralDensity(1.0, 1.0, 5.0, CutoffKind.DRUDE), T=1.0)\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('ignore')\n"
        "    k = CorrelationKernel.from_bath(bath, np.linspace(0, 2, 21))\n"
        "print(json.dumps([sorted(m for m in sys.modules\n"
        "                         if m.split('.')[0] == 'scipy'),\n"
        "                  k.re_values.tolist(), k.im_values.tolist()]))\n")
    loaded, re, im = json.loads(fresh_python("-c", source))
    assert loaded == []
    here = _tabulate(make_bath(kind=CutoffKind.DRUDE), np.linspace(0, 2, 21))
    assert re == here.re_values.tolist()  # same bits
    assert im == here.im_values.tolist()

    from scipy import special

    # every switch of _drude_g (E1's series to its continued fraction at
    # _E1_SERIES_TO, the asymptotic series at _DRUDE_SERIES_FROM) with its
    # float neighbours, in a geometric sweep of (0, 100]
    edges = np.array([_E1_SERIES_TO, _DRUDE_SERIES_FROM])
    x = np.sort(np.concatenate([np.geomspace(1e-300, 100.0, 4001), edges,
                                np.nextafter(edges, 0.0),
                                np.nextafter(edges, np.inf)]))
    g = _drude_g(x)
    oracle = -0.5 * (np.exp(-x) * special.expi(x)
                     - np.exp(x) * special.exp1(x))
    # scipy's own sum cancels about x-fold: 5.7e-13 just past x = 40
    assert np.max(np.abs(g - oracle) / np.abs(oracle)) <= 1e-12
    below, at, above = (_drude_g(e) for e in (np.nextafter(edges, 0.0),
                                               edges,
                                               np.nextafter(edges, np.inf)))
    assert np.all(np.abs(above - below) <= 1e-13 * np.abs(at))


def test_im_vanishes_at_zero_and_is_odd():
    bath = make_bath(kind=CutoffKind.EXPONENTIAL)
    assert eval_correlation(bath, 0.0).imag == 0.0
    d_plus = eval_correlation(bath, 0.8)
    d_minus = eval_correlation(bath, -0.8)
    assert d_minus.imag == pytest.approx(-d_plus.imag, rel=1e-12)
    assert d_minus.real == pytest.approx(d_plus.real, rel=1e-12)


def test_sharp_im_small_tau_series_branch():
    # series branch (|Omega tau| < 1e-3) must join the generic branch
    bath = make_bath(Omega=5.0)
    t_series, t_generic = 1.9e-4, 2.1e-4
    ratio = im_closed_form(bath, t_series) / t_series
    ratio2 = im_closed_form(bath, t_generic) / t_generic
    assert ratio == pytest.approx(ratio2, rel=1e-6)
    # and both agree with quadrature
    assert im_closed_form(bath, t_series) == pytest.approx(
        _correlation_quad(bath, t_series, 1e-12, "im"), rel=1e-6)


def test_im_independent_of_temperature():
    hot = make_bath(T=100.0, kind=CutoffKind.DRUDE)
    cold = make_bath(T=0.01, kind=CutoffKind.DRUDE)
    assert eval_correlation(hot, 0.7).imag == pytest.approx(
        eval_correlation(cold, 0.7).imag, rel=1e-10)


# ------------------------------------------------------ even part D_re(tau)

def test_re_high_temperature_value_at_zero():
    # T = 100, Omega = 10: quantum corrections are ~1e-4 relative
    bath = make_bath(Omega=10.0, T=100.0)
    d0 = eval_correlation(bath, 0.0).real
    assert d0 == pytest.approx(4000.0 / np.pi, rel=1e-2)
    assert d0 == pytest.approx(high_temperature_closed_form(bath, 0.0), rel=1e-3)


@pytest.mark.parametrize("tau", [0.1, 0.3, 1.0])
def test_re_quadrature_vs_high_temperature_form(tau):
    bath = make_bath(m=1.0, gamma=0.3, Omega=10.0, T=200.0)
    q = _correlation_quad(bath, tau, 1e-10, "re")
    assert q == pytest.approx(high_temperature_closed_form(bath, tau), rel=5e-3)


def test_high_temperature_form_warns_outside_regime():
    bath = make_bath(Omega=10.0, T=1.0)  # hbar*Omega / kB T = 10
    with pytest.warns(ValidityWarning):
        high_temperature_closed_form(bath, 0.5)


def test_high_temperature_form_requires_sharp_cutoff():
    bath = make_bath(T=100.0, kind=CutoffKind.DRUDE)
    with pytest.raises(ValueError):
        high_temperature_closed_form(bath, 0.1)


def test_drude_even_part_at_zero_warns_about_divergence():
    bath = make_bath(Omega=4.0, kind=CutoffKind.DRUDE)
    with pytest.warns(ValidityWarning, match="diverges"):
        v = eval_correlation(bath, 0.0)
    assert np.isfinite(v.real) and v.real > 0.0


def test_re_positive_at_zero_for_all_cutoffs():
    for kind in CutoffKind:
        bath = make_bath(T=3.0, kind=kind)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            assert eval_correlation(bath, 0.0).real > 0.0


def test_delta_limit_strength_matches_kernel_area():
    # integrating the high-T kernel over ~10 oscillation periods on each
    # side recovers the delta weight 4 m gamma kB T to better than 1%
    bath = make_bath(m=1.2, gamma=0.4, Omega=50.0, T=500.0)
    w = 10.5 * np.pi / 50.0
    tau = np.linspace(-w, w, 20001)
    area = np.trapezoid(high_temperature_closed_form(bath, tau), tau)
    assert area == pytest.approx(delta_limit_strength(bath), rel=1e-2)
    assert delta_limit_strength(bath) == pytest.approx(4 * 1.2 * 0.4 * 500.0)


def test_quad_tol_tightening_is_consistent():
    bath = make_bath(m=0.8, gamma=1.1, Omega=6.0, T=4.0,
                     kind=CutoffKind.EXPONENTIAL)
    loose = eval_correlation(bath, 0.9, quad_tol=1e-6)
    tight = eval_correlation(bath, 0.9, quad_tol=1e-12)
    assert abs(loose - tight) <= 1e-5 * abs(tight)


# -------------------------------------------------------- coth evaluation

def test_omega_coth_series_joins_generic_branch():
    # omega / tanh(a omega) against x coth x = 1 + x^2/3 - x^4/45 + ...,
    # whose next term is below rounding for x < 1e-3
    a = 0.5
    for x in (1e-200, 1e-8, 0.9e-4, 1.1e-4, 1e-3):
        series = (1.0 + x * x / 3.0 - x ** 4 / 45.0) / a
        assert _omega_coth(x / a, a) == pytest.approx(series, rel=1e-15)


def test_omega_coth_limits():
    # w -> 0 gives 2 kB T / hbar = 1/a; large w gives w itself
    assert _omega_coth(0.0, 0.25) == pytest.approx(4.0, rel=1e-12)
    assert _omega_coth(100.0, 1.0) == pytest.approx(100.0, rel=1e-12)
    # a * omega = 0 takes the limit; the smallest nonzero is still exact
    tiny = _omega_coth(np.array([0.0, 1e-300, 5e-324]), 0.25)
    assert np.array_equal(tiny, [4.0, 4.0, 4.0])


@given(T=st.floats(0.5, 50.0), omega=st.floats(1e-6, 30.0))
def test_omega_coth_exceeds_classical_value(T, omega):
    # quantum fluctuations only ever add on top of 2 kB T / hbar
    a = 1.0 / (2.0 * T)
    assert _omega_coth(omega, a) >= 2.0 * T - 1e-9


# --------------------------------------------------------- parity property

@given(m=st.floats(0.1, 5.0), gamma=st.floats(0.05, 2.0),
       Omega=st.floats(0.5, 20.0), T=st.floats(0.2, 50.0),
       tau=st.floats(0.01, 3.0),
       kind=st.sampled_from(list(CutoffKind)))
def test_correlation_is_hermitian_in_tau(m, gamma, Omega, T, tau, kind):
    bath = ThermalBathSpec(SpectralDensity(m, gamma, Omega, kind), T=T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureWarning)
        d = eval_correlation(bath, tau, quad_tol=1e-8)
        dm = eval_correlation(bath, -tau, quad_tol=1e-8)
    assert dm == pytest.approx(np.conj(d), rel=1e-9, abs=1e-12)


def test_high_temperature_convergence_of_re():
    # D_re(0) / (4 m gamma kB T Omega / pi) -> 1 as T grows
    ratios = []
    for T in (10.0, 100.0, 1e4):
        bath = make_bath(Omega=5.0, T=T)
        d0 = eval_correlation(bath, 0.0).real
        ratios.append(d0 / (4.0 * T * 5.0 / np.pi))
    assert abs(ratios[-1] - 1.0) < 1e-4
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)


# ------------------------------------------------------- tabulated kernels

def test_kernel_from_bath_matches_pointwise_eval():
    bath = make_bath(Omega=10.0, T=100.0)
    grid = np.linspace(0.0, 2.0, 41)
    k = CorrelationKernel.from_bath(bath, grid)
    direct = eval_correlation(bath, grid[17])
    assert k.at(grid[17]) == pytest.approx(direct, rel=1e-10)
    assert k.at(-grid[17]) == pytest.approx(np.conj(direct), rel=1e-10)
    # interpolation error at a midpoint is second order in the spacing
    mid = 0.5 * (grid[3] + grid[4])
    assert k.at(mid) == pytest.approx(eval_correlation(bath, mid),
                                      rel=5e-3, abs=1e-9)


def test_kernel_grid_validation():
    good = np.linspace(0.0, 1.0, 11)
    vals = np.ones(11)
    odd = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="start at tau = 0"):
        CorrelationKernel.from_samples(good + 0.5, vals, odd * 0.0)
    with pytest.raises(ValueError, match="uniform"):
        CorrelationKernel.from_samples(np.sqrt(good), vals, odd * 0.0)
    with pytest.raises(ValueError, match="vanish at tau = 0"):
        CorrelationKernel.from_samples(good, vals, np.ones(11))
    with pytest.raises(ValueError, match="shape"):
        CorrelationKernel.from_samples(good, np.ones(10), np.zeros(11))
    k = CorrelationKernel.from_samples(good, vals, np.zeros(11))
    with pytest.raises(ValueError, match="outside tabulated range"):
        k.at(1.5)
    with pytest.raises(ValueError, match="outside tabulated range"):
        k.at(np.array([0.5, np.nan]))
    # the range is checked relative to the span: 5e-16 before a span of
    # 1e-12 is 0.05% of it, and 2e-15 before a span of 1000 is rounding
    tiny = np.linspace(0.0, 1e-12, 11)
    with pytest.raises(ValueError, match="outside tabulated range"):
        interp_table(tiny, -5e-16, [tiny])
    wide = np.linspace(0.0, 1000.0, 11)
    assert interp_table(wide, -2e-15, [wide]) == [0.0]


def test_kernel_owns_copies_of_its_samples():
    # the constructor zeroes D_im(0); it must not write into the caller's
    # arrays, nor see later writes to them
    grid = np.linspace(0.0, 1.0, 11)
    re, im = np.cos(grid), np.sin(grid)
    im[0] = 1e-14
    for make in (CorrelationKernel, CorrelationKernel.from_samples):
        g, r, i = grid.copy(), re.copy(), im.copy()
        k = make(g, r, i)
        assert i[0] == 1e-14 and k.im_values[0] == 0.0
        g *= 2.0
        r[:] = i[:] = 7.0
        assert np.array_equal(k.grid, grid)
        assert np.array_equal(k.re_values, re)
        assert np.array_equal(k.im_values, np.append(0.0, im[1:]))


def test_kernel_scaled_by_coupling_factor():
    grid = np.linspace(0.0, 1.0, 11)
    k = CorrelationKernel.from_samples(grid, np.cos(grid), np.sin(grid) * 0.1)
    k2 = k.scaled(4.0)
    assert k2.at(0.3) == pytest.approx(4.0 * k.at(0.3), rel=1e-14)
    assert k2.bath is None


def test_zero_coupling_kernel_is_allowed():
    grid = np.linspace(0.0, 1.0, 5)
    k = CorrelationKernel.from_samples(grid, np.zeros(5), np.zeros(5))
    assert k.at(0.5) == 0.0


# ------------------------------------------ vectorized kernel tabulation

def _quadpack_re(bath, grid, quad_tol):
    """Today's per-node adaptive quadrature, the oracle of the table."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureWarning)
        warnings.simplefilter("ignore", ValidityWarning)
        return np.array([_correlation_quad(bath, float(t), quad_tol, "re")
                         for t in grid])


def _tabulate(bath, grid, quad_tol=1e-8):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureWarning)
        warnings.simplefilter("ignore", ValidityWarning)
        return CorrelationKernel.from_bath(bath, grid, quad_tol=quad_tol)


_TABLE_CASES = [(kind, T, Omega) for kind in CutoffKind
                for T, Omega in ((0.5, 10.0), (10.0, 50.0), (0.01, 10.0),
                                 (0.001, 10.0))] \
    + [(CutoffKind.SHARP, 250.0, 50.0)]


@pytest.mark.parametrize("kind,T,Omega", _TABLE_CASES)
def test_table_matches_quadpack_per_node(kind, T, Omega):
    quad_tol = 1e-12
    bath = make_bath(m=1.0, gamma=0.1, Omega=Omega, T=T, kind=kind)
    grid = np.linspace(0.0, 500.0 / Omega, 41)
    k = _tabulate(bath, grid, quad_tol)
    pref = 2.0 * 0.1 / np.pi
    scale = pref * Omega * _omega_coth(Omega, bath.thermal_time)
    dev = np.max(np.abs(k.re_values - _quadpack_re(bath, grid, quad_tol)))
    assert dev <= quad_tol * scale
    assert k.health["nodes"] == grid.size
    assert k.health["quad_fallbacks"] == 0
    assert k.health["worst_err_over_target"] <= 1.0


@pytest.mark.parametrize("kind", list(CutoffKind))
def test_table_im_is_the_closed_form(kind):
    bath = make_bath(m=1.3, gamma=0.7, Omega=3.0, T=2.0, kind=kind)
    grid = np.linspace(0.0, 20.0, 101)
    k = _tabulate(bath, grid)
    assert np.array_equal(k.im_values, im_closed_form(bath, grid))


def test_table_over_node_budget_is_todays_quadrature():
    # at T = 1e4 the thermal part reaches w = 8e5: per-node QUADPACK
    bath = make_bath(Omega=10.0, T=1e4, kind=CutoffKind.DRUDE)
    grid = np.linspace(0.0, 1.0, 6)
    k = _tabulate(bath, grid)
    assert np.array_equal(k.re_values, _quadpack_re(bath, grid, 1e-8))
    assert k.health["quad_fallbacks"] == grid.size
    assert k.health["worst_err_over_target"] is None


def test_hot_bath_table_stays_on_the_rule():
    # Drude at T = 100 on the hpz_audit grid: 128k rule nodes, far
    # cheaper than 1,001 QUADPACK calls
    bath = make_bath(m=1.0, gamma=0.1, Omega=50.0, T=100.0,
                     kind=CutoffKind.DRUDE)
    grid = np.linspace(0.0, 10.0, 1001)
    k = _tabulate(bath, grid)
    assert k.health["quad_fallbacks"] == 0
    assert k.health["worst_err_over_target"] <= 1.0
    sample = np.arange(1, grid.size, 125)
    ref = _quadpack_re(bath, grid[sample], 1e-8)
    scale = (0.2 / np.pi) * 50.0 * _omega_coth(50.0, bath.thermal_time)
    assert np.max(np.abs(k.re_values[sample] - ref)) <= 1e-8 * scale


# Omega reaches 50 and 800 are those of the sharp and exponential rules
# on the hpz_audit grid (phases up to 500 and 8,000 rad).  At 8,000 rad
# float64 rounds the phase itself by ~1e-12, in the direct sum as well;
# only a sum over many nodes averages that below 1e-13.  The rule takes
# whole panels of _GL_POINTS nodes, at least m nodes: one panel, one full
# chunk of _OMEGA_CHUNK nodes and a ragged last chunk.
@pytest.mark.parametrize("n", [2, 33, 1001])
@pytest.mark.parametrize("m,reach", [(5, 50.0), (_OMEGA_CHUNK, 50.0),
                                     (2 * _OMEGA_CHUNK + 77, 50.0),
                                     (2 * _OMEGA_CHUNK + 77, 800.0)])
def test_cosine_sums_match_the_direct_sum(n, m, reach):
    rng = np.random.default_rng(n * m)
    tau = np.linspace(0.0, 10.0, n)
    mid, offsets, _ = _panel_rule(reach, -(-m // _GL_POINTS))
    w = rng.uniform(-1.0, 1.0, (mid.size, _GL_POINTS))
    direct = np.cos(np.outer(tau, mid[:, None] + offsets)) @ w.ravel()
    got = _cosine_sums(tau, mid, offsets, w)
    assert got.shape == (n,)
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.sum(np.abs(w))
    assert got.tobytes() == _cosine_sums(tau, mid, offsets, w).tobytes()


@pytest.mark.parametrize("kind", list(CutoffKind))
def test_table_sums_match_the_direct_sum(kind, monkeypatch):
    # every sum the hpz_audit table takes, coarse and fine, against the
    # cosines of its nodes at every 50th tau node
    import qbmlab.bath as bath_module
    bath = make_bath(m=1.0, gamma=0.1, Omega=50.0, T=10.0, kind=kind)
    grid = np.linspace(0.0, 10.0, 1001)
    calls = []

    def recorded(tau, mid, offsets, weights):
        got = _cosine_sums(tau, mid, offsets, weights)
        calls.append((mid[:, None] + offsets, weights, got))
        return got

    monkeypatch.setattr(bath_module, "_cosine_sums", recorded)
    _re_table(bath, grid)
    assert len(calls) == 2
    for nodes, weights, got in calls:
        direct = np.cos(np.outer(grid[::50], nodes)) @ weights.ravel()
        assert np.max(np.abs(got[::50] - direct)) \
            <= 1e-13 * np.sum(np.abs(weights))


def test_table_takes_each_piece_of_work_once(monkeypatch):
    # one closed-form T = 0 pass gives D_im and D_re(T = 0), and the
    # Gauss-Legendre nodes are computed once per process
    import qbmlab.bath as bath_module
    calls = {"zero": 0, "leggauss": 0}

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(bath_module, "_zero_temperature",
                        counted("zero", _zero_temperature))
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        counted("leggauss", np.polynomial.legendre.leggauss))
    bath = make_bath(Omega=10.0, T=1.0, kind=CutoffKind.DRUDE)
    grid = np.linspace(0.0, 2.0, 21)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        k = CorrelationKernel.from_bath(bath, grid)
        assert calls["zero"] == 1
        CorrelationKernel.from_bath(bath, grid)
    assert k.health["quad_fallbacks"] == 0
    assert calls["leggauss"] <= 1


def test_table_temporaries_stay_small():
    # the hpz_audit exponential grid: 12,864 rule nodes, 1,001 tau nodes
    bath = make_bath(m=1.0, gamma=0.1, Omega=50.0, T=10.0,
                     kind=CutoffKind.EXPONENTIAL)
    grid = np.linspace(0.0, 10.0, 1001)
    tracemalloc.start()
    try:
        _re_table(bath, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_drude_table_finite_beyond_exp_overflow():
    bath = make_bath(Omega=10.0, T=0.5, kind=CutoffKind.DRUDE)
    grid = np.linspace(0.0, 100.0, 201)  # Omega tau up to 1000
    k = _tabulate(bath, grid)
    assert np.all(np.isfinite(k.re_values))
    # zero-temperature and thermal parts cancel out there; the sum agrees
    # with QUADPACK within QUADPACK's own absolute target
    scale = (2.0 / np.pi) * 10.0 * _omega_coth(10.0, bath.thermal_time)
    far = grid[-3:]
    assert np.max(np.abs(k.re_values[-3:] - _quadpack_re(bath, far, 1e-8))) \
        <= 1e-8 * scale


def test_drude_zero_temperature_series_joins_direct_form():
    x = np.array([_DRUDE_SERIES_FROM * (1.0 - 1e-12),
                  _DRUDE_SERIES_FROM * (1.0 + 1e-12)])
    bath = make_bath(Omega=1.0, kind=CutoffKind.DRUDE)
    direct, series = _zero_temperature(bath, x)[0]
    assert series == pytest.approx(direct, rel=1e-12)


def test_table_keeps_drude_divergence_warning():
    bath = make_bath(Omega=4.0, kind=CutoffKind.DRUDE)
    with pytest.warns(ValidityWarning, match="diverges"):
        CorrelationKernel.from_bath(bath, np.linspace(0.0, 2.0, 11))


@pytest.mark.parametrize("T", [1.0, 1e4], ids=["rule", "over-budget"])
def test_drude_table_warns_once(T):
    bath = make_bath(Omega=10.0, T=T, kind=CutoffKind.DRUDE)
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        CorrelationKernel.from_bath(bath, np.linspace(0.0, 1.0, 6))
    validity = [str(r.message) for r in records
                if issubclass(r.category, ValidityWarning)]
    assert validity == ["D_re(0) diverges logarithmically for the drude "
                        "cutoff; integral truncated at 1e+06 * Omega"]


def test_drude_im_closed_form_at_zero_is_silent():
    bath = make_bath(Omega=10.0, kind=CutoffKind.DRUDE)
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        assert im_closed_form(bath, 0.0) == 0.0
        im_closed_form(bath, np.array([0.0, -0.5, 0.5]))
    assert records == []


def test_cold_sharp_table_stays_on_the_rule():
    # panels of pi / a = 2 pi T shrink with T; the thermal part reaches
    # only 40 / a, so the rule stays small however cold the bath
    bath = make_bath(m=1.0, gamma=0.1, Omega=50.0, T=0.001)
    grid = np.linspace(0.0, 10.0, 41)
    k = CorrelationKernel.from_bath(bath, grid)
    assert k.health["quad_fallbacks"] == 0
    # an mpmath evaluation to 18 digits
    assert k.re_values[1] == pytest.approx(-0.846679068867703526, rel=1e-12)


@pytest.mark.parametrize("quad_tol", [1e-8, 1e-12])
def test_cold_sharp_quadpack_oracle_resolves_the_thermal_bend(quad_tol):
    # the bend of w coth(aw) near 1/a = 0.002; one QAWO call over
    # [0, Omega] missed it by 2.5e-7, without a warning
    bath = make_bath(m=1.0, gamma=0.1, Omega=50.0, T=0.001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = eval_correlation(bath, 0.25, quad_tol=quad_tol)
    assert d.real == pytest.approx(-0.846679068867703526, rel=1e-12)


@pytest.mark.parametrize("kind", list(CutoffKind))
@pytest.mark.parametrize("T,gamma", [(0.01, 1.0), (10.0, 1.0), (1e4, 1.0),
                                     (10.0, 0.0)],
                         ids=["0.01", "10.0", "10000.0", "10.0-uncoupled"])
def test_table_leaks_no_runtime_warning(kind, T, gamma):
    bath = make_bath(gamma=gamma, Omega=10.0, T=T, kind=kind)
    grid = np.linspace(0.0, 100.0, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", ValidityWarning)
        warnings.simplefilter("ignore", QuadratureWarning)
        k = CorrelationKernel.from_bath(bath, grid)
    assert np.all(np.isfinite(k.re_values))
    worst = k.health["worst_err_over_target"]
    assert worst is None or np.isfinite(worst)


def test_non_finite_table_is_a_quadrature_error(monkeypatch):
    import qbmlab.bath as bath_module
    monkeypatch.setattr(bath_module, "_zero_temperature",
                        lambda bath, tau: (_zero_temperature(bath, tau)[0],
                                           np.full(np.shape(tau), np.nan)))
    with pytest.raises(QuadratureError, match="non-finite"):
        CorrelationKernel.from_bath(make_bath(), np.linspace(0.0, 1.0, 5))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_cutoff_is_a_quadrature_error():
    # Omega^3 overflows a float: the closed-form odd part becomes
    # non-finite instead of raising OverflowError
    bath = ThermalBathSpec(
        SpectralDensity(1.0, 0.1, 1e110, cutoff_kind="exponential"), T=10.0)
    assert not np.all(np.isfinite(im_closed_form(bath, [0.0, 0.5])))
    with pytest.raises(QuadratureError, match="non-finite"):
        CorrelationKernel.from_bath(bath, np.linspace(0.0, 1.0, 11))


def test_numerical_errors_share_one_base():
    from qbmlab import bath, coefficients, dynamics, stochastic
    assert coefficients.NumericalFailure is bath.NumericalFailure
    assert dynamics.NumericalFailure is bath.NumericalFailure
    assert issubclass(QuadratureError, bath.NumericalFailure)
    assert issubclass(stochastic.NoiseFactorizationError,
                      bath.NumericalFailure)
