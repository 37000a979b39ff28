"""Kossakowski matrices, eigenvalue closed form, and CP audits."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qbmlab.bath import (
    CorrelationKernel,
    PhysicalConstants,
    SpectralDensity,
    ThermalBathSpec,
)
from qbmlab.coefficients import (
    HPZCoefficients,
    OscillatorKernels,
    compute_coefficients,
    delta_limit_coefficients,
    dressed_kernel,
)
from qbmlab.dynamics import (
    MasterEquationSpec,
    QuadraticGenerator,
    SystemSpec,
    moment_rhs,
)
from qbmlab.positivity import _closed_form, audit_cp, rank_one_factor


def _generator(variant, m=1.3, gamma=0.21, T=7.0, mu=None,
               constants=PhysicalConstants()):
    return MasterEquationSpec(variant, SystemSpec(m=m, omega_S=0.0),
                              constants=constants, gamma=gamma, T=T,
                              mu=mu).generator


def _audit_matrix(a):
    """Audit of a constant generator with Kossakowski matrix a."""
    return audit_cp(QuadraticGenerator(np.zeros((2, 2)), a, 1.0))


def test_min_eigenvalue_frozen_example():
    a = np.array([[2.0, -0.5 + 0.2j], [-0.5 - 0.2j, 0.0]])
    # closed form: 1 - sqrt(1 + 0.29)
    assert _audit_matrix(a).lambda_min[0] == pytest.approx(
        1.0 - np.sqrt(1.29), rel=1e-12)


def test_min_eigenvalue_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        _audit_matrix(np.array([[1.0, 0.5], [0.2, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_audit_rejects_a_non_finite_matrix(bad):
    # nan < floor is False: a NaN eigenvalue must not pass as CP
    a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    for where in ((0, 0), (1, 1)):
        a_bad = a.copy()
        a_bad[where] = bad
        with pytest.raises(ValueError, match="not finite"):
            _audit_matrix(a_bad)
        with pytest.raises(ValueError, match="not finite"):
            rank_one_factor(a_bad)
    a_bad = a.copy()
    a_bad[0, 1] = a_bad[1, 0] = complex(0.0, bad)
    with pytest.raises(ValueError, match="not finite"):
        _audit_matrix(a_bad)


@given(a11=st.floats(-3, 3), a22=st.floats(-3, 3),
       re=st.floats(-3, 3), im=st.floats(-3, 3))
@example(a11=1.0, a22=1.0, re=1e-9, im=0.0)
def test_min_eigenvalue_matches_lapack(a11, a22, re, im):
    a = np.array([[a11, re + 1j * im], [re - 1j * im, a22]])
    assert _audit_matrix(a).lambda_min[0] == pytest.approx(
        float(np.linalg.eigvalsh(a)[0]), rel=1e-10, abs=1e-12)


# ------------------------------------------------- constant-variant matrices

def test_cl_matrix_determinant_identity():
    report = audit_cp(_generator("cl"))
    assert report.det[0] == pytest.approx(-0.21 ** 2, rel=1e-12)
    assert report.lambda_min[0] < 0.0


def test_ccl_matrix_is_rank_one():
    report = audit_cp(_generator("ccl"))
    norm = report.norm[0]
    assert report.det[0] == pytest.approx(0.0, abs=1e-14 * norm ** 2)
    assert report.lambda_min[0] >= -1e-14 * norm


def test_jz_matrix_is_positive_diagonal():
    gen = _generator("jz", m=1.0, gamma=0.1, T=2.0)
    assert gen.a[0, 0].real == pytest.approx(0.8, rel=1e-12)
    assert gen.a[1, 1] == 0.0 and gen.a[0, 1] == 0.0
    report = audit_cp(gen)
    assert abs(report.lambda_min[0]) <= 1e-15 * report.norm[0]


@given(m=st.floats(0.1, 5.0), gamma=st.floats(1e-3, 2.0),
       T=st.floats(0.1, 50.0))
def test_constant_matrix_determinants_property(m, gamma, T):
    cl = audit_cp(_generator("cl", m=m, gamma=gamma, T=T))
    ccl = audit_cp(_generator("ccl", m=m, gamma=gamma, T=T))
    assert cl.det[0] == pytest.approx(-gamma ** 2, rel=1e-9)
    assert abs(ccl.det[0]) <= 1e-12 * gamma ** 2 + 1e-12 * ccl.norm[0] ** 2


def test_constant_matrix_units_enter_through_hbar():
    c = PhysicalConstants(hbar=2.0)
    report = audit_cp(_generator("cl", m=1.0, gamma=0.3, T=1.0, constants=c))
    assert report.det[0] == pytest.approx(-(0.3 / 2.0) ** 2, rel=1e-12)


def test_constant_matrix_validation():
    with pytest.raises(ValueError):
        _generator("hpz", m=1.0, gamma=0.1, T=1.0)
    with pytest.raises(ValueError):
        _generator("cl", m=-1.0, gamma=0.1, T=1.0)


# ------------------------------------------------------------- HPZ matrices

@pytest.fixture(scope="module")
def hpz_table():
    bath = ThermalBathSpec(SpectralDensity(1.0, 0.1, 20.0), T=10.0)
    grid = np.linspace(0.0, 6.0, 231)
    kernel = CorrelationKernel.from_bath(bath, grid)
    k = OscillatorKernels(1.0)
    return compute_coefficients(dressed_kernel(kernel, k, 1), k)


def _unit_mass_generator(table):
    """What `audit_cp` audits for a bare table."""
    return MasterEquationSpec("hpz", SystemSpec(m=1.0, omega_S=0.0),
                              coefficients=table).generator


def test_hpz_generator_matrix_structure(hpz_table):
    i = 40
    a = _unit_mass_generator(hpz_table).a[i]
    assert a[0, 0].real == pytest.approx(-2.0 * hpz_table.Gamma[i], rel=1e-12)
    assert a[1, 1] == 0.0
    assert a[0, 1] == pytest.approx(
        -hpz_table.Theta[i] + 1j * hpz_table.Upsilon[i], rel=1e-12)
    report = audit_cp(hpz_table, t_grid=hpz_table.grid[i:i + 1])
    assert report.det[0] == pytest.approx(
        -(hpz_table.Theta[i] ** 2 + hpz_table.Upsilon[i] ** 2), rel=1e-10)


def test_audit_reads_the_generator_the_propagators_step(hpz_table):
    gen = _unit_mass_generator(hpz_table)
    # at the nodes, the interpolated table is the table itself
    at_nodes = audit_cp(hpz_table)
    lam, det, _ = _closed_form(gen.a)
    assert np.array_equal(at_nodes.lambda_min, lam)
    assert np.array_equal(at_nodes.det, det)
    # between nodes, the audit reads what gen.at interpolates
    t = np.array([0.01234567, 3.0001])
    report = audit_cp(hpz_table, t_grid=t)
    lam, det, _ = _closed_form(gen.at(t)[1])
    assert np.array_equal(report.lambda_min, lam)
    assert np.array_equal(report.det, det)
    with pytest.raises(ValueError, match="outside tabulated range"):
        audit_cp(hpz_table, t_grid=[hpz_table.grid[-1] + 0.1])


@pytest.mark.parametrize("source", ["constant", "table"])
def test_audit_accepts_a_scalar_time(source, hpz_table):
    gen = _generator("cl", m=1.0, gamma=0.1, T=1.0) \
        if source == "constant" else hpz_table
    report = audit_cp(gen, t_grid=0.5)
    assert report.lambda_min.shape == report.det.shape == (1,)
    assert report.times.tolist() == [0.5]
    assert report.to_json_dict()["n_times"] == 1


@pytest.mark.parametrize("source", ["constant", "table"])
def test_audit_rejects_an_empty_t_grid(source, hpz_table):
    # an empty scan has no eigenvalue to fail: it must not pass as CP
    gen = _generator("cl", m=1.0, gamma=0.1, T=1.0) \
        if source == "constant" else hpz_table
    with pytest.raises(ValueError, match="t_grid"):
        audit_cp(gen, t_grid=[])


def test_audit_flags_exact_generator_as_not_cp(hpz_table):
    t_grid = hpz_table.grid[hpz_table.grid >= 0.05]
    report = audit_cp(hpz_table, t_grid=t_grid)
    assert report.verdict == "NotCP"
    assert report.first_violation_time == pytest.approx(t_grid[0])
    assert np.all(report.lambda_min[1:] < 0.0)
    d = report.to_json_dict()
    assert d["verdict"] == "NotCP" and d["n_times"] == t_grid.size


def test_audit_scale_invariance(hpz_table):
    t_grid = hpz_table.grid[hpz_table.grid >= 0.05]
    gen = _unit_mass_generator(hpz_table)
    # a change of units is a congruence s a s, s = diag(s_q, s_p)
    s = np.diag([1.0, 1e3])
    reports = [audit_cp(replace(gen, a=a), t_grid=t_grid)
               for a in (gen.a, gen.a * 1e9, gen.a * 1e-9, s @ gen.a @ s)]
    assert {r.verdict for r in reports} == {"NotCP"}
    assert {r.first_violation_time for r in reports} == {t_grid[0]}
    # det = -2.5e-13 < 0, so a is not PSD in any unit; its lambda_min is
    # small against the spectral norm in one unit and not in the other
    a = np.array([[1.0, 5e-7], [5e-7, 0.0]])
    assert {_audit_matrix(b).verdict for b in (a, s @ a @ s)} == {"NotCP"}
    # positive definite, with |det| small against the norm^2 in one unit
    a = np.diag([1.0, 1e-13])
    for b in (a, s @ a @ s):
        assert _audit_matrix(b).flags == []
        with pytest.raises(ValueError, match="rank <= 1"):
            rank_one_factor(b)
    # rank 1 in every unit
    ccl = _generator("ccl").a
    for b in (ccl, s @ ccl @ s):
        assert _audit_matrix(b).flags == ["rank-1"]
        rank_one_factor(b)


def test_audit_constant_matrices():
    cl, ccl, jz = (_generator(v, m=1.0, gamma=0.1, T=1.0)
                   for v in ("cl", "ccl", "jz"))
    assert audit_cp(cl).verdict == "NotCP"
    rep_ccl = audit_cp(ccl)
    assert rep_ccl.verdict == "CP-semigroup-form"
    assert "rank-1" in rep_ccl.flags
    rep_jz = audit_cp(jz)
    assert rep_jz.verdict == "CP-semigroup-form"


def test_delta_limit_table_audits_as_cp():
    table = delta_limit_coefficients(4.0, np.linspace(0.0, 2.0, 21))
    report = audit_cp(table)
    assert report.verdict == "CP-semigroup-form"
    assert report.first_violation_time is None
    assert np.all(report.lambda_min == 0.0)


def test_kossakowski_validation():
    with pytest.raises(ValueError, match="2x2"):
        QuadraticGenerator(np.zeros((2, 2)), np.eye(3), 1.0)


@pytest.mark.parametrize("variant,kw", [
    ("jz", dict(gamma=0.1, T=2.0)),
    ("cl", dict(gamma=0.15, T=2.0)),
    ("ccl", dict(gamma=0.15, T=2.0)),
    ("qp", dict(gamma=0.1, T=2.0, mu=0.3)),
    ("hpz", {}),
])
def test_audited_matrix_gives_the_moment_diffusion(variant, kw):
    # B = hbar^2 J Re(a) J^T, with the audit's a and the mass of the
    # moment equations (m != 1 pins every 1/m placement)
    m, c = 1.7, PhysicalConstants(hbar=0.8)
    system = SystemSpec(m=m, omega_S=0.9)
    if variant == "hpz":
        grid = np.linspace(0.0, 1.0, 11)
        table = HPZCoefficients(grid=grid, Gamma=-1.3 + 0.1 * grid,
                                Theta=0.7 - 0.2 * grid, Xi=np.full(11, 0.4),
                                Upsilon=-0.2 + 0.3 * grid)
        spec = MasterEquationSpec("hpz", system, constants=c,
                                  coefficients=table)
        a = spec.generator.a[4]  # what the CLI audits
    else:
        spec = MasterEquationSpec(variant, system, constants=c, **kw)
        a = spec.generator.a
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = c.hbar ** 2 * (j @ a.real @ j.T)
    d = moment_rhs(spec, np.zeros(5), 0.4)
    assert d[:2] == pytest.approx([0.0, 0.0], abs=1e-15)
    assert d[2:] == pytest.approx([b[0, 0], b[1, 1], b[0, 1]], rel=1e-12,
                                  abs=1e-15)


def test_audit_of_a_generator_uses_its_mass(hpz_table):
    spec = MasterEquationSpec("hpz", SystemSpec(m=1.7, omega_S=1.0),
                              coefficients=hpz_table)
    heavy = audit_cp(spec.generator)
    unit = audit_cp(hpz_table)
    assert heavy.verdict == unit.verdict == "NotCP"
    # the mass scales only the off-diagonal: det(a) = -|a_12|^2
    assert heavy.det[1:] == pytest.approx(unit.det[1:] / 1.7 ** 2, rel=1e-12)
    a = spec.generator.a[40]
    assert a[0, 1] == pytest.approx(
        (-hpz_table.Theta[40] + 1j * hpz_table.Upsilon[40]) / 1.7, rel=1e-12)
    assert np.array_equal(a[0, 0],
                          _unit_mass_generator(hpz_table).a[40, 0, 0])


def test_qp_matrix_is_rank_one():
    gen = _generator("qp", mu=0.4)
    d = 4.0 * 1.3 * 0.21 * 7.0
    assert np.allclose(gen.a, d * np.array([[1.0, -0.4], [-0.4, 0.16]]),
                       rtol=1e-12, atol=0.0)
    report = audit_cp(gen)
    assert report.verdict == "CP-semigroup-form"
    assert "rank-1" in report.flags


@pytest.mark.parametrize("variant, mu", [("jz", None), ("ccl", None),
                                         ("qp", 0.4), ("qp", 2.0)])
def test_rank_one_factor_reproduces_the_matrix(variant, mu):
    gen = _generator(variant, mu=mu)
    a = gen.a
    d, v = rank_one_factor(a)
    assert np.allclose(d * np.outer(v, v.conj()), a, rtol=0.0,
                       atol=1e-12 * d)
    # normalized on the larger diagonal entry, whose component is 1
    k = int(a[1, 1].real > a[0, 0].real)
    assert v[k] == 1.0 and d == a[k, k].real
    assert "rank-1" in audit_cp(gen).flags


def test_rank_one_factor_rejects_what_the_audit_does_not_flag():
    cl = _generator("cl")
    with pytest.raises(ValueError, match="lambda_min = -"):
        rank_one_factor(cl.a)
    with pytest.raises(ValueError, match="rank <= 1"):
        rank_one_factor(np.eye(2))  # positive definite, rank 2
    for a in (cl.a, np.eye(2)):
        assert "rank-1" not in _audit_matrix(a).flags
    # gamma = 0 gives a = 0: rank 0, no noise
    d, v = rank_one_factor(np.zeros((2, 2)))
    assert d == 0.0 and np.array_equal(v, [1.0, 0.0])
