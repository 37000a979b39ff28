"""Kossakowski matrices, eigenvalue closed form, and CP audits."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    GaussianMomentState,
    MasterEquationSpec,
    SystemSpec,
    moment_rhs,
)
from qbmlab.positivity import (
    KossakowskiMatrix,
    assemble_constant_matrix,
    assemble_hpz_matrix,
    audit_cp,
    min_eigenvalue,
)


def test_min_eigenvalue_frozen_example():
    a = np.array([[2.0, -0.5 + 0.2j], [-0.5 - 0.2j, 0.0]])
    # closed form: 1 - sqrt(1 + 0.29)
    assert min_eigenvalue(a) == pytest.approx(1.0 - np.sqrt(1.29), rel=1e-12)


def test_min_eigenvalue_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        min_eigenvalue(np.array([[1.0, 0.5], [0.2, 1.0]]))


@given(a11=st.floats(-3, 3), a22=st.floats(-3, 3),
       re=st.floats(-3, 3), im=st.floats(-3, 3))
def test_min_eigenvalue_matches_lapack(a11, a22, re, im):
    a = np.array([[a11, re + 1j * im], [re - 1j * im, a22]])
    assert min_eigenvalue(a) == pytest.approx(
        float(np.linalg.eigvalsh(a)[0]), rel=1e-10, abs=1e-12)


# ------------------------------------------------- constant-variant matrices

def test_cl_matrix_determinant_identity():
    k = assemble_constant_matrix("cl", m=1.3, gamma=0.21, T=7.0)
    assert k.det() == pytest.approx(-0.21 ** 2, rel=1e-12)
    assert min_eigenvalue(k) < 0.0


def test_ccl_matrix_is_rank_one():
    k = assemble_constant_matrix("ccl", m=1.3, gamma=0.21, T=7.0)
    assert k.det() == pytest.approx(0.0, abs=1e-14 * k.norm ** 2)
    assert min_eigenvalue(k) >= -1e-14 * k.norm


def test_jz_matrix_is_positive_diagonal():
    k = assemble_constant_matrix("jz", m=1.0, gamma=0.1, T=2.0)
    assert k.a[0, 0].real == pytest.approx(0.8, rel=1e-12)
    assert k.a[1, 1] == 0.0 and k.a[0, 1] == 0.0
    assert abs(min_eigenvalue(k)) <= 1e-15 * k.norm


@given(m=st.floats(0.1, 5.0), gamma=st.floats(1e-3, 2.0),
       T=st.floats(0.1, 50.0))
def test_constant_matrix_determinants_property(m, gamma, T):
    det_cl = assemble_constant_matrix("cl", m=m, gamma=gamma, T=T).det()
    det_ccl = assemble_constant_matrix("ccl", m=m, gamma=gamma, T=T).det()
    assert det_cl == pytest.approx(-gamma ** 2, rel=1e-9)
    assert abs(det_ccl) <= 1e-12 * gamma ** 2 \
        + 1e-12 * assemble_constant_matrix(
            "ccl", m=m, gamma=gamma, T=T).norm ** 2


def test_constant_matrix_units_enter_through_hbar():
    c = PhysicalConstants(hbar=2.0)
    k = assemble_constant_matrix("cl", m=1.0, gamma=0.3, T=1.0, constants=c)
    assert k.det() == pytest.approx(-(0.3 / 2.0) ** 2, rel=1e-12)


def test_constant_matrix_validation():
    with pytest.raises(ValueError):
        assemble_constant_matrix("hpz", m=1.0, gamma=0.1, T=1.0)
    with pytest.raises(ValueError):
        assemble_constant_matrix("cl", m=-1.0, gamma=0.1, T=1.0)


# ------------------------------------------------------------- HPZ matrices

@pytest.fixture(scope="module")
def hpz_table():
    bath = ThermalBathSpec(SpectralDensity(1.0, 0.1, 20.0), T=10.0)
    grid = np.linspace(0.0, 6.0, 231)
    kernel = CorrelationKernel.from_bath(bath, grid)
    k = OscillatorKernels(1.0)
    return compute_coefficients(dressed_kernel(kernel, k, 1), k)


def test_assemble_hpz_matrix_structure(hpz_table):
    k = assemble_hpz_matrix(hpz_table, float(hpz_table.grid[40]))
    i = 40
    assert k.a[0, 0].real == pytest.approx(-2.0 * hpz_table.Gamma[i], rel=1e-12)
    assert k.a[1, 1] == 0.0
    assert k.a[0, 1] == pytest.approx(
        -hpz_table.Theta[i] + 1j * hpz_table.Upsilon[i], rel=1e-12)
    assert k.det() == pytest.approx(
        -(hpz_table.Theta[i] ** 2 + hpz_table.Upsilon[i] ** 2), rel=1e-10)


def test_assemble_hpz_matrix_requires_grid_node(hpz_table):
    with pytest.raises(ValueError, match="node"):
        assemble_hpz_matrix(hpz_table, 0.01234567)


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
    k = assemble_hpz_matrix(hpz_table, float(t_grid[7]))
    big = KossakowskiMatrix(a=k.a * 1e9)
    small = KossakowskiMatrix(a=k.a * 1e-9)
    assert audit_cp(k).verdict == audit_cp(big).verdict \
        == audit_cp(small).verdict == "NotCP"


def test_audit_constant_matrices():
    cl = assemble_constant_matrix("cl", m=1.0, gamma=0.1, T=1.0)
    ccl = assemble_constant_matrix("ccl", m=1.0, gamma=0.1, T=1.0)
    jz = assemble_constant_matrix("jz", m=1.0, gamma=0.1, T=1.0)
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
        KossakowskiMatrix(a=np.eye(3))


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
        a = assemble_constant_matrix(variant, m=m, constants=c, **kw).a
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = c.hbar ** 2 * (j @ a.real @ j.T)
    zero = GaussianMomentState(0.0, 0.0, 0.0, 0.0, 0.0)
    d = moment_rhs(spec, zero, 0.4).as_array()
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
    assert np.array_equal(
        a[0, 0], assemble_hpz_matrix(hpz_table, hpz_table.grid[40]).a[0, 0])


def test_qp_matrix_is_rank_one():
    k = assemble_constant_matrix("qp", m=1.3, gamma=0.21, T=7.0, mu=0.4)
    d = 4.0 * 1.3 * 0.21 * 7.0
    assert np.allclose(k.a, d * np.array([[1.0, -0.4], [-0.4, 0.16]]),
                       rtol=1e-12, atol=0.0)
    report = audit_cp(k)
    assert report.verdict == "CP-semigroup-form"
    assert "rank-1" in report.flags
