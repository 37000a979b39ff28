"""Complete-positivity audits of the generators' Kossakowski matrices.

Every master-equation variant is a quadratic generator (G, a) built by
:mod:`qbmlab.dynamics`, whose docstring tabulates them, in the form

    drho/dt = -(i/hbar)[H, rho]
              + sum_jk a_jk (F_j rho F_k - (1/2){F_k F_j, rho})

with F_1 = q, F_2 = p.  Such a generator is completely positive
(Lindblad type) exactly when the 2x2 Hermitian Kossakowski matrix a is
positive semidefinite (Lindblad, Rep. Math. Phys. 10, 393 (1976);
Sandulescu and Scutaru, Ann. Phys. 173, 277 (1987)).  The exact
generator has a_pp = 0, so det a = -|a_qp|^2 and it is never of
CP-semigroup form unless Theta and Upsilon both vanish; CL has
det a = -gamma^2 / hbar^2 < 0; JZ, CCL and QP have rank-1 matrices (CP).

The entries of a carry different mass dimensions, so the decision reads
no eigenvalue: a is positive semidefinite when a_qq >= 0, a_pp >= 0 and
det a >= -tol (|a_qq a_pp| + |a_qp|^2), and of rank <= 1 when also
|det a| <= tol (|a_qq a_pp| + |a_qp|^2).  A change of units is a
congruence diag(s_q, s_p), which keeps the signs of the diagonal and
scales det a and its bound alike.  lambda_min and the spectral norm are
reported, not decided on.

`audit_cp` reads a `QuadraticGenerator` through `QuadraticGenerator.at`,
its `params` times its `units`, which the moment ODE and the Fock oracle
step too: a tabulated generator is audited at its grid nodes, or
interpolated at any time inside its table.  A bare coefficient table
carries no mass, so it is audited as the generator of m = 1; audit
`MasterEquationSpec(...).generator` for any other mass, as the CLI does.
"""

from dataclasses import dataclass, field

import numpy as np

from .bath import PhysicalConstants
from .coefficients import HPZCoefficients
from .dynamics import MasterEquationSpec, SystemSpec

_HERMITICITY_TOL = 1e-12
_CP_TOL = 1e-12  # det a relative to |a_qq a_pp| + |a_qp|^2


def _closed_form(a):
    """lambda_min, det and spectral norm of Hermitian (..., 2, 2) matrices."""
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix is not finite")
    scale = np.maximum(np.max(np.abs(a), axis=(-2, -1)), 1e-300)
    skew = np.max(np.abs(a - np.swapaxes(a, -2, -1).conj()), axis=(-2, -1))
    if np.any(skew > _HERMITICITY_TOL * scale):
        raise ValueError("matrix is not Hermitian to 1e-12")
    a00, a11 = a[..., 0, 0].real, a[..., 1, 1].real
    tr = a00 + a11
    det = (a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]).real
    # sqrt(tr^2 - 4 det), without its cancellation when a00 ~ a11
    root = np.hypot(a00 - a11, 2.0 * np.abs(a[..., 0, 1]))
    return 0.5 * (tr - root), det, 0.5 * (np.abs(tr) + root)


def _cp_rule(a, det, tol):
    """(PSD, PSD of rank <= 1) to tol by the unit-free rule of the module
    docstring; rank <= 1 means one Lindblad operator is the dissipator."""
    a00, a11 = a[..., 0, 0].real, a[..., 1, 1].real
    bound = tol * (np.abs(a00 * a11) + np.abs(a[..., 0, 1]) ** 2)
    psd = (a00 >= 0.0) & (a11 >= 0.0) & (det >= -bound)
    return psd, psd & (np.abs(det) <= bound)


def rank_one_factor(a):
    """(D, v) with a = D v v^dag, v normalized on a's larger diagonal entry.

    Raises ValueError unless the Hermitian 2x2 matrix a is positive
    semidefinite with rank <= 1 (the audit's rank-1 criterion); a = 0
    has rank 0 and gives D = 0.
    """
    a = np.asarray(a, dtype=complex)
    lam, det, _ = _closed_form(a)
    if not _cp_rule(a, det, _CP_TOL)[1]:
        raise ValueError("Kossakowski matrix is not positive semidefinite "
                         f"of rank <= 1 (lambda_min = {lam:.6e}, "
                         f"det = {det:.6e})")
    k = int(a[1, 1].real > a[0, 0].real)
    d = max(float(a[k, k].real), 0.0)
    if d == 0.0:
        return 0.0, np.eye(2, dtype=complex)[k]
    # divide the parts apart: complex division can round v_k off 1
    return d, a[:, k].real / d + 1j * (a[:, k].imag / d)


def check_noise_realizable(d, s):
    """Raise ValueError unless E[dW conj(dW)] = d dt, E[dW dW] = s dt exist."""
    if not abs(s) <= d * (1.0 + _CP_TOL):  # NaN fails too
        raise ValueError(f"|S_scalar| = {abs(s):g} must be <= the noise "
                         f"rate D = {d:g}")


def _table_generator(coefficients, constants):
    """Generator of a bare coefficient table, which carries no mass: m = 1."""
    return MasterEquationSpec("hpz", SystemSpec(m=1.0, omega_S=0.0),
                              constants=constants,
                              coefficients=coefficients).generator


def assemble_constant_matrix(variant, *, m, gamma, T, mu=None,
                             constants=PhysicalConstants()):
    """Generator of a constant-coefficient variant at omega_S = 0.

    mu is read by QP only; the generator's `a` is the variant's
    Kossakowski matrix.
    """
    return MasterEquationSpec(variant, SystemSpec(m=m, omega_S=0.0),
                              constants=constants, gamma=gamma, T=T,
                              mu=mu).generator


@dataclass
class CPAuditReport:
    """Eigenvalue scan of Kossakowski matrices over a time window."""

    times: np.ndarray
    lambda_min: np.ndarray
    det: np.ndarray
    norm: np.ndarray
    verdict: str  # "CP-semigroup-form" or "NotCP"
    tol: float
    first_violation_time: float | None
    flags: list[str] = field(default_factory=list)

    def to_json_dict(self):
        """The verdict and its summary; `io.audit_table` holds the scan."""
        return {
            "verdict": self.verdict,
            "tol": self.tol,
            "first_violation_time": self.first_violation_time,
            "flags": list(self.flags),
            "n_times": int(self.times.size),
            "min_lambda_min": float(np.min(self.lambda_min)),
            "max_norm": float(np.max(self.norm)),
        }


def audit_cp(source, t_grid=None, constants=PhysicalConstants()):
    """Scan min eigenvalues and classify the generator.

    `source` is a `QuadraticGenerator`, or an HPZCoefficients table,
    audited as the generator of a unit mass.  The Kossakowski matrix is
    read through `QuadraticGenerator.at` at the times t_grid (a scalar or
    a non-empty sequence): a tabulated generator defaults to its grid
    nodes, is interpolated between them as the propagators step it, and
    rejects a time outside its table; a constant one defaults to [0.0],
    which only labels the report.  The verdict is "NotCP" as soon as one
    sampled matrix fails the module docstring's PSD rule at tol = 1e-12.
    """
    if isinstance(source, HPZCoefficients):
        source = _table_generator(source, constants)
    if t_grid is None:
        t_grid = [0.0] if source.grid is None else source.grid
    times = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if times.size == 0:
        raise ValueError("t_grid must hold at least one time")

    a = source.at(times)[1]
    lam, det, norm = _closed_form(a)
    psd, rank_one = _cp_rule(a, det, _CP_TOL)
    bad = ~psd
    first = float(times[np.argmax(bad)]) if np.any(bad) else None
    verdict = "NotCP" if np.any(bad) else "CP-semigroup-form"

    flags = []
    if np.all(rank_one & (norm > 0.0)):
        flags.append("rank-1")

    return CPAuditReport(times=times, lambda_min=lam, det=det, norm=norm,
                         verdict=verdict, tol=_CP_TOL,
                         first_violation_time=first, flags=flags)
