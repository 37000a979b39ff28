"""Complete-positivity audits of the generators' Kossakowski matrices.

Every master-equation variant is a quadratic generator (G, a) built by
:mod:`qbmlab.dynamics`, whose docstring tabulates them, in the form

    drho/dt = -(i/hbar)[H, rho]
              + sum_jk a_jk (F_j rho F_k - (1/2){F_k F_j, rho})

with F_1 = q, F_2 = p.  Such a generator is completely positive
(Lindblad type) exactly when the 2x2 Hermitian Kossakowski matrix a is
positive semidefinite (Lindblad, Rep. Math. Phys. 10, 393 (1976);
Sandulescu and Scutaru, Ann. Phys. 173, 277 (1987)).  For the
time-dependent coefficients and mass m,

    a(t) = [[ -2 Gamma,               (-Theta + i Upsilon) / m ],
            [ (-Theta - i Upsilon) / m,                      0 ]] / hbar^2

whose determinant -(Theta^2 + Upsilon^2) / (m hbar^2)^2 is never
positive: the exact generator is never of CP-semigroup form unless
Theta and Upsilon both vanish.  CL has det a = -gamma^2 / hbar^2 < 0;
JZ, CCL and QP have rank-1 matrices (CP).  A bare coefficient table
carries no mass, so `audit_cp` and `assemble_hpz_matrix` take m = 1 for
it; audit `MasterEquationSpec(...).generator` for any other mass, as the
CLI does.
"""

from dataclasses import dataclass, field

import numpy as np

from .bath import PhysicalConstants
from .coefficients import HPZCoefficients
from .dynamics import MasterEquationSpec, SystemSpec

_HERMITICITY_TOL = 1e-12
_CP_TOL = 1e-12  # relative to the spectral norm


def _closed_form(a):
    """lambda_min, det and spectral norm of Hermitian (..., 2, 2) matrices."""
    scale = np.maximum(np.max(np.abs(a), axis=(-2, -1)), 1e-300)
    skew = np.max(np.abs(a - np.swapaxes(a, -2, -1).conj()), axis=(-2, -1))
    if np.any(skew > _HERMITICITY_TOL * scale):
        raise ValueError("matrix is not Hermitian to 1e-12")
    tr = a[..., 0, 0].real + a[..., 1, 1].real
    det = (a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]).real
    root = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return 0.5 * (tr - root), det, 0.5 * (np.abs(tr) + root)


def _rank_at_most_one(lam, det, norm, tol):
    """PSD with det = 0 (to tol): one Lindblad operator is the dissipator."""
    scale = np.maximum(norm, 1e-300)
    return (lam >= -tol * scale) & (np.abs(det) <= tol * scale ** 2)


def rank_one_factor(a):
    """(D, v) with a = D v v^dag, v normalized on a's larger diagonal entry.

    Raises ValueError unless the Hermitian 2x2 matrix a is positive
    semidefinite with rank <= 1 (the audit's rank-1 criterion); a = 0
    has rank 0 and gives D = 0.
    """
    a = np.asarray(a, dtype=complex)
    lam, det, norm = _closed_form(a)
    if not _rank_at_most_one(lam, det, norm, _CP_TOL):
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
    if abs(s) > d * (1.0 + _CP_TOL):
        raise ValueError(f"|S_scalar| = {abs(s):g} must be <= the noise "
                         f"rate D = {d:g}")


@dataclass(frozen=True)
class KossakowskiMatrix:
    """2x2 Hermitian coefficient matrix in the (q, p) operator basis."""

    a: np.ndarray
    t: float | None = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        if a.shape != (2, 2):
            raise ValueError("Kossakowski matrix must be 2x2")
        object.__setattr__(self, "a", a)

    @property
    def norm(self):
        """Spectral norm (largest singular value)."""
        return float(_closed_form(self.a)[2])

    def det(self):
        return float(_closed_form(self.a)[1])


def min_eigenvalue(matrix):
    """Smaller eigenvalue of a 2x2 Hermitian matrix, in closed form."""
    a = matrix.a if isinstance(matrix, KossakowskiMatrix) else \
        np.asarray(matrix, dtype=complex)
    return float(_closed_form(a)[0])


def _table_generator(coefficients, constants):
    """Generator of a bare coefficient table, which carries no mass: m = 1."""
    return MasterEquationSpec("hpz", SystemSpec(m=1.0, omega_S=0.0),
                              constants=constants,
                              coefficients=coefficients).generator


def _node_indices(grid, times):
    """Indices of `times` in a uniform grid; every time must be a node."""
    h = grid[1] - grid[0]
    idx = np.clip(np.rint((times - grid[0]) / h).astype(int), 0,
                  grid.size - 1)
    bad = np.abs(grid[idx] - times) > 1e-9 * max(h, 1.0)
    if np.any(bad):
        t = float(times[np.argmax(bad)])
        raise ValueError(f"t = {t:g} is not a node of the coefficient grid")
    return idx


def assemble_hpz_matrix(coefficients, t, constants=PhysicalConstants()):
    """Kossakowski matrix of the table's unit-mass generator at grid time t."""
    gen = _table_generator(coefficients, constants)
    idx = _node_indices(gen.grid, np.array([float(t)]))[0]
    return KossakowskiMatrix(a=gen.a[idx], t=float(t))


def assemble_constant_matrix(variant, *, m, gamma, T, mu=None,
                             constants=PhysicalConstants()):
    """Kossakowski matrix of a constant-coefficient variant (mu: QP only)."""
    spec = MasterEquationSpec(variant, SystemSpec(m=m, omega_S=0.0),
                              constants=constants, gamma=gamma, T=T, mu=mu)
    return KossakowskiMatrix(a=spec.generator.a)


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
        return {
            "verdict": self.verdict,
            "tol": self.tol,
            "first_violation_time": self.first_violation_time,
            "flags": list(self.flags),
            "n_times": int(self.times.size),
            "min_lambda_min": float(np.min(self.lambda_min)),
            "max_norm": float(np.max(self.norm)),
            "times": [float(t) for t in self.times],
            "lambda_min": [float(v) for v in self.lambda_min],
            "det": [float(v) for v in self.det],
            "norm": [float(v) for v in self.norm],
        }


def audit_cp(source, t_grid=None, constants=PhysicalConstants()):
    """Scan min eigenvalues and classify the generator.

    `source` is a constant KossakowskiMatrix (t_grid then only labels
    the report), a `QuadraticGenerator`, or an HPZCoefficients table,
    audited as the generator of a unit mass.  For a tabulated source
    t_grid defaults to its grid and must be a subset of grid nodes.  The
    verdict is "NotCP" as soon as one sampled eigenvalue dips below
    -1e-12 * spectral norm at that time.
    """
    if isinstance(source, HPZCoefficients):
        source = _table_generator(source, constants)
    if getattr(source, "grid", None) is None:
        times = np.atleast_1d(np.asarray(
            t_grid if t_grid is not None else [0.0], dtype=float))
        a = np.broadcast_to(source.a, times.shape + (2, 2))
    else:
        times = np.asarray(t_grid if t_grid is not None else source.grid,
                           dtype=float)
        a = source.a[_node_indices(source.grid, times)]

    lam, det, norm = _closed_form(a)
    floor = -_CP_TOL * np.maximum(norm, 1e-300)
    bad = lam < floor
    first = float(times[np.argmax(bad)]) if np.any(bad) else None
    verdict = "NotCP" if np.any(bad) else "CP-semigroup-form"

    flags = []
    if np.all(_rank_at_most_one(lam, det, norm, _CP_TOL) & (norm > 0.0)):
        flags.append("rank-1")

    return CPAuditReport(times=times, lambda_min=lam, det=det, norm=norm,
                         verdict=verdict, tol=_CP_TOL,
                         first_violation_time=first, flags=flags)
