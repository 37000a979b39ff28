"""The kernel's adaptive-quadrature oracle: D_re and D_im at one tau by
QUADPACK's oscillatory rules (scipy.integrate.quad), independent of the
closed forms, the Gauss-Legendre rule and the series that tabulate the
kernel in `qbmlab.bath`.

The integrals are taken in the pure numbers u = w / Omega and
x = Omega tau:

    D_re(tau) =  P int_0^inf f(u) u coth(a Omega u) cos(u x) du
    D_im(tau) = -P int_0^inf f(u) u sin(u x) du

with P = 2 m gamma hbar Omega^2 / pi, so a change of units changes only P.
The even part is split at the bends of u coth(a Omega u) near 1 / (a Omega)
and 10 / (a Omega): QAWO on each finite piece, QAWF beyond the last.  At
tau = 0 the Drude integral is truncated at 10^6 Omega, as the tables'.
A missed target is a QuadratureWarning; a non-finite result a
QuadratureError.
"""

import itertools
import warnings

import numpy as np
from scipy import integrate

from qbmlab.bath import (CutoffKind, QuadratureError, QuadratureWarning,
                         _cutoff_factor, _omega_coth)

# upper limit of the integrals at tau = 0, in units of Omega
_REACH = {CutoffKind.SHARP: 1.0, CutoffKind.EXPONENTIAL: 60.0,
          CutoffKind.DRUDE: 1e6}


def _quad_checked(func, cuts, *, what, epsabs, epsrel, scale, **kwargs):
    """integrate.quad summed over the pieces between consecutive `cuts`,
    with non-convergence (of the summed error estimate) turned into
    warnings."""
    result = abserr = 0.0
    notes = []
    for lo, hi in itertools.pairwise(cuts):
        out = integrate.quad(func, lo, hi, epsabs=epsabs, epsrel=epsrel,
                             full_output=1, **kwargs)
        result, abserr = result + out[0], abserr + out[1]
        notes += out[3:4]  # quadpack appended an explanation message
    if not np.isfinite(result):
        raise QuadratureError(f"{what}: quadrature returned {result}")
    if notes:
        warnings.warn(
            f"{what}: quadrature did not converge to target "
            f"(achieved abs error {abserr:.3e}); {'; '.join(notes)}",
            QuadratureWarning, stacklevel=3)
    elif abserr > 10.0 * max(epsabs, epsrel * abs(result), epsrel * scale):
        warnings.warn(
            f"{what}: achieved abs error {abserr:.3e} exceeds target "
            f"for result {result:.6e}",
            QuadratureWarning, stacklevel=3)
    return result


def correlation_part(bath, tau, quad_tol, part):
    """Even (part "re") or odd (part "im") part of D at tau >= 0."""
    sd = bath.spectral
    kind = sd.cutoff_kind
    W = sd.Omega
    if part == "re":
        a_omega = bath.thermal_time * W

        def integrand(u):
            return _cutoff_factor(kind, u) * _omega_coth(u, a_omega)

        scale = _omega_coth(1.0, a_omega)
        sign, weight, bends = 1.0, "cos", (1.0 / a_omega, 10.0 / a_omega)
    else:
        if tau == 0.0:
            return 0.0

        def integrand(u):
            return u * _cutoff_factor(kind, u)

        scale = 1.0
        sign, weight, bends = -1.0, "sin", ()

    # scale: the magnitude of the integral, for the absolute tolerances of
    # the semi-infinite weighted rules
    args = {"what": f"D_{part}({tau:g}) / (2 m gamma hbar Omega^2 / pi)",
            "epsabs": quad_tol * scale, "epsrel": quad_tol, "scale": scale}
    if tau == 0.0:  # the even part only; no oscillatory weight
        upper = _REACH[kind]
        # the bends of u coth(a Omega u) and of the profile near u = 1
        points = sorted({p for p in (*bends, 1.0) if p < upper})
        value = _quad_checked(integrand, (0.0, upper), limit=500,
                              points=points or None, **args)
    else:
        upper = 1.0 if kind is CutoffKind.SHARP else np.inf
        cuts = (0.0, *(p for p in bends if p < upper), upper)
        value = sign * _quad_checked(integrand, cuts, weight=weight,
                                     wvar=W * tau, limit=500, limlst=200,
                                     **args)
    return 2.0 * sd.m * sd.gamma * bath.constants.hbar / np.pi * W * W \
        * value


def correlation(bath, tau, quad_tol=1e-8):
    """D(tau) = D_re(|tau|) + i sign(tau) D_im(|tau|) at any real tau."""
    tau = float(tau)
    re = correlation_part(bath, abs(tau), quad_tol, "re")
    im = correlation_part(bath, abs(tau), quad_tol, "im")
    return complex(re, -im if tau < 0.0 else im)


def re_table(bath, grid, quad_tol):
    """D_re at every node of `grid`, QuadratureWarnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureWarning)
        return np.array([correlation_part(bath, float(t), quad_tol, "re")
                         for t in grid])
