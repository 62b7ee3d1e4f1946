"""Thin wrappers around scipy adaptive quadrature with hard error checking."""

from __future__ import annotations

import warnings

import numpy as np
from scipy import integrate
from scipy.special import roots_legendre

from .errors import QuadratureError


def quad_checked(f, a, b, rtol=1e-10, points=None):
    """scipy.integrate.quad that raises QuadratureError instead of warning.

    The error estimate must satisfy abserr <= rtol * |value|; that
    check alone decides the outcome, so scipy's IntegrationWarning is
    suppressed.  `points` are interior break points (ignored when the interval
    is infinite, as required by scipy).
    """
    infinite = np.isinf(a) or np.isinf(b)
    kwargs = {"epsabs": 1e-300, "epsrel": rtol, "limit": 200}
    if points is not None and not infinite:
        pts = [float(t) for t in points if min(a, b) < t < max(a, b)]
        if pts:
            kwargs["points"] = sorted(pts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr = integrate.quad(f, a, b, full_output=0, **kwargs)
    if not np.isfinite(value):
        raise QuadratureError(f"quadrature on [{a}, {b}] returned non-finite value {value}")
    if abserr > max(rtol * abs(value), 1e-300):
        raise QuadratureError(
            f"quadrature on [{a}, {b}]: error estimate {abserr:.3e} exceeds "
            f"tolerance rtol={rtol:g} for value {value:.6e}"
        )
    return value


def gauss_legendre_nodes(a, b, order):
    """Nodes and weights of Gauss-Legendre quadrature mapped to [a, b]."""
    x, w = roots_legendre(order)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w
