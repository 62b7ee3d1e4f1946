"""Adaptive Gauss-Legendre quadrature with hard error checking, in numpy alone."""

from __future__ import annotations

import functools

import numpy as np

from .errors import QuadratureError

_MAX_INTERVALS = 200  # subintervals quad_checked may use
_ABS_TOL = 1e-300  # an error below this is accepted whatever the value


def _legendre_and_derivative(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@functools.lru_cache(maxsize=16)
def _legendre(order):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_order from Tricomi's start points; at order 512 the
    nodes agree with 30-digit values to 1.1e-16 and the weights to 2.2e-13
    relative.
    """
    n = order
    x = -(1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * np.arange(1, n + 1) - 1)
                                                  / (4 * n + 2))
    step = np.ones(n)
    while np.max(np.abs(step)) > 1e-15:  # quadratic convergence: 2-3 steps
        p, dp = _legendre_and_derivative(n, x)
        step = p / dp
        x = x - step
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.setflags(write=False)  # every caller shares the cached arrays
    w.setflags(write=False)
    return x, w


def gauss_legendre_nodes(a, b, order):
    """Nodes and weights of Gauss-Legendre quadrature mapped to [a, b]."""
    x, w = _legendre(order)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


_X10, _W10 = _legendre(10)
_X20, _W20 = _legendre(20)
_NODES = np.concatenate((_X10, _X20))


def quad_checked(f, a, b, rtol=1e-10):
    """Integral of f over [a, b], b finite or inf, to relative error rtol.

    f maps an array of points to the array of its values.  Each round evaluates
    f once, on the 10- and 20-point Gauss-Legendre nodes of every open
    subinterval; the 20-point sum is the subinterval's value and its
    distance to the 10-point sum the error estimate.  A subinterval whose
    estimate is within its length's share of max(rtol * |integral|, 1e-300)
    is retired, the others are bisected.  [a, inf) is mapped onto [0, 1) by
    t = a + s / (1 - s).  A non-finite integrand value, or more than 200
    subintervals, raises QuadratureError naming the subinterval at fault.
    """
    if np.isinf(b):
        def g(s):
            return f(a + s / (1.0 - s)) / (1.0 - s) ** 2

        def at(s):  # the point of [a, inf) that s maps to
            return a + s / (1.0 - s) if s < 1.0 else b
        lo, hi = 0.0, 1.0
    else:
        g, at, lo, hi = f, float, a, b
    left, right = np.array([lo]), np.array([hi])
    done, retired = 0.0, 0
    while True:
        half = 0.5 * (right - left)[:, None]
        y = g(left[:, None] + half * (_NODES + 1.0)) * half
        bad = ~np.isfinite(y).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise QuadratureError(f"quadrature on [{a}, {b}]: non-finite integrand on "
                                  f"[{at(left[i]):.6g}, {at(right[i]):.6g}]")
        g10, g20 = y[:, :10] @ _W10, y[:, 10:] @ _W20
        value, err = done + g20.sum(), np.abs(g10 - g20)
        ok = err <= max(rtol * abs(value), _ABS_TOL) * (right - left) / (hi - lo)
        if ok.all():
            return float(value)
        done, retired = done + g20[ok].sum(), retired + int(ok.sum())
        left, right, err = left[~ok], right[~ok], err[~ok]
        if retired + 2 * left.size > _MAX_INTERVALS:
            i = int(np.argmax(err))
            raise QuadratureError(
                f"quadrature on [{a}, {b}]: error estimate {err.sum():.3e} exceeds tolerance "
                f"rtol={rtol:g} for value {value:.6e} with {retired + left.size} subintervals; "
                f"the largest, {err[i]:.3e}, on [{at(left[i]):.6g}, {at(right[i]):.6g}]")
        mid = 0.5 * (left + right)
        left, right = np.concatenate((left, mid)), np.concatenate((mid, right))
