"""The Fermi-Dirac connection kernel and the expected-degree function.

W(x, y) = 1 / (exp(x + y) + 1) is a function of the coordinate sum s = x + y
and maximizes graphon entropy under the expected-degree constraints.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import hyp2f1, xlogy

from .errors import DomainError
from .params import EnsembleParams
from .quadrature import quad_checked


def _logistic_neg(s):
    """1 / (1 + exp(s)) evaluated on the numerically stable branch."""
    s = np.asarray(s, dtype=float)
    t = np.exp(-np.abs(s))
    out = np.where(s >= 0.0, t / (1.0 + t), 1.0 / (1.0 + t))
    return out


def w_fermi_dirac(x, y):
    """Fermi-Dirac kernel 1 / (exp(x + y) + 1); symmetric, strictly in (0, 1)."""
    out = _logistic_neg(np.asarray(x, dtype=float) + np.asarray(y, dtype=float))
    return out if out.ndim else float(out)


def bernoulli_entropy(pr):
    """H(p) = -p log p - (1-p) log(1-p) in nats, with H(0) = H(1) = 0."""
    pr = np.asarray(pr, dtype=float)
    if np.any(pr < 0.0) or np.any(pr > 1.0):
        raise DomainError("Bernoulli probability must lie in [0, 1]")
    out = -xlogy(pr, pr) - xlogy(1.0 - pr, 1.0 - pr)
    return out if out.ndim else float(out)


def bernoulli_entropy_logit(s):
    """H(W(s)) for the Fermi-Dirac kernel as a function of s = x + y.

    Uses H(W(s)) = log(1 + exp(-|s|)) + |s| * W(|s|), which is exact by the
    symmetry H(p) = H(1-p) and stable in the deep tails where W(s) rounds
    to 0 or 1 in double precision.
    """
    s = np.abs(np.asarray(s, dtype=float))
    t = np.exp(-s)
    out = np.log1p(t) + s * t / (1.0 + t)
    return out if out.ndim else float(out)


def expected_degree_fn(p: EnsembleParams, x):
    """Expected degree of a node at exponential coordinate x (scalar or array).

    kappa_n(x) = (n - 1) * integral of W(x, y) d mu_n(y).  The substitution
    z = exp(gamma*(y - r_n)) turns the integral into Euler's integral of a
    hypergeometric function, so

        kappa_n(x) = (n - 1) * 2F1(1, gamma; gamma + 1; -exp(x + r_n)),

    one vectorised scipy.special.hyp2f1 call.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x - p.r_n > 1e-12 * max(1.0, abs(p.r_n))):
        raise DomainError(f"coordinate {np.max(x)} above the support end {p.r_n}")
    out = (p.n - 1) * hyp2f1(1.0, p.gamma, p.gamma + 1.0, -np.exp(x + p.r_n))
    return out if out.ndim else float(out)


def expectation_of_sum(p: EnsembleParams, f_of_sum, rtol=1e-11) -> float:
    """E[f(X + Y)] with X, Y independent draws from the latent measure.

    r_n - X is Exp(gamma), so t = 2 r_n - (X + Y) has the Gamma(2, gamma)
    density gamma^2 t exp(-gamma t) and the double integral is exactly the 1D
    integral of f(2 r_n - t) against it.  f is a scalar function of s = x + y.
    """
    gamma, r2 = p.gamma, 2.0 * p.r_n

    def integrand(t):
        return f_of_sum(r2 - t) * gamma * gamma * t * math.exp(-gamma * t)

    # Kernel transition sits at s = 0, i.e. t = 2 r_n; integrate the two
    # ranges separately since `points` is unavailable on infinite intervals.
    if r2 > 0:
        head = quad_checked(integrand, 0.0, r2, rtol=rtol, points=[0.5 * r2])
        tail = quad_checked(integrand, r2, np.inf, rtol=rtol)
    else:
        head = 0.0
        tail = quad_checked(integrand, 0.0, np.inf, rtol=rtol)
    return head + tail


def mean_kernel_value(p: EnsembleParams, rtol=1e-11) -> float:
    """E[W(X, Y)] with X, Y independent draws from the latent measure."""
    return expectation_of_sum(p, lambda s: w_fermi_dirac(s, 0.0), rtol)
