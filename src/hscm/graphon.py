"""The Fermi-Dirac connection kernel and the expected-degree function.

W(x, y) = 1 / (exp(x + y) + 1) is a function of the coordinate sum s = x + y
and maximizes graphon entropy under the expected-degree constraints.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from .errors import DomainError
from .params import EnsembleParams
from .quadrature import gauss_legendre_nodes, quad_checked

_KAPPA_NODES = 64  # Gauss-Legendre nodes per piece of expected_degree_fn


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

    kappa_n(x) = (n - 1) * integral of W(x, y) d mu_n(y).  With L = x + r_n
    and s = gamma (r_n - y) ~ Exp(1), kappa_n(x) = (n - 1) E[W(L - s / gamma)].
    The kernel turns at s = c = clip(gamma L, 0, 745), so the integral is
    three 64-node Gauss-Legendre pieces, [0, min(c, 40)], [min(c, 40), c]
    and [c, c + 40]; the tail past c + 40 is below exp(-40) of the value.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x - p.r_n > 1e-12 * max(1.0, abs(p.r_n))):
        raise DomainError(f"coordinate {np.max(x)} above the support end {p.r_n}")
    big_l = (x + p.r_n)[..., None]
    c = np.clip(p.gamma * big_l, 0.0, 745.0)
    ends = (np.zeros_like(c), np.minimum(c, 40.0), c, c + 40.0)
    f = 0.0
    for a, b in zip(ends, ends[1:]):  # one piece at a time keeps the temporaries small
        s, w = gauss_legendre_nodes(a, b, _KAPPA_NODES)
        f = f + (np.exp(-s) * _logistic_neg(big_l - s / p.gamma) * w).sum(axis=-1)
    out = (p.n - 1) * f
    return out if out.ndim else float(out)


def expectation_of_sum(p: EnsembleParams, f_of_sum, rtol: float) -> float:
    """E[f(X + Y)] with X, Y independent draws from the latent measure.

    r_n - X is Exp(gamma), so u = gamma (2 r_n - (X + Y)) has the Gamma(2, 1)
    density u exp(-u) and the double integral is exactly the 1D integral of
    f(2 r_n - u / gamma) against it.  f maps an array of sums s = x + y to an
    array of values.
    """
    gamma, r2 = p.gamma, 2.0 * p.r_n

    def integrand(u):
        return f_of_sum(r2 - u / gamma) * u * np.exp(-u)

    # Kernel transition sits at s = 0, i.e. u = gamma 2 r_n; integrate the two
    # ranges separately.  Past u = 700 the density is below exp(-700), so a
    # farther transition is left to the tail and the head stays where the
    # mass is.
    u0 = min(gamma * r2, 700.0)
    head = quad_checked(integrand, 0.0, u0, rtol=rtol) if u0 > 0 else 0.0
    return head + quad_checked(integrand, max(u0, 0.0), np.inf, rtol=rtol)


def mean_kernel_value(p: EnsembleParams) -> float:
    """E[W(X, Y)] with X, Y independent draws from the latent measure."""
    return expectation_of_sum(p, lambda s: w_fermi_dirac(s, 0.0), 1e-11)
