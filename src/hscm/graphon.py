"""Connection-probability kernels and expected-degree functions.

Two kernels are supported, both functions of the coordinate sum s = x + y:

* Fermi-Dirac:     W(x, y) = 1 / (exp(s) + 1), the entropy maximizer,
* classical limit: What(x, y) = min(exp(-s), 1), the product kernel that
  dominates W pointwise and is exact in the s -> +inf limit.

The per-representation variants (unit interval, Pareto) are algebraic rewrites
of the Fermi-Dirac kernel under the transforms in :mod:`hscm.params` and agree
with it exactly.
"""

from __future__ import annotations

import enum
import math

import numpy as np
from scipy.special import hyp2f1, xlogy

from .errors import DomainError
from .params import EnsembleParams
from .quadrature import quad_checked


class KernelKind(enum.Enum):
    FERMI_DIRAC = "fermi_dirac"
    CLASSICAL_LIMIT = "classical_limit"


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


def w_classical(x, y):
    """Classical-limit kernel min(exp(-(x + y)), 1); dominates w_fermi_dirac."""
    s = np.asarray(x, dtype=float) + np.asarray(y, dtype=float)
    out = np.where(s <= 0.0, 1.0, np.exp(-np.clip(s, 0.0, None)))
    return out if out.ndim else float(out)


def kernel(kind: KernelKind):
    """Kernel callable of the coordinate pair (x, y)."""
    if kind is KernelKind.FERMI_DIRAC:
        return w_fermi_dirac
    if kind is KernelKind.CLASSICAL_LIMIT:
        return w_classical
    raise DomainError(f"unknown kernel kind {kind}")


def w_unit_interval(p: EnsembleParams, xt, yt):
    """Kernel in unit-interval coordinates: 1 / ((n/(beta^2 nu)) (xt*yt)^(1/gamma) + 1)."""
    xt = np.asarray(xt, dtype=float)
    yt = np.asarray(yt, dtype=float)
    if np.any(xt <= 0.0) or np.any(yt <= 0.0):
        raise DomainError("unit-interval coordinates must be positive")
    scale = p.n / (p.beta * p.beta * p.nu)
    out = 1.0 / (scale * np.power(xt * yt, 1.0 / p.gamma) + 1.0)
    return out if out.ndim else float(out)


def w_pareto(p: EnsembleParams, x, y):
    """Kernel in Pareto coordinates: 1 / (nu*n / (x*y) + 1), x, y >= beta*nu."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo = p.pareto_scale * (1.0 - 1e-9)
    if np.any(x < lo) or np.any(y < lo):
        raise DomainError(f"Pareto coordinates must be >= {p.pareto_scale}")
    out = 1.0 / (p.nu * p.n / (x * y) + 1.0)
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


def classical_entropy_of_sum(s):
    """H(min(exp(-s), 1)) as a function of s = x + y, stable for s near 0+."""
    s = np.asarray(s, dtype=float)
    sp = np.clip(s, 0.0, None)
    w = np.exp(-sp)
    one_minus_w = -np.expm1(-sp)
    out = np.where(s <= 0.0, 0.0, sp * w - xlogy(one_minus_w, one_minus_w))
    return out if out.ndim else float(out)


def entropy_of_sum(kind: KernelKind):
    """H(K(s)) callable in the coordinate sum, stable in both tails."""
    if kind is KernelKind.FERMI_DIRAC:
        return bernoulli_entropy_logit
    if kind is KernelKind.CLASSICAL_LIMIT:
        return classical_entropy_of_sum
    raise DomainError(f"unknown kernel kind {kind}")


def omega_n(p: EnsembleParams) -> float:
    """Integral of exp(-x) over [0, r_n] against the latent measure.

    Closed form (1 - exp(-(gamma-1) r_n)) / (beta * exp(r_n)); this is the
    sqrt(nu/n) + o(n^{-1/2}) prefactor of the approximate expected-degree
    function omega_n * exp(-x).
    """
    if p.r_n <= 0.0:
        raise DomainError("omega_n requires r_n > 0 (n > beta^2 * nu)")
    return -math.expm1(-(p.gamma - 1.0) * p.r_n) / (p.beta * math.exp(p.r_n))


def expected_degree_fn(p: EnsembleParams, x, kind: KernelKind):
    """Expected degree of a node at exponential coordinate x (scalar or array).

    Fermi-Dirac: kappa_n(x) = (n - 1) * integral of W(x, y) d mu_n(y).  The
    substitution z = exp(gamma*(y - r_n)) turns the integral into Euler's
    integral of a hypergeometric function, so

        kappa_n(x) = (n - 1) * 2F1(1, gamma; gamma + 1; -exp(x + r_n)),

    one vectorised scipy.special.hyp2f1 call.

    Classical limit: the closed form n * omega_n * exp(-x) for 0 <= x <= r_n
    and 0 for x < 0 (the approximation is defined to vanish there).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x - p.r_n > 1e-12 * max(1.0, abs(p.r_n))):
        raise DomainError(f"coordinate {np.max(x)} above the support end {p.r_n}")
    if kind is KernelKind.CLASSICAL_LIMIT:
        # omega_n needs r_n > 0, which holds whenever some x >= 0 is valid
        front = p.n * omega_n(p) if np.any(x >= 0.0) else 0.0
        out = np.where(x < 0.0, 0.0, front * np.exp(-np.maximum(x, 0.0)))
    else:
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


def mean_kernel_value(p: EnsembleParams, kind: KernelKind = KernelKind.FERMI_DIRAC,
                      rtol=1e-11) -> float:
    """E[K(X, Y)] with X, Y independent draws from the latent measure."""
    k = kernel(kind)
    return expectation_of_sum(p, lambda s: k(s, 0.0), rtol)
