"""Closed-form and semi-analytic degree theory.

The limiting degree law is mixed Poisson with a Pareto mixing variable Y of
shape gamma and scale beta*nu:

    P(D = k) = E[Y^k exp(-Y) / k!] = gamma (beta nu)^gamma Gamma(k - gamma, beta nu) / k!

where Gamma(a, x) is the upper incomplete gamma function, continued to
negative non-integer a.  DegreeLaw.pmf_array seeds one degree near
gamma - beta nu by quadrature and reaches every other degree by the
recurrence of Gamma(a, x) in a, rewritten for the pmf itself and run in the
direction in which it does not amplify errors.  The tests cross-check it
against mpmath and against brute-force quadrature of the mixing integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError
from .graphon import mean_kernel_value
from .params import EnsembleParams
from .quadrature import quad_checked


@dataclass(frozen=True)
class ParetoLaw:
    """Pareto(shape, scale): density shape * scale^shape * y^-(shape+1) on [scale, inf)."""

    shape: float
    scale: float

    def __post_init__(self):
        if self.shape <= 1.0 or self.scale <= 0.0:
            raise DomainError("Pareto mixing law needs shape > 1 and scale > 0")

    @property
    def mean(self) -> float:
        return self.shape * self.scale / (self.shape - 1.0)


def pareto_tail(law: ParetoLaw, y):
    """P(Y > y) = (scale / y)^shape for y >= scale, else 1."""
    y = np.asarray(y, dtype=float)
    out = np.where(y >= law.scale, np.power(law.scale / np.maximum(y, law.scale), law.shape), 1.0)
    return out if out.ndim else float(out)


def _upper_gamma_quad(a: float, x: float) -> float:
    """x^(1-a) e^x Gamma(a, x) = int_x^inf (t/x)^(a-1) exp(x - t) dt by adaptive quadrature.

    The scaling keeps the value in (0, 1] for a <= 1, whatever the size of x,
    where Gamma(a, x) itself underflows once x passes ~745.
    """

    def integrand(t):
        return math.exp((a - 1.0) * math.log(t / x) + x - t)

    split = max(2.0 * x, x + 10.0)
    head = quad_checked(integrand, x, split, rtol=1e-13)
    tail = quad_checked(integrand, split, np.inf, rtol=1e-13)
    return head + tail


@dataclass(frozen=True)
class DegreeLaw:
    """Limiting degree pmf of an ensemble, with its Pareto mixing law."""

    params: EnsembleParams

    @property
    def mixing(self) -> ParetoLaw:
        return ParetoLaw(shape=self.params.gamma, scale=self.params.pareto_scale)

    def pmf_array(self, k_max: int) -> np.ndarray:
        """pmf(0..k_max) by one recurrence in pmf space, seeded by one quadrature.

        With x = beta*nu and pi_k = x^k e^-x / k!,
        (k + 1) P_{k+1} = (k - gamma) P_k + gamma pi_k.  Against the pmf, its
        homogeneous solution grows by a factor of about (gamma - k - 1) / x
        per step up, so the pmf is seeded at
        K = min(k_max, max(0, floor(gamma - x))),
        P_K = gamma pi_K x^(gamma-K) e^x Gamma(K - gamma, x), and the
        recurrence runs down to 0 and up to k_max, each in its stable
        direction.  pi_k is taken in log space, so no term underflows before
        the pmf does.
        """
        if k_max < 0 or k_max != int(k_max):
            raise DomainError(f"k_max must be a non-negative integer, got {k_max}")
        gamma, x = self.params.gamma, self.params.pareto_scale
        k_max = int(k_max)
        seed = min(int(max(0.0, gamma - x)), k_max)
        ks = np.arange(k_max + 1)
        pois = np.exp(ks * math.log(x) - x - gammaln(ks + 1.0)).tolist()
        out = np.empty(k_max + 1)
        out[seed] = pk = gamma * pois[seed] * _upper_gamma_quad(seed - gamma, x) / x
        for k in range(seed - 1, -1, -1):
            pk = (gamma * pois[k] - (k + 1) * pk) / (gamma - k)
            out[k] = pk
        pk = out[seed]
        for k in range(seed, k_max):
            pk = ((k - gamma) * pk + gamma * pois[k]) / (k + 1)
            out[k + 1] = pk
        return out


def expected_avg_degree_finite_n(p: EnsembleParams) -> float:
    """(n - 1) * E[W(X, Y)], the finite-n expected average degree.

    E[W] is the exact 1D Gamma(2, gamma) integral of
    :func:`hscm.graphon.mean_kernel_value`.
    """
    return (p.n - 1) * mean_kernel_value(p)


def finite_size_epsilon(p: EnsembleParams) -> float:
    """Finite-size correction exp(-(gamma-1) r_n) - exp(-2 gamma r_n)."""
    return math.exp(-(p.gamma - 1.0) * p.r_n) - math.exp(-2.0 * p.gamma * p.r_n)


def finite_size_degree_tail(p: EnsembleParams, t):
    """Tail P(expected degree of a random node > t) at finite n.

    Piecewise: 1 below beta*nu*(1-eps_n), the Pareto tail damped by
    (1-eps_n)^gamma in the middle, and 0 above sqrt(nu n)*(1-eps_n), with
    eps_n = exp(-(gamma-1) r_n) - exp(-2 gamma r_n).
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0):
        raise DomainError("tail argument must be positive")
    eps = finite_size_epsilon(p)
    lo = p.pareto_scale * (1.0 - eps)
    hi = math.sqrt(p.nu * p.n) * (1.0 - eps)
    mid = (p.pareto_scale / t_arr) ** p.gamma * (1.0 - eps) ** p.gamma
    out = np.where(t_arr < lo, 1.0, np.where(t_arr > hi, 0.0, mid))
    return out if out.ndim else float(out)
