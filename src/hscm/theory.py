"""Closed-form and semi-analytic degree theory.

The limiting degree law is mixed Poisson with a Pareto mixing variable Y of
shape gamma and scale beta*nu:

    P(D = k) = E[Y^k exp(-Y) / k!] = gamma (beta nu)^gamma Gamma(k - gamma, beta nu) / k!

where Gamma(a, x) is the upper incomplete gamma function, continued to
negative non-integer a.  Two independent routes are implemented: the closed
form above (recurrence-seeded incomplete gamma) and brute-force quadrature of
the mixing integral; they are cross-checked in the tests and, optionally, at
call time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc, gammaln

from .errors import DomainError, NumericalInstabilityError
from .graphon import mean_kernel_value
from .params import EnsembleParams
from .quadrature import quad_checked

# Above this value of a = k - gamma the regularized scipy route is used
# directly; below it, Gamma(a, x) comes from the quadrature-seeded upward
# recurrence Gamma(a+1, x) = a Gamma(a, x) + x^a exp(-x).
_RECURRENCE_A_MAX = 30.0


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

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        safe = np.maximum(y, self.scale)
        out = np.where(y >= self.scale,
                       self.shape * self.scale**self.shape
                       * safe ** (-(self.shape + 1.0)), 0.0)
        return out if out.ndim else float(out)


def pareto_tail(law: ParetoLaw, y):
    """P(Y > y) = (scale / y)^shape for y >= scale, else 1."""
    y = np.asarray(y, dtype=float)
    out = np.where(y >= law.scale, np.power(law.scale / np.maximum(y, law.scale), law.shape), 1.0)
    return out if out.ndim else float(out)


def _upper_gamma_quad(a: float, x: float) -> float:
    """Gamma(a, x) = int_x^inf t^(a-1) exp(-t) dt by direct adaptive quadrature."""

    def integrand(t):
        return math.exp((a - 1.0) * math.log(t) - t)

    split = max(2.0 * x, x + 10.0)
    head = quad_checked(integrand, x, split, rtol=1e-13)
    tail = quad_checked(integrand, split, np.inf, rtol=1e-13)
    return head + tail


def _upper_gamma_chain(gamma: float, x: float, k_max: int) -> np.ndarray:
    """Gamma(k - gamma, x) for k = 0 .. k_max via the upward recurrence.

    Seeded by quadrature at a0 = 1 - gamma, which lies in (-gamma, -gamma + 1];
    k = 0 takes one downward step from the seed.
    """
    vals = np.empty(k_max + 1)
    a0 = 1.0 - gamma
    seed = _upper_gamma_quad(a0, x)
    if k_max >= 1:
        vals[1] = seed
    # Gamma(-gamma, x) = (Gamma(1-gamma, x) - x^-gamma exp(-x)) / (-gamma)
    vals[0] = (seed - math.exp(-gamma * math.log(x) - x)) / (-gamma)
    g = seed
    for k in range(2, k_max + 1):
        a = (k - 1) - gamma
        g = a * g + math.exp(a * math.log(x) - x)
        vals[k] = g
    return vals


def _pmf_large_k(gamma: float, scale: float, ks: np.ndarray) -> np.ndarray:
    """gamma * scale^gamma * Gamma(k-gamma) / Gamma(k+1) * Q(k-gamma, scale), k - gamma > 0."""
    a = ks - gamma
    log_front = math.log(gamma) + gamma * math.log(scale)
    return np.exp(log_front + gammaln(a) - gammaln(ks + 1.0)) * gammaincc(a, scale)


@dataclass
class DegreeLaw:
    """Limiting degree pmf of an ensemble, with its Pareto mixing law.

    pmf values are cached as they are computed.  With ``validate=True`` every
    closed-form pmf evaluation is cross-checked against the quadrature oracle
    and a NumericalInstabilityError is raised on disagreement beyond 1e-6.
    """

    params: EnsembleParams
    validate: bool = False
    mixing: ParetoLaw = field(init=False)
    pmf_cache: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        self.mixing = ParetoLaw(shape=self.params.gamma, scale=self.params.pareto_scale)

    def pmf(self, k: int) -> float:
        if k < 0 or k != int(k):
            raise DomainError(f"degree must be a non-negative integer, got {k}")
        k = int(k)
        hit = self.pmf_cache.get(k)
        if hit is not None:
            return hit
        gamma, scale = self.params.gamma, self.mixing.scale
        if k - gamma > _RECURRENCE_A_MAX:
            val = float(_pmf_large_k(gamma, scale, np.array([float(k)]))[0])
        else:
            k_top = min(int(math.floor(_RECURRENCE_A_MAX + gamma)), k)
            chain = _upper_gamma_chain(gamma, scale, k_top)
            front = gamma * scale**gamma
            for kk in range(k_top + 1):
                self.pmf_cache.setdefault(kk, front * chain[kk] / math.gamma(kk + 1.0))
            val = self.pmf_cache[k]
        if self.validate:
            oracle = mixed_poisson_pmf_oracle(self.mixing, k)
            denom = max(abs(oracle), 1e-300)
            if abs(val - oracle) / denom > 1e-6:
                raise NumericalInstabilityError(
                    f"pmf({k}): closed form {val:.12e} vs mixing integral {oracle:.12e}"
                )
        self.pmf_cache[k] = val
        return val

    def pmf_array(self, k_max: int) -> np.ndarray:
        """pmf(0..k_max) with the large-k regime fully vectorized."""
        k_switch = min(int(math.floor(_RECURRENCE_A_MAX + self.params.gamma)), k_max)
        out = np.empty(k_max + 1)
        for k in range(k_switch + 1):
            out[k] = self.pmf(k)
        if k_max > k_switch:
            ks = np.arange(k_switch + 1, k_max + 1, dtype=float)
            out[k_switch + 1:] = _pmf_large_k(self.params.gamma, self.mixing.scale, ks)
        return out

    def tail_mass_bound(self, k: int) -> float:
        """Upper bound on sum of pmf over degrees > k from the Pareto tail."""
        return self.mixing.scale**self.params.gamma * float(k) ** (-self.params.gamma)

    def truncation_k(self, tol: float, moment: int = 0) -> int:
        """Smallest K whose tail bound on the given moment's remainder is < tol."""
        gamma, scale = self.params.gamma, self.mixing.scale
        if moment == 0:
            return int(math.ceil(scale * tol ** (-1.0 / gamma))) + 1
        if moment == 1:
            return int(math.ceil(
                (gamma * scale**gamma / ((gamma - 1.0) * tol)) ** (1.0 / (gamma - 1.0))
            )) + 1
        raise DomainError("only moments 0 and 1 are supported")


def mixed_poisson_pmf_oracle(law: ParetoLaw, k: int, rtol=1e-12) -> float:
    """P(D = k) by direct quadrature of the Pareto mixing integral.

    Integrand exp(k log y - y - lgamma(k+1)) * pdf(y) is evaluated in log
    space, split at its mode, so it stays finite-precision stable for k up to
    at least 1e4.  This is the brute-force oracle for DegreeLaw.pmf.
    """
    if k < 0 or k != int(k):
        raise DomainError(f"degree must be a non-negative integer, got {k}")
    gamma, a = law.shape, law.scale
    log_front = math.log(gamma) + gamma * math.log(a) - math.lgamma(k + 1.0)
    power = k - gamma - 1.0

    def integrand(y):
        return math.exp(log_front + power * math.log(y) - y)

    mode = max(a, power)
    upper = mode + 40.0 * math.sqrt(mode + 4.0) + 60.0
    head = quad_checked(integrand, a, upper, rtol=rtol,
                        points=[mode] if a < mode < upper else None)
    tail = quad_checked(integrand, upper, np.inf, rtol=rtol)
    return head + tail


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
