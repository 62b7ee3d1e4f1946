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

from .errors import DomainError
from .graphon import mean_kernel_value
from .params import EnsembleParams
from .quadrature import gauss_legendre_nodes

_SEED_NODES = 128  # Gauss-Legendre nodes per piece of _upper_gamma_quad


def _upper_gamma_quad(a: float, x: float) -> float:
    """x^(1-a) e^x Gamma(a, x) for a <= 1 by Gauss-Legendre pieces.

    The substitution t = x e^u turns int_x^inf (t/x)^(a-1) exp(x - t) dt into
    x int_0^inf exp(a u - x expm1(u)) du, whose integrand has no peak that
    narrows as x or a falls, as the one at t = x does.  The value
    lies in (0, 1] whatever the size of x, where Gamma(a, x) itself
    underflows once x passes ~745.  The integrand decays on a scale of about
    1/(x - a), so u = w/c with c = max(1, x - a) puts that scale near 1
    whatever x and a are.  Past split = max(1, log1p(1/x)) in w, x expm1(u)
    dominates and the integrand falls below exp(-40) of its peak within 40,
    so the integral is [0, split], cut into pieces at most 40 long, and
    [split, split + 40], with 128 nodes per piece.  When a > x the exponent
    peaks at u = log(a/x), where it is a log(a/x) - a + x; it is taken
    relative to that peak, and x expm1(u) is exp(u + log x) - x for u > 1,
    so neither overflows for x down to the smallest normal float.
    """
    c = max(1.0, x - a)
    log_x = math.log(x)
    peak = a * math.log(a / x) - a + x if a > x else 0.0
    split = max(1.0, math.log1p(1.0 / x))
    ends = np.append(np.linspace(0.0, split, math.ceil(split / 40.0) + 1), split + 40.0)
    w, weights = gauss_legendre_nodes(ends[:-1, None], ends[1:, None], _SEED_NODES)
    u = w / c
    x_expm1 = np.where(u > 1.0, np.exp(u + log_x) - x, x * np.expm1(np.minimum(u, 1.0)))
    total = (np.exp(a * u - x_expm1 - peak) * weights).sum()
    return math.exp(peak + log_x - math.log(c)) * float(total)


def log_factorials(k_max: int) -> np.ndarray:
    """log k! for k = 0..k_max, each to within an ulp or so of its own value.

    A cumulative sum of log k would drift by ~1e-5 by k ~ 1e6.
    """
    return np.fromiter(map(math.lgamma, range(1, k_max + 2)), float, k_max + 1)


@dataclass(frozen=True)
class DegreeLaw:
    """Limiting degree pmf of an ensemble."""

    params: EnsembleParams

    def pmf_array(self, k_max: int) -> np.ndarray:
        """pmf(0..k_max) by one recurrence in pmf space, seeded by one quadrature.

        With x = beta*nu and pi_k = x^k e^-x / k!,
        (k + 1) P_{k+1} = (k - gamma) P_k + gamma pi_k.  For k < gamma both
        sides' terms are positive: with q = (k + 1) P_{k+1} / (gamma pi_k), a
        step up scales the error of P_k by (1 - q) / q and a step down that of
        P_{k+1} by q / (1 - q), and q grows with k.  So the pmf is seeded at
        K = min(k_max, max(0, floor(gamma - x))), or at K + 1 where the step
        from K has q <= 1/2 (for small x, the step across k = gamma), with
        P_K = gamma pi_K x^(gamma-K) e^x Gamma(K - gamma, x), and the
        recurrence runs down to 0 and up to k_max, each in its stable
        direction.  pi_k is taken in log space, so no term underflows before
        the pmf does.  Where the pmf has underflowed, (k - gamma) < 0 can turn
        a subnormal into a negative value, and where P_0 is 1 rounding can
        land one ulp above it, so the output is clipped to [0, 1].
        """
        if not (k_max >= 0 and float(k_max).is_integer()):  # also flags NaN
            raise DomainError(f"k_max must be a non-negative integer, got {k_max}")
        gamma, x = self.params.gamma, self.params.pareto_scale
        k_max = int(k_max)
        seed = min(int(max(0.0, gamma - x)), k_max)
        # q of the step from the seed is x^(1-a) e^x Gamma(a, x) at a = seed + 1 - gamma
        q = _upper_gamma_quad(seed + 1 - gamma, x) if seed < min(gamma, k_max) else 1.0
        if q <= 0.5:
            seed += 1  # and q is the seed's own factor
        else:
            q = _upper_gamma_quad(seed - gamma, x)
        ks = np.arange(k_max + 1)
        pois = np.exp(ks * math.log(x) - x - log_factorials(k_max)).tolist()
        out = np.empty(k_max + 1)
        out[seed] = pk = gamma * pois[seed] / x * q  # pois * q underflows at tiny x
        for k in range(seed - 1, -1, -1):
            pk = (gamma * pois[k] - (k + 1) * pk) / (gamma - k)
            out[k] = pk
        pk = out[seed]
        for k in range(seed, k_max):
            pk = ((k - gamma) * pk + gamma * pois[k]) / (k + 1)
            out[k + 1] = pk
        return np.clip(out, 0.0, 1.0, out=out)


def expected_avg_degree_finite_n(p: EnsembleParams) -> float:
    """(n - 1) * E[W(X, Y)], the finite-n expected average degree.

    E[W] is the exact 1D Gamma(2, gamma) integral of
    :func:`hscm.graphon.mean_kernel_value`.
    """
    return (p.n - 1) * mean_kernel_value(p)


def finite_size_epsilon(p: EnsembleParams) -> float:
    """Finite-size correction exp(-(gamma-1) r_n) - exp(-2 gamma r_n).

    When r_n < 0 the second exponent is the larger one; once it passes 709,
    where exp overflows, the correction saturates at -inf.
    """
    second = -2.0 * p.gamma * p.r_n
    if second > 709.0:
        return -math.inf
    return math.exp(-(p.gamma - 1.0) * p.r_n) - math.exp(second)


def finite_size_degree_tail(p: EnsembleParams, t):
    """Tail P(expected degree of a random node > t) at finite n.

    Piecewise: 1 below lo = beta*nu*(1-eps_n), the Pareto tail (lo/t)^gamma
    in the middle, and 0 above sqrt(nu n)*(1-eps_n), with
    eps_n = exp(-(gamma-1) r_n) - exp(-2 gamma r_n).  The base lo/t is
    clipped to 1 before the power, so no branch overflows at large gamma.
    No expected degree reaches n - 1, so the tail is 0 from t = n - 1 on,
    also where eps_n saturates at -inf and both cutoffs are +inf.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > 0.0):  # also flags NaN
        raise DomainError(f"tail argument must be positive, got {np.min(t_arr)} for {p}")
    eps = finite_size_epsilon(p)
    lo = p.pareto_scale * (1.0 - eps)
    hi = math.sqrt(p.nu * p.n) * (1.0 - eps)
    out = np.where((t_arr > hi) | (t_arr >= p.n - 1), 0.0,
                   np.minimum(lo / t_arr, 1.0) ** p.gamma)
    return out if out.ndim else float(out)
