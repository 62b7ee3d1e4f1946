"""Graphon entropy and the Gibbs-entropy bounds.

The graphon entropy of an ensemble is

    sigma = integral of H(K(x, y)) d mu_n(x) d mu_n(y)  over the support square,

with H the Bernoulli entropy.  The per-graph Gibbs (Shannon) entropy S of the
ensemble is bracketed by

    C(n,2) * sigma  <=  S  <=  n * S[M] + C(n,2) * sigma[averaged kernel],

where M is the index of the partition interval a node's coordinate falls in
and the averaged kernel replaces K by its mean over each partition box.  Both
bounds are computed here; rescaled by 2 / (n log n) they converge to the
target average degree from the two sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .graphon import (
    _logistic_neg, bernoulli_entropy, bernoulli_entropy_logit, expectation_of_sum, xlogy,
)
from .params import EnsembleParams, quantile_nodes
from .quadrature import gauss_legendre_nodes

_GL_ORDER = 16  # Gauss-Legendre nodes per interval in averaged_graphon


def partition(p: EnsembleParams, m_n: int) -> np.ndarray:
    """Boundaries rho = [-inf, linspace(-r_n, r_n, m_n)] of m_n support intervals."""
    if p.r_n <= 0.0 or m_n < 2:
        raise DomainError(f"partition of gamma={p.gamma!r}, nu={p.nu!r}, n={p.n} needs "
                          f"n > beta^2 nu = {p.beta**2 * p.nu:.6g} and m_n >= 2, got "
                          f"m_n = {m_n}")
    return np.concatenate(([-np.inf], np.linspace(-p.r_n, p.r_n, m_n)))


def interval_masses(p: EnsembleParams, m_n: int) -> np.ndarray:
    """Latent-measure mass of each partition interval (sums to 1)."""
    # exp is 0 below -745, so bounding the offset at -800/gamma changes no
    # mass and keeps gamma * offset from overflowing at huge gamma
    offset = np.clip(partition(p, m_n) - p.r_n, -800.0 / p.gamma, 0.0)
    return np.diff(np.exp(p.gamma * offset))


def graphon_entropy(p: EnsembleParams) -> float:
    """Graphon entropy sigma = E[H(W(X + Y))], a 1D Gamma(2, gamma) integral."""
    return expectation_of_sum(p, bernoulli_entropy_logit)


def averaged_graphon(p: EnsembleParams, m_n: int) -> np.ndarray:
    """Means of W and of H(W) over the partition boxes, shape (2, 3 m_n - 3).

    Row 0 holds the box means of W, row 1 those of H(W), on the same nodes.
    Column 0 is the corner box (the first interval with itself), columns
    1..m_n - 1 the first interval against finite interval t, and the last
    2 m_n - 3 columns the finite x finite boxes (s, t) by s + t - 2.

    The first interval takes params.quantile_nodes, a finite one
    Gauss-Legendre nodes in z = gamma (rho[2] - x), of density exp(-z), on
    [0, min(gamma * width, 30 / beta)]: W and H(W) grow at most like
    exp(z / gamma), so at most exp(-30) of the integrand is dropped.  No
    weight is divided by an interval mass, which underflows at large gamma.
    W depends on x + y only, and the finite intervals are translates.
    """
    gamma = p.gamma
    rho = partition(p, m_n)
    width = rho[2] - rho[1]
    x0, w0 = quantile_nodes(rho[1], gamma, _GL_ORDER)
    c = min(gamma * width, 30.0 / p.beta)
    z, wz = gauss_legendre_nodes(0.0, c, _GL_ORDER)
    x1, w1 = rho[2] - z / gamma, wz * np.exp(-z) / -math.expm1(-c)
    shifts = width * np.arange(2 * m_n - 3)  # finite box (s, t) at shift index s + t - 2

    def box_means(shift, x, weights):
        s = shift[:, None] + x[None, :]
        return np.stack((_logistic_neg(s), bernoulli_entropy_logit(s))) @ weights

    i, j = np.triu_indices(_GL_ORDER)  # a box of one node set with itself is symmetric:
    twice = np.where(i == j, 1.0, 2.0)  # each node pair once, off-diagonal weight doubled
    return np.concatenate((box_means(np.zeros(1), x0[i] + x0[j], w0[i] * w0[j] * twice),
                           box_means(shifts[:m_n - 1], np.add.outer(x1, x0).ravel(),
                                     np.outer(w1, w0).ravel()),
                           box_means(shifts, x1[i] + x1[j], w1[i] * w1[j] * twice)), axis=1)


@dataclass(frozen=True)
class EntropyReport:
    """Graphon entropy with the Gibbs-entropy sandwich for one ensemble.

    The rescaled bounds are 2 S / (n log n), and sigma_rescaled n sigma / log n.
    """

    sigma: float
    sigma_rescaled: float
    gibbs_lower: float
    gibbs_upper: float
    gibbs_lower_rescaled: float
    gibbs_upper_rescaled: float
    m_n: int
    s_m: float


def gibbs_entropy_bounds(p: EnsembleParams) -> EntropyReport:
    """Lower and upper bounds on the Gibbs entropy of the size-n ensemble.

    lower = C(n,2) * sigma; with m_n = ceil(log^2 n) + 1 partition intervals,
    upper = n * S[M] + C(n,2) * sigma[averaged kernel], written as

        upper = lower + n * S[M] + C(n,2) * sum_ab m_a m_b (H(Wbar_ab) - Hbar_ab)

    with Wbar and Hbar the box means of W and H(W).  H is concave, so each
    box's excess is non-negative by Jensen; clipped at 0 against rounding, it
    makes upper >= lower hold exactly.
    """
    m_n = math.ceil(math.log(p.n) ** 2) + 1
    masses = interval_masses(p, m_n)
    s_m = float(-np.sum(xlogy(masses, masses)))
    sigma = graphon_entropy(p)
    w_bar, h_bar = averaged_graphon(p, m_n)
    excess = np.maximum(bernoulli_entropy(np.clip(w_bar, 0.0, 1.0)) - h_bar, 0.0)
    m0, fin = masses[0], masses[1:]
    box_mass = np.concatenate(([m0 * m0], 2.0 * m0 * fin, np.convolve(fin, fin)))
    pairs = 0.5 * p.n * (p.n - 1)
    lower = pairs * sigma
    upper = lower + p.n * s_m + pairs * float(box_mass @ excess)
    n_log_n = p.n * math.log(p.n)
    return EntropyReport(sigma=sigma, sigma_rescaled=p.n * sigma / math.log(p.n),
                         gibbs_lower=lower, gibbs_upper=upper,
                         gibbs_lower_rescaled=2.0 * lower / n_log_n,
                         gibbs_upper_rescaled=2.0 * upper / n_log_n, m_n=m_n, s_m=s_m)
