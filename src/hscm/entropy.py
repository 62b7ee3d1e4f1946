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
from scipy.special import xlogy

from .errors import DomainError
from .graphon import (bernoulli_entropy, bernoulli_entropy_logit, expectation_of_sum,
                      w_fermi_dirac)
from .params import EnsembleParams
from .quadrature import gauss_legendre_nodes


@dataclass(frozen=True)
class PartitionSpec:
    """Partition of the support (-inf, r_n] into m_n intervals.

    rho[0] = -inf, rho[1] = -r_n, and rho[2..m_n] equally spaced up to r_n
    with width 2 r_n / (m_n - 1).
    """

    m_n: int
    rho: np.ndarray

    @classmethod
    def from_params(cls, p: EnsembleParams, m_n: int | None = None) -> "PartitionSpec":
        if p.r_n <= 0.0:
            raise DomainError("partition construction requires r_n > 0 (n > beta^2 nu)")
        if m_n is None:
            m_n = math.ceil(math.log(p.n) ** 2) + 1
        if m_n < 2:
            raise DomainError("partition needs at least 2 intervals")
        rho = np.empty(m_n + 1)
        rho[0] = -np.inf
        rho[1:] = np.linspace(-p.r_n, p.r_n, m_n)
        return cls(m_n=m_n, rho=rho)


def interval_masses(p: EnsembleParams, part: PartitionSpec) -> np.ndarray:
    """Latent-measure mass of each partition interval (sums to 1)."""
    cdf_right = np.exp(np.minimum(p.gamma * (part.rho[1:] - p.r_n), 0.0))
    cdf_left = np.concatenate(([0.0], cdf_right[:-1]))
    return cdf_right - cdf_left


def membership_entropy(p: EnsembleParams, part: PartitionSpec) -> float:
    """Entropy S[M] of the interval-membership variable, from exact masses."""
    masses = interval_masses(p, part)
    return float(-np.sum(xlogy(masses, masses)))


def graphon_entropy(p: EnsembleParams, rtol: float = 1e-7) -> float:
    """Graphon entropy sigma = E[H(W(X + Y))], a 1D Gamma(2, gamma) integral."""
    return expectation_of_sum(p, bernoulli_entropy_logit, rtol)


@dataclass(frozen=True)
class AveragedGraphon:
    """Piecewise-constant kernel: the box averages of W over a partition."""

    params: EnsembleParams
    part: PartitionSpec
    masses: np.ndarray
    box_values: np.ndarray  # (m_n, m_n), symmetric

    def sigma(self) -> float:
        """Graphon entropy of the averaged kernel (exact given the box values)."""
        h = bernoulli_entropy(self.box_values)
        return float(self.masses @ h @ self.masses)


def averaged_graphon(p: EnsembleParams, part: PartitionSpec,
                     gl_order: int = 16) -> AveragedGraphon:
    """Average W over every partition box against the latent measure.

    Finite intervals use Gauss-Legendre nodes in x weighted by the latent
    density, normalised in closed form; the unbounded first interval is
    mapped through U = CDF(x) / CDF(rho[1]), under which the measure is
    uniform on (0, 1].  No weight is divided by an interval mass, which
    underflows to 0 at large gamma.  W depends on x + y only, and the finite
    intervals are translates of one another whose normalized density weights
    agree, so a finite x finite box depends on s + t alone: 2 m_n - 3 such
    values, m_n - 1 for the first row and one corner fill the symmetric matrix.
    """
    gamma = p.gamma
    m = part.m_n
    widths = np.diff(part.rho[1:])
    if np.ptp(widths) > 1e-10 * widths.max():
        raise DomainError("averaged_graphon needs finite intervals of equal width")
    un, w0 = gauss_legendre_nodes(0.0, 1.0, gl_order)
    x0 = part.rho[1] + np.log(un) / gamma
    x1, w1 = gauss_legendre_nodes(part.rho[1], part.rho[2], gl_order)
    w1 = w1 * gamma * np.exp(gamma * (x1 - part.rho[2])) / -math.expm1(-gamma * widths[0])
    shifts = widths[0] * np.arange(2 * m - 3)  # finite box (s, t) at shift index s + t - 2

    def tensor_mean(xa, wa, xb, wb, shift):
        kmat = w_fermi_dirac(shift[:, None, None] + xa[None, :, None], xb[None, None, :])
        return np.einsum("i,j,cij->c", wa, wb, kmat)

    finite = tensor_mean(x1, w1, x1, w1, shifts)
    row = tensor_mean(x1, w1, x0, w0, shifts[:m - 1])
    box = np.empty((m, m))
    box[0, 0] = tensor_mean(x0, w0, x0, w0, np.zeros(1))[0]
    box[0, 1:] = box[1:, 0] = row
    idx = np.arange(m - 1)
    box[1:, 1:] = finite[idx[:, None] + idx[None, :]]
    box = np.clip(box, 0.0, 1.0)
    return AveragedGraphon(params=p, part=part, masses=interval_masses(p, part),
                           box_values=box)


@dataclass(frozen=True)
class EntropyReport:
    """Graphon entropy with the Gibbs-entropy sandwich for one ensemble."""

    params: EnsembleParams
    sigma: float
    sigma_rescaled: float
    gibbs_lower: float
    gibbs_upper: float
    partition: PartitionSpec
    s_m: float

    @property
    def gibbs_lower_rescaled(self) -> float:
        n = self.params.n
        return 2.0 * self.gibbs_lower / (n * math.log(n))

    @property
    def gibbs_upper_rescaled(self) -> float:
        n = self.params.n
        return 2.0 * self.gibbs_upper / (n * math.log(n))


def gibbs_entropy_bounds(p: EnsembleParams, rtol: float = 1e-7,
                         part: PartitionSpec | None = None) -> EntropyReport:
    """Lower and upper bounds on the Gibbs entropy of the size-n ensemble.

    lower = C(n,2) * sigma; upper = n * S[M] + C(n,2) * sigma[averaged kernel]
    with the standard partition (m_n = ceil(log^2 n) + 1 intervals).
    """
    if part is None:
        part = PartitionSpec.from_params(p)
    sigma = graphon_entropy(p, rtol=rtol)
    avg = averaged_graphon(p, part)
    s_m = membership_entropy(p, part)
    pairs = 0.5 * p.n * (p.n - 1)
    lower = pairs * sigma
    upper = p.n * s_m + pairs * avg.sigma()
    return EntropyReport(
        params=p,
        sigma=sigma,
        sigma_rescaled=p.n * sigma / math.log(p.n),
        gibbs_lower=lower,
        gibbs_upper=upper,
        partition=part,
        s_m=s_m,
    )
