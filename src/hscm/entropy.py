"""Graphon entropy, rescaled convergence, Gibbs bounds, and the maximality check.

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
from .graphon import (KernelKind, bernoulli_entropy, entropy_of_sum, expectation_of_sum,
                      kernel, w_fermi_dirac)
from .params import EnsembleParams, mu_n_quantile
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


def graphon_entropy(p: EnsembleParams, kind: KernelKind = KernelKind.FERMI_DIRAC,
                    rtol: float = 1e-7) -> float:
    """Graphon entropy sigma = E[H(K(X + Y))], a 1D Gamma(2, gamma) integral."""
    return expectation_of_sum(p, entropy_of_sum(kind), rtol)


def rescaled_entropy_series(gamma: float, nu: float, sizes, kind=KernelKind.FERMI_DIRAC,
                            rtol: float = 1e-7):
    """[(n, n * sigma / log n)] over increasing sizes."""
    from .params import derive_params

    sizes = list(sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DomainError("sizes must be strictly increasing")
    out = []
    for n in sizes:
        p = derive_params(gamma, nu, n)
        sigma = graphon_entropy(p, kind, rtol=rtol)
        out.append((n, n * sigma / math.log(n)))
    return out


@dataclass(frozen=True)
class AveragedGraphon:
    """Piecewise-constant kernel: the box averages of a kernel over a partition."""

    params: EnsembleParams
    part: PartitionSpec
    kind: KernelKind
    masses: np.ndarray
    box_values: np.ndarray  # (m_n, m_n), symmetric

    def sigma(self) -> float:
        """Graphon entropy of the averaged kernel (exact given the box values)."""
        h = bernoulli_entropy(self.box_values)
        return float(self.masses @ h @ self.masses)


def averaged_graphon(p: EnsembleParams, part: PartitionSpec,
                     kind: KernelKind = KernelKind.FERMI_DIRAC,
                     gl_order: int = 16) -> AveragedGraphon:
    """Average the kernel over every partition box against the latent measure.

    Finite intervals use Gauss-Legendre nodes in x weighted by the latent
    density; the unbounded first interval is mapped through u = CDF(x), where
    the measure is uniform.  The kernel depends on x + y only, and the finite
    intervals are translates of one another whose normalized density weights
    agree, so a finite x finite box depends on s + t alone: 2 m_n - 3 such
    values, m_n - 1 for the first row and one corner fill the symmetric matrix.
    """
    gamma, r_n = p.gamma, p.r_n
    m = part.m_n
    widths = np.diff(part.rho[1:])
    if np.ptp(widths) > 1e-10 * widths.max():
        raise DomainError("averaged_graphon needs finite intervals of equal width")
    masses = interval_masses(p, part)
    un, uw = gauss_legendre_nodes(0.0, math.exp(gamma * (part.rho[1] - r_n)), gl_order)
    x0, w0 = r_n + np.log(un) / gamma, uw / masses[0]
    x1, w1 = gauss_legendre_nodes(part.rho[1], part.rho[2], gl_order)
    w1 = w1 * gamma * np.exp(gamma * (x1 - r_n)) / masses[1]
    shifts = widths[0] * np.arange(2 * m - 3)  # finite box (s, t) at shift index s + t - 2

    k = kernel(kind)

    def tensor_mean(xa, wa, xb, wb, shift):
        kmat = k(shift[:, None, None] + xa[None, :, None], xb[None, None, :])
        return np.einsum("i,j,cij->c", wa, wb, kmat)

    finite = tensor_mean(x1, w1, x1, w1, shifts)
    row = tensor_mean(x1, w1, x0, w0, shifts[:m - 1])
    box = np.empty((m, m))
    box[0, 0] = tensor_mean(x0, w0, x0, w0, np.zeros(1))[0]
    box[0, 1:] = box[1:, 0] = row
    idx = np.arange(m - 1)
    box[1:, 1:] = finite[idx[:, None] + idx[None, :]]
    box = np.clip(box, 0.0, 1.0)
    return AveragedGraphon(params=p, part=part, kind=kind, masses=masses,
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
    sigma = graphon_entropy(p, KernelKind.FERMI_DIRAC, rtol=rtol)
    avg = averaged_graphon(p, part, KernelKind.FERMI_DIRAC)
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


@dataclass(frozen=True)
class MaximalityReport:
    """Outcome of the random-perturbation check of graphon-entropy maximality."""

    sigma_grid: float
    trials: int
    violations: int
    max_entropy_gain: float
    decreases_large: np.ndarray  # per trial, averaged over +/- at eps_large
    decreases_small: np.ndarray
    eps_large: float
    eps_small: float

    @property
    def ratios(self) -> np.ndarray:
        return self.decreases_large / self.decreases_small


def _grid_sigma(w: np.ndarray) -> float:
    return float(np.mean(bernoulli_entropy(w)))


def verify_graphon_maximality(p: EnsembleParams, trials: int = 100, seed: int = 0,
                              grid: int = 200, eps_large: float = 1e-2,
                              eps_small: float = 1e-3) -> MaximalityReport:
    """Check that constraint-preserving perturbations never increase entropy.

    The kernel is discretized on an equal-mass coordinate grid (uniform
    weights), where it is the exact entropy maximizer under its own row
    marginals.  Random symmetric perturbations are double-centered to zero
    row sums (preserving the expected-degree-function constraint) and scaled
    into the feasible band; sigma must not increase at eps in
    {+-eps_large, +-eps_small}, and the decrease must scale as eps^2.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    qs = (np.arange(grid) + 0.5) / grid
    xg = mu_n_quantile(p, qs)
    w = w_fermi_dirac(xg[:, None], xg[None, :])
    sigma0 = _grid_sigma(w)
    headroom = np.minimum(w, 1.0 - w)

    rng = np.random.default_rng(seed)
    eps_max = max(abs(eps_large), abs(eps_small))
    viol = 0
    max_gain = 0.0
    dec_l = np.empty(trials)
    dec_s = np.empty(trials)
    for t in range(trials):
        m = rng.standard_normal((grid, grid))
        m = 0.5 * (m + m.T)
        # double centering: zero row and column sums, symmetry preserved
        m = m - m.mean(axis=0, keepdims=True) - m.mean(axis=1, keepdims=True) + m.mean()
        scale = 0.9 * np.min(headroom / (eps_max * np.maximum(np.abs(m), 1e-300)))
        delta = m * scale
        gains = {}
        for eps in (eps_large, -eps_large, eps_small, -eps_small):
            sig = _grid_sigma(w + eps * delta)
            gains[eps] = sig - sigma0
            if sig - sigma0 > 1e-14 * max(1.0, abs(sigma0)):
                viol += 1
            max_gain = max(max_gain, sig - sigma0)
        dec_l[t] = -0.5 * (gains[eps_large] + gains[-eps_large])
        dec_s[t] = -0.5 * (gains[eps_small] + gains[-eps_small])
    return MaximalityReport(
        sigma_grid=sigma0, trials=trials, violations=viol,
        max_entropy_gain=max_gain, decreases_large=dec_l, decreases_small=dec_s,
        eps_large=eps_large, eps_small=eps_small,
    )
