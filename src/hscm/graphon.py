"""The Fermi-Dirac connection kernel and the expected-degree function.

W(x, y) = 1 / (exp(x + y) + 1) is a function of the coordinate sum s = x + y
and maximizes graphon entropy under the expected-degree constraints.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .params import EnsembleParams
from .quadrature import gauss_legendre_nodes

_PIECE_NODES = 64  # Gauss-Legendre nodes per piece of _turn_pieces


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


def xlogy(x, y):
    """x * log(y), with 0 where x == 0 and -inf where y == 0 < x, without a warning."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return x * np.log(np.where(x == 0.0, 1.0, y))


def bernoulli_entropy(pr):
    """H(p) = -p log p - (1-p) log(1-p) in nats, with H(0) = H(1) = 0."""
    pr = np.asarray(pr, dtype=float)
    bad = pr[~((pr >= 0.0) & (pr <= 1.0))]  # also flags NaN
    if bad.size:
        raise DomainError(f"Bernoulli probability must lie in [0, 1], got {bad[0]}")
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


def _turn_pieces(c):
    """Gauss-Legendre nodes and weights of [0, min(c, 40)], [min(c, 40), c], [c, c + 40].

    c is where an integrand against an exponential-type density turns; it is
    clipped to [0, 745], past which exp(-c) underflows.  Each piece comes
    with 64 nodes, one at a time, so the caller's temporaries stay small.
    """
    c = np.clip(c, 0.0, 745.0)
    ends = (np.zeros_like(c), np.minimum(c, 40.0), c, c + 40.0)
    for a, b in zip(ends, ends[1:]):
        yield gauss_legendre_nodes(a, b, _PIECE_NODES)


def expected_degree_fn(p: EnsembleParams, x):
    """Expected degree of a node at exponential coordinate x (scalar or array).

    kappa_n(x) = (n - 1) * integral of W(x, y) d mu_n(y).  With L = x + r_n
    and s = gamma (r_n - y) ~ Exp(1), kappa_n(x) = (n - 1) E[W(L - s / gamma)].
    The kernel turns at s = c = gamma L, so the integral is the three pieces
    of _turn_pieces; the tail past c + 40 is below exp(-40) of the value.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x - p.r_n <= 1e-12 * max(1.0, abs(p.r_n))):  # also flags NaN
        raise DomainError(f"coordinate {np.max(x)} above the support end {p.r_n} of {p}")
    big_l = (x + p.r_n)[..., None]
    f = 0.0
    for s, w in _turn_pieces(p.gamma * big_l):
        f = f + (np.exp(-s) * _logistic_neg(big_l - s / p.gamma) * w).sum(axis=-1)
    out = (p.n - 1) * f
    return out if out.ndim else float(out)


def expectation_of_sum(p: EnsembleParams, f_of_sum) -> float:
    """E[f(X + Y)] with X, Y independent draws from the latent measure.

    r_n - X is Exp(gamma), so u = gamma (2 r_n - (X + Y)) has the Gamma(2, 1)
    density u exp(-u) and the double integral is exactly the 1D integral of
    f(2 r_n - u / gamma) against it.  f maps an array of sums s = x + y to an
    array of values; the kernel turns at s = 0, i.e. u = 2 gamma r_n, so the
    integral is the three pieces of _turn_pieces.
    """
    gamma, r2 = p.gamma, 2.0 * p.r_n
    return float(sum((f_of_sum(r2 - u / gamma) * u * np.exp(-u) * w).sum()
                     for u, w in _turn_pieces(gamma * r2)))


def mean_kernel_value(p: EnsembleParams) -> float:
    """E[W(X, Y)] with X, Y independent draws from the latent measure."""
    return expectation_of_sum(p, lambda s: w_fermi_dirac(s, 0.0))
