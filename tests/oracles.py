"""Independent brute-force oracles used only by the tests.

These deliberately take different routes than the library, which reduces
every integral of a function of x + y against the latent product measure to
a 1D Gamma(2, gamma) integral and evaluates kappa_n by scipy's hyp2f1:

* the entropy / mean-degree oracles run the full nested 2D quadrature over
  the latent square, truncated at a small latent-measure quantile;
* the mpmath oracles evaluate the same quantities at 40 significant digits,
  for sizes where double-precision nested quadrature drifts;
* the box-average oracle integrates one partition box with scipy dblquad,
  and averaged_box_oracle builds nodes on every interval and sums every box,
  where the library uses that a finite box depends only on s + t;
* the degree-pmf oracles integrate the Pareto mixing integral directly, or
  evaluate the incomplete-gamma closed form with mpmath, where the library
  runs a recurrence from one quadrature seed;
* the SCM oracles build the dense n x n probability matrix with scipy's
  expit, where the solver works over degree classes.

bracket_bounds, deviation_log_slope, expected_avg_degree_classical,
negative_mass, refine_doubled, tail_mass_bound and truncation_k are closed
forms, fits and helpers that only the tests use.

The rest of this module is model code that no production path reaches, kept
here for the tests that check it: the classical product kernel
min(exp(-s), 1) of the approximation bounds with its entropy, omega_n and
expected degree; the unit-interval and Pareto forms of W; the latent density
and CDF; the Pareto mixing law of the degree pmf; graph prefixes; the
rescaled entropy series; and the perturbation check that W maximizes
graphon entropy.
"""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import integrate, special
from scipy.special import xlogy

from hscm.entropy import PartitionSpec, graphon_entropy, interval_masses
from hscm.errors import DomainError
from hscm.graphon import bernoulli_entropy, expectation_of_sum, w_fermi_dirac
from hscm.params import derive_params, mu_n_quantile
from hscm.quadrature import gauss_legendre_nodes, quad_checked
from hscm.sampler import Graph


# -- the classical product kernel of the approximation bounds --

def w_classical(x, y):
    """Classical-limit kernel min(exp(-(x + y)), 1); dominates w_fermi_dirac."""
    s = np.asarray(x, dtype=float) + np.asarray(y, dtype=float)
    out = np.where(s <= 0.0, 1.0, np.exp(-np.clip(s, 0.0, None)))
    return out if out.ndim else float(out)


def classical_entropy_of_sum(s):
    """H(min(exp(-s), 1)) as a function of s = x + y, stable for s near 0+."""
    s = np.asarray(s, dtype=float)
    sp = np.clip(s, 0.0, None)
    w = np.exp(-sp)
    one_minus_w = -np.expm1(-sp)
    out = np.where(s <= 0.0, 0.0, sp * w - xlogy(one_minus_w, one_minus_w))
    return out if out.ndim else float(out)


def mean_classical_kernel(p, rtol=1e-11):
    """E[min(exp(-(X + Y)), 1)] over the latent product measure."""
    return expectation_of_sum(p, lambda s: w_classical(s, 0.0), rtol)


def omega_n(p):
    """Integral of exp(-x) over [0, r_n] against the latent measure.

    Closed form (1 - exp(-(gamma-1) r_n)) / (beta * exp(r_n)); this is the
    sqrt(nu/n) + o(n^{-1/2}) prefactor of the approximate expected-degree
    function omega_n * exp(-x).
    """
    if p.r_n <= 0.0:
        raise DomainError("omega_n requires r_n > 0 (n > beta^2 * nu)")
    return -math.expm1(-(p.gamma - 1.0) * p.r_n) / (p.beta * math.exp(p.r_n))


def expected_degree_classical(p, x):
    """n * omega_n * exp(-x) for 0 <= x <= r_n and 0 for x < 0 (scalar or array)."""
    x = np.asarray(x, dtype=float)
    # omega_n needs r_n > 0, which holds whenever some x >= 0 is valid
    front = p.n * omega_n(p) if np.any(x >= 0.0) else 0.0
    out = np.where(x < 0.0, 0.0, front * np.exp(-np.maximum(x, 0.0)))
    return out if out.ndim else float(out)


# -- W and the latent measure in the other coordinate representations --

def w_unit_interval(p, xt, yt):
    """Kernel in unit-interval coordinates: 1 / ((n/(beta^2 nu)) (xt*yt)^(1/gamma) + 1)."""
    xt = np.asarray(xt, dtype=float)
    yt = np.asarray(yt, dtype=float)
    if np.any(xt <= 0.0) or np.any(yt <= 0.0):
        raise DomainError("unit-interval coordinates must be positive")
    scale = p.n / (p.beta * p.beta * p.nu)
    out = 1.0 / (scale * np.power(xt * yt, 1.0 / p.gamma) + 1.0)
    return out if out.ndim else float(out)


def w_pareto(p, x, y):
    """Kernel in Pareto coordinates: 1 / (nu*n / (x*y) + 1), x, y >= beta*nu."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo = p.pareto_scale * (1.0 - 1e-9)
    if np.any(x < lo) or np.any(y < lo):
        raise DomainError(f"Pareto coordinates must be >= {p.pareto_scale}")
    out = 1.0 / (p.nu * p.n / (x * y) + 1.0)
    return out if out.ndim else float(out)


def mu_n_density(p, x):
    """Latent density gamma * exp(gamma * (x - r_n)), zero above r_n, via its log."""
    x = np.asarray(x, dtype=float)
    out = np.exp(np.where(x <= p.r_n, math.log(p.gamma) + p.gamma * (x - p.r_n), -np.inf))
    return out if out.ndim else float(out)


def mu_n_cdf(p, x):
    """P(X <= x) = exp(gamma * (x - r_n)) clamped to [0, 1]."""
    x = np.asarray(x, dtype=float)
    out = np.exp(np.minimum(p.gamma * (x - p.r_n), 0.0))
    return out if out.ndim else float(out)


# -- the Pareto mixing law of the limiting degree pmf --

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


def mixing(law):
    """The Pareto(gamma, beta*nu) mixing law of a DegreeLaw."""
    return ParetoLaw(shape=law.params.gamma, scale=law.params.pareto_scale)


def pareto_tail(law, y):
    """P(Y > y) = (scale / y)^shape for y >= scale, else 1."""
    y = np.asarray(y, dtype=float)
    out = np.where(y >= law.scale, np.power(law.scale / np.maximum(y, law.scale), law.shape), 1.0)
    return out if out.ndim else float(out)


# -- graphs, entropy series and the maximality check --

def prefix(g, n_prime):
    """Induced subgraph of a Graph on nodes 0..n_prime-1 (the projective truncation)."""
    if not 0 <= n_prime <= g.n:
        raise DomainError(f"prefix size {n_prime} outside [0, {g.n}]")
    keep = (g.edges[:, 0] < n_prime) & (g.edges[:, 1] < n_prime)
    return Graph(n=n_prime, edges=g.edges[keep])


def rescaled_entropy_series(gamma, nu, sizes, rtol=1e-7):
    """[(n, n * sigma / log n)] over increasing sizes."""
    sizes = list(sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DomainError("sizes must be strictly increasing")
    out = []
    for n in sizes:
        p = derive_params(gamma, nu, n)
        sigma = graphon_entropy(p, rtol=rtol)
        out.append((n, n * sigma / math.log(n)))
    return out


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


def _grid_sigma(w):
    return float(np.mean(bernoulli_entropy(w)))


def verify_graphon_maximality(p, trials=100, seed=0, grid=200, eps_large=1e-2,
                              eps_small=1e-3):
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


# -- independent oracles --


def _h_fermi_dirac(s):
    a = abs(s)
    t = math.exp(-a)
    return math.log1p(t) + a * t / (1.0 + t)


def _h_classical(s):
    if s <= 0.0:
        return 0.0
    w = math.exp(-s)
    om = -math.expm1(-s)
    return s * w - om * math.log(om)


def _w_fermi_dirac(s):
    if s >= 0:
        t = math.exp(-s)
        return t / (1.0 + t)
    return 1.0 / (1.0 + math.exp(s))


def _quad(f, a, b, rtol, points):
    pts = sorted(t for t in points if a < t < b)
    return integrate.quad(f, a, b, epsabs=1e-300, epsrel=rtol, limit=200,
                          points=pts or None)[0]


def quantile(p, q):
    """Latent-measure q-quantile r_n + log(q) / gamma."""
    return p.r_n + math.log(q) / p.gamma


def nested_expectation(p, f_of_sum, rtol, lo):
    """E[f(X + Y)] over the square [lo, r_n]^2, by nested adaptive quadrature.

    Break points sit on the kernel midline x + y = 0 where the integrands
    turn.  With lo a small latent-measure quantile this is the truncated full
    expectation; the caller picks the cut small enough for f's bound.
    """
    gamma, r_n = p.gamma, p.r_n

    def dens(x):
        return gamma * math.exp(gamma * (x - r_n))

    def inner(x):
        return _quad(lambda y: dens(y) * f_of_sum(x + y), lo, r_n, rtol / 3.0,
                     [-x - 4.0, -x, -x + 4.0])

    return _quad(lambda x: dens(x) * inner(x), lo, r_n, rtol / 3.0,
                 [-r_n, 0.0, r_n - 4.0])


def sigma_oracle(p, kind="fermi_dirac", rtol=1e-9):
    """Graphon entropy by nested 2D quadrature (H <= log 2 bounds the cut)."""
    h = _h_fermi_dirac if kind == "fermi_dirac" else _h_classical
    return nested_expectation(p, h, rtol, quantile(p, 1e-12))


def negative_region_entropy(p, rtol=1e-6):
    """Contribution to sigma from the region where x or y is negative."""
    full = sigma_oracle(p, rtol=rtol)
    if p.r_n <= 0:
        return full
    return full - nested_expectation(p, _h_fermi_dirac, rtol, 0.0)


def mean_degree_oracle(p, rtol=1e-9):
    """(n - 1) E[W(X, Y)] by nested 2D quadrature.

    W <= 1 on the discarded strips, so the cut quantile sits well below the
    error budget relative to E[W] ~ nu / n.
    """
    cut = min(1e-13, 0.01 * rtol * p.nu / p.n)
    return (p.n - 1) * nested_expectation(p, _w_fermi_dirac, rtol, quantile(p, cut))


def sigma_mpmath(p, dps=40):
    """Graphon entropy at `dps` digits: mpmath quadrature of the Gamma(2) form."""
    with mp.workdps(dps):
        gamma, r2 = mp.mpf(p.gamma), 2 * mp.mpf(p.r_n)

        def h(s):
            a = abs(s)
            t = mp.exp(-a)
            return mp.log1p(t) + a * t / (1 + t)

        def f(t):
            return h(r2 - t) * gamma**2 * t * mp.exp(-gamma * t)

        cuts = [c for c in (r2 / 2, r2 - 8, r2 - 2, r2, r2 + 2, r2 + 8) if c > 0]
        return mp.quad(f, [0] + sorted(cuts) + [mp.inf])


def kappa_mpmath(p, x, dps=40):
    """kappa_n(x) = (n - 1) * 2F1(1, gamma; gamma + 1; -exp(x + r_n)) at `dps` digits."""
    with mp.workdps(dps):
        gamma = mp.mpf(p.gamma)
        z = -mp.exp(mp.mpf(float(x)) + mp.mpf(p.r_n))
        return (p.n - 1) * mp.hyp2f1(1, gamma, gamma + 1, z)


def box_average_oracle(p, a, b, c, d, kernel):
    """Average of kernel(x, y) over [a,b] x [c,d] against the latent measure."""
    gamma, r_n = p.gamma, p.r_n

    def dens(x):
        return gamma * math.exp(gamma * (x - r_n))

    val, _ = integrate.dblquad(lambda y, x: kernel(x, y) * dens(x) * dens(y),
                               a, b, c, d, epsabs=1e-14, epsrel=1e-10)
    mass_x = math.exp(gamma * (b - r_n)) - math.exp(gamma * (a - r_n))
    mass_y = math.exp(gamma * (d - r_n)) - math.exp(gamma * (c - r_n))
    return val / (mass_x * mass_y)


def averaged_box_oracle(p, part, kernel=w_fermi_dirac, gl_order=16):
    """Box values of the averaged kernel, one Gauss-Legendre tensor per box.

    Builds nodes and weights on every interval and sums a full row of boxes
    at a time, with no use of the x + y or translation structure.
    """
    gamma, r_n = p.gamma, p.r_n
    m = part.m_n
    masses = interval_masses(p, part)
    nodes = np.empty((m, gl_order))
    weights = np.empty((m, gl_order))
    u1 = math.exp(gamma * (part.rho[1] - r_n))
    un, uw = gauss_legendre_nodes(0.0, u1, gl_order)
    nodes[0] = r_n + np.log(un) / gamma
    weights[0] = uw
    for t in range(1, m):
        xn, xw = gauss_legendre_nodes(part.rho[t], part.rho[t + 1], gl_order)
        nodes[t] = xn
        weights[t] = xw * gamma * np.exp(gamma * (xn - r_n))
    flat_nodes = nodes.ravel()
    flat_weights = weights.ravel()
    box = np.empty((m, m))
    for s in range(m):
        kmat = kernel(nodes[s][:, None], flat_nodes[None, :])
        row = (weights[s][:, None] * flat_weights[None, :] * kmat).sum(axis=0)
        box[s] = row.reshape(m, gl_order).sum(axis=1)
    box /= masses[:, None] * masses[None, :]
    return np.clip(box, 0.0, 1.0)


def refine_doubled(part):
    """Nested refinement of a PartitionSpec: every finite interval halved."""
    m2 = 2 * (part.m_n - 1) + 1
    rho = np.empty(m2 + 1)
    rho[0] = -np.inf
    rho[1:] = np.linspace(part.rho[1], part.rho[-1], m2)
    return PartitionSpec(m_n=m2, rho=rho)


def bracket_bounds(avg):
    """(min, max) of W under an AveragedGraphon on every box.

    W decreases in x + y, so on box (s, t) the extremes sit at the corners
    rho[s+1] + rho[t+1] (min) and rho[s] + rho[t] (max).
    """
    right = avg.part.rho[1:]
    left = avg.part.rho[:-1]
    return (w_fermi_dirac(right[:, None], right[None, :]),
            w_fermi_dirac(left[:, None], left[None, :]))


def deviation_log_slope(series, nu):
    """Least-squares slope of log |n sigma/log n - nu| against log log n."""
    ns = np.array([n for n, _ in series], dtype=float)
    dev = np.abs(np.array([v for _, v in series]) - nu)
    assert np.all(dev > 0.0), "zero deviation; slope undefined"
    return float(np.polyfit(np.log(np.log(ns)), np.log(dev), 1)[0])


def expected_avg_degree_classical(p):
    """Closed form (n-1)/beta^2 * exp(-2 r_n) * (1 - exp(-gamma r_n))^2 for the product kernel."""
    return (p.n - 1) / p.beta**2 * math.exp(-2.0 * p.r_n) * (-math.expm1(-p.gamma * p.r_n)) ** 2


def probability_matrix(inst):
    """Dense SCM p_ij = 1 / (exp(l_i + l_j) + 1) of an ScmInstance, zero diagonal."""
    lam = inst.multipliers
    pm = special.expit(-(lam[:, None] + lam[None, :]))
    np.fill_diagonal(pm, 0.0)
    return pm


def realized_expected_degrees(inst):
    """Row sums of the dense probability matrix: each node's expected degree."""
    return probability_matrix(inst).sum(axis=1)


def negative_mass(p):
    """Probability mass of negative coordinates, (beta**2 * nu / n) ** (gamma / 2)."""
    return float(mu_n_cdf(p, 0.0))


def mixed_poisson_pmf_oracle(law, k, rtol=1e-12):
    """P(D = k) by direct quadrature of the Pareto mixing integral.

    Integrand exp(k log y - y - lgamma(k+1)) * pdf(y) is evaluated in log
    space, split at its mode, so it stays finite-precision stable for k up to
    at least 1e4.  This is the brute-force oracle for DegreeLaw.pmf_array.
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


def pmf_mpmath(law, k, dps=40):
    """P(D = k) = gamma a^gamma Gamma(k - gamma, a) / k! at `dps` digits (a = law.scale)."""
    with mp.workdps(dps):
        gamma, a = mp.mpf(law.shape), mp.mpf(law.scale)
        return gamma * a**gamma * mp.gammainc(k - gamma, a) / mp.factorial(k)


def tail_mass_bound(law, k):
    """Upper bound on the pmf mass above degree k from the Pareto mixing tail."""
    return law.scale**law.shape * float(k) ** (-law.shape)


def truncation_k(law, tol, moment=0):
    """Smallest K whose tail bound on the given moment's remainder is < tol."""
    gamma, scale = law.shape, law.scale
    if moment == 0:
        return int(math.ceil(scale * tol ** (-1.0 / gamma))) + 1
    if moment == 1:
        return int(math.ceil(
            (gamma * scale**gamma / ((gamma - 1.0) * tol)) ** (1.0 / (gamma - 1.0))
        )) + 1
    raise DomainError("only moments 0 and 1 are supported")
