"""Independent brute-force oracles used only by the tests.

These deliberately take different routes than the library, which reduces
every integral of a function of x + y against the latent product measure to
a 1D Gamma(2, gamma) integral and evaluates kappa_n by fixed Gauss-Legendre
pieces of an Exp(1) expectation:

* the entropy / mean-degree oracles run the full nested 2D quadrature over
  the latent square, truncated at a small latent-measure quantile;
* the mpmath oracles evaluate the same quantities at 40 significant digits,
  for sizes where double-precision nested quadrature drifts;
* the box-average oracle integrates one partition box with scipy dblquad,
  and averaged_box_oracle builds 100 v**4 CDF nodes on every interval and
  sums every box, where the library takes 16 nodes in two other rules and
  uses that a finite box depends only on s + t; gibbs_upper_rescaled_oracle
  assembles the Gibbs upper bound from those box means;
* the degree-pmf oracles integrate the Pareto mixing integral directly, or
  evaluate the incomplete-gamma closed form with mpmath, where the library
  runs a recurrence from one quadrature seed;
* the SCM oracles build the dense n x n probability matrix with scipy's
  expit, where the solver works over degree classes.

box_matrix, bracket_bounds, deviation_log_slope,
expected_avg_degree_classical, negative_mass, refine_doubled, tail_mass_bound
and truncation_k are closed forms, fits and helpers that only the tests use.

sample_graph_naive is the quadratic reference for the equilibrium sampler:
it gives every pair i < j its own keyed draw, where sampler.sample_graph_fast
skips over the pairs geometrically.  naive_replica seeds it as
sampler.sample_replica seeds a replica.

tail_exponent_fit_loop is stats.tail_exponent_fit as it stood before the fit
worked on the distinct degrees present: one cutoff at a time, each bisected
in a scalar loop, with the model CDF at every integer from k_min to the
largest degree, and a central difference of log zeta for the exponent's
score.  It takes the Hurwitz zeta as an argument: scipy's by default, to
check the whole fit, or the library's, to check the vectorisation.

skip_rows_reference is the skip engine as sampler._run_skip_rows stood
before it hashed each row's stream prefix once and cut long rows into
segments: every draw re-hashes (seed, tag, row, counter) through
rng.uniform, and all rows step together as arrays until the last one ends.
Run on the engine's segments (each with its first counter), it must return
the engine's (row, position) pairs.

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

from hscm.entropy import graphon_entropy, interval_masses, partition
from hscm.errors import DomainError, InsufficientTailError
from hscm import rng
from hscm.graphon import (_logistic_neg, bernoulli_entropy, bernoulli_entropy_logit,
                          expectation_of_sum, w_fermi_dirac)
from hscm.params import derive_params, mu_n_quantile
from hscm.quadrature import gauss_legendre_nodes
from hscm.sampler import Graph, sample_coordinates
from hscm.stats import (
    _ALPHA_HI, _ALPHA_LO, _ALPHA_REJECT, _KS_REJECT, _MIN_TAIL_SAMPLES, TailFit,
)


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


def mean_classical_kernel(p):
    """E[min(exp(-(X + Y)), 1)] over the latent product measure."""
    return expectation_of_sum(p, lambda s: w_classical(s, 0.0))


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


# -- the quadratic reference sampler --

TAG_EDGE_NAIVE = 2  # its per-pair stream; the library's stream tags leave 2 free


def sample_graph_naive(x, seed):
    """Reference quadratic sampler on coordinates x: every pair gets its own keyed draw.

    Pair (i, j), i < j, is an edge when uniform(seed, TAG_EDGE_NAIVE, i, j) <
    W(x_i, x_j), so the result is independent of evaluation order.
    np.triu_indices lists the pairs in lexicographic order, the order of a
    Graph's edges.
    """
    x = np.asarray(x, dtype=float)
    i, j = np.triu_indices(x.size, 1)
    u = rng.uniform(seed, TAG_EDGE_NAIVE, i.astype(np.uint64), j.astype(np.uint64))
    hit = u < _logistic_neg(x[i] + x[j])
    return Graph(n=x.size, edges=np.column_stack((i[hit], j[hit])))


def naive_replica(p, seed, index):
    """Replica `index` of p under master seed `seed`, drawn by sample_graph_naive.

    Its coordinate and edge seeds are those sampler.sample_replica derives.
    """
    coord_seed, edge_seed = (rng.subseed(seed, rng.TAG_REPLICA, 2 * index + k) for k in (0, 1))
    return sample_graph_naive(sample_coordinates(p, coord_seed), edge_seed)


# -- the skip engine as it stood before its prefix-hash and scalar-finish rework --

def skip_rows_reference(xs: np.ndarray, row_coord: np.ndarray, row_ids: np.ndarray,
                        start: np.ndarray, stop: np.ndarray, seed: int, tag: int,
                        counter=None):
    """Exact Bernoulli(W) sampling of many independent rows by geometric skipping.

    xs must be ascending so that, within a row, connection probabilities are
    non-increasing over candidate positions start[r]..stop[r]-1.  Row r draws
    its uniforms from the counter-based stream (seed, tag, row_ids[r], k),
    with k from counter[r] (default 0) on; results are therefore independent
    of how rows are batched.  Returns (row_id, position) arrays of accepted
    candidates.
    """
    pos = start.astype(np.int64).copy()
    stp = stop.astype(np.int64)
    alive = pos < stp
    idx = np.nonzero(alive)[0]
    pos = pos[idx]
    stp = stp[idx]
    rx = row_coord[idx]
    rid = row_ids[idx].astype(np.uint64)
    ctr = (np.zeros(idx.size, dtype=np.uint64) if counter is None
           else np.asarray(counter, dtype=np.uint64)[idx])

    s = rx + xs[pos]
    pb = np.where(s <= 0.0, 1.0, np.exp(-np.clip(s, 0.0, None)))
    out_r, out_p = [], []
    one = np.uint64(1)

    while pos.size:
        # Geometric jump at the current bound (rows at bound 1 stay put).
        jump = pb < 1.0
        if jump.any():
            u = rng.uniform(seed, tag, rid[jump], ctr[jump])
            ctr[jump] += one
            with np.errstate(divide="ignore", invalid="ignore"):
                g = np.log1p(-u) / np.log1p(-pb[jump])
            rem = (stp[jump] - pos[jump]).astype(float)
            g = np.where(np.isfinite(g), np.minimum(np.floor(g), rem), rem)
            pos[jump] += g.astype(np.int64)

        live = pos < stp
        if not live.all():
            pos, stp, rx, rid, ctr, pb = (a[live] for a in (pos, stp, rx, rid, ctr, pb))
            if not pos.size:
                break

        # Thin the landing to the Fermi-Dirac probability.
        s = rx + xs[pos]
        w = _logistic_neg(s)
        u2 = rng.uniform(seed, tag, rid, ctr)
        ctr += one
        acc = u2 * pb < w
        if acc.any():
            out_r.append(rid[acc].astype(np.int64))
            out_p.append(pos[acc].copy())

        # Tighten the bound to the just-visited position and advance.
        pb = np.where(s <= 0.0, 1.0, np.exp(-np.clip(s, 0.0, None)))
        pos += 1
        live = pos < stp
        if not live.all():
            pos, stp, rx, rid, ctr, pb = (a[live] for a in (pos, stp, rx, rid, ctr, pb))

    if out_r:
        return np.concatenate(out_r), np.concatenate(out_p)
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


# -- graphs, entropy series and the maximality check --

def prefix(g, n_prime):
    """Induced subgraph of a Graph on nodes 0..n_prime-1 (the projective truncation)."""
    if not 0 <= n_prime <= g.n:
        raise DomainError(f"prefix size {n_prime} outside [0, {g.n}]")
    keep = (g.edges[:, 0] < n_prime) & (g.edges[:, 1] < n_prime)
    return Graph(n=n_prime, edges=g.edges[keep])


def rescaled_entropy_series(gamma, nu, sizes):
    """[(n, n * sigma / log n)] over increasing sizes."""
    sizes = list(sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DomainError("sizes must be strictly increasing")
    out = []
    for n in sizes:
        p = derive_params(gamma, nu, n)
        sigma = graphon_entropy(p)
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


def gauss_legendre_mpmath(order, dps=30):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] at `dps` digits.

    One Newton step on P_order, evaluated by the three-term recurrence in
    mpmath, from numpy's eigenvalue-based leggauss nodes (each within ~1e-16
    of its root, so one step leaves ~1e-27), then w = 2 / ((1 - x^2) P'(x)^2)
    at the refined node.  The rule is symmetric: the upper half mirrors the
    lower one.
    """
    def legendre(x):  # P_order(x) and P_order'(x)
        p0, p1 = mp.mpf(1), x
        for j in range(2, order + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, order * (x * p1 - p0) / (x * x - 1)

    xs, ws = [], []
    with mp.workdps(dps):
        for x0 in np.polynomial.legendre.leggauss(order)[0][:(order + 1) // 2]:
            x = mp.mpf(float(x0))
            p, dp = legendre(x)
            x -= p / dp
            dp = legendre(x)[1]
            xs.append(float(x))
            ws.append(float(2 / ((1 - x * x) * dp * dp)))
    half = order // 2
    return (np.array(xs + [-v for v in xs[:half][::-1]]),
            np.array(ws + ws[:half][::-1]))


def w_mpmath(s):
    """W(s) = 1 / (exp(s) + 1) at the working mpmath precision."""
    return 1 / (mp.exp(s) + 1)


def h_mpmath(s):
    """H(W(s)) = log1p(exp(-|s|)) + |s| W(|s|) at the working mpmath precision."""
    a = abs(s)
    t = mp.exp(-a)
    return mp.log1p(t) + a * t / (1 + t)


def expectation_of_sum_mpmath(p, f_of_sum, dps=40, top=None):
    """E[f(X + Y)] at `dps` digits: one mpmath integral of f(2 top - u / gamma) u e^-u.

    X and Y are drawn from the latent measure conditioned to (-inf, top],
    top = r_n (the whole support) by default; top - X is Exp(gamma) either
    way.  f_of_sum maps an mpf sum s = x + y to an mpf.  The range u >= 0 is
    split where the kernel turns, s = 0 or u = 2 gamma top, when that is
    positive.
    """
    with mp.workdps(dps):
        gamma, r2 = mp.mpf(p.gamma), 2 * mp.mpf(p.r_n if top is None else top)
        turn = gamma * r2
        return mp.quad(lambda u: f_of_sum(r2 - u / gamma) * u * mp.exp(-u),
                       [0, turn, mp.inf] if turn > 0 else [0, mp.inf])


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


def averaged_box_oracle(p, m, order=100, live=None):
    """Box means of W and of H(W) over the partition, shape (2, k, k).

    The boxes are those among the k intervals flagged in `live`, all m by
    default.  Every interval gets its own nodes from its own CDF:
    conditioned to (rho[t], rho[t + 1]], U = exp(gamma (x - rho[t + 1])) is
    uniform on [a, 1] with a = exp(-gamma * width) (a = 0 on the first
    interval), and U = v**4 gives x = rho[t + 1] + 4 log(v) / gamma with
    weight 4 v**3 / (1 - a) for v in [a**(1/4), 1].  Each row of boxes is
    summed over full node tensors, with no use of the translation structure.
    """
    gamma = p.gamma
    rho = partition(p, m)
    intervals = np.arange(m) if live is None else np.flatnonzero(live)
    k = intervals.size
    nodes = np.empty((k, order))
    weights = np.empty((k, order))
    for i, t in enumerate(intervals):
        drop = gamma * (rho[t + 1] - rho[t])  # inf on the first interval
        v, wv = gauss_legendre_nodes(math.exp(-drop / 4.0), 1.0, order)
        nodes[i] = rho[t + 1] + 4.0 * np.log(v) / gamma
        weights[i] = 4.0 * v**3 * wv / -math.expm1(-drop)
    box = np.empty((2, k, k))
    for s in range(k):
        sums = nodes[s][:, None] + nodes[s:].ravel()[None, :]
        pair = weights[s][:, None] * weights[s:].ravel()[None, :]
        for row, kernel in zip(box, (_logistic_neg, bernoulli_entropy_logit)):
            means = (pair * kernel(sums)).sum(axis=0).reshape(k - s, order).sum(axis=1)
            row[s, s:] = row[s:, s] = means
    return box


def gibbs_upper_rescaled_oracle(p, order=100):
    """The rescaled Gibbs upper bound with the box means of averaged_box_oracle.

    Boxes of an interval whose mass underflows to 0 add nothing, so only
    the others are built.
    """
    m = math.ceil(math.log(p.n) ** 2) + 1
    masses = interval_masses(p, m)
    live = masses > 0.0
    w_bar, h_bar = averaged_box_oracle(p, m, order, live)
    excess = np.maximum(bernoulli_entropy(np.clip(w_bar, 0.0, 1.0)) - h_bar, 0.0)
    pairs = 0.5 * p.n * (p.n - 1)
    upper = (pairs * graphon_entropy(p) - p.n * float(xlogy(masses, masses).sum())
             + pairs * float(masses[live] @ excess @ masses[live]))
    return 2.0 * upper / (p.n * math.log(p.n))


def box_matrix(values, m_n):
    """Symmetric m_n x m_n box matrix from one row of averaged_graphon's output.

    values holds the corner, the first row against the m_n - 1 finite
    intervals, then the 2 m_n - 3 finite x finite boxes by s + t - 2.
    """
    box = np.empty((m_n, m_n))
    box[0, 0] = values[0]
    box[0, 1:] = box[1:, 0] = values[1:m_n]
    idx = np.arange(m_n - 1)
    box[1:, 1:] = values[m_n:][idx[:, None] + idx[None, :]]
    return np.clip(box, 0.0, 1.0)


def refine_doubled(m_n):
    """Interval count of the nested refinement that halves every finite interval."""
    return 2 * (m_n - 1) + 1


def bracket_bounds(rho):
    """(min, max) of W on every box of the partition with boundaries rho.

    W decreases in x + y, so on box (s, t) the extremes sit at the corners
    rho[s+1] + rho[t+1] (min) and rho[s] + rho[t] (max).
    """
    right = rho[1:]
    left = rho[:-1]
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
    return _quad(integrand, a, upper, rtol, [mode]) + _quad(integrand, upper, np.inf, rtol, [])


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


# -- the per-cutoff loop of the tail fit --

def _zeta_log_deriv(alpha, k_min, zeta):
    h = 1e-5
    return (math.log(zeta(alpha + h, k_min))
            - math.log(zeta(alpha - h, k_min))) / (2 * h)


def _mle_alpha(mean_log, k_min, zeta):
    """Solve -zeta'(a, k_min)/zeta(a, k_min) = mean_log by bisection."""

    def g(a):
        return -_zeta_log_deriv(a, k_min, zeta) - mean_log

    lo, hi = _ALPHA_LO, _ALPHA_HI
    if g(hi) > 0.0:  # sample mean-log below the model's infimum
        return _ALPHA_HI
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tail_exponent_fit_loop(h, zeta=special.zeta):
    """stats.tail_exponent_fit, fitting and scoring one cutoff at a time.

    zeta(s, q) is the Hurwitz zeta, scalar in s and broadcast over q.
    """
    counts = h.counts.astype(np.int64)
    ks = np.arange(counts.size)
    present = ks[(counts > 0) & (ks >= 1)]
    if present.size < 2:
        raise InsufficientTailError("histogram has fewer than two positive-degree values")
    cand = present[:-1]
    if cand.size > 64:  # thin the scan, keeping the log profile
        keep = np.geomspace(cand[0], cand[-1], 64)
        idx = np.searchsorted(cand, keep, side="left").clip(0, cand.size - 1)
        cand = np.unique(cand[idx])

    best = None
    for km in cand.tolist():
        sel = ks >= km
        c = counts[sel]
        kv = ks[sel]
        n_tail = int(c.sum())
        if n_tail < _MIN_TAIL_SAMPLES or (c > 0).sum() < 2:
            continue
        mean_log = float(c @ np.log(kv)) / n_tail
        alpha = _mle_alpha(mean_log, km, zeta)
        z0 = zeta(alpha, km)
        model_cdf = 1.0 - zeta(alpha, kv + 1.0) / z0
        emp_cdf = np.cumsum(c) / n_tail
        ksd = float(np.max(np.abs(model_cdf - emp_cdf)))
        if best is None or ksd < best.ks_distance:
            best = TailFit(alpha=alpha, k_min=km, ks_distance=ksd, n_tail=n_tail)

    if best is None:
        raise InsufficientTailError(
            f"no cutoff leaves at least {_MIN_TAIL_SAMPLES} tail samples")
    if (best.ks_distance > _KS_REJECT or best.alpha >= _ALPHA_REJECT
            or best.alpha <= _ALPHA_LO * 1.01):
        raise InsufficientTailError(
            f"tail is not power-law-like (KS {best.ks_distance:.3f}, "
            f"alpha {best.alpha:.2f} at k_min {best.k_min})")
    return best
