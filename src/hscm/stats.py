"""Empirical degree statistics and comparison with the theoretical laws."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, xlogy, zeta

from .errors import DomainError, EdgeListParseError, InsufficientTailError
from .graphon import expected_degree_fn
from .params import EnsembleParams, mu_n_quantile
from .quadrature import gauss_legendre_nodes
from .io import parse_edge_list
from .sampler import Graph, edge_keys, edges_from_keys
from .theory import DegreeLaw, expected_avg_degree_finite_n


@dataclass
class DegreeHistogram:
    """Pooled degree counts over one or more graphs of equal size."""

    counts: np.ndarray
    n: int
    n_graphs: int
    edges_per_graph: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    duplicates_dropped: int = 0
    self_loops_dropped: int = 0

    @property
    def total_nodes(self) -> int:
        return self.n * self.n_graphs

    def pmf(self) -> np.ndarray:
        return self.counts / self.total_nodes

    def mean_degree(self) -> float:
        return float(np.arange(self.counts.size) @ self.counts) / self.total_nodes

    def mean_degree_se(self) -> float:
        """Standard error of the mean degree, across replicas when available."""
        if self.edges_per_graph.size >= 2:
            per = 2.0 * self.edges_per_graph / self.n
            return float(np.std(per, ddof=1) / math.sqrt(per.size))
        ks = np.arange(self.counts.size)
        var = float(ks * ks @ self.counts) / self.total_nodes - self.mean_degree() ** 2
        return math.sqrt(max(var, 0.0) / self.total_nodes)


def degree_histogram(graphs) -> DegreeHistogram:
    """Exact pooled degree counts of graphs that all share one node count."""
    graphs = list(graphs)
    if not graphs:
        raise DomainError("no graphs given")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise DomainError("all graphs must have the same node count")
    kmax = 0
    degs = []
    for g in graphs:
        d = g.degrees()
        kmax = max(kmax, int(d.max(initial=0)))
        degs.append(d)
    counts = np.zeros(kmax + 1, dtype=np.int64)
    for d in degs:
        counts += np.bincount(d, minlength=kmax + 1)
    epg = np.array([g.num_edges for g in graphs], dtype=np.int64)
    return DegreeHistogram(counts=counts, n=n, n_graphs=len(graphs), edges_per_graph=epg)


def tv_distance_lumped(p_emp: np.ndarray, q: np.ndarray, k_max: int) -> float:
    """Total variation on the partition {0, .., k_max, >k_max}.

    q must have length k_max + 1 and sum to at most 1; its deficit is the
    theoretical tail mass.
    """
    pe = np.zeros(k_max + 1)
    upto = min(p_emp.size, k_max + 1)
    pe[:upto] = p_emp[:upto]
    pe_tail = max(0.0, 1.0 - pe.sum())
    q_tail = max(0.0, 1.0 - q.sum())
    return 0.5 * (np.abs(pe - q).sum() + abs(pe_tail - q_tail))


def finite_n_degree_pmf(p: EnsembleParams, k_max: int, nodes: int = 512) -> np.ndarray:
    """Mixed-Poisson pmf with the finite-n mixing kappa_n(X), by quadrature.

    The latent quantile u is substituted as u = z**gamma so that the mixing
    parameter is nearly proportional to 1/z, then integrated with
    Gauss-Legendre nodes; kappa_n at the nodes is the closed-form expected
    degree.  Returns pmf(0..k_max); the deficit to 1 is the tail mass.
    """
    z, wz = gauss_legendre_nodes(0.0, 1.0, nodes)
    w = wz * p.gamma * z ** (p.gamma - 1.0)
    kappa = expected_degree_fn(p, mu_n_quantile(p, z ** p.gamma))
    ks = np.arange(k_max + 1, dtype=float)
    # xlogy keeps k * log(kappa) at 0 for k = 0 when kappa = 0 (n = 1)
    log_pois = xlogy(ks[:, None], kappa[None, :]) - kappa[None, :] \
        - gammaln(ks + 1.0)[:, None]
    return np.exp(log_pois) @ w


@dataclass(frozen=True)
class ComparisonReport:
    """Empirical histogram versus the asymptotic and finite-n theory."""

    k_max: int
    tv_asymptotic: float
    tv_finite_n: float
    avg_degree_empirical: float
    avg_degree_empirical_se: float
    avg_degree_finite_n: float
    avg_degree_asymptotic: float
    tail_exponent_estimate: float | None
    pmf_asymptotic: np.ndarray  # theory pmf(0..k_max); the deficit is tail mass
    pmf_finite_n: np.ndarray


def compare_to_theory(h: DegreeHistogram, p: EnsembleParams, k_max: int = 100) -> ComparisonReport:
    """TV distances (tail lumped beyond k_max) and average-degree deltas."""
    law = DegreeLaw(p)
    q_asym = law.pmf_array(k_max)
    q_fin = finite_n_degree_pmf(p, k_max)
    pe = h.pmf()
    try:
        alpha = tail_exponent_fit(h).alpha
    except InsufficientTailError:
        alpha = None
    return ComparisonReport(
        k_max=k_max,
        tv_asymptotic=tv_distance_lumped(pe, q_asym, k_max),
        tv_finite_n=tv_distance_lumped(pe, q_fin, k_max),
        avg_degree_empirical=h.mean_degree(),
        avg_degree_empirical_se=h.mean_degree_se(),
        avg_degree_finite_n=expected_avg_degree_finite_n(p),
        avg_degree_asymptotic=p.nu,
        tail_exponent_estimate=alpha,
        pmf_asymptotic=q_asym,
        pmf_finite_n=q_fin,
    )


@dataclass(frozen=True)
class TailFit:
    alpha: float
    k_min: int
    ks_distance: float
    n_tail: int


_MIN_TAIL_SAMPLES = 100
_ALPHA_LO, _ALPHA_HI = 1.000001, 40.0
# Degenerate-fit rejection: real degree tails fit with small KS distance and
# moderate exponents; truncated-flat histograms end up at KS ~ 0.15 with
# runaway exponents.
_KS_REJECT = 0.1
_ALPHA_REJECT = 10.0


def _zeta_log_deriv(alpha: float, k_min: int) -> float:
    h = 1e-5
    return (math.log(zeta(alpha + h, k_min)) - math.log(zeta(alpha - h, k_min))) / (2 * h)


def _mle_alpha(mean_log: float, k_min: int) -> float:
    """Solve -zeta'(a, k_min)/zeta(a, k_min) = mean_log by bisection."""

    def g(a):
        return -_zeta_log_deriv(a, k_min) - mean_log

    lo, hi = _ALPHA_LO, _ALPHA_HI
    if g(hi) > 0.0:  # sample mean-log below the model's infimum
        return _ALPHA_HI
    if g(lo) < 0.0:
        return _ALPHA_LO
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tail_exponent_fit(h: DegreeHistogram, k_min: int | None = None) -> TailFit:
    """Discrete maximum-likelihood power-law fit of the histogram tail.

    The exponent solves the Hurwitz-zeta likelihood equation; when k_min is
    not given it is chosen to minimize the Kolmogorov-Smirnov distance over
    candidate cutoffs that keep at least 100 tail samples.  Degenerate inputs
    (too little tail, no power-law decay) raise InsufficientTailError.
    """
    counts = h.counts.astype(np.int64)
    ks = np.arange(counts.size)
    present = ks[(counts > 0) & (ks >= 1)]
    if present.size < 2:
        raise InsufficientTailError("histogram has fewer than two positive-degree values")
    if k_min is not None:
        candidates = [int(k_min)]
    else:
        cand = present[:-1]
        if cand.size > 64:  # thin the scan, keeping the log profile
            keep = np.geomspace(cand[0], cand[-1], 64)
            idx = np.searchsorted(cand, keep, side="left").clip(0, cand.size - 1)
            cand = np.unique(cand[idx])
        candidates = [int(k) for k in cand]

    best = None
    for km in candidates:
        sel = ks >= km
        c = counts[sel]
        kv = ks[sel]
        n_tail = int(c.sum())
        if n_tail < _MIN_TAIL_SAMPLES or (c > 0).sum() < 2:
            continue
        mean_log = float(c @ np.log(kv)) / n_tail
        alpha = _mle_alpha(mean_log, km)
        # KS distance between the fitted and empirical tail CDFs
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


def ingest_edge_list(path) -> DegreeHistogram:
    """Histogram of an external edge list, parsed by :func:`hscm.io.parse_edge_list`.

    0- versus 1-indexing is auto-detected (1-indexed when no zero id
    appears).  Self-loops and duplicate edges are dropped and counted.
    """
    ids, _ = parse_edge_list(path)
    if not ids.size:
        raise EdgeListParseError(path, 0, "no edges found")
    if ids.min() >= 1:  # 1-indexed input
        ids -= 1
    n = int(ids.max()) + 1
    loop = ids[:, 0] == ids[:, 1]
    keys = np.sort(edge_keys(n, ids[~loop, 0], ids[~loop, 1]))
    fresh = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    hist = degree_histogram([Graph(n=n, edges=edges_from_keys(n, keys[fresh]))])
    hist.duplicates_dropped = int(keys.size - np.count_nonzero(fresh))
    hist.self_loops_dropped = int(np.count_nonzero(loop))
    return hist
