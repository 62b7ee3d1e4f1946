"""Empirical degree statistics and comparison with the theoretical laws."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EdgeListParseError, InsufficientTailError
from .graphon import expected_degree_fn, xlogy
from .params import EnsembleParams, quantile_nodes
from .io import parse_edge_list
from .sampler import Graph, edge_keys, edges_from_keys
from .theory import DegreeLaw, expected_avg_degree_finite_n, log_factorials


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
    """Exact pooled degree counts of graphs sharing one node count, read one graph at a time."""
    counts, edges, n = np.zeros(1, dtype=np.int64), [], None
    for g in graphs:
        n = g.n if n is None else n
        if g.n != n:
            raise DomainError("all graphs must have the same node count")
        c = np.bincount(g.degrees(), minlength=counts.size)
        c[:counts.size] += counts
        counts = c
        edges.append(g.num_edges)
        del g  # free this graph before the next one is made
    if n is None:
        raise DomainError("no graphs given")
    return DegreeHistogram(counts=counts, n=n, n_graphs=len(edges),
                           edges_per_graph=np.array(edges, dtype=np.int64))


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


_PMF_NODES = 512  # Gauss-Legendre nodes of finite_n_degree_pmf


def finite_n_degree_pmf(p: EnsembleParams, k_max: int) -> np.ndarray:
    """pmf(0..k_max) of Poisson(kappa_n(X)), X on quantile_nodes; the deficit is tail mass."""
    x, w = quantile_nodes(p.r_n, p.gamma, _PMF_NODES)
    kappa = expected_degree_fn(p, x)
    ks = np.arange(k_max + 1, dtype=float)
    # xlogy keeps k * log(kappa) at 0 for k = 0 when kappa = 0 (n = 1)
    log_pois = xlogy(ks[:, None], kappa) - kappa - log_factorials(k_max)[:, None]
    return (np.exp(log_pois) * w).sum(axis=-1)  # pairwise sums, so sum(w) is exactly 1


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


# Euler-Maclaurin summation of the Hurwitz zeta, as in Cephes zeta.c (Moshier,
# Methods and Programs for Mathematical Functions, 1989): ten direct terms,
# then the integral, the half term and twelve Bernoulli terms of the rest.
_ZETA_DIRECT = np.arange(10.0)
_ZETA_A = np.array([12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
                    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
                    -4.5979787224074726105e15, 1.8152105401943546773e17,
                    -7.1661652561756670113e18])  # (2i + 2)! / B_(2i+2), Cephes's table A


def _hurwitz_zeta(s, q):
    """zeta(s, q) = sum over j >= 0 of (q + j)^-s, for Re s > 1 and q >= 1; broadcasts.

    s may be complex, so Im zeta(s + ih, q) / h is d/ds zeta(s, q) to
    rounding for a tiny step h.
    """
    s, q = np.asarray(s), np.asarray(q, dtype=float)
    direct = (q[..., None] + _ZETA_DIRECT) ** -s[..., None]
    w = q + _ZETA_DIRECT[-1]
    rising = np.cumprod(s[..., None] + np.arange(23.0), axis=-1)[..., 0::2]  # s (s+1) .. (s+2i)
    # einsum broadcasts s against q without a product array of every pair
    bernoulli = np.einsum("...i,...i->...", rising / _ZETA_A,
                          w[..., None] ** -(2.0 * np.arange(12.0) + 1.0))
    return direct.sum(axis=-1) + direct[..., -1] * (w / (s - 1.0) - 0.5 + bernoulli)


_MIN_TAIL_SAMPLES = 100
_ALPHA_LO, _ALPHA_HI = 1.000001, 40.0
# Degenerate-fit rejection: real degree tails fit with small KS distance and
# moderate exponents; truncated-flat histograms end up at KS ~ 0.15 with
# runaway exponents.
_KS_REJECT = 0.1
_ALPHA_REJECT = 10.0
_H = 1e-20  # complex step of log zeta in alpha


def _distinct(sorted_values: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array (np.unique would import numpy.ma)."""
    return sorted_values[np.append(True, sorted_values[1:] != sorted_values[:-1])]


def tail_exponent_fit(h: DegreeHistogram) -> TailFit:
    """Discrete maximum-likelihood power-law fit of the histogram tail.

    The exponent solves the Hurwitz-zeta likelihood equation, with the cutoff
    k_min chosen to minimize the Kolmogorov-Smirnov distance over candidate
    cutoffs that keep at least 100 tail samples.  Degenerate inputs
    (too little tail, no power-law decay) raise InsufficientTailError.
    Every step works on the distinct positive degrees d present, all
    candidate cutoffs at once.
    """
    counts = h.counts.astype(np.int64)
    d = np.flatnonzero(counts[1:]) + 1
    if d.size < 2:
        raise InsufficientTailError("histogram has fewer than two positive-degree values")
    n_tail = np.cumsum(counts[d][::-1])[::-1]  # tail size and log sum from each d
    log_sum = np.cumsum((counts[d] * np.log(d))[::-1])[::-1]
    cut = np.arange(d.size - 1)  # the last present degree is never a cutoff
    if cut.size > 64:  # thin the scan, keeping the log profile
        keep = np.geomspace(d[0], d[-2], 64)
        cut = _distinct(np.searchsorted(d[:-1], keep, side="left").clip(0, d.size - 2))
    cut = cut[n_tail[cut] >= _MIN_TAIL_SAMPLES]
    if cut.size == 0:
        raise InsufficientTailError(
            f"no cutoff leaves at least {_MIN_TAIL_SAMPLES} tail samples")
    k_min, n_cut = d[cut].astype(float), n_tail[cut]
    mean_log = log_sum[cut] / n_cut

    def excess(a):  # -d/da log zeta(a, k_min) - mean_log, by a complex step
        return -np.log(_hurwitz_zeta(a + 1j * _H, k_min)).imag / _H - mean_log

    # bisect the likelihood equation; a mean log below the model's infimum gives _ALPHA_HI
    lo, hi = np.full(cut.size, _ALPHA_LO), np.full(cut.size, _ALPHA_HI)
    below = excess(hi) > 0.0
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        up = excess(mid) > 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    alpha = np.where(below, _ALPHA_HI, 0.5 * (lo + hi))

    # The empirical CDF is flat between present degrees while the model's
    # rises, so the KS distance peaks at a present degree or just before the next.
    k = np.empty(2 * d.size - 1, dtype=d.dtype)
    k[0::2], k[1::2] = d, d[1:] - 1  # d[i] <= d[i + 1] - 1 < d[i + 1], so k is sorted
    k = _distinct(k)
    above = np.append(n_tail, 0)[np.searchsorted(d, k, side="right")]
    emp = (n_cut[:, None] - above) / n_cut[:, None]
    model = 1.0 - _hurwitz_zeta(alpha[:, None], k + 1.0) / _hurwitz_zeta(alpha, k_min)[:, None]
    ks = np.where(k >= k_min[:, None], np.abs(model - emp), 0.0).max(axis=1)
    j = int(np.argmin(ks))
    best = TailFit(alpha=float(alpha[j]), k_min=int(k_min[j]), ks_distance=float(ks[j]),
                   n_tail=int(n_cut[j]))
    if (best.ks_distance > _KS_REJECT or best.alpha >= _ALPHA_REJECT
            or best.alpha <= _ALPHA_LO * 1.01):
        raise InsufficientTailError(
            f"tail is not power-law-like (KS {best.ks_distance:.3f}, "
            f"alpha {best.alpha:.2f} at k_min {best.k_min})")
    return best


def ingest_edge_list(path) -> DegreeHistogram:
    """Histogram of an external edge list, parsed by :func:`hscm.io.parse_edge_list`.

    n and 0-indexed ids come from a '# hscm v1 n=<n>' header; without one,
    n is one past the largest id and ids are 1-indexed when no zero id
    appears.  Self-loops and duplicate edges are dropped and counted.  Only
    canonical keys are kept, sorted in place unless they already increase,
    as written files do, and turned into edges to count degrees.
    """
    ids, n = parse_edge_list(path)
    if n is None and ids.size:
        if ids.min() >= 1:  # 1-indexed input
            ids -= 1
        n = int(ids.max()) + 1
    if not n:
        raise EdgeListParseError(path, 0, "no edges found")
    loop = ids[:, 0] == ids[:, 1]
    loops = int(np.count_nonzero(loop))
    keys = edge_keys(n, ids[:, 0], ids[:, 1])
    del ids
    if loops:
        keys = keys[~loop]
    non_loops = keys.size
    if not (keys[1:] > keys[:-1]).all():  # strictly increasing keys have no duplicates
        keys.sort()
        keys = keys[np.insert(keys[1:] != keys[:-1], 0, True)]
    degrees = Graph(n, edges_from_keys(n, keys)).degrees()
    return DegreeHistogram(counts=np.bincount(degrees), n=n, n_graphs=1,
                           edges_per_graph=np.array([keys.size], dtype=np.int64),
                           duplicates_dropped=non_loops - keys.size, self_loops_dropped=loops)
