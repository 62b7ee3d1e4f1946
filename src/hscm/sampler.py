"""Seeded graph samplers: equilibrium (naive and fast) and growing variants.

The fast equilibrium sampler and the growing sampler share one exact row
engine.  A row processes candidate partners in order of non-increasing
connection probability, proposing candidates by geometric jumps under the
dominating product bound min(exp(-(x_i + x_j)), 1) and thinning each landing
to the Fermi-Dirac probability.  Every candidate ends up included
independently with exactly probability W(x_i, x_j), in expected O(1 + degree)
work per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import DomainError, SizeGuardError
from .graphon import _logistic_neg
from .params import (
    EnsembleParams,
    Representation,
    convert_coordinate,
    derive_params,
    mu_n_quantile,
)

NAIVE_SIZE_GUARD = 30_000


@dataclass(frozen=True)
class Graph:
    """Simple undirected labeled graph: node count plus a sorted edge array.

    edges has shape (m, 2), 0-indexed int32 endpoints with edges[k, 0] <
    edges[k, 1], sorted lexicographically, no duplicates.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int32).reshape(-1, 2)
        object.__setattr__(self, "edges", np.ascontiguousarray(edges))

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n).astype(np.int64)

    def average_degree(self) -> float:
        return 2.0 * self.num_edges / self.n

    def prefix(self, n_prime: int) -> "Graph":
        """Induced subgraph on nodes 0..n_prime-1 (the projective truncation)."""
        if not 0 <= n_prime <= self.n:
            raise DomainError(f"prefix size {n_prime} outside [0, {self.n}]")
        keep = (self.edges[:, 0] < n_prime) & (self.edges[:, 1] < n_prime)
        return Graph(n=n_prime, edges=self.edges[keep])

    def first_fault(self):
        """(row, message) of the first edge that breaks the form above, or None."""
        e = self.edges
        step = np.diff(edge_keys(self.n, e[:, 0], e[:, 1]), prepend=-1)
        faults = [(int(np.argmax(bad)), reason) for bad, reason in (
            (((e < 0) | (e >= self.n)).any(axis=1), f"has a node id out of range for n={self.n}"),
            (e[:, 0] >= e[:, 1], "is not ordered i < j"),
            (step <= 0, "repeats or precedes the edge before it")) if bad.any()]
        if not faults:
            return None
        row, reason = min(faults)
        return row, f"edge {e[row, 0]} {e[row, 1]} {reason}"


@dataclass(frozen=True)
class CoordinateSample:
    """Latent node coordinates in a declared representation."""

    params: EnsembleParams
    rep: Representation
    coords: np.ndarray
    seed: int

    def to_exponential(self) -> np.ndarray:
        if self.rep is Representation.EXPONENTIAL:
            return self.coords
        return convert_coordinate(self.params, self.coords, self.rep,
                                  Representation.EXPONENTIAL)


def sample_coordinates(p: EnsembleParams, seed: int,
                       rep: Representation = Representation.EXPONENTIAL) -> CoordinateSample:
    """n i.i.d. latent coordinates; deterministic given (p, seed, rep)."""
    u = 1.0 - rng.uniform(seed, rng.TAG_COORD, np.arange(p.n, dtype=np.uint64))
    if rep is Representation.EXPONENTIAL:
        coords = mu_n_quantile(p, u)
    elif rep is Representation.UNIT_INTERVAL:
        coords = u
    elif rep is Representation.PARETO:
        coords = p.pareto_scale * u ** (-1.0 / p.gamma)
    else:  # pragma: no cover
        raise DomainError(f"unknown representation {rep}")
    return CoordinateSample(params=p, rep=rep, coords=np.asarray(coords, dtype=float),
                            seed=int(seed))


def edge_keys(n: int, a, b) -> np.ndarray:
    """Canonical int64 key min*n + max of each undirected edge {a, b}.

    Keys sort in the (i, j) lexicographic order of the edges with i < j, and
    equal keys are duplicate edges.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return np.minimum(a, b) * np.int64(n) + np.maximum(a, b)


def edges_from_keys(n: int, keys: np.ndarray) -> np.ndarray:
    """The (m, 2) int32 edge array of canonical keys, in key order."""
    edges = np.empty((keys.size, 2), dtype=np.int32)
    edges[:, 0] = keys // n
    edges[:, 1] = keys % n
    return edges


def _finish_edges(n: int, rows: list, cols: list) -> Graph:
    if not rows:
        return Graph(n=n, edges=np.empty((0, 2), dtype=np.int32))
    keys = np.sort(edge_keys(n, np.concatenate(rows), np.concatenate(cols)))
    return Graph(n=n, edges=edges_from_keys(n, keys))


def sample_graph_naive(c: CoordinateSample, seed: int, allow_large: bool = False) -> Graph:
    """Reference quadratic sampler: every pair gets its own keyed Bernoulli draw.

    The pair (i, j) decision is uniform(seed, TAG_EDGE_NAIVE, i, j) < W(x_i, x_j),
    so the result is independent of evaluation order.
    """
    n = c.params.n
    if n > NAIVE_SIZE_GUARD and not allow_large:
        raise SizeGuardError(
            f"naive sampler is quadratic; n={n} exceeds {NAIVE_SIZE_GUARD} "
            "(pass allow_large=True to override)")
    x = c.to_exponential()
    rows, cols = [], []
    if n <= 2500:  # all pairs in one vectorized pass
        iu, ju = np.triu_indices(n, k=1)
        w = _logistic_neg(x[iu] + x[ju])
        u = rng.uniform(seed, rng.TAG_EDGE_NAIVE, iu.astype(np.uint64),
                        ju.astype(np.uint64))
        hit = u < w
        rows.append(iu[hit])
        cols.append(ju[hit])
    else:
        for i in range(n - 1):
            j = np.arange(i + 1, n, dtype=np.int64)
            w = _logistic_neg(x[i] + x[i + 1:])
            u = rng.uniform(seed, rng.TAG_EDGE_NAIVE, np.uint64(i), j.astype(np.uint64))
            hit = u < w
            if hit.any():
                jj = j[hit]
                rows.append(np.full(jj.size, i, dtype=np.int64))
                cols.append(jj)
    return _finish_edges(n, rows, cols)


def _run_skip_rows(xs: np.ndarray, row_coord: np.ndarray, row_ids: np.ndarray,
                   start: np.ndarray, stop: np.ndarray, seed: int, tag: int):
    """Exact Bernoulli(W) sampling of many independent rows by geometric skipping.

    xs must be ascending so that, within a row, connection probabilities are
    non-increasing over candidate positions start[r]..stop[r]-1.  Row r draws
    its uniforms from the counter-based stream (seed, tag, row_ids[r], k);
    results are therefore independent of how rows are batched.
    Returns (row_id, position) arrays of accepted candidates.
    """
    pos = start.astype(np.int64).copy()
    stp = stop.astype(np.int64)
    alive = pos < stp
    idx = np.nonzero(alive)[0]
    pos = pos[idx]
    stp = stp[idx]
    rx = row_coord[idx]
    rid = row_ids[idx].astype(np.uint64)
    ctr = np.zeros(idx.size, dtype=np.uint64)

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


def sample_graph_fast(c: CoordinateSample, seed: int) -> Graph:
    """Equilibrium sampler with expected O(n + m) work; same law as the naive one.

    Nodes are processed in ascending coordinate order (descending weight
    exp(-x)); each anchor row skips over later candidates geometrically under
    the product bound and corrects by rejection to W.  Seed streams are keyed
    per anchor, so output is identical under any row partitioning.
    """
    n = c.params.n
    x = c.to_exponential()
    order = np.argsort(x, kind="stable")
    xs = x[order]
    rows = np.arange(n - 1, dtype=np.int64) if n > 1 else np.empty(0, dtype=np.int64)
    rid, ppos = _run_skip_rows(
        xs, xs[rows] if rows.size else xs[:0], rows, rows + 1,
        np.full(rows.size, n, dtype=np.int64), seed, rng.TAG_EDGE_FAST)
    return _finish_edges(n, [order[rid]], [order[ppos]])


class GrowthState:
    """Incremental growing-chain sampler state.

    For gamma == 2 the chain is the exactly-projective construction: node t
    sits at x_t = 0.5*log(2 v_t) where v_t is a rate-delta Poisson process on
    the positive half line.  For other gamma the increment construction is
    used (node t drawn from the latent measure restricted to the t'th support
    increment); that variant matches the equilibrium ensemble asymptotically,
    not exactly.  Both keep coordinates strictly increasing, and every node
    uses its own seed streams, so any prefix of a longer run is byte-identical
    to a shorter run.
    """

    def __init__(self, gamma: float, nu: float, seed: int, exact: bool | None = None):
        if exact is None:
            exact = (gamma == 2.0)
        if exact and gamma != 2.0:
            raise DomainError("the exactly-projective chain requires gamma == 2")
        derive_params(gamma, nu, 1)  # validate (gamma, nu) eagerly
        self.gamma = float(gamma)
        self.nu = float(nu)
        self.seed = int(seed)
        self.exact = bool(exact)
        self.v = np.empty(0)
        self.coords = np.empty(0)
        self._edge_rows: list = []
        self._edge_cols: list = []

    @property
    def n(self) -> int:
        return int(self.coords.size)

    def params(self) -> EnsembleParams:
        return derive_params(self.gamma, self.nu, max(self.n, 1))

    def _extend_coords(self, target_n: int):
        old = self.n
        t = np.arange(old, target_n, dtype=np.int64)
        u = 1.0 - rng.uniform(self.seed, rng.TAG_GROW_COORD, t.astype(np.uint64))
        if self.exact:
            delta = self.nu / 2.0
            incr = -np.log(u) / delta
            base = self.v[-1] if old else 0.0
            v_new = base + np.cumsum(incr)
            x_new = 0.5 * np.log(2.0 * v_new)
        else:
            gamma = self.gamma
            beta = 1.0 - 1.0 / gamma
            sizes = (t + 1).astype(float)
            r_t = 0.5 * np.log(sizes / (beta * beta * self.nu))
            r_prev = 0.5 * np.log(np.maximum(sizes - 1.0, 1.0) / (beta * beta * self.nu))
            q = np.exp(-gamma * (r_t - r_prev))
            q[t == 0] = 0.0  # first increment is the whole support
            x_new = r_t + np.log(q + u * (1.0 - q)) / gamma
            v_new = 0.5 * np.exp(2.0 * x_new)
        self.v = np.concatenate((self.v, v_new))
        self.coords = np.concatenate((self.coords, x_new))

    def grow_to(self, target_n: int):
        if target_n < self.n:
            raise DomainError(f"cannot shrink a growth chain from {self.n} to {target_n}")
        if target_n == self.n:
            return self
        old = self.n
        self._extend_coords(target_n)
        t = np.arange(max(old, 1), target_n, dtype=np.int64)
        if t.size:
            rid, ppos = _run_skip_rows(
                self.coords, self.coords[t], t,
                np.zeros(t.size, dtype=np.int64), t, self.seed, rng.TAG_GROW_EDGE)
            self._edge_rows.append(rid)
            self._edge_cols.append(ppos)
        return self

    def graph(self) -> Graph:
        return _finish_edges(self.n, list(self._edge_rows), list(self._edge_cols))

    def coordinate_sample(self) -> CoordinateSample:
        return CoordinateSample(params=self.params(), rep=Representation.EXPONENTIAL,
                                coords=self.coords.copy(), seed=self.seed)


def sample_graph_growing(p: EnsembleParams, seed: int, target_n: int | None = None,
                         exact: bool | None = None):
    """Grow a graph node by node; returns (Graph, CoordinateSample).

    With gamma == 2 (default exact=True) the run is projective: the first n'
    nodes of a longer run are byte-identical to a direct run of size n' with
    the same seed.
    """
    if target_n is None:
        target_n = p.n
    state = GrowthState(p.gamma, p.nu, seed, exact=exact)
    state.grow_to(target_n)
    return state.graph(), state.coordinate_sample()
