"""Seeded graph samplers: the equilibrium sampler and the growing variant.

The equilibrium sampler and the growing sampler share one exact row
engine.  A row processes candidate partners in order of non-increasing
connection probability, proposing candidates by geometric jumps under the
dominating product bound min(exp(-(x_i + x_j)), 1) and thinning each landing
to the Fermi-Dirac probability.  Every candidate ends up included
independently with exactly probability W(x_i, x_j), in expected O(1 + degree)
work per row.  Rows that expect many proposals are cut into segments of
bounded expected work, each stepped as a row of its own, so all rows step
together in one array loop whose length does not grow with the largest
degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DomainError
from .graphon import _logistic_neg
from .params import EnsembleParams, mu_n_quantile

_SEGMENT_WORK = 64  # expected proposals above which the skip engine cuts a row
_BLOCK_ROWS = 1 << 16  # rows the skip engine steps at once
_KEY_CHUNK = 1 << 16  # keys edges_from_keys converts at once


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
        # bincount copies its input to int64, so count 2**20 edges at a time
        deg = np.zeros(self.n, dtype=np.int64)
        for i in range(0, self.num_edges, 1 << 20):
            deg += np.bincount(self.edges[i:i + (1 << 20)].ravel(), minlength=self.n)
        return deg

    def average_degree(self) -> float:
        return 2.0 * self.num_edges / self.n


def sample_coordinates(p: EnsembleParams, seed: int) -> np.ndarray:
    """n i.i.d. latent coordinates x <= r_n as a float64 array; deterministic given (p, seed)."""
    u = 1.0 - rng.uniform(seed, rng.TAG_COORD, np.arange(p.n, dtype=np.uint64))
    return mu_n_quantile(p, u)


def edge_keys(n: int, a, b) -> np.ndarray:
    """Canonical int64 key min*n + max of each undirected edge {a, b}.

    Keys sort in the (i, j) lexicographic order of the edges with i < j, and
    equal keys are duplicate edges.
    """
    keys = np.minimum(a, b, dtype=np.int64)  # min*n + max == min*(n-1) + a + b
    keys *= n - 1
    keys += a
    keys += b
    return keys


def edges_from_keys(n: int, keys: np.ndarray) -> np.ndarray:
    """The (m, 2) int32 edge array of canonical keys, in key order, written over the keys.

    keys is a contiguous int64 array; each key's 8 bytes become its edge, a
    chunk at a time, so no second array of the edges' size is made.
    """
    edges = keys.view(np.int32).reshape(-1, 2)
    for i in range(0, keys.size, _KEY_CHUNK):
        edges[i:i + _KEY_CHUNK, 0], edges[i:i + _KEY_CHUNK, 1] = np.divmod(
            keys[i:i + _KEY_CHUNK], n)
    return edges


def _finish_edges(n: int, keys: np.ndarray) -> Graph:
    """The graph of an int64 array of canonical edge keys, which it sorts and overwrites."""
    keys.sort()
    return Graph(n=n, edges=edges_from_keys(n, keys))


def _put(buf: np.ndarray, m: int, values) -> tuple:
    """(buf with values written from position m on, m + len(values)).

    A full buf is first copied into one of twice the size.  The skip engine
    gathers its keys in one large buffer this way; one small array per batch
    scatters over the heap and fragments it from one replica to the next.
    """
    k = len(values)
    if m + k > buf.size:
        grown = np.empty(max(2 * buf.size, m + k), dtype=buf.dtype)
        grown[:m] = buf[:m]
        buf = grown
    buf[m:m + k] = values
    return buf, m + k


def _run_skip_rows(xs: np.ndarray, row_ids: np.ndarray, start: np.ndarray,
                   stop: np.ndarray, seed: int, tag: int, label=None) -> np.ndarray:
    """Exact Bernoulli(W) sampling of many independent rows by geometric skipping.

    Row r is node xs[row_ids[r]] against candidate positions
    start[r]..stop[r]-1 of xs.  Blocks of _BLOCK_ROWS rows are cut into
    segments by _segments and stepped by _skip_block.  Returns the canonical
    key edge_keys(xs.size, label[row_ids[r]], label[p]) of each accepted
    position p, in no particular order; label defaults to the identity.
    """
    n = xs.size
    # e[j] = sum of exp(xs[0] - xs[i]) over i < j; the product bound's
    # expected proposals over candidates [a, b) are exp(-x_r - xs[0]) (e[b] - e[a])
    e = np.zeros(n + 1)
    np.cumsum(np.exp(np.subtract(xs[0], xs, out=e[1:]), out=e[1:]), out=e[1:])  # in place
    # Room for 8 keys per row (average degree 16) before _put must regrow;
    # pages never written take no memory.
    keys = np.empty(max(1 << 16, 8 * row_ids.size), dtype=np.int64)
    m = 0
    for b in range(0, row_ids.size, _BLOCK_ROWS):
        block = slice(b, b + _BLOCK_ROWS)
        segments = _segments(xs, e, row_ids[block], start[block], stop[block])
        for rid, pos in _skip_block(xs, *segments, seed, tag):
            if label is not None:
                rid, pos = label[rid], label[pos]
            keys, m = _put(keys, m, edge_keys(n, rid, pos))
    keys.resize(m, refcheck=False)  # in place, and no view of keys exists
    return keys


def _segments(xs, e, rid, a, b):
    """(row id, start, stop, first counter) of the segments rows rid are cut into.

    A row expecting more than _SEGMENT_WORK proposals under the product
    bound, (d - a) + exp(-x_r) sum_{d <= j < b} exp(-xs[j]) over candidates
    [a, b) where d ends those with x_r + xs[j] <= 0, is cut into segments of
    about equal expected work; the estimate only sizes them.  The bound is
    small because a loop step costs numpy's call overhead however few rows
    are live.  A segment's first counter is twice its offset into the row:
    a step advances a row's counter by at most 2 per candidate it passes,
    so segments never share a draw, and a row that is not cut draws from
    counter 0.
    """
    rx = xs[rid]
    d = np.clip(np.searchsorted(xs, -rx, side="right"), a, b)
    dense = d - a
    scale = np.exp(np.clip(-(rx + xs[0]), -600.0, 600.0))
    work = np.minimum(dense + scale * (e[b] - e[d]), b - a)
    if work.max(initial=0.0) <= _SEGMENT_WORK:  # no row is cut: what the rest computes
        return rid, a, b, np.zeros(rid.size, dtype=np.uint64)
    cuts = np.maximum(np.ceil(work / _SEGMENT_WORK), 1).astype(np.int64)
    last = np.cumsum(cuts) - 1  # each row's last segment
    row = np.repeat(np.arange(rid.size), cuts)
    k = np.arange(row.size) - (last - cuts + 1)[row]  # segment index within its row
    lo = a[row]
    inner = np.nonzero(k)[0]
    r = row[inner]
    t = work[r] * k[inner] / cuts[r]  # expected work before the segment
    tail = np.clip(np.searchsorted(e, e[d[r]] + (t - dense[r]) / scale[r]), d[r], b[r])
    lo[inner] = np.where(t < dense[r], a[r] + t.astype(np.int64), tail)
    hi = np.append(lo[1:], 0)
    hi[last] = b
    return rid[row], lo, hi, (2 * (lo - a[row])).astype(np.uint64)


def _skip_block(xs, row_ids, start, stop, counter, seed, tag):
    """Yield (row_id, position) arrays of the accepted candidates of some rows.

    xs must be ascending so that, within a row, connection probabilities are
    non-increasing over the candidates.  Row r draws its uniforms from the
    counter-based stream (seed, tag, row_ids[r], k) with k from counter[r]
    on: the prefix (seed, tag, row_ids[r]) is hashed once when the row
    enters, and draw k is one finalizer of prefix ^ k.  Results are
    therefore independent of how rows are batched.  All live rows take one
    step per loop pass as arrays: a geometric jump under the bound at the
    last visited candidate, a thin at the landing, and one compaction that
    drops the rows past their stop.  _segments keeps each row's expected
    number of steps bounded.
    """
    live = start < stop
    pos, stp, rid, ctr = start[live], stop[live], row_ids[live], counter[live]
    rx = xs[rid]
    pre = rng.hash_u64(seed, tag, rid)
    s = rx + xs[pos]  # x_r + x of the last visited candidate (the first, to start)

    while pos.size:
        # Geometric jump under the bound at s.  A row at bound 1 jumps 0 and
        # keeps its counter, so its thin draw reuses the jump's.
        pb = np.where(s <= 0.0, 1.0, np.exp(-np.clip(s, 0.0, None)))
        u = rng.draw(pre, ctr)
        ctr += pb < 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.log1p(-u) / np.log1p(-pb)
        rem = (stp - pos).astype(float)
        pos += np.where(np.isfinite(g), np.minimum(np.floor(g), rem), rem).astype(np.int64)

        # Thin the landing to the Fermi-Dirac probability; a row whose jump
        # reached its stop accepts nothing and is dropped below.
        s = rx + xs.take(pos, mode="clip")
        u = rng.draw(pre, ctr)
        ctr += np.uint64(1)
        acc = (u * pb < _logistic_neg(s)) & (pos < stp)
        if acc.any():
            yield rid[acc], pos[acc]

        pos += 1
        live = pos < stp
        if not live.all():
            pos, stp, rx, rid, pre, ctr, s = (
                a[live] for a in (pos, stp, rx, rid, pre, ctr, s))


def sample_graph_fast(x: np.ndarray, seed: int) -> Graph:
    """Equilibrium sampler: pair i < j is an edge w.p. W(x_i, x_j), in expected O(n + m) work.

    Nodes are processed in ascending coordinate order (descending weight
    exp(-x)); each anchor row skips over later candidates geometrically under
    the product bound and corrects by rejection to W.  Seed streams are keyed
    per anchor, so output is identical under any row partitioning.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    order = np.argsort(x)
    xs = x[order]
    if not (xs[1:] > xs[:-1]).all():  # tied nodes keep index order, as streams follow rank
        order = np.argsort(x, kind="stable")
        xs = x[order]
    ids = np.arange(n, dtype=np.int64)  # row i scans positions i+1..n-1
    keys = _run_skip_rows(xs, ids[:-1], ids[1:], np.broadcast_to(n, ids[1:].shape),
                          seed, rng.TAG_EDGE_FAST, label=order)
    del order, xs, ids  # freed before the edge array is made
    return _finish_edges(n, keys)


def sample_graph_growing(p: EnsembleParams, seed: int):
    """Grow a graph node by node to p.n nodes at gamma = 2; returns (Graph, coordinates).

    Node t sits at x_t = 0.5*log(2 v_t) where v_t is a rate-delta Poisson
    process on the positive half line, which restricts to the size-n
    ensemble for every n only at gamma = 2; other gamma raise DomainError.
    Coordinates are strictly increasing, and node t links to earlier nodes
    from its own seed streams, so the first n' nodes of a longer run are
    byte-identical to a run of size n' with the same seed.
    """
    if p.gamma != 2.0:
        raise DomainError(f"the growing sampler is the HSCM only at gamma=2, "
                          f"not gamma={p.gamma:g}")
    t = np.arange(p.n, dtype=np.int64)
    u = 1.0 - rng.uniform(seed, rng.TAG_GROW_COORD, t.astype(np.uint64))
    x = 0.5 * np.log(2.0 * np.cumsum(-np.log(u) / (p.nu / 2.0)))
    rows = t[1:]
    keys = _run_skip_rows(x, rows, np.broadcast_to(0, rows.shape), rows,
                          seed, rng.TAG_GROW_EDGE)
    return _finish_edges(p.n, keys), x


def sample_replica(p: EnsembleParams, seed: int, index: int, variant: str = "fast") -> Graph:
    """Replica `index` of ensemble p under master seed `seed`, by sampler `variant`.

    Its coordinate and edge seeds are subseeds 2*index and 2*index + 1 of
    (seed, TAG_REPLICA), so each replica is an independent, reproducible draw.
    """
    coord_seed, edge_seed = (rng.subseed(seed, rng.TAG_REPLICA, 2 * index + k) for k in (0, 1))
    samplers = {
        "fast": lambda: sample_graph_fast(sample_coordinates(p, coord_seed), edge_seed),
        "growing": lambda: sample_graph_growing(p, coord_seed)[0],
    }
    if variant not in samplers:
        raise DomainError(f"unknown sampler variant {variant!r}; "
                          f"expected one of {', '.join(samplers)}")
    return samplers[variant]()
