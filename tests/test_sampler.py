import hashlib
import math

import numpy as np
import pytest
from scipy import stats as sps

from oracles import naive_replica, omega_n, prefix, sample_graph_naive, skip_rows_reference
from hscm import rng, sampler
from hscm.errors import DomainError
from hscm.graphon import expected_degree_fn, w_fermi_dirac
from hscm.params import derive_params
from hscm.sampler import (
    Graph,
    _run_skip_rows,
    edge_keys,
    sample_coordinates,
    sample_graph_fast,
    sample_graph_growing,
    sample_replica,
)
from hscm.stats import degree_histogram


class TestGraphType:
    def test_validate_catches_malformed(self):
        assert Graph(n=3, edges=np.array([[0, 1], [0, 2]])).first_fault() is None
        assert Graph(n=2, edges=np.array([[0, 2]])).first_fault() == (
            0, "edge 0 2 has a node id out of range for n=2")
        assert Graph(n=3, edges=np.array([[1, 1]])).first_fault() == (
            0, "edge 1 1 is not ordered i < j")
        assert Graph(n=3, edges=np.array([[0, 2], [0, 1]])).first_fault() == (
            1, "edge 0 1 repeats or precedes the edge before it")
        assert Graph(n=3, edges=np.array([[0, 1], [0, 1]])).first_fault() == (
            1, "edge 0 1 repeats or precedes the edge before it")
        # the earliest fault wins over a later one of another kind
        assert Graph(n=4, edges=np.array([[1, 2], [0, 3], [3, 2]])).first_fault()[0] == 1

    def test_degrees_and_prefix(self):
        g = Graph(n=4, edges=np.array([[0, 1], [0, 3], [2, 3]]))
        assert list(g.degrees()) == [2, 1, 1, 2]
        sub = prefix(g, 2)
        assert sub.n == 2 and list(map(tuple, sub.edges)) == [(0, 1)]


class TestCoordinates:
    def test_deterministic(self):
        p = derive_params(2.0, 10.0, 1000)
        a = sample_coordinates(p, 42)
        b = sample_coordinates(p, 42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_coordinates(p, 43))

    def test_supports(self):
        p = derive_params(1.5, 3.0, 500)
        assert np.all(sample_coordinates(p, 5) <= p.r_n)

    def test_negative_fraction(self):
        p = derive_params(2.0, 10.0, 10**5)
        c = sample_coordinates(p, 11)
        target = (p.beta**2 * p.nu / p.n) ** (p.gamma / 2.0)
        frac = float(np.mean(c < 0.0))
        se = math.sqrt(target * (1 - target) / p.n)
        assert abs(frac - target) <= 3.0 * se + 1e-12

    def test_mean_approx_expected_degree_matches_nu(self):
        # sample mean of the closed-form expected degree estimates n*omega^2,
        # which itself sits within (1 - e^-(gamma-1)r)^2 of nu
        p = derive_params(2.0, 10.0, 10**5)
        x = sample_coordinates(p, 17)
        kap = np.where(x >= 0, p.n * omega_n(p) * np.exp(-np.clip(x, 0, None)), 0.0)
        exact_mean = p.n * omega_n(p) ** 2
        se = float(np.std(kap, ddof=1)) / math.sqrt(p.n)
        assert abs(float(np.mean(kap)) - exact_mean) <= 3.0 * se
        assert abs(exact_mean - p.nu) <= 0.15


class TestNaiveSampler:
    def test_single_pair_probability(self):
        # two nodes at the support end: edge probability 1/(n/(beta^2 nu)+1)
        p = derive_params(2.0, 10.0, 2)
        c = np.array([p.r_n, p.r_n])
        prob = 1.0 / (p.n / (p.beta**2 * p.nu) + 1.0)
        hits = sum(sample_graph_naive(c, s).num_edges for s in range(20000))
        se = math.sqrt(prob * (1 - prob) * 20000)
        assert abs(hits - prob * 20000) <= 4.0 * se

    def test_degenerate_kernel_empty(self):
        c = np.full(4, 400.0)
        # probability ~ e^-800 per pair: never an edge
        assert sample_graph_naive(c, 1).num_edges == 0

    def test_mean_edge_count_matches_quadrature(self):
        from hscm.theory import expected_avg_degree_finite_n

        p = derive_params(2.0, 10.0, 10**3)
        target = expected_avg_degree_finite_n(p) * p.n / 2.0
        ms = [naive_replica(p, 515, r).num_edges for r in range(200)]
        se = np.std(ms, ddof=1) / math.sqrt(len(ms))
        assert abs(np.mean(ms) - target) <= 3.0 * se


class TestFastSampler:
    def test_deterministic_and_valid(self):
        p = derive_params(2.0, 10.0, 3000)
        c = sample_coordinates(p, 3)
        g1 = sample_graph_fast(c, 9)
        g2 = sample_graph_fast(c, 9)
        assert np.array_equal(g1.edges, g2.edges)
        assert g1.first_fault() is None

    def test_tied_coordinates_are_golden(self):
        # four nodes at each coordinate: a row's draws follow its rank, so tied
        # nodes must keep index order; digest captured with a stable argsort
        x = np.repeat(np.random.default_rng(12).normal(3.0, 1.0, 500), 4)
        g = sample_graph_fast(x, 5)
        assert g.num_edges == 12363
        assert hashlib.sha256(g.edges.astype(np.int64).tobytes()).hexdigest() == (
            "dd754a3c07401076a30d7dac0b91ef5180bca162a9ea7d8efa7300eedfcf51db")

    def test_row_partitioning_invariance(self, monkeypatch):
        # splitting the anchor rows into arbitrary chunks, or stepping them in
        # small blocks, and merging must reproduce the one-shot result exactly
        # (per-row seed streams)
        p = derive_params(2.0, 10.0, 800)
        c = sample_coordinates(p, 21)
        x = np.sort(c, kind="stable")
        n = p.n
        rows = np.arange(n - 1, dtype=np.int64)
        full = np.sort(_run_skip_rows(x, rows, rows + 1, np.full(n - 1, n, dtype=np.int64),
                                      77, rng.TAG_EDGE_FAST))
        pieces = []
        for lo, hi in ((0, 100), (100, 101), (101, 799)):
            rr = np.arange(lo, hi, dtype=np.int64)
            pieces.append(_run_skip_rows(x, rr, rr + 1, np.full(rr.size, n, dtype=np.int64),
                                         77, rng.TAG_EDGE_FAST))
        assert np.array_equal(full, np.sort(np.concatenate(pieces)))
        monkeypatch.setattr(sampler, "_BLOCK_ROWS", 37)
        blocked = _run_skip_rows(x, rows, rows + 1, np.full(n - 1, n, dtype=np.int64),
                                 77, rng.TAG_EDGE_FAST)
        assert np.array_equal(full, np.sort(blocked))
        # the same with most rows cut into segments
        monkeypatch.setattr(sampler, "_SEGMENT_WORK", 2)
        monkeypatch.setattr(sampler, "_BLOCK_ROWS", 1 << 16)
        full = np.sort(_run_skip_rows(x, rows, rows + 1, np.full(n - 1, n, dtype=np.int64),
                                      77, rng.TAG_EDGE_FAST))
        pieces = [_run_skip_rows(x, rr, rr + 1, np.full(rr.size, n, dtype=np.int64),
                                 77, rng.TAG_EDGE_FAST)
                  for rr in (rows[:100], rows[100:101], rows[101:])]
        assert np.array_equal(full, np.sort(np.concatenate(pieces)))
        monkeypatch.setattr(sampler, "_BLOCK_ROWS", 37)
        blocked = _run_skip_rows(x, rows, rows + 1, np.full(n - 1, n, dtype=np.int64),
                                 77, rng.TAG_EDGE_FAST)
        assert np.array_equal(full, np.sort(blocked))

    def test_same_law_as_naive(self):
        # conditional on one coordinate draw, compare edge counts and pooled
        # degree histograms over replicas
        p = derive_params(2.0, 10.0, 400)
        c = sample_coordinates(p, 8)
        mf, mn = [], []
        df = np.zeros(300, dtype=np.int64)
        dn = np.zeros(300, dtype=np.int64)
        for r in range(300):
            gf = sample_graph_fast(c, 2 * r)
            gn = sample_graph_naive(c, 2 * r + 1)
            mf.append(gf.num_edges)
            mn.append(gn.num_edges)
            bf = np.bincount(gf.degrees(), minlength=300)
            bn = np.bincount(gn.degrees(), minlength=300)
            df += bf[:300]
            dn += bn[:300]
        assert sps.ks_2samp(mf, mn).pvalue > 0.01
        K = 30
        of = np.append(df[:K], df[K:].sum())
        on = np.append(dn[:K], dn[K:].sum())
        keep = (of + on) >= 10
        _, pval, _, _ = sps.chi2_contingency(np.vstack([of[keep], on[keep]]))
        assert pval > 0.01

    def test_million_node_edge_count(self):
        # one n = 1e6 replica: m within 3 sigma of (n/2) * E[avg degree],
        # and the whole run takes seconds, not hours
        from hscm.theory import expected_avg_degree_finite_n

        p = derive_params(2.0, 10.0, 10**6)
        g = sample_graph_fast(sample_coordinates(p, 1), 2)
        target = 0.5 * p.n * expected_avg_degree_finite_n(p)
        # edge-count sd ~ 8e3 at this size (latent-coordinate fluctuations)
        assert abs(g.num_edges - target) <= 3.0 * 8.5e3

    def test_mean_degree_by_coordinate_bucket(self):
        # bucket nodes by fixed latent-quantile cells (fresh coordinates per
        # replica); mean degree per bucket must match the latent-measure
        # average of the expected-degree function within 3 standard errors
        from hscm.params import mu_n_quantile
        from hscm.quadrature import gauss_legendre_nodes

        p = derive_params(2.0, 10.0, 2000)
        q_edges = np.array([0.0, 0.25, 0.5, 0.75, 0.95, 1.0])
        x_edges = mu_n_quantile(p, np.clip(q_edges[1:], 1e-300, 1.0))
        reps = 60
        bucket_means = np.full((reps, 5), np.nan)
        for r in range(reps):
            coords = sample_coordinates(p, 40000 + r)
            d = sample_graph_fast(coords, 7000 + r).degrees().astype(float)
            bucket = np.searchsorted(x_edges[:-1], coords, side="right")
            for b in range(5):
                sel = bucket == b
                if sel.any():
                    bucket_means[r, b] = d[sel].mean()
        for b in range(5):
            # E[kappa_n(X) | X in bucket] by quadrature over the u-interval
            un, uw = gauss_legendre_nodes(q_edges[b], q_edges[b + 1], 24)
            kappa = [expected_degree_fn(p, mu_n_quantile(p, u))
                     for u in un]
            target = float(np.dot(uw, kappa)) / (q_edges[b + 1] - q_edges[b])
            means = bucket_means[~np.isnan(bucket_means[:, b]), b]
            se = float(np.std(means, ddof=1)) / math.sqrt(means.size)
            assert abs(float(np.mean(means)) - target) <= 3.5 * se

    def test_exchangeability_of_node_indices(self):
        # degree distribution of node 0 vs node 57 across replicas
        p = derive_params(2.0, 10.0, 100)
        d0, d57 = [], []
        for r in range(1000):
            g = sample_replica(p, 31415, r)
            d = g.degrees()
            d0.append(d[0])
            d57.append(d[57])
        lump = 25
        c0 = np.bincount(np.minimum(d0, lump), minlength=lump + 1)
        c57 = np.bincount(np.minimum(d57, lump), minlength=lump + 1)
        keep = (c0 + c57) >= 10
        _, pval, _, _ = sps.chi2_contingency(np.vstack([c0[keep], c57[keep]]))
        assert pval > 0.01


def _reference_keys(x, rows, start, stop, seed, tag, counter=None):
    """Sorted canonical keys of the reference engine's (row, position) pairs.

    edge_keys is injective on them: every row's positions lie all above or
    all below the row.
    """
    rid, pos = skip_rows_reference(x, x[rows], rows, start, stop, seed, tag, counter)
    return np.sort(edge_keys(x.size, rid, pos))


def _record_segments(monkeypatch):
    """A list that collects the (row_ids, start, stop, counter) _skip_block is given."""
    seen = []
    skip_block = sampler._skip_block

    def spy(xs, *args):
        seen.append(args[:4])
        return skip_block(xs, *args)

    monkeypatch.setattr(sampler, "_skip_block", spy)
    return seen


def _fast_rows(n):
    rows = np.arange(n - 1, dtype=np.int64)
    return rows, rows + 1, np.full(rows.size, n, dtype=np.int64)


def _expected_proposals(xs, rid, lo, hi):
    """Expected proposals of each segment under the product bound, summed pair by pair.

    _segments cuts at most _SEGMENT_WORK of them into a segment, give or
    take the candidates at its two cuts.
    """
    return [np.minimum(np.exp(-(xs[r] + xs[a:b])), 1.0).sum() for r, a, b in zip(rid, lo, hi)]


class TestSkipEngine:
    # (gamma, nu, n, growing rows); at the default _SEGMENT_WORK the gamma =
    # 1.1 hubs and the top rows at n = 30000 are cut into segments, and at 4
    # some row of every case is
    @pytest.mark.parametrize("gamma,nu,n,growing", [
        (2.0, 10.0, 30000, False),
        (1.1, 4.92, 20000, False),
        (2.0, 10.0, 5000, True),
        (2.0, 10.0, 9, False),
    ])
    def test_matches_reference_engine(self, monkeypatch, gamma, nu, n, growing):
        seen = _record_segments(monkeypatch)
        x = np.sort(sample_coordinates(derive_params(gamma, nu, n), 61), kind="stable")
        if growing:
            rows = np.arange(1, n, dtype=np.int64)
            start, stop, tag = np.zeros(rows.size, dtype=np.int64), rows, rng.TAG_GROW_EDGE
        else:
            (rows, start, stop), tag = _fast_rows(n), rng.TAG_EDGE_FAST
        cut, default = {}, sampler._SEGMENT_WORK
        for work in (default, 4):
            monkeypatch.setattr(sampler, "_SEGMENT_WORK", work)
            for seed in (5, 6):
                seen.clear()
                got = np.sort(_run_skip_rows(x, rows, start, stop, seed, tag))
                rid, lo, hi, ctr = (np.concatenate(parts) for parts in zip(*seen))
                want = _reference_keys(x, rid, lo, hi, seed, tag, ctr)
                assert want.size > 0
                assert np.array_equal(got, want)
                cut[work] = rid.size > rows.size
        assert cut[4]  # the short segments cut some row
        assert cut[default] == (gamma == 1.1 or n == 30000)

    def test_segments_tile_rows_with_disjoint_counters(self, monkeypatch):
        monkeypatch.setattr(sampler, "_SEGMENT_WORK", 1)
        monkeypatch.setattr(sampler, "_BLOCK_ROWS", 50)
        seen = _record_segments(monkeypatch)
        draws = []
        draw = rng.draw

        def spy(prefix, counter):
            draws.append(np.column_stack((prefix, counter)))
            return draw(prefix, counter)

        monkeypatch.setattr(rng, "draw", spy)
        n = 400
        x = np.sort(sample_coordinates(derive_params(1.1, 4.92, n), 8), kind="stable")
        rows, start, stop = _fast_rows(n)
        assert _run_skip_rows(x, rows, start, stop, 3, rng.TAG_EDGE_FAST).size > 0
        rid, lo, hi, ctr = (np.concatenate(parts) for parts in zip(*seen))
        first = np.r_[True, rid[1:] != rid[:-1]]  # a row's segments come in order
        last = np.r_[rid[1:] != rid[:-1], True]
        assert np.array_equal(rid[first], rows)
        assert np.array_equal(lo[first], start) and np.array_equal(hi[last], stop)
        assert np.array_equal(lo[1:][~first[1:]], hi[:-1][~first[1:]])
        assert np.all(lo <= hi)
        per_row = np.bincount(np.cumsum(first) - 1)
        assert per_row.max() >= 10  # some row is cut many times
        assert np.array_equal(ctr, 2 * (lo - np.repeat(start, per_row)))
        assert max(_expected_proposals(x, rid, lo, hi)) <= sampler._SEGMENT_WORK + 2
        # no (row, counter) pair is drawn twice, and no row's draws leave its counters
        pairs = np.concatenate(draws)
        assert np.unique(pairs, axis=0).shape == pairs.shape
        heads = rng.hash_u64(3, rng.TAG_EDGE_FAST, rows)
        row_of = np.argsort(heads)
        r = row_of[np.searchsorted(heads[row_of], pairs[:, 0])]
        assert np.array_equal(heads[r], pairs[:, 0])
        assert np.all(pairs[:, 1] < 2 * (stop[r] - start[r]))

    @pytest.mark.parametrize("gamma,nu,work", [(1.1, 4.92, 0.02), (2.0, 10.0, 0.5)])
    def test_short_segments_keep_the_law(self, monkeypatch, gamma, nu, work):
        # criterion 7(a) with most rows cut: fast vs naive on one coordinate draw
        monkeypatch.setattr(sampler, "_SEGMENT_WORK", work)
        p = derive_params(gamma, nu, 300)
        coords = sample_coordinates(p, 4242)
        seen = _record_segments(monkeypatch)
        sample_graph_fast(coords, 0)
        assert (np.unique(seen[0][0], return_counts=True)[1] > 1).mean() > 0.6
        mf, mn = [], []
        df = np.zeros(300, dtype=np.int64)
        dn = np.zeros(300, dtype=np.int64)
        for r in range(300):
            gf = sample_graph_fast(coords, 2 * r)
            gn = sample_graph_naive(coords, 2 * r + 1)
            mf.append(gf.num_edges)
            mn.append(gn.num_edges)
            df += np.bincount(gf.degrees(), minlength=300)[:300]
            dn += np.bincount(gn.degrees(), minlength=300)[:300]
        assert sps.ks_2samp(mf, mn).pvalue > 0.01
        K = 30
        of = np.append(df[:K], df[K:].sum())
        on = np.append(dn[:K], dn[K:].sum())
        keep = (of + on) >= 10
        assert sps.chi2_contingency(np.vstack([of[keep], on[keep]]))[1] > 0.01

    def test_cut_row_includes_each_pair_with_probability_w(self, monkeypatch):
        # one hub row against 40 candidates, from s = -3.5 (bound 1) to s = 3.5,
        # repeated as M rows with their own streams; each is cut into segments
        monkeypatch.setattr(sampler, "_SEGMENT_WORK", 4)
        M, K, hub = 100_000, 40, -2.5
        cand = np.linspace(-1.0, 6.0, K)
        xs = np.concatenate([np.full(M, hub), cand])
        seen = _record_segments(monkeypatch)
        keys = _run_skip_rows(xs, np.arange(M), np.full(M, M), np.full(M, M + K),
                              12, rng.TAG_EDGE_FAST)
        rid, lo, hi, _ = seen[0]
        assert np.bincount(rid).min() >= 5  # segments per row
        assert max(_expected_proposals(xs, rid[:20], lo[:20], hi[:20])) <= 4 + 2
        hits = np.bincount(keys % xs.size - M, minlength=K)
        w = w_fermi_dirac(hub, cand)
        z = (hits / M - w) / np.sqrt(w * (1 - w) / M)
        assert np.abs(z).max() <= 4.0

    @pytest.mark.parametrize("n", [500, 10_000])
    def test_small_graphs_take_few_steps(self, monkeypatch, n):
        # a row that expects a few hundred proposals holds the loop for as
        # many steps, each paying numpy's call overhead for a handful of rows;
        # cutting such rows keeps the draw calls of a small replica low
        calls = []
        draw = rng.draw

        def spy(prefix, counter):
            calls.append(1)
            return draw(prefix, counter)

        monkeypatch.setattr(rng, "draw", spy)
        assert sample_replica(derive_params(2.0, 10.0, n), 1, 0).num_edges > 0
        assert len(calls) <= 256

    def test_prefix_draws_match_uniform(self):
        z = np.random.default_rng(3).integers(0, 2**64, 100, dtype=np.uint64, endpoint=False)
        rows, ctr = z, np.arange(100, dtype=np.uint64)
        heads = rng.hash_u64(9, rng.TAG_EDGE_FAST, rows)
        want = rng.uniform(9, rng.TAG_EDGE_FAST, rows, ctr)
        assert np.array_equal(rng.draw(heads, ctr), want)


class TestGrowingSampler:
    def test_projective_prefix_bytes(self, monkeypatch):
        p2000 = derive_params(2.0, 10.0, 2000)
        p1000 = derive_params(2.0, 10.0, 1000)
        for work in (sampler._SEGMENT_WORK, 2):  # then with most rows cut
            monkeypatch.setattr(sampler, "_SEGMENT_WORK", work)
            g_big, c_big = sample_graph_growing(p2000, 4242)
            g_small, c_small = sample_graph_growing(p1000, 4242)
            assert prefix(g_big, 1000).edges.tobytes() == g_small.edges.tobytes()
            assert c_big[:1000].tobytes() == c_small.tobytes()

    def test_poisson_position_mean(self):
        # v_n = exp(2 x_n) / 2 is Gamma(n, delta): mean n / delta
        nu, n, reps = 10.0, 500, 200
        delta = nu / 2.0
        vals = []
        for r in range(reps):
            _, x = sample_graph_growing(derive_params(2.0, nu, n), 90000 + r)
            vals.append(0.5 * math.exp(2.0 * x[-1]))
        se = math.sqrt(n / delta**2 / reps)
        assert abs(np.mean(vals) - n / delta) <= 3.0 * se

    def test_coordinates_increasing(self):
        _, x = sample_graph_growing(derive_params(2.0, 5.0, 2000), 3)
        assert np.all(np.diff(x) > 0)
        assert np.all(np.diff(0.5 * np.exp(2.0 * x)) > 0)

    @pytest.mark.parametrize("gamma", [2.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_chain_is_valid(self, gamma, n):
        g, x = sample_graph_growing(derive_params(gamma, 5.0, n), 11)
        assert x.shape == (n,) and g.n == n
        assert g.first_fault() is None

    # the chain restricts to the size-n ensemble for every n only at gamma = 2
    @pytest.mark.parametrize("gamma", [1.4, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 100])
    def test_other_gamma_is_refused_before_drawing(self, monkeypatch, gamma, n):
        def refuse(*args):
            pytest.fail("a coordinate was drawn")

        monkeypatch.setattr(rng, "uniform", refuse)
        with pytest.raises(DomainError, match=f"gamma={gamma:g}"):
            sample_graph_growing(derive_params(gamma, 5.0, n), 11)

    def test_growing_matches_equilibrium_average_degree(self):
        p = derive_params(2.0, 10.0, 2000)
        me, mg = [], []
        for r in range(60):
            me.append(sample_replica(p, 123, r).average_degree())
            g, _ = sample_graph_growing(p, rng.subseed(456, rng.TAG_REPLICA, r))
            mg.append(g.average_degree())
        se = math.sqrt(np.var(me, ddof=1) / 60 + np.var(mg, ddof=1) / 60)
        assert abs(np.mean(me) - np.mean(mg)) <= 3.0 * se

    def test_growing_degree_distribution_matches_equilibrium(self):
        # TV over k <= 50 below 0.02, pooled over 20 replicas at n = 1e5
        n = 10**5
        p = derive_params(2.0, 10.0, n)
        he = degree_histogram(sample_replica(p, 2024, r, "fast") for r in range(20))
        hg = degree_histogram(sample_replica(p, 2025, r, "growing") for r in range(20))
        K = 50
        pe = np.zeros(K + 1)
        pg = np.zeros(K + 1)
        pe_full = he.pmf()
        pg_full = hg.pmf()
        pe[: min(K + 1, pe_full.size)] = pe_full[: K + 1]
        pg[: min(K + 1, pg_full.size)] = pg_full[: K + 1]
        tv = 0.5 * (np.abs(pe - pg).sum() + abs(pe.sum() - pg.sum()))
        assert tv < 0.02


def test_unknown_variant_is_refused():
    with pytest.raises(DomainError, match="unknown sampler variant 'nonsense'"):
        sample_replica(derive_params(2.0, 10.0, 100), 1, 0, "nonsense")
