import math

import numpy as np
import pytest
from scipy import stats as sps

from conftest import pooled_histogram, replica_graph
from oracles import omega_n, prefix
from hscm import rng, sampler
from hscm.errors import SizeGuardError
from hscm.graphon import expected_degree_fn
from hscm.params import derive_params
from hscm.sampler import (
    Graph,
    GrowthState,
    _run_skip_rows,
    sample_coordinates,
    sample_graph_fast,
    sample_graph_growing,
    sample_graph_naive,
)


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
        ms = [replica_graph(p, 515, r, "naive").num_edges for r in range(200)]
        se = np.std(ms, ddof=1) / math.sqrt(len(ms))
        assert abs(np.mean(ms) - target) <= 3.0 * se

    def test_row_blocks_give_the_same_edges(self, monkeypatch):
        # n above the size the pairs once went through in one vectorised pass
        p = derive_params(2.0, 10.0, 2600)
        c = sample_coordinates(p, 12)
        monkeypatch.setattr(sampler, "_NAIVE_BLOCK", p.n * p.n)  # every pair at once
        one_block = sample_graph_naive(c, 13)
        assert one_block.num_edges > 0
        for block in (1, 3 * p.n):  # one row, then a few rows, per block
            monkeypatch.setattr(sampler, "_NAIVE_BLOCK", block)
            assert np.array_equal(sample_graph_naive(c, 13).edges, one_block.edges)

    def test_size_guard(self):
        p = derive_params(2.0, 10.0, 40000)
        c = sample_coordinates(p, 1)
        with pytest.raises(SizeGuardError):
            sample_graph_naive(c, 2)


class TestFastSampler:
    def test_deterministic_and_valid(self):
        p = derive_params(2.0, 10.0, 3000)
        c = sample_coordinates(p, 3)
        g1 = sample_graph_fast(c, 9)
        g2 = sample_graph_fast(c, 9)
        assert np.array_equal(g1.edges, g2.edges)
        assert g1.first_fault() is None

    def test_row_partitioning_invariance(self):
        # splitting the anchor rows into arbitrary chunks and merging must
        # reproduce the one-shot result exactly (per-row seed streams)
        p = derive_params(2.0, 10.0, 800)
        c = sample_coordinates(p, 21)
        x = np.sort(c, kind="stable")
        n = p.n
        rows = np.arange(n - 1, dtype=np.int64)
        full = _run_skip_rows(x, x[rows], rows, rows + 1,
                              np.full(n - 1, n, dtype=np.int64), 77, rng.TAG_EDGE_FAST)
        pieces = []
        for lo, hi in ((0, 100), (100, 101), (101, 799)):
            rr = np.arange(lo, hi, dtype=np.int64)
            pieces.append(_run_skip_rows(x, x[rr], rr, rr + 1,
                                         np.full(rr.size, n, dtype=np.int64),
                                         77, rng.TAG_EDGE_FAST))
        merged_r = np.concatenate([a for a, _ in pieces])
        merged_p = np.concatenate([b for _, b in pieces])
        order_full = np.lexsort((full[1], full[0]))
        order_merged = np.lexsort((merged_p, merged_r))
        assert np.array_equal(full[0][order_full], merged_r[order_merged])
        assert np.array_equal(full[1][order_full], merged_p[order_merged])

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
            g = replica_graph(p, 31415, r)
            d = g.degrees()
            d0.append(d[0])
            d57.append(d[57])
        lump = 25
        c0 = np.bincount(np.minimum(d0, lump), minlength=lump + 1)
        c57 = np.bincount(np.minimum(d57, lump), minlength=lump + 1)
        keep = (c0 + c57) >= 10
        _, pval, _, _ = sps.chi2_contingency(np.vstack([c0[keep], c57[keep]]))
        assert pval > 0.01


class TestGrowingSampler:
    def test_projective_prefix_bytes(self):
        p2000 = derive_params(2.0, 10.0, 2000)
        p1000 = derive_params(2.0, 10.0, 1000)
        g_big, c_big = sample_graph_growing(p2000, 4242)
        g_small, c_small = sample_graph_growing(p1000, 4242)
        assert prefix(g_big, 1000).edges.tobytes() == g_small.edges.tobytes()
        assert c_big[:1000].tobytes() == c_small.tobytes()

    def test_incremental_equals_one_shot(self):
        state = GrowthState(2.0, 10.0, 606)
        state.grow_to(300)
        state.grow_to(900)
        g_inc = state.graph()
        g_one, _ = sample_graph_growing(derive_params(2.0, 10.0, 900), 606)
        assert np.array_equal(g_inc.edges, g_one.edges)

    def test_poisson_position_mean(self):
        # v_n is Gamma(n, delta): mean n / delta
        nu, n, reps = 10.0, 500, 200
        delta = nu / 2.0
        vals = []
        for r in range(reps):
            st = GrowthState(2.0, nu, 90000 + r)
            st.grow_to(n)
            vals.append(st.v[-1])
        se = math.sqrt(n / delta**2 / reps)
        assert abs(np.mean(vals) - n / delta) <= 3.0 * se

    def test_coordinates_increasing_both_variants(self):
        for gamma in (2.0, 1.4):
            st = GrowthState(gamma, 5.0, 3)
            st.grow_to(2000)
            assert np.all(np.diff(st.coords) > 0)
            assert np.all(np.diff(st.v) > 0)

    def test_growing_matches_equilibrium_average_degree(self):
        p = derive_params(2.0, 10.0, 2000)
        me, mg = [], []
        for r in range(60):
            me.append(replica_graph(p, 123, r).average_degree())
            g, _ = sample_graph_growing(p, rng.subseed(456, rng.TAG_REPLICA, r))
            mg.append(g.average_degree())
        se = math.sqrt(np.var(me, ddof=1) / 60 + np.var(mg, ddof=1) / 60)
        assert abs(np.mean(me) - np.mean(mg)) <= 3.0 * se

    def test_growing_degree_distribution_matches_equilibrium(self):
        # TV over k <= 50 below 0.02, pooled over 20 replicas at n = 1e5
        n = 10**5
        he = pooled_histogram(2.0, 10.0, n, 20, 2024, "fast")
        hg = pooled_histogram(2.0, 10.0, n, 20, 2025, "growing")
        K = 50
        pe = np.zeros(K + 1)
        pg = np.zeros(K + 1)
        pe_full = he.pmf()
        pg_full = hg.pmf()
        pe[: min(K + 1, pe_full.size)] = pe_full[: K + 1]
        pg[: min(K + 1, pg_full.size)] = pg_full[: K + 1]
        tv = 0.5 * (np.abs(pe - pg).sum() + abs(pe.sum() - pg.sum()))
        assert tv < 0.02
