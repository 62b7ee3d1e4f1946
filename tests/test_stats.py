import math

import numpy as np
import pytest
from scipy.special import zeta

from conftest import pooled_histogram
from oracles import mixing, truncation_k
from hscm.errors import DomainError, EdgeListParseError, InsufficientTailError
from hscm.params import derive_params
from hscm.sampler import Graph
from hscm.stats import (
    DegreeHistogram,
    compare_to_theory,
    degree_histogram,
    finite_n_degree_pmf,
    ingest_edge_list,
    tail_exponent_fit,
    tv_distance_lumped,
)
from hscm.theory import DegreeLaw


class TestHistogram:
    def test_empty_graph(self):
        h = degree_histogram([Graph(n=5, edges=np.empty((0, 2), dtype=np.int64))])
        assert h.counts[0] == 5
        assert h.mean_degree() == 0.0

    def test_complete_k4(self):
        edges = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
        h = degree_histogram([Graph(n=4, edges=edges)])
        assert list(h.counts) == [0, 0, 0, 4]
        assert h.mean_degree() == 3.0

    def test_mixed_sizes_rejected(self):
        g1 = Graph(n=3, edges=np.array([[0, 1]]))
        g2 = Graph(n=4, edges=np.array([[0, 1]]))
        with pytest.raises(DomainError):
            degree_histogram([g1, g2])

    def test_counts_total(self):
        g = Graph(n=6, edges=np.array([[0, 1], [2, 3]]))
        h = degree_histogram([g, g, g])
        assert h.counts.sum() == 18
        assert h.pmf().sum() == pytest.approx(1.0)


class TestTvDistance:
    def test_theory_vs_itself_zero(self):
        law = DegreeLaw(derive_params(2.0, 10.0, 10**4))
        q = law.pmf_array(60)
        pe = np.concatenate([q, [1.0 - q.sum()]])  # empirical == theory + tail atom
        # build a fake empirical pmf vector with the tail mass at k = 61
        assert tv_distance_lumped(pe, q, 60) == pytest.approx(0.0, abs=1e-12)

    def test_bounds(self):
        q = np.array([0.5, 0.5])
        assert tv_distance_lumped(np.array([1.0]), q, 1) == pytest.approx(0.5)
        assert 0.0 <= tv_distance_lumped(np.array([0.2, 0.2]), q, 1) <= 1.0


class TestFiniteNPmf:
    def test_quadrature_grid_converged(self):
        p = derive_params(2.0, 10.0, 10**4)
        a = finite_n_degree_pmf(p, 60, nodes=384)
        b = finite_n_degree_pmf(p, 60, nodes=768)
        assert np.max(np.abs(a - b)) < 1e-6

    def test_mass_and_mean_sane(self):
        from hscm.theory import expected_avg_degree_finite_n

        p = derive_params(2.0, 10.0, 10**4)
        K = 2000
        q = finite_n_degree_pmf(p, K)
        assert 0.99 < q.sum() <= 1.0 + 1e-9
        mean = float(np.arange(K + 1) @ q)
        # truncated mean undershoots the full expectation by the hub tail
        assert abs(mean - expected_avg_degree_finite_n(p)) < 0.25

    @pytest.mark.parametrize("gamma,nu,n", [(3.5, 2.0, 10**4), (3.5, 2.0, 10**6),
                                            (2.5, 5.0, 10**7)])
    def test_finite_where_kappa_quadrature_fails(self, gamma, nu, n):
        # adaptive quadrature of kappa_n misses its tolerance at these parameters
        p = derive_params(gamma, nu, n)
        q = finite_n_degree_pmf(p, 100)
        assert np.all(np.isfinite(q)) and np.all(q >= 0.0)
        assert 0.99 < q.sum() <= 1.0 + 1e-9
        law = DegreeLaw(p)
        counts = np.round(1e5 * law.pmf_array(100)).astype(np.int64)
        h = DegreeHistogram(counts=counts, n=int(counts.sum()), n_graphs=1)
        rep = compare_to_theory(h, p)
        for value in (rep.tv_asymptotic, rep.tv_finite_n, rep.avg_degree_finite_n):
            assert math.isfinite(value)
        assert np.array_equal(rep.pmf_finite_n, q)

    def test_finite_n_reference_fits_better_when_far_from_limit(self, hist_g11_e4):
        p = derive_params(1.1, 4.92, 10**4)
        rep = compare_to_theory(hist_g11_e4, p)
        assert rep.tv_finite_n < rep.tv_asymptotic


class TestTailExponent:
    def _zeta_sample_hist(self, alpha, size, seed, kmax=200000):
        ks = np.arange(1, kmax)
        pmf = ks ** (-alpha) / zeta(alpha, 1)
        rng = np.random.default_rng(seed)
        sample = rng.choice(ks, p=pmf / pmf.sum(), size=size)
        return DegreeHistogram(counts=np.bincount(sample), n=size, n_graphs=1)

    def test_recovers_exact_power_law(self):
        h = self._zeta_sample_hist(3.0, 200000, 1)
        fit = tail_exponent_fit(h)
        assert abs(fit.alpha - 3.0) <= 0.1

    def test_recovers_degree_law_synthetic(self):
        # draws from the model's own limiting pmf recover alpha = gamma + 1
        p = derive_params(2.0, 10.0, 10**5)
        law = DegreeLaw(p)
        K = truncation_k(mixing(law), 1e-9)
        pmf = law.pmf_array(K)
        rng = np.random.default_rng(7)
        sample = rng.choice(np.arange(K + 1), p=pmf / pmf.sum(), size=400000)
        h = DegreeHistogram(counts=np.bincount(sample), n=sample.size, n_graphs=1)
        assert abs(tail_exponent_fit(h).alpha - (p.gamma + 1)) <= 0.15

    def test_fixed_k_min(self):
        h = self._zeta_sample_hist(2.5, 100000, 3)
        fit = tail_exponent_fit(h, k_min=2)
        assert fit.k_min == 2
        assert abs(fit.alpha - 2.5) <= 0.1

    def test_hscm_ensemble_tail_exponent(self):
        # 10 replicas at n = 1e6, gamma = 2: alpha_hat within [2.8, 3.2]
        h = pooled_histogram(2.0, 10.0, 10**6, 10, 777)
        alpha = tail_exponent_fit(h).alpha
        assert 2.8 <= alpha <= 3.2

    def test_flat_histogram_rejected(self):
        flat = DegreeHistogram(counts=np.full(60, 500, dtype=np.int64),
                               n=30000, n_graphs=1)
        with pytest.raises(InsufficientTailError):
            tail_exponent_fit(flat)

    def test_insufficient_tail_rejected(self):
        h = DegreeHistogram(counts=np.array([50, 20, 9], dtype=np.int64),
                            n=79, n_graphs=1)
        with pytest.raises(InsufficientTailError):
            tail_exponent_fit(h)


class TestCompareToTheory:
    def test_c1_c2_across_sizes(self):
        # TV to the limit law decreases with n at fixed replica budget, and the
        # empirical average matches the finite-n quadrature within 3 SE
        tvs = []
        for n in (10**3, 10**4, 10**5):
            h = pooled_histogram(2.0, 10.0, n, 20, 5150)
            rep = compare_to_theory(h, derive_params(2.0, 10.0, n))
            tvs.append(rep.tv_asymptotic)
            assert abs(rep.avg_degree_empirical - rep.avg_degree_finite_n) \
                <= 3.0 * rep.avg_degree_empirical_se
        assert tvs[0] > tvs[1] > tvs[2]


class TestIngest:
    def test_basic_and_duplicates(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("0 1\n1 2\n1 2\n3 3\n")
        h = ingest_edge_list(str(f))
        assert list(h.counts) == [1, 2, 1]  # node 3 isolated after loop drop
        assert h.duplicates_dropped == 1
        assert h.self_loops_dropped == 1

    def test_one_indexed_autodetect(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("1 2\n2 3\n")
        h = ingest_edge_list(str(f))
        assert h.n == 3
        assert list(h.counts) == [0, 2, 1]

    def test_parse_error_reports_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0 1\nnope\n")
        with pytest.raises(EdgeListParseError) as err:
            ingest_edge_list(str(f))
        assert err.value.line_number == 2

    def test_round_trip_with_exported_graph(self, tmp_path):
        from hscm.io import write_edge_list
        from hscm.sampler import sample_coordinates, sample_graph_fast

        p = derive_params(2.0, 10.0, 500)
        g = sample_graph_fast(sample_coordinates(p, 3), 4)
        path = tmp_path / "g.edges"
        write_edge_list(str(path), g, seed=4)
        h = ingest_edge_list(str(path))
        href = degree_histogram([g])
        assert np.array_equal(h.counts, href.counts)
        assert h.duplicates_dropped == 0
