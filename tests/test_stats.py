import functools
import math
import tracemalloc
import weakref

import mpmath as mp
import numpy as np
import pytest
from scipy.special import zeta

from oracles import mixing, tail_exponent_fit_loop, truncation_k
from hscm.errors import DomainError, EdgeListParseError, InsufficientTailError
from hscm import stats
from hscm.params import derive_params
from hscm.sampler import Graph, sample_replica
from hscm.stats import (
    _ALPHA_LO,
    DegreeHistogram,
    compare_to_theory,
    degree_histogram,
    finite_n_degree_pmf,
    ingest_edge_list,
    _hurwitz_zeta,
    tail_exponent_fit,
    tv_distance_lumped,
)
from hscm.theory import DegreeLaw

# tracemalloc peak per edge of sampling (gamma=2, nu=10, n=2e5) or ingesting
# a graph: about 29 and 25 bytes, against 57 and 52 for (row, position)
# pairs and copied id columns
_BYTES_PER_EDGE_BOUND = 36


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

    def test_streams_one_graph_at_a_time(self):
        # graph i - 2 is garbage by the time graph i is drawn
        refs = []

        def graphs():
            for i in range(6):
                if i >= 2:
                    assert refs[i - 2]() is None
                g = Graph(n=50, edges=np.array([[0, i + 1]]))
                refs.append(weakref.ref(g))
                yield g

        h = degree_histogram(graphs())
        assert h.n_graphs == 6
        assert list(h.counts) == [6 * 48, 6 * 2]

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
    def test_quadrature_grid_converged(self, monkeypatch):
        # the weights 4 gamma v**(4 gamma - 1) of the u = v**(4 gamma) rule
        # summed to 0.63 at gamma = 1e5
        for p in (derive_params(2.0, 10.0, 10**4), derive_params(1e5, 10.0, 10**3)):
            monkeypatch.setattr("hscm.stats._PMF_NODES", 384)
            a = finite_n_degree_pmf(p, 60)
            monkeypatch.setattr("hscm.stats._PMF_NODES", 768)
            b = finite_n_degree_pmf(p, 60)
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

    def test_hscm_ensemble_tail_exponent(self):
        # 10 replicas at n = 1e6, gamma = 2: alpha_hat within [2.8, 3.2]
        p = derive_params(2.0, 10.0, 10**6)
        h = degree_histogram(sample_replica(p, 777, r) for r in range(10))
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


def _hscm_counts(gamma, nu, n, replicas):
    p = derive_params(gamma, nu, n)
    return degree_histogram(sample_replica(p, 1, r) for r in range(replicas)).counts


def _zeta_counts(alpha):
    ks = np.arange(1, 200000)
    pmf = ks ** (-alpha) / zeta(alpha, 1)
    return np.bincount(np.random.default_rng(1).choice(ks, p=pmf / pmf.sum(), size=200000))


_TAIL_CASES = {
    "g2-e4x10": lambda: _hscm_counts(2.0, 10.0, 10**4, 10),
    "g2-e6": lambda: _hscm_counts(2.0, 10.0, 10**6, 1),
    "g1.1-e6": lambda: _hscm_counts(1.1, 4.92, 10**6, 1),  # 651 degrees present up to 62,583
    "g3.5-e5x2": lambda: _hscm_counts(3.5, 2.0, 10**5, 2),
    "g2-nu1-e3": lambda: _hscm_counts(2.0, 1.0, 10**3, 1),
    "zeta2.2": lambda: _zeta_counts(2.2),
    "zeta3": lambda: _zeta_counts(3.0),
    "zeta4.5": lambda: _zeta_counts(4.5),
    "flat": lambda: np.full(60, 500, dtype=np.int64),  # not power-law-like
    "tiny": lambda: np.array([50, 20, 9], dtype=np.int64),  # too few tail samples
}


@functools.cache
def _tail_histogram(case):
    counts = _TAIL_CASES[case]()
    return DegreeHistogram(counts=counts, n=int(counts.sum()), n_graphs=1)


def _mpmath_alpha(counts, k_min, guess):
    """The root of -zeta'/zeta(a, k_min) = mean log k over the tail k >= k_min, at 40 digits."""
    ks = (np.flatnonzero(counts[k_min:]) + k_min).tolist()
    with mp.workdps(40):
        mean_log = (mp.fsum(int(counts[k]) * mp.log(k) for k in ks)
                    / int(counts[k_min:].sum()))
        return float(mp.findroot(lambda a: -mp.zeta(a, k_min, 1) / mp.zeta(a, k_min) - mean_log,
                                 guess))


@pytest.mark.parametrize("case", list(_TAIL_CASES))
def test_tail_fit_matches_per_cutoff_loop(case):
    # The loop runs the library's zeta, so the vectorisation and the loop's
    # central difference (h = 1e-5) of log zeta in place of the complex step
    # are all that differ: the budget of test_tail_fit_matches_scipy_zeta_loop
    # covers the difference.  alpha itself is checked against an mpmath root.
    h = _tail_histogram(case)
    try:
        want = tail_exponent_fit_loop(h, _hurwitz_zeta)
    except InsufficientTailError as exc:
        with pytest.raises(InsufficientTailError) as got:
            tail_exponent_fit(h)
        assert str(got.value) == str(exc)
        return
    fit = tail_exponent_fit(h)
    assert (fit.k_min, fit.n_tail) == (want.k_min, want.n_tail)
    assert fit.ks_distance == pytest.approx(want.ks_distance, rel=0, abs=1e-8)
    assert fit.alpha == pytest.approx(_mpmath_alpha(h.counts, fit.k_min, fit.alpha),
                                      rel=1e-13, abs=0)


@pytest.mark.parametrize("case", [c for c in _TAIL_CASES if c not in ("flat", "tiny")])
def test_tail_fit_matches_scipy_zeta_loop(case):
    # The loop scores by a central difference (h = 1e-5) of log scipy.zeta,
    # which is within eps = 2e-15 of mpmath (TestHurwitzZeta), so its score
    # is off by at most 2 eps / (2 h) = 2e-10 of rounding, plus h^2 / 6 times
    # the third cumulant of log K.  The loop's alpha moves by that over the
    # slope of the likelihood equation, Var[log K] under the fitted law,
    # which is 0.03 at the smallest here (zeta4.5, k_min 1): 7e-9.  The KS
    # distance moves by |dF/dalpha| < 1 times that.  Seen: 1.4e-10.
    h = _tail_histogram(case)
    want = tail_exponent_fit_loop(h, zeta)
    fit = tail_exponent_fit(h)
    assert (fit.k_min, fit.n_tail) == (want.k_min, want.n_tail)
    assert fit.alpha == pytest.approx(want.alpha, rel=0, abs=1e-8)
    assert fit.ks_distance == pytest.approx(want.ks_distance, rel=0, abs=1e-8)


def test_tail_fit_evaluates_zeta_above_its_lower_bracket(monkeypatch):
    # zeta is defined for Re s > 1 only, so no step of the fit may go below _ALPHA_LO
    seen = []

    def spy(s, q):
        seen.append(np.real(s).min())
        return _hurwitz_zeta(s, q)

    monkeypatch.setattr(stats, "_hurwitz_zeta", spy)
    for case in _TAIL_CASES:
        try:
            tail_exponent_fit(_tail_histogram(case))
        except InsufficientTailError:
            pass
    assert min(seen) >= _ALPHA_LO


class TestHurwitzZeta:
    @staticmethod
    def _points(size, seed):
        # s log-uniform in its distance above 1, q log-uniform; half the q integers
        rng = np.random.default_rng(seed)
        s = 1.0 + 10.0 ** rng.uniform(math.log10(1e-6), math.log10(39.0), size)
        q = 10.0 ** rng.uniform(0.0, 7.0, size)
        q[: size // 2] = np.floor(q[: size // 2])
        return s, q

    def test_matches_scipy(self):
        s, q = self._points(20000, 1)
        got = _hurwitz_zeta(s, q)
        assert np.abs(got / zeta(s, q) - 1.0).max() <= 2e-15

    def test_matches_mpmath(self):
        s, q = self._points(200, 2)
        got = _hurwitz_zeta(s, q)
        worst = 0.0
        for si, qi, zi in zip(s.tolist(), q.tolist(), got.tolist()):
            # mpmath's error here is absolute, so carry digits to the value's size
            with mp.workdps(30 + max(0, -math.floor(math.log10(zi)))):
                worst = max(worst, abs(float(mp.mpf(zi) / mp.zeta(si, qi) - 1)))
        assert worst <= 2e-15

    def test_broadcasts_against_q(self):
        s, q = np.array([[1.5], [2.0], [7.25]]), np.array([1.0, 3.0, 40.0, 1e4])
        assert np.abs(_hurwitz_zeta(s, q) / zeta(s, q) - 1.0).max() <= 2e-15

    def test_complex_step_derivative_matches_mpmath(self):
        s, q = self._points(400, 3)
        got = _hurwitz_zeta(s + 1e-20j, q).imag / 1e-20
        worst = 0.0
        for si, qi, di in zip(s.tolist(), q.tolist(), got.tolist()):
            with mp.workdps(30 + max(0, -math.floor(math.log10(-di)))):
                worst = max(worst, abs(float(mp.mpf(di) / mp.zeta(si, qi, 1) - 1)))
        assert worst <= 5e-14


class TestCompareToTheory:
    def test_c1_c2_across_sizes(self):
        # TV to the limit law decreases with n at fixed replica budget, and the
        # empirical average matches the finite-n quadrature within 3 SE
        tvs = []
        for n in (10**3, 10**4, 10**5):
            p = derive_params(2.0, 10.0, n)
            h = degree_histogram(sample_replica(p, 5150, r) for r in range(20))
            rep = compare_to_theory(h, p)
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

    # unchanged: the exported order with self-loops appended, which ingest
    # need not sort; shuffled: reversed pairs, duplicates and self-loops in
    # random order, which it must sort
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_messy_copy_matches_unique_oracle(self, tmp_path, shuffled):
        p = derive_params(2.0, 10.0, 500)
        g = sample_replica(p, 8, 0)
        r = np.random.default_rng(9)
        ids = g.edges.astype(np.int64)
        if shuffled:
            flip = r.random(ids.shape[0]) < 0.5
            ids[flip] = ids[flip, ::-1]
            ids = np.concatenate([ids, ids[r.integers(0, ids.shape[0], 40)][:, ::-1]])
        loops = np.repeat(r.integers(0, p.n, 7), 2).reshape(-1, 2)
        ids = np.concatenate([ids, loops])
        if shuffled:
            ids = ids[r.permutation(ids.shape[0])]
        path = tmp_path / "messy.txt"
        path.write_text("".join(f"{a} {b}\n" for a, b in ids))
        h = ingest_edge_list(str(path))

        n = int(ids.max()) + 1
        pairs = np.sort(ids, axis=1)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        simple = np.unique(pairs, axis=0)
        assert h.n == n
        assert np.array_equal(h.counts, np.bincount(np.bincount(simple.ravel(), minlength=n)))
        assert h.duplicates_dropped == pairs.shape[0] - simple.shape[0]
        assert h.self_loops_dropped == loops.shape[0]
        assert h.duplicates_dropped == (40 if shuffled else 0)


def test_edge_pipeline_bytes_per_edge(tmp_path):
    # the skip engine gathers canonical keys in one buffer and ingest keeps
    # only keys, so neither holds more than a few int64 words per edge
    from hscm.io import write_edge_list
    from hscm.sampler import sample_coordinates, sample_graph_fast

    p = derive_params(2.0, 10.0, 200_000)
    x = sample_coordinates(p, 1)
    path = tmp_path / "g.edges"
    tracemalloc.start()
    try:
        g = sample_graph_fast(x, 2)
        sample_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    write_edge_list(str(path), g, seed=2)
    m = g.num_edges
    del g
    tracemalloc.start()
    try:
        ingest_edge_list(str(path))
        ingest_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m > 900_000
    assert sample_peak / m < _BYTES_PER_EDGE_BOUND
    assert ingest_peak / m < _BYTES_PER_EDGE_BOUND
