import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from oracles import probability_matrix, realized_expected_degrees
from hscm import scm
from hscm.errors import ConvergenceError, DomainError
from hscm.params import derive_params
from hscm.sampler import sample_coordinates, sample_graph_fast
from hscm.scm import hscm_to_scm, solve_scm
from hscm.theory import expected_avg_degree_finite_n


class TestSolve:
    def test_two_node_symmetric_half(self):
        inst = solve_scm([0.5, 0.5], tol=1e-13)
        assert np.max(np.abs(inst.multipliers)) <= 1e-12
        assert inst.residual < 1e-13

    def test_two_node_analytic(self):
        # 1/(e^(2 lambda) + 1) = 0.2  =>  lambda = 0.5 log 4
        inst = solve_scm([0.2, 0.2], tol=1e-13)
        assert np.max(np.abs(inst.multipliers - 0.5 * math.log(4.0))) <= 1e-12

    def test_three_node_symmetric(self):
        inst = solve_scm([1.0, 1.0, 1.0], tol=1e-11)
        assert np.max(np.abs(inst.multipliers)) <= 1e-10
        assert inst.residual < 1e-10
        pm = probability_matrix(inst)
        assert pm[0, 1] == pytest.approx(0.5, abs=1e-10)
        assert pm[0, 0] == 0.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        k = rng.uniform(0.5, 6.0, size=12)
        perm = rng.permutation(12)
        a = solve_scm(k)
        b = solve_scm(k[perm])
        assert np.allclose(a.multipliers[perm], b.multipliers, atol=1e-8)

    def test_monotone_response(self):
        # raising one expected degree strictly lowers that multiplier
        k = np.full(10, 3.0)
        base = solve_scm(k)
        bumped = k.copy()
        bumped[4] += 0.5
        moved = solve_scm(bumped)
        assert moved.multipliers[4] < base.multipliers[4] - 1e-6

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            solve_scm([0.5])
        with pytest.raises(DomainError):
            solve_scm([0.0, 1.0])
        with pytest.raises(DomainError):
            solve_scm([1.0, 1.2])  # k >= n - 1

    def test_heavy_tailed_instance(self):
        rng = np.random.default_rng(11)
        k = np.clip(4.0 * rng.pareto(2.0, 150) + 0.3, 0.1, 120.0)
        inst = solve_scm(k, tol=1e-10)
        assert inst.residual < 1e-10
        assert np.max(np.abs(realized_expected_degrees(inst) - k)) < 1e-9


def sampled_degrees(n, seed):
    """Positive degrees of a gamma=2, nu=10 sample: integers with many ties."""
    p = derive_params(2.0, 10.0, n)
    k = sample_graph_fast(sample_coordinates(p, seed), seed + 1).degrees()
    return k[k > 0].astype(float)


def heavy_tailed_degrees(n, seed):
    rng = np.random.default_rng(seed)
    return np.clip(3.0 * rng.pareto(1.5, n) + 0.2, 0.1, 0.4 * n)


class TestDegreeClasses:
    @pytest.mark.parametrize("k", [heavy_tailed_degrees(600, 2), sampled_degrees(3000, 4)],
                             ids=["heavy-tailed", "sampled-integer"])
    def test_matches_dense_oracle(self, k):
        inst = solve_scm(k)
        assert inst.residual < 1e-10
        assert np.max(np.abs(realized_expected_degrees(inst) - k)) <= 1e-9

    def test_equal_degrees_share_bit_identical_multipliers(self):
        k = sampled_degrees(3000, 4)
        lam = solve_scm(k).multipliers
        assert np.unique(k).size < k.size / 20
        for value in np.unique(k):
            assert np.unique(lam[k == value]).size == 1
        perm = np.random.default_rng(0).permutation(k.size)
        assert np.array_equal(solve_scm(k[perm]).multipliers, lam[perm])

    def test_infeasible_degrees_raise_convergence_error(self):
        # three nodes of degree 2.9 need 2.7 expected edges from a node of degree 0.1
        with pytest.raises(ConvergenceError, match="residual"):
            solve_scm([2.9, 2.9, 2.9, 0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_degrees_rejected(self, bad):
        with pytest.raises(DomainError, match="k\\[1\\]"):
            solve_scm([1.0, bad, 1.0])

    def test_more_than_4096_classes_solve_without_dense_matrix(self):
        k = np.linspace(1.0, 2.0, 4097)
        tracemalloc.start()
        try:
            inst = solve_scm(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.residual <= 1e-10
        assert peak < 8 * k.size**2 / 20
        assert inst.residual_path[-1] == inst.residual and inst.cg_iterations > 0

    @pytest.mark.parametrize("k", [[1e-300, 2, 2, 2, 2], [1e-30, 1, 1, 1]])
    def test_multipliers_spread_over_hundreds(self, k):
        with np.errstate(over="raise", invalid="raise"):
            inst = solve_scm(k)
        assert inst.residual < 1e-10
        assert np.max(np.abs(realized_expected_degrees(inst) - k)) < 1e-10

    def test_large_integer_sequence_needs_no_dense_matrix(self):
        k = sampled_degrees(20000, 6)
        n = k.size
        tracemalloc.start()
        try:
            inst = solve_scm(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n >= 19000 and peak < 0.01 * 8 * n * n
        assert inst.residual < 1e-10
        # row sums of a random subset of nodes against all others
        rows = np.random.default_rng(1).choice(n, 200, replace=False)
        lam = inst.multipliers
        pm = expit(-(lam[rows, None] + lam[None, :]))
        pm[np.arange(rows.size), rows] = 0.0
        assert np.max(np.abs(pm.sum(axis=1) - k[rows])) <= 1e-9


def dense_pair_sums(lam, w, slope):
    """sum_b w_b f(l_a + l_b) from the full matrix, in blocks of rows."""
    out = np.empty(lam.size)
    for i in range(0, lam.size, 500):
        s = lam[i:i + 500, None] + lam[None, :]
        f = expit(-s) * expit(s) if slope else expit(-s)
        out[i:i + 500] = f @ w
    return out


class TestPairSums:
    def test_matches_dense_sums_for_any_spread(self):
        rng = np.random.default_rng(12)
        for case in range(200):
            n = int(rng.integers(1, 120))
            lam = rng.uniform(-1.0, 1.0, n) * rng.choice([0.5, 3.0, 30.0, 200.0, 800.0])
            if case % 3 == 0:
                lam = np.round(lam)  # ties and pairs at s = 0, +-2 exactly
            w = rng.uniform(0.0, 5.0, n) if case % 2 else rng.normal(0.0, 2.0, n)
            for slope in (False, True):
                with np.errstate(over="raise", invalid="raise"):
                    got = scm.pair_sums(lam, w, slope)
                gap = np.max(np.abs(got - dense_pair_sums(lam, w, slope)))
                assert gap <= 1e-13 * np.abs(w).sum(), (case, slope)

    # every pair in the band (the band is summed in many chunks), and n large
    # enough that the series terms take two passes over many segments
    @pytest.mark.parametrize("n, spread", [(1500, 0.9), (5000, 800.0)])
    def test_matches_dense_sums_in_chunks_and_passes(self, n, spread):
        rng = np.random.default_rng(n)
        lam, w = rng.uniform(-spread, spread, n), rng.normal(0.0, 2.0, n)
        for slope in (False, True):
            with np.errstate(over="raise", invalid="raise"):
                got = scm.pair_sums(lam, w, slope)
            gap = np.max(np.abs(got - dense_pair_sums(lam, w, slope)))
            assert gap <= 1e-13 * np.abs(w).sum()

    def test_memory_is_linear(self):
        n = 200_000
        x = sample_coordinates(derive_params(2.0, 10.0, n), 3)
        tracemalloc.start()
        try:
            scm.pair_sums(x, 1.0, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * n


class TestFrozenCoordinates:
    def test_two_nodes_at_origin(self):
        inst = hscm_to_scm(np.zeros(2))
        assert probability_matrix(inst)[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert inst.residual == 0.0

    def test_row_blocks_match_dense_oracle(self):
        c = sample_coordinates(derive_params(2.0, 10.0, 50), 7)
        whole = hscm_to_scm(c).expected_degrees
        inst = hscm_to_scm(c)
        assert np.max(np.abs(inst.expected_degrees - realized_expected_degrees(inst))) <= 1e-12
        assert np.array_equal(inst.expected_degrees, whole)

    @pytest.mark.parametrize("gamma, nu", [(2.0, 10.0), (1.1, 4.92)])
    def test_matches_dense_row_sums_at_5000_nodes(self, gamma, nu):
        x = sample_coordinates(derive_params(gamma, nu, 5000), 9)
        dense = dense_pair_sums(x, np.ones(x.size), False) - expit(-2.0 * x)
        got = hscm_to_scm(x).expected_degrees
        assert np.max(np.abs(got - dense) / dense) <= 1e-12

    def test_solve_recovers_multipliers_at_1e5_nodes(self):
        frozen = hscm_to_scm(sample_coordinates(derive_params(2.0, 10.0, 100_000), 1))
        solved = solve_scm(frozen.expected_degrees, tol=1e-10)
        assert solved.residual < 1e-10
        assert np.max(np.abs(solved.multipliers - frozen.multipliers)) < 1e-8

    def test_round_trip_recovers_coordinates(self):
        p = derive_params(2.0, 10.0, 50)
        c = sample_coordinates(p, 5)
        frozen = hscm_to_scm(c)
        solved = solve_scm(frozen.expected_degrees, tol=1e-12)
        assert solved.residual < 1e-8
        assert np.max(np.abs(solved.multipliers - frozen.multipliers)) < 1e-8

    def test_mean_expected_degree_matches_quadrature(self):
        p = derive_params(2.0, 10.0, 300)
        target = expected_avg_degree_finite_n(p)
        means = []
        for seed in range(120):
            inst = hscm_to_scm(sample_coordinates(p, seed))
            means.append(float(inst.expected_degrees.mean()))
        se = np.std(means, ddof=1) / math.sqrt(len(means))
        assert abs(np.mean(means) - target) <= 3.0 * se
