import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    ParetoLaw,
    expected_avg_degree_classical,
    mean_degree_oracle,
    mixed_poisson_pmf_oracle,
    mixing,
    pareto_tail,
    pmf_mpmath,
    tail_mass_bound,
    truncation_k,
)
from hscm.errors import DomainError
from hscm.params import derive_params
from hscm.theory import (
    DegreeLaw,
    _upper_gamma_quad,
    expected_avg_degree_finite_n,
    finite_size_degree_tail,
    finite_size_epsilon,
    log_factorials,
)


class TestParetoLaw:
    def test_tail_values(self):
        law = ParetoLaw(shape=2.0, scale=5.0)
        assert pareto_tail(law, 10.0) == pytest.approx(0.25, abs=1e-15)
        assert pareto_tail(law, 5.0) == 1.0
        assert pareto_tail(law, 1.0) == 1.0

    def test_mean_is_nu(self):
        for gamma, nu in ((2.0, 10.0), (1.1, 4.92), (3.5, 2.0)):
            p = derive_params(gamma, nu, 100)
            law = ParetoLaw(shape=gamma, scale=p.pareto_scale)
            assert law.mean == pytest.approx(nu, rel=1e-14)

    def test_density_normalization(self):
        from scipy import integrate

        law = ParetoLaw(shape=1.1, scale=0.4472727272727273)

        def pdf(y):
            return law.shape * law.scale**law.shape * y ** (-(law.shape + 1.0))

        val, _ = integrate.quad(pdf, law.scale, np.inf)
        assert val == pytest.approx(1.0, abs=1e-9)
        head, _ = integrate.quad(pdf, law.scale, 10.0)
        assert 1.0 - head == pytest.approx(pareto_tail(law, 10.0), rel=1e-9)

    def test_invalid(self):
        with pytest.raises(DomainError):
            ParetoLaw(shape=1.0, scale=1.0)


def test_log_factorials_match_scipy_gammaln():
    from scipy.special import gammaln

    got = log_factorials(10**6)
    assert got[0] == got[1] == 0.0
    assert np.abs(got[2:] / gammaln(np.arange(2, 10**6 + 1) + 1.0) - 1.0).max() <= 1e-15  # a few ulps of either


class TestDegreePmf:
    # frozen via the mixing-integral quadrature oracle
    FROZEN_PMF0 = {(1.1, 4.92): 0.37596831521134416,
                   (2.0, 10.0): 0.0017556017855412762,
                   (3.5, 2.0): 0.16015117912573196}

    @pytest.mark.parametrize("gamma,nu", list(FROZEN_PMF0))
    def test_pmf0_frozen_oracle_value(self, gamma, nu):
        law = DegreeLaw(derive_params(gamma, nu, 10**4))
        assert law.pmf_array(0)[0] == pytest.approx(self.FROZEN_PMF0[(gamma, nu)], rel=1e-10)

    @pytest.mark.parametrize("gamma,nu", [(1.1, 4.92), (2.0, 10.0), (3.5, 2.0)])
    def test_closed_form_vs_oracle_spot(self, gamma, nu):
        law = DegreeLaw(derive_params(gamma, nu, 10**4))
        closed = law.pmf_array(100)
        for k in (0, 1, 2, 3, 7, 19, 31, 32, 33, 64, 100):
            brute = mixed_poisson_pmf_oracle(mixing(law), k)
            assert closed[k] == pytest.approx(brute, rel=1e-8)

    @pytest.mark.parametrize("gamma", [1.05, 1.1, 1.5, 2.0, 2.0001, 3.5])
    @pytest.mark.parametrize("nu", [0.5, 4.92, 10.0, 50.0])
    def test_recurrence_matches_mpmath(self, gamma, nu):
        # k spans 30 + gamma, where an earlier version switched routes
        law = DegreeLaw(derive_params(gamma, nu, 10**4))
        pmf = law.pmf_array(1000)
        for k in [*range(12), 31, 32, 33, 100, 1000]:
            assert pmf[k] == pytest.approx(float(pmf_mpmath(mixing(law), k)), rel=1e-11)

    # x = beta*nu past ~745, where exp(-x) underflows, and gamma far above x,
    # where the upward recurrence alone amplifies its rounding errors
    @pytest.mark.parametrize("gamma,nu", [(2.0, 2000.0), (1.5, 1500.0), (3.5, 1000.0),
                                          (200.0, 0.5), (40.5, 10.0), (200.0, 2000.0)])
    def test_extreme_scales_match_mpmath(self, gamma, nu):
        law = DegreeLaw(derive_params(gamma, nu, 10**6))
        pmf = law.pmf_array(1100)
        for k in [*range(0, 220, 7), 500, 900, 1000, 1100]:
            ref = float(pmf_mpmath(mixing(law), k))
            if ref < 1e-290:  # near or below the float subnormal range
                assert abs(pmf[k]) < 1e-280
            else:
                assert pmf[k] == pytest.approx(ref, rel=1e-11)
        # a k_max below the seed degree runs the recurrence downward only
        assert law.pmf_array(5) == pytest.approx(pmf[:6], rel=1e-11, abs=1e-280)

    # pmf(0) at gamma = 200, x = beta*nu ~ 1e-7 used to come out as 0,
    # pmf(3) at gamma = 50, nu = 1e-3 missed the seed's quadrature tolerance,
    # at gamma = 82.68, nu = 0.0037 the upward recurrence turned the
    # underflowed pmf(83) into -5e-324, and at the last two the adaptive seed
    # missed its tolerance at the peak of its integrand
    @pytest.mark.parametrize("gamma,nu,k_max", [(200.0, 1e-7, 0), (50.0, 1e-3, 3),
                                                (82.68, 0.0037, 100), (1.5, 1e-250, 10),
                                                (1.0000001, 1e-290, 10)])
    def test_tiny_pareto_scale_matches_mpmath(self, gamma, nu, k_max):
        law = DegreeLaw(derive_params(gamma, nu, 1000))
        pmf = law.pmf_array(k_max)
        assert np.all(np.isfinite(pmf))
        assert np.all(pmf >= 0.0)
        for k in range(k_max + 1):
            ref = float(pmf_mpmath(mixing(law), k))
            assert pmf[k] == pytest.approx(ref, rel=1e-11, abs=1e-300)

    # x = beta nu below gamma - floor(gamma), so the first step up from
    # floor(gamma - x) would cross k = gamma and scale the seed's rounding by
    # about x^-(gamma - floor(gamma)); and gamma just above an integer, where
    # the step just below gamma is the unstable one upward
    @pytest.mark.parametrize("gamma,nu,n", [(2.871598175342622, 1.1709847934051503e-09, 263095832),
                                            (3.999, 1e-9, 1000), (3.5, 1e-9, 1000),
                                            (3.000000001, 1e-6, 1000), (57.394, 5.9e-9, 1000)])
    def test_seed_never_steps_up_across_gamma(self, gamma, nu, n):
        law = DegreeLaw(derive_params(gamma, nu, n))
        pmf = law.pmf_array(60)
        for k in range(61):
            ref = float(pmf_mpmath(mixing(law), k))
            if ref > 1e-290:
                assert pmf[k] == pytest.approx(ref, rel=1e-12, abs=0.0)

    # positive a is the seed when gamma sits just above an integer
    @pytest.mark.parametrize("a", [-199.5, -50.5, -1.5, -1e-9, 0.3, 0.9, 1 - 1e-9])
    @pytest.mark.parametrize("x", [1e-300, 1e-200, 1e-12, 1e-5, 1.0, 1e3, 1e5, 1e6, 1e7])
    def test_seed_quadrature_matches_mpmath(self, a, x):
        with mp.workdps(40):
            ref = mp.power(x, 1 - a) * mp.exp(x) * mp.gammainc(a, x)
        assert _upper_gamma_quad(a, x) == pytest.approx(float(ref), rel=1e-12)

    def test_power_tail_ratio(self):
        p = derive_params(2.0, 10.0, 10**4)
        law = DegreeLaw(p)
        k = 1000
        asymptote = p.gamma * p.pareto_scale**p.gamma * float(k) ** (-(p.gamma + 1))
        assert law.pmf_array(k)[k] / asymptote == pytest.approx(1.0, abs=0.02)

    def test_normalization_at_truncation(self):
        law = DegreeLaw(derive_params(2.0, 10.0, 10**4))
        K = truncation_k(mixing(law), 1e-7, moment=0)
        assert tail_mass_bound(mixing(law), K) < 1e-7
        total = law.pmf_array(K).sum()
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_mean_is_nu(self):
        # truncate where the tail-mean bound is 5x below the assertion band
        law = DegreeLaw(derive_params(2.0, 10.0, 10**4))
        K = truncation_k(mixing(law), 2e-5, moment=1)
        pmf = law.pmf_array(K)
        mean = float(np.arange(K + 1) @ pmf)
        assert mean == pytest.approx(10.0, abs=1e-4)

    def test_oracle_stable_at_large_k(self):
        law = ParetoLaw(shape=2.0, scale=5.0)
        val = mixed_poisson_pmf_oracle(law, 10**4)
        asymptote = 2.0 * 25.0 * (10.0**4) ** (-3.0)
        assert 0.5 * asymptote < val < 2.0 * asymptote

    def test_negative_k_rejected(self):
        law = DegreeLaw(derive_params(2.0, 10.0, 100))
        for bad in (-1, 2.5, math.nan):
            with pytest.raises(DomainError, match="k_max must be a non-negative integer"):
                law.pmf_array(bad)
        with pytest.raises(DomainError):
            mixed_poisson_pmf_oracle(mixing(law), -2)


class TestExpectedAverageDegree:
    # frozen from the 1D-reduction oracle (cross-checked against mpmath)
    FROZEN = {(2.0, 10.0, 10**4): 9.908908226,
              (2.0, 10.0, 10**5): 9.985452834,
              (2.0, 10.0, 10**6): 9.997869005,
              (1.1, 4.92, 10**4): 1.727685617,
              (1.1, 4.92, 10**5): 2.119967836,
              (1.1, 4.92, 10**6): 2.485847047}

    @pytest.mark.parametrize("key", list(FROZEN))
    def test_frozen_values_and_oracle(self, key):
        gamma, nu, n = key
        p = derive_params(gamma, nu, n)
        val = expected_avg_degree_finite_n(p)
        assert val == pytest.approx(self.FROZEN[key], abs=5e-8)
        assert val == pytest.approx(mean_degree_oracle(p), rel=1e-8)

    def test_matches_reported_reference_averages(self):
        # published sampled averages for these reference ensembles
        targets = {(2.0, 10.0, 10**4): 9.96, (2.0, 10.0, 10**5): 9.98,
                   (2.0, 10.0, 10**6): 10.0, (1.1, 4.92, 10**4): 1.73,
                   (1.1, 4.92, 10**5): 2.16, (1.1, 4.92, 10**6): 2.51}
        misses = {}
        for (gamma, nu, n), target in targets.items():
            val = expected_avg_degree_finite_n(derive_params(gamma, nu, n))
            if abs(val - target) > 0.05:
                misses[(gamma, nu, n)] = val
        # (2, 10, 1e4) sits 0.051 from the reported rounded sampled average;
        # every other case agrees within the band
        assert set(misses) <= {(2.0, 10.0, 10**4)}
        if misses:
            assert misses[(2.0, 10.0, 10**4)] == pytest.approx(9.9089, abs=1e-3)

    def test_increasing_toward_nu_for_small_gamma(self):
        vals = [expected_avg_degree_finite_n(derive_params(1.1, 4.92, n))
                for n in (10**4, 10**5, 10**6)]
        assert vals[0] < vals[1] < vals[2] < 4.92

    def test_classical_form_converges_to_fermi_dirac(self):
        # gap shrinks consistent with O(n^-(gamma-1)/2) = n^-1/2 at gamma = 2,
        # i.e. a factor ~10 over the two decades tested
        gaps = []
        for n in (10**3, 10**5):
            p = derive_params(2.0, 10.0, n)
            gaps.append(expected_avg_degree_classical(p)
                        - expected_avg_degree_finite_n(p))
        assert gaps[0] > gaps[1] > 0.0
        assert gaps[0] / gaps[1] > 10.0 / 3.0


class TestFiniteSizeTail:
    def setup_method(self):
        self.p = derive_params(2.0, 10.0, 10**4)

    def test_reference_value(self):
        # eps_n = e^-r - e^-4r with r = 0.5 log 4000
        assert finite_size_epsilon(self.p) == pytest.approx(0.015811325800841897,
                                                            rel=1e-12)
        assert finite_size_degree_tail(self.p, 10.0) == pytest.approx(
            0.24215683660547416, rel=1e-12)

    def test_branches(self):
        p = self.p
        eps = finite_size_epsilon(p)
        lo = p.pareto_scale * (1 - eps)
        hi = math.sqrt(p.nu * p.n) * (1 - eps)
        assert finite_size_degree_tail(p, 0.5 * lo) == 1.0
        assert finite_size_degree_tail(p, 2.0 * hi) == 0.0
        for bad in (0.0, math.nan):
            with pytest.raises(DomainError):
                finite_size_degree_tail(p, bad)
        with pytest.raises(DomainError, match=r"positive, got -2.0 for EnsembleParams\("
                                              r"gamma=2.0, nu=10.0, n=10000\)$"):
            finite_size_degree_tail(p, [1.0, -2.0, 0.0])

    def test_huge_gamma_has_no_overflow(self):
        p = derive_params(1e6, 10.0, 1000)
        ts = np.geomspace(p.pareto_scale / 4.0, 1.2 * math.sqrt(p.nu * p.n), 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail = finite_size_degree_tail(p, ts)
        assert np.all((tail >= 0.0) & (tail <= 1.0))
        assert tail[0] == 1.0 and tail[-1] == 0.0

    def test_converges_to_pareto_tail(self):
        ts = np.geomspace(1.0, 400.0, 200)
        for n in (10**3, 10**5, 10**7):
            p = derive_params(2.0, 10.0, n)
            law = ParetoLaw(shape=p.gamma, scale=p.pareto_scale)
            eps = finite_size_epsilon(p)
            bound = 1.0 - (1.0 - eps) ** p.gamma
            inside = ts < math.sqrt(p.nu * p.n) * (1 - eps)
            diff = np.abs(finite_size_degree_tail(p, ts[inside])
                          - pareto_tail(law, ts[inside]))
            assert np.max(diff) <= bound + 1e-12
