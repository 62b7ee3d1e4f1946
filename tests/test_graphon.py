import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from oracles import (
    classical_entropy_of_sum,
    expectation_of_sum_mpmath,
    expected_degree_classical,
    h_mpmath,
    kappa_mpmath,
    mean_classical_kernel,
    mu_n_density,
    omega_n,
    w_classical,
    w_mpmath,
    w_pareto,
    w_unit_interval,
)
from hscm import rng
from hscm.entropy import graphon_entropy
from hscm.errors import DomainError
from hscm.graphon import (
    xlogy,
    bernoulli_entropy,
    bernoulli_entropy_logit,
    expected_degree_fn,
    mean_kernel_value,
    w_fermi_dirac,
)
from hscm.params import derive_params, mu_n_quantile

finite_coord = st.floats(-600.0, 600.0)


class TestKernels:
    def test_fermi_dirac_values(self):
        assert w_fermi_dirac(0.0, 0.0) == 0.5
        assert w_fermi_dirac(1.0, 1.0) == pytest.approx(0.11920292202211755, abs=1e-15)
        assert w_fermi_dirac(500.0, 500.0) == 0.0  # double-precision limit
        assert w_fermi_dirac(-500.0, -500.0) == 1.0

    def test_classical_values(self):
        assert w_classical(0.0, 0.0) == 1.0
        assert w_classical(1.0, 1.0) == pytest.approx(math.exp(-2.0), abs=1e-16)
        assert w_classical(-3.0, 0.0) == 1.0

    @given(finite_coord, finite_coord)
    @settings(max_examples=300)
    def test_symmetry_bounds_domination(self, x, y):
        w = w_fermi_dirac(x, y)
        wc = w_classical(x, y)
        assert w == w_fermi_dirac(y, x)
        assert wc == w_classical(y, x)
        assert 0.0 <= w <= 1.0
        assert w <= wc <= 1.0
        if x + y >= 0.0:
            assert wc - w <= math.exp(-2.0 * (x + y)) + 1e-15

    @given(finite_coord, st.floats(1e-8, 50.0))
    @settings(max_examples=200)
    def test_monotone_nonincreasing_in_sum(self, s, ds):
        assert w_fermi_dirac(s + ds, 0.0) <= w_fermi_dirac(s, 0.0)
        assert w_classical(s + ds, 0.0) <= w_classical(s, 0.0)

    def test_strictly_decreasing_where_representable(self):
        s = np.linspace(-25.0, 25.0, 201)
        w = w_fermi_dirac(s, 0.0)
        assert np.all(np.diff(w) < 0.0)

    def test_unit_interval_form(self):
        p = derive_params(2.0, 10.0, 10**4)
        assert w_unit_interval(p, 1.0, 1.0) == pytest.approx(
            1.0 / (p.n / (p.beta**2 * p.nu) + 1.0), rel=1e-15)
        got = w_unit_interval(p, math.exp(-2.0), math.exp(-2.0))
        assert got == pytest.approx(0.0018438579323075926, rel=1e-12)
        with pytest.raises(DomainError):
            w_unit_interval(p, 0.0, 0.5)

    def test_pareto_form(self):
        p = derive_params(2.0, 10.0, 10**4)
        s = math.sqrt(p.nu * p.n)
        assert w_pareto(p, s, s) == pytest.approx(0.5, rel=1e-15)
        lo = p.beta * p.nu
        assert w_pareto(p, lo, lo) == pytest.approx(
            w_unit_interval(p, 1.0, 1.0), rel=1e-13)
        assert w_pareto(p, 50.0, 50.0) == pytest.approx(1.0 / 41.0, rel=1e-15)
        with pytest.raises(DomainError):
            w_pareto(p, 0.9 * lo, lo)


def test_xlogy_matches_scipy_and_guards_zero():
    x = np.array([0.0, 0.0, 0.0, 2.0, 1e-300, 3.5, 1.0])
    y = np.array([0.0, 1.0, 7.0, 0.0, 1e-300, 0.25, 1.0])
    got = xlogy(x, y)  # no divide-by-zero warning at y == 0 < x
    assert np.array_equal(got[:3], [0.0, 0.0, 0.0])
    assert got[3] == -np.inf
    assert np.allclose(got, special.xlogy(x, y), rtol=2e-16, atol=0)


class TestBernoulliEntropy:
    def test_values(self):
        assert bernoulli_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)
        assert bernoulli_entropy(0.0) == 0.0
        assert bernoulli_entropy(1.0) == 0.0
        assert bernoulli_entropy(0.1) == pytest.approx(0.3250829733914482, abs=1e-15)

    def test_domain(self):
        for bad in (-1e-12, 1.0 + 1e-12, math.nan):
            with pytest.raises(DomainError):
                bernoulli_entropy(bad)
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\], got -0.25$"):
            bernoulli_entropy([0.5, -0.25, 2.0])

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=300)
    def test_range_and_symmetry(self, pr):
        h = bernoulli_entropy(pr)
        assert 0.0 <= h <= math.log(2.0) + 1e-15
        assert h == pytest.approx(bernoulli_entropy(1.0 - pr), abs=1e-12)

    @given(st.floats(-8.0, 8.0))
    @settings(max_examples=300)
    def test_logit_form_matches_where_direct_is_well_conditioned(self, s):
        # the direct route loses digits to the 1-p cancellation once
        # |s| >~ 15, so the tight comparison stays in the benign band
        direct = bernoulli_entropy(w_fermi_dirac(s, 0.0))
        stable = bernoulli_entropy_logit(s)
        assert stable == pytest.approx(direct, rel=1e-12)

    def test_logit_form_matches_longdouble_reference_in_tails(self):
        # reference on s >= 0 where p = W(s) is small and exactly
        # representable; negative s follows by the H(p) = H(1-p) symmetry
        for s in np.concatenate([np.linspace(0.5, 60, 120), [250.0]]):
            p = 1.0 / (1.0 + np.exp(np.longdouble(s)))
            ref = float(-p * np.log(p) - (1 - p) * np.log1p(-p))
            assert bernoulli_entropy_logit(s) == pytest.approx(ref, rel=1e-9)
            assert bernoulli_entropy_logit(-s) == bernoulli_entropy_logit(s)

    def test_logit_form_deep_tail(self):
        s = 100.0
        assert bernoulli_entropy_logit(s) == pytest.approx((s + 1) * math.exp(-s),
                                                           rel=1e-10)
        assert classical_entropy_of_sum(s) == pytest.approx((s + 1) * math.exp(-s),
                                                            rel=1e-6)
        assert classical_entropy_of_sum(-3.0) == 0.0


class TestExpectedDegree:
    def setup_method(self):
        self.p = derive_params(2.0, 10.0, 10**4)

    def test_omega_reference_value(self):
        # direct evaluation: (1 - exp(-(gamma-1) r)) / (beta e^r)
        assert omega_n(self.p) == pytest.approx(0.03112277660168379, rel=1e-14)

    def test_omega_against_quadrature(self):
        for p in (self.p, derive_params(1.1, 4.92, 10**4), derive_params(3.5, 2.0, 10**3)):
            val, _ = integrate.quad(
                lambda x: math.exp(-x) * mu_n_density(p, x), 0.0, p.r_n)
            assert omega_n(p) == pytest.approx(val, abs=1e-10)

    def test_omega_sqrt_limit(self):
        prev = None
        for n in (10**3, 10**5, 10**7, 10**9):
            p = derive_params(2.0, 10.0, n)
            ratio = omega_n(p) * math.sqrt(n / p.nu)
            if prev is not None:
                assert abs(ratio - 1.0) < abs(prev - 1.0)
            prev = ratio
        assert abs(prev - 1.0) < 1e-4

    def test_classical_closed_form(self):
        p = self.p
        assert expected_degree_classical(p, 0.0) == pytest.approx(
            p.n * omega_n(p), rel=1e-14)
        assert expected_degree_classical(p, 0.0) == pytest.approx(
            311.2277660168379, rel=1e-12)
        assert expected_degree_classical(p, -1.0) == 0.0

    def test_fermi_dirac_agrees_with_classical_at_boundary(self):
        p = self.p
        fd = expected_degree_fn(p, p.r_n)
        cl = expected_degree_classical(p, p.r_n)
        assert abs(fd - cl) / cl < 0.05

    def test_fermi_dirac_quadrature_against_brute_force(self):
        p = self.p
        for x in (-2.0, 0.0, 2.0, p.r_n):
            brute, _ = integrate.quad(
                lambda y: w_fermi_dirac(x, y) * mu_n_density(p, y),
                -np.inf, p.r_n, epsabs=1e-14, epsrel=1e-11, limit=300)
            assert expected_degree_fn(p, x) == pytest.approx(
                (p.n - 1) * brute, rel=1e-8)

    def test_domain_error_above_support(self):
        for bad in (self.p.r_n + 1.0, math.nan):
            with pytest.raises(DomainError):
                expected_degree_fn(self.p, bad)
        with pytest.raises(DomainError):
            expected_degree_fn(self.p, [0.0, self.p.r_n + 1.0])
        with pytest.raises(DomainError, match=rf"coordinate 9.0 above the support end "
                                              rf"{self.p.r_n} of EnsembleParams\(gamma=2.0, "
                                              rf"nu=10.0, n=10000\)$"):
            expected_degree_fn(self.p, [0.0, 9.0])

    # adaptive quadrature of kappa_n misses its tolerance at the first three;
    # scipy's hyp2f1 was 7e-9 off at 1 + 1e-9, returned inf or lost digits
    # next to gamma = 2 and NaN from gamma ~ 99 on
    @pytest.mark.parametrize("gamma,nu,n", [(3.5, 2.0, 10**4), (3.5, 2.0, 10**6),
                                            (2.5, 5.0, 10**7), (1 + 1e-9, 1.0, 100),
                                            (2.0, 10.0, 10**4), (2 + 1e-12, 1.0, 730),
                                            (100.0, 10.0, 1000), (1e3, 10.0, 1000),
                                            (1e5, 10.0, 1000)])
    def test_closed_form_matches_mpmath(self, gamma, nu, n):
        p = derive_params(gamma, nu, n)
        u = np.concatenate([np.geomspace(1e-12, 1.0, 13), (np.arange(32) + 0.5) / 32])
        x = np.concatenate([mu_n_quantile(p, u), p.r_n - np.array([1.0, 5.0, 20.0, 60.0])])
        got = expected_degree_fn(p, x)
        for xi, gi in zip(x, got):
            ref = kappa_mpmath(p, xi)
            assert abs(gi - ref) <= 1e-12 * abs(ref)

    def test_vectorised_matches_scalar(self):
        p = self.p
        x = np.array([-30.0, -2.0, 0.0, 1.5, p.r_n])
        for fn in (expected_degree_fn, expected_degree_classical):
            vec = fn(p, x)
            assert vec.shape == x.shape
            assert list(vec) == [fn(p, xi) for xi in x]


class TestClassicalApproximationRate:
    def test_monte_carlo_gap_rate(self):
        # E|W - What| shrinks like n^-(gamma+1)/2; ratio across decades within
        # a factor 3 of the predicted 10^1.5
        gaps = []
        for i, n in enumerate((10**3, 10**4, 10**5)):
            p = derive_params(2.0, 10.0, n)
            u = 1.0 - rng.uniform(1000 + i, 0, np.arange(2 * 10**7, dtype=np.uint64))
            x = mu_n_quantile(p, u)
            s = x[::2] + x[1::2]
            gap = w_classical(s, 0.0) - w_fermi_dirac(s, 0.0)
            gaps.append(float(np.mean(gap)))
        predicted = 10.0 ** 1.5
        for a, b in zip(gaps, gaps[1:]):
            assert predicted / 3.0 <= a / b <= predicted * 3.0

    def test_mean_kernel_value_decreases_to_classical(self):
        for n in (10**3, 10**5):
            p = derive_params(2.0, 10.0, n)
            assert mean_kernel_value(p) < mean_classical_kernel(p)


# three fixed 64-node pieces split at the kernel's turn; the adaptive rule
# they replaced was 6.2e-13 off for H(W) at (1.1, 10, 1e6)
@pytest.mark.parametrize("gamma,nu,n", [(1 + 1e-9, 1e-6, 10**9), (1 + 1e-9, 4.92, 1000),
                                        (1.0001, 10.0, 10**6), (1.1, 10.0, 10**6),
                                        (2.0, 10.0, 1000), (2.0, 300.0, 2),
                                        (2 + 1e-12, 4.92, 2), (3.5, 1e-6, 10**9),
                                        (10.0, 10.0, 10**6), (61.0, 300.0, 1000),
                                        (1e3, 4.92, 10**9), (1e5, 10.0, 10**6)])
def test_means_of_sums_match_mpmath(gamma, nu, n):
    p = derive_params(gamma, nu, n)
    assert mean_kernel_value(p) == pytest.approx(float(expectation_of_sum_mpmath(p, w_mpmath)),
                                                 rel=1e-13, abs=0.0)
    assert graphon_entropy(p) == pytest.approx(float(expectation_of_sum_mpmath(p, h_mpmath)),
                                               rel=1e-13, abs=0.0)


@pytest.mark.parametrize("nu,n", [(1.0, 10), (10.0, 10**6)])
@pytest.mark.parametrize("gamma", [1e5, 1e6, 1e12, 1e300])
def test_large_gamma_means_sit_at_the_support_end(gamma, nu, n):
    # X + Y = 2 r_n - U / gamma with U ~ Gamma(2, 1) and E[U] = 2; since
    # |W'| <= 1/4 and |dH(W(s))/ds| <= 0.224, E[W] and sigma lie within
    # 1/(2 gamma) of W and H(W) at 2 r_n
    p = derive_params(gamma, nu, n)
    end = 2.0 * p.r_n
    assert abs(mean_kernel_value(p) - w_fermi_dirac(end, 0.0)) <= 0.5 / gamma + 1e-12
    sigma = graphon_entropy(p)
    assert abs(sigma - bernoulli_entropy_logit(end)) <= 0.5 / gamma + 1e-7 * sigma
