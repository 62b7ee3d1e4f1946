import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats as sps

from oracles import mu_n_cdf, mu_n_density, negative_mass, w_pareto, w_unit_interval
from hscm import rng
from hscm.errors import DomainError
from hscm.graphon import w_fermi_dirac
from hscm.params import EnsembleParams, derive_params, mu_n_quantile


def to_unit_interval(p, x):
    """The paper's map u = exp(gamma * (x - r_n)) onto (0, 1]."""
    return np.exp(p.gamma * (np.asarray(x, dtype=float) - p.r_n))


def to_pareto(p, x):
    """The paper's map y = sqrt(nu * n) * exp(-x) onto [beta * nu, inf)."""
    return math.sqrt(p.nu * p.n) * np.exp(-np.asarray(x, dtype=float))


class TestDeriveParams:
    def test_reference_case(self):
        p = derive_params(2.0, 10.0, 10**4)
        assert p.beta == 0.5
        assert p.gamma + 1 == 3.0
        # direct evaluation of the boundary formula: 0.5 * log(n / (beta^2 nu))
        assert p.r_n == pytest.approx(0.5 * math.log(4000.0), abs=1e-15)
        assert p.r_n == pytest.approx(4.147024820051014, abs=1e-12)

    def test_small_gamma_case(self):
        p = derive_params(1.1, 4.92, 10**4)
        assert p.beta == pytest.approx(1.0 - 1.0 / 1.1, abs=1e-15)
        assert p.r_n == pytest.approx(6.206411193534353, abs=1e-12)
        # cross-check against the latent-measure normalization: density must
        # integrate to one over (-inf, r_n]
        total, _ = integrate.quad(lambda x: mu_n_density(p, x), -np.inf, p.r_n)
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("gamma,nu,n", [(2.0, 16.0, 4), (1.25, 125.0, 5)])
    def test_r_n_zero_when_n_equals_beta2_nu(self, gamma, nu, n):
        p = derive_params(gamma, nu, n)
        assert p.beta**2 * p.nu == pytest.approx(n, rel=1e-14)
        assert p.r_n == pytest.approx(0.0, abs=1e-14)

    @given(st.floats(1.0001, 20.0), st.floats(1e-3, 1e3), st.integers(1, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_boundary_invariant(self, gamma, nu, n):
        p = derive_params(gamma, nu, n)
        assert 0.0 < p.beta < 1.0
        assert p.gamma + 1 > 2.0
        assert math.exp(2.0 * p.r_n) * p.beta**2 * p.nu == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("bad", [(1.0, 10.0, 10), (0.5, 10.0, 10),
                                     (2.0, 0.0, 10), (2.0, -1.0, 10),
                                     (2.0, 10.0, 0), (2.0, 10.0, -5)])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            derive_params(*bad)


class TestMeasure:
    def setup_method(self):
        self.p = derive_params(2.0, 10.0, 10**4)

    def test_density_values(self):
        p = self.p
        assert mu_n_density(p, p.r_n) == pytest.approx(p.gamma, abs=1e-15)
        assert mu_n_density(p, p.r_n - 1.0) == pytest.approx(2.0 * math.exp(-2.0),
                                                             abs=1e-15)
        assert mu_n_density(p, p.r_n + 0.5) == 0.0

    def test_quantile_endpoints(self):
        p = self.p
        assert mu_n_quantile(p, 1.0) == pytest.approx(p.r_n, abs=1e-14)
        assert mu_n_quantile(p, math.exp(-p.gamma)) == pytest.approx(p.r_n - 1.0,
                                                                     abs=1e-13)

    def test_quantile_domain(self):
        for bad in (0.0, -0.3, 1.0 + 1e-9):
            with pytest.raises(DomainError):
                mu_n_quantile(self.p, bad)

    def test_cdf_quantile_roundtrip(self):
        u = 1.0 - rng.uniform(123, 0, np.arange(10**4, dtype=np.uint64))
        x = mu_n_quantile(self.p, u)
        back = mu_n_cdf(self.p, x)
        assert np.max(np.abs(back - u)) <= 1e-12

    def test_sample_matches_cdf_ks(self):
        # 1e5 inverse-CDF draws against the analytic CDF
        p = self.p
        u = 1.0 - rng.uniform(9, 0, np.arange(10**5, dtype=np.uint64))
        x = mu_n_quantile(p, u)
        res = sps.kstest(x, lambda t: mu_n_cdf(p, t))
        assert res.statistic <= 0.01

    def test_negative_mass_closed_form_vs_quadrature(self):
        for p in (self.p, derive_params(1.1, 4.92, 10**4), derive_params(3.5, 2.0, 500)):
            closed = (p.beta**2 * p.nu / p.n) ** (p.gamma / 2.0)
            assert negative_mass(p) == pytest.approx(closed, rel=1e-14)
            quad_val, _ = integrate.quad(lambda x: mu_n_density(p, x), -np.inf, 0.0)
            assert quad_val == pytest.approx(closed, abs=1e-10)


class TestConversions:
    def setup_method(self):
        self.p = derive_params(2.0, 10.0, 10**4)
        u = 1.0 - rng.uniform(77, 0, np.arange(1000, dtype=np.uint64))
        self.x = mu_n_quantile(self.p, u)

    def test_endpoints(self):
        p = self.p
        assert to_unit_interval(p, p.r_n) == pytest.approx(1.0, abs=1e-14)
        assert to_pareto(p, p.r_n) == pytest.approx(p.beta * p.nu, rel=1e-13)

    def test_kernel_equivalence_across_representations(self):
        p, x = self.p, self.x
        xt = to_unit_interval(p, x)
        y = to_pareto(p, x)
        w0 = w_fermi_dirac(x[:-1], x[1:])
        assert np.max(np.abs(w0 - w_unit_interval(p, xt[:-1], xt[1:]))) <= 1e-12
        assert np.max(np.abs(w0 - w_pareto(p, y[:-1], y[1:]))) <= 1e-12

    def test_frozen_construction_validates(self):
        with pytest.raises(DomainError):
            EnsembleParams(gamma=0.9, nu=1.0, n=10)
