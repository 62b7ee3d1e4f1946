import math

import numpy as np
import pytest

from oracles import (
    averaged_box_oracle,
    box_average_oracle,
    bracket_bounds,
    classical_entropy_of_sum,
    deviation_log_slope,
    negative_region_entropy,
    nested_expectation,
    quantile,
    refine_doubled,
    rescaled_entropy_series,
    sigma_mpmath,
    sigma_oracle,
    verify_graphon_maximality,
)
from hscm.entropy import (
    PartitionSpec,
    averaged_graphon,
    gibbs_entropy_bounds,
    graphon_entropy,
    interval_masses,
    membership_entropy,
)
from hscm.errors import DomainError
from hscm.graphon import bernoulli_entropy, expectation_of_sum, w_fermi_dirac
from hscm.params import derive_params, mu_n_quantile

G2 = [derive_params(2.0, 10.0, n) for n in (10**3, 10**4, 10**5, 10**6)]


class TestGraphonEntropy:
    def test_constant_half_kernel_gives_log_two(self):
        # harness case for the nested oracle: H(1/2) integrates to log 2
        # times the mass of the square truncated at the 1e-12 quantile
        p = derive_params(2.0, 10.0, 10**4)
        val = nested_expectation(p, lambda s: math.log(2.0), 1e-9, quantile(p, 1e-12))
        assert val == pytest.approx(math.log(2.0), abs=1e-10)

    @pytest.mark.parametrize("p", G2, ids=lambda p: f"n={p.n}")
    def test_matches_independent_oracle(self, p):
        assert graphon_entropy(p) == pytest.approx(sigma_oracle(p), rel=1e-7)

    @pytest.mark.parametrize("gamma,nu", [(1.05, 4.0), (1.1, 4.92), (1.5, 4.0)])
    def test_matches_mpmath_at_large_n(self, gamma, nu):
        # n = 1e9 is where nested double-precision quadrature drifts (~1e-5
        # relative); the 1D route must still meet its rtol of 1e-7
        p = derive_params(gamma, nu, 10**9)
        assert graphon_entropy(p) == pytest.approx(float(sigma_mpmath(p)), rel=1e-7)

    def test_frozen_reference_value(self):
        p = derive_params(2.0, 10.0, 10**6)
        # ~ nu log(n)/n leading order; exact value frozen from the oracle
        assert graphon_entropy(p) == pytest.approx(1.189826407706e-4, rel=1e-9)
        assert graphon_entropy(p) == pytest.approx(p.nu * math.log(p.n) / p.n, rel=0.2)

    @pytest.mark.parametrize("gamma,nu", [(1.1, 4.92), (1.5, 4.0), (3.5, 2.0)])
    def test_other_shapes_match_oracle(self, gamma, nu):
        p = derive_params(gamma, nu, 10**4)
        assert graphon_entropy(p) == pytest.approx(sigma_oracle(p), rel=1e-7)

    def test_classical_kernel_entropy(self):
        for p in (G2[0], G2[2]):
            got = expectation_of_sum(p, classical_entropy_of_sum, 1e-7)
            assert got == pytest.approx(sigma_oracle(p, "classical"), rel=1e-7)

    def test_kernel_gap_shrinks_at_prop_rate(self):
        # |sigma_FD - sigma_CL| follows the gamma = 2 envelope ~ log(n)^3 n^-2;
        # the prefactor settles slowly (2.1 -> 3.2 over these sizes), so the
        # n = 1e3 calibration gets 2.5x headroom.  A genuinely slower decay
        # (e.g. n^-3/2) would overrun this envelope within a decade.
        gaps = []
        rates = []
        for p in G2:
            gaps.append(abs(graphon_entropy(p) -
                            expectation_of_sum(p, classical_entropy_of_sum, 1e-7)))
            rates.append(math.log(p.n) ** 3 / p.n**2)
        const = 2.5 * gaps[0] / rates[0]
        for gap, rate in zip(gaps, rates):
            assert gap <= const * rate

    def test_negative_region_vanishes_fast(self):
        # The x < 0 or y < 0 contribution to sigma is dominated by the
        # s = x + y > 0 part of the mixed strip and scales like
        # polylog(n) * n^-(gamma+1)/2 (measured: log^2 envelope decreasing).
        # That keeps it asymptotically negligible against sigma ~ log(n)/n,
        # which is all the rescaled-entropy limit needs.
        vals = []
        rates = []
        sigmas = []
        for p in G2:
            vals.append(negative_region_entropy(p))
            rates.append(math.log(p.n) ** 2 / p.n ** 1.5)
            sigmas.append(graphon_entropy(p))
        const = 2.0 * vals[0] / rates[0]
        fracs = [v / s for v, s in zip(vals, sigmas)]
        for v, rate in zip(vals, rates):
            assert 0.0 < v <= const * rate
        assert all(a > b for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] < 0.01


class TestRescaledSeries:
    def test_deviations_decrease_and_slope(self):
        series = rescaled_entropy_series(2.0, 10.0, [n for n in (10**3, 10**4, 10**5, 10**6)])
        assert [n for n, _ in series] == [10**3, 10**4, 10**5, 10**6]
        devs = [abs(v - 10.0) for _, v in series]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert -1.5 <= deviation_log_slope(series, 10.0) <= -0.6

    def test_other_shape_same_qualitative_behavior(self):
        series = rescaled_entropy_series(1.5, 4.0, [10**3, 10**4, 10**5])
        devs = [abs(v - 4.0) for _, v in series]
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_sizes_must_increase(self):
        with pytest.raises(DomainError):
            rescaled_entropy_series(2.0, 10.0, [10**4, 10**3])


class TestPartition:
    def test_spec_construction(self):
        p = derive_params(2.0, 10.0, 10**6)
        part = PartitionSpec.from_params(p)
        assert part.m_n == math.ceil(math.log(10**6) ** 2) + 1
        assert part.rho[0] == -np.inf
        assert part.rho[1] == pytest.approx(-p.r_n)
        widths = np.diff(part.rho[1:])
        assert np.allclose(widths, 2 * p.r_n / (part.m_n - 1))
        masses = interval_masses(p, part)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert membership_entropy(p, part) <= math.log(part.m_n)

    def test_requires_positive_boundary(self):
        with pytest.raises(DomainError):
            PartitionSpec.from_params(derive_params(2.0, 16.0, 3))


class TestAveragedGraphon:
    def test_one_box_partition_is_global_mean(self):
        from hscm.graphon import mean_kernel_value

        p = derive_params(2.0, 10.0, 10**3)
        part = PartitionSpec(m_n=2, rho=np.array([-np.inf, -p.r_n, p.r_n]))
        avg = averaged_graphon(p, part, gl_order=40)
        mean = mean_kernel_value(p)
        # the (2,2) box carries almost all the mass and must match E[W]
        assert avg.box_values[1, 1] == pytest.approx(mean, rel=1e-3)
        total = float(avg.masses @ avg.box_values @ avg.masses)
        # Gauss-Legendre on the CDF-mapped unbounded interval is algebraically
        # (not spectrally) convergent, so allow 1e-7 here
        assert total == pytest.approx(mean, rel=1e-7)

    def test_box_values_bracketed_by_kernel_range(self):
        p = derive_params(2.0, 10.0, 10**4)
        part = PartitionSpec.from_params(p)
        avg = averaged_graphon(p, part)
        kmin, kmax = bracket_bounds(avg)
        assert np.all(avg.box_values >= kmin - 1e-12)
        assert np.all(avg.box_values <= kmax + 1e-12)

    def test_box_average_against_dblquad_oracle(self):
        p = derive_params(2.0, 10.0, 10**3)
        part = PartitionSpec.from_params(p)
        avg = averaged_graphon(p, part)
        m = part.m_n
        for s, t in ((1, 1), (m - 1, m - 1), (2, m - 2), (m // 2, m // 2)):
            ref = box_average_oracle(p, part.rho[s], part.rho[s + 1],
                                     part.rho[t], part.rho[t + 1], w_fermi_dirac)
            assert avg.box_values[s, t] == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("gamma,nu", [(2.0, 10.0), (1.1, 4.92)])
    @pytest.mark.parametrize("n", [10**3, 10**5])
    def test_box_sums_match_all_box_oracle(self, gamma, nu, n):
        p = derive_params(gamma, nu, n)
        part = PartitionSpec.from_params(p)
        got = averaged_graphon(p, part).box_values
        ref = averaged_box_oracle(p, part)
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_unequal_finite_widths_rejected(self):
        p = derive_params(2.0, 10.0, 10**3)
        rho = np.array([-np.inf, -p.r_n, -1.0, 0.5, p.r_n])
        with pytest.raises(DomainError):
            averaged_graphon(p, PartitionSpec(m_n=4, rho=rho))

    def test_refinement_decreases_sigma_toward_graphon_entropy(self):
        p = derive_params(2.0, 10.0, 10**4)
        sigma = graphon_entropy(p)
        part = PartitionSpec.from_params(p, m_n=12)
        values = []
        for _ in range(4):
            values.append(averaged_graphon(p, part).sigma())
            part = refine_doubled(part)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert all(v >= sigma - 1e-12 for v in values)
        assert values[-1] == pytest.approx(sigma, rel=0.01)


class TestGibbsBounds:
    def test_report_invariants(self):
        for p in G2:
            rep = gibbs_entropy_bounds(p)
            pairs = 0.5 * p.n * (p.n - 1)
            assert rep.gibbs_lower <= rep.gibbs_upper
            assert rep.sigma > 0.0
            assert rep.s_m <= math.log(rep.partition.m_n)
            # the lower bound is C(n,2) sigma by construction
            assert rep.gibbs_lower == pytest.approx(pairs * rep.sigma, rel=1e-12)

    def test_sandwich_tightens_and_brackets(self):
        reports = [gibbs_entropy_bounds(p) for p in G2]
        widths = [r.gibbs_upper_rescaled - r.gibbs_lower_rescaled for r in reports]
        assert all(a > b for a, b in zip(widths, widths[1:]))
        final = reports[-1]
        assert abs(final.gibbs_lower_rescaled - 10.0) <= 1.5
        assert abs(final.gibbs_upper_rescaled - 10.0) <= 1.5

    def test_upper_excess_vanishes_at_sandwich_rate(self):
        # (n / log n) * (upper / C(n,2) - sigma) -> 0
        vals = []
        for p in G2:
            rep = gibbs_entropy_bounds(p)
            pairs = 0.5 * p.n * (p.n - 1)
            vals.append(p.n / math.log(p.n) * (rep.gibbs_upper / pairs - rep.sigma))
        # dominated by 2 S[M] / log n ~ loglog(n)/log(n): a slow decay
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.75 * vals[0]


class TestMaximality:
    def test_zero_perturbation_is_equality(self):
        p = derive_params(2.0, 10.0, 10**4)
        qs = (np.arange(50) + 0.5) / 50
        xg = mu_n_quantile(p, qs)
        w = w_fermi_dirac(xg[:, None], xg[None, :])
        s0 = float(np.mean(bernoulli_entropy(w)))
        assert float(np.mean(bernoulli_entropy(w + 0.0))) == s0

    def test_random_perturbations_never_increase(self):
        rep = verify_graphon_maximality(derive_params(2.0, 10.0, 10**4),
                                        trials=30, seed=5, grid=120)
        assert rep.violations == 0
        assert rep.max_entropy_gain <= 0.0
        assert np.all((rep.ratios >= 50.0) & (rep.ratios <= 200.0))

    def test_rank_one_projected_perturbation(self):
        p = derive_params(2.0, 10.0, 10**4)
        grid = 100
        qs = (np.arange(grid) + 0.5) / grid
        xg = mu_n_quantile(p, qs)
        w = w_fermi_dirac(xg[:, None], xg[None, :])
        s0 = float(np.mean(bernoulli_entropy(w)))
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(grid)
            v -= v.mean()  # rank-one with zero marginals: (Hv)(Hv)^T
            delta = np.outer(v, v)
            delta = delta - delta.mean(axis=0) - delta.mean(axis=1)[:, None] \
                + delta.mean()
            scale = 0.9 * np.min(np.minimum(w, 1 - w) /
                                 (1e-2 * np.maximum(np.abs(delta), 1e-300)))
            delta *= scale
            for eps in (1e-2, -1e-2, 1e-3, -1e-3):
                s_eps = float(np.mean(bernoulli_entropy(w + eps * delta)))
                assert s_eps <= s0 + 1e-14
