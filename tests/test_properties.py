"""Property test: every documented input gives a finite result or a clear error.

The documented domain is gamma in (1, 1e3], nu in [1e-9, 1e6], n in
[1, 1e18] and k_max in [0, 1000].  A RuntimeWarning (overflow, invalid
value, division by zero) counts as a failure.  The Gibbs entropy bounds
must also keep their order, lower <= upper.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hscm.cli import main
from hscm.entropy import gibbs_entropy_bounds
from hscm.errors import DomainError
from hscm.params import derive_params
from hscm.stats import finite_n_degree_pmf
from hscm.theory import DegreeLaw, expected_avg_degree_finite_n, finite_size_degree_tail

# Each float is drawn both plainly and log-uniformly, so that every decade
# of the domain is reached.
gammas = st.one_of(st.floats(1.0, 1e3, exclude_min=True),
                   st.floats(-9.0, 2.9).map(lambda e: 1.0 + 10.0**e))
nus = st.one_of(st.floats(1e-9, 1e6), st.floats(-9.0, 6.0).map(lambda e: 10.0**e))
sizes = st.integers(1, 10**18)
k_maxes = st.integers(0, 1000)

REPORT_FIELDS = ("sigma", "sigma_rescaled", "gibbs_lower", "gibbs_upper", "s_m",
                 "gibbs_lower_rescaled", "gibbs_upper_rescaled")


@given(gammas, nus, sizes, k_maxes)
@settings(max_examples=500, deadline=None)
# P(D = 0) rounded one ulp above 1 here
@example(gamma=1.0000000000000002, nu=1e-6, n=1, k_max=0)
# gamma times the interval width is 72 to 181 here: the Gibbs upper bound
# fell below the lower when it was n S[M] + C(n,2) sigma[averaged kernel],
# with box means on nodes evenly spaced in x, most of them where the latent
# density is negligible; the nodes in gamma (rho[2] - x) now follow the mass
@example(gamma=1000.0, nu=1.0, n=10**6, k_max=0)
@example(gamma=30.0, nu=1e-9, n=10, k_max=0)
@example(gamma=1000.0, nu=1e-9, n=10**6, k_max=0)
def test_library_outputs_are_finite(gamma, nu, n, k_max):
    p = derive_params(gamma, nu, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pmf = DegreeLaw(p).pmf_array(k_max)
        assert np.all(np.isfinite(pmf)) and np.all((pmf >= 0.0) & (pmf <= 1.0))
        assert pmf.sum() <= 1.0 + 1e-12
        ts = np.geomspace(p.pareto_scale / 4.0, 1.2 * math.sqrt(p.nu * p.n), 20)
        assert np.all(np.isfinite(finite_size_degree_tail(p, ts)))
        assert math.isfinite(expected_avg_degree_finite_n(p))
        fin = finite_n_degree_pmf(p, k_max)
        assert np.all(np.isfinite(fin)) and np.all((fin >= 0.0) & (fin <= 1.0))
        assert fin.sum() <= 1.0 + 1e-12
        try:
            report = gibbs_entropy_bounds(p)
        except DomainError:
            return
        for field in REPORT_FIELDS:
            assert math.isfinite(getattr(report, field)), field
        assert report.gibbs_lower <= report.gibbs_upper


@given(gammas, nus, sizes, k_maxes)
@settings(max_examples=100, deadline=None)
def test_theory_command_exits_0_or_2(tmp_path_factory, gamma, nu, n, k_max):
    out = tmp_path_factory.mktemp("theory")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["theory", "--gamma", repr(gamma), "--nu", repr(nu), "--n", str(n),
                     "--k-max", str(k_max), "--t-points", "20", "--out", str(out)])
    assert code in (0, 2)


@given(gammas, nus, sizes)
@settings(max_examples=100, deadline=None)
def test_entropy_command_exits_0_or_2(tmp_path_factory, gamma, nu, n):
    out = tmp_path_factory.mktemp("entropy")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["entropy", "--gamma", repr(gamma), "--nu", repr(nu), "--sizes", str(n),
                     "--out", str(out)])
    assert code in (0, 2)


@given(gammas, nus, st.integers(1, 3000))
@settings(max_examples=30, deadline=None)
def test_degrees_command_exits_0_or_2(tmp_path_factory, gamma, nu, n):
    out = tmp_path_factory.mktemp("degrees")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["degrees", "--gamma", repr(gamma), "--nu", repr(nu), "--n", str(n),
                     "--seed", "1", "--out", str(out)])
    assert code in (0, 2)
