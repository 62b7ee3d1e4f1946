"""Property test: every documented input gives a finite result or a clear error.

The documented domain is gamma in (1, 1e3], nu in [1e-9, 1e6], n in
[1, 1e18] and k_max in [0, 1000].  A RuntimeWarning (overflow, invalid
value, division by zero) counts as a failure.  The Gibbs sandwich order
lower <= upper is not asserted: the averaged graphon under-resolves the
latent density when gamma times the interval width is large, so that
bound can fall below the lower one (e.g. gamma = 1000, nu = 1, n = 1e6).
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hscm.cli import main
from hscm.entropy import gibbs_entropy_bounds
from hscm.errors import DomainError
from hscm.params import derive_params
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
        try:
            report = gibbs_entropy_bounds(p)
        except DomainError:
            return
        for field in REPORT_FIELDS:
            assert math.isfinite(getattr(report, field)), field


@given(gammas, nus, sizes, k_maxes)
@settings(max_examples=100, deadline=None)
def test_theory_command_exits_0_or_2(tmp_path_factory, gamma, nu, n, k_max):
    out = tmp_path_factory.mktemp("theory")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["theory", "--gamma", repr(gamma), "--nu", repr(nu), "--n", str(n),
                     "--k-max", str(k_max), "--t-points", "20", "--out", str(out)])
    assert code in (0, 2)
