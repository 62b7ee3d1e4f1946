import warnings

import numpy as np
import pytest

from oracles import gauss_legendre_mpmath
from hscm.errors import QuadratureError
from hscm.quadrature import _legendre, quad_checked


def test_failure_names_interval_without_integration_warning():
    # sin(1/x) oscillates without bound at 0, so the error estimate misses
    # the tolerance; only the QuadratureError may surface, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=r"on \[0\.0, 1\.0\]"):
            quad_checked(lambda x: np.sin(1.0 / x), 0.0, 1.0,
                         rtol=1e-14)


@pytest.mark.parametrize("order", [10, 16, 20, 512])
def test_gauss_legendre_rule_matches_mpmath(order):
    x, w = _legendre(order)
    ref_x, ref_w = gauss_legendre_mpmath(order)
    assert np.max(np.abs(x - ref_x)) <= 2e-16
    assert np.max(np.abs(w / ref_w - 1.0)) <= 1e-12
