import numpy as np
import pytest

from oracles import gauss_legendre_mpmath
from hscm.quadrature import _legendre


@pytest.mark.parametrize("order", [10, 16, 20, 512])
def test_gauss_legendre_rule_matches_mpmath(order):
    x, w = _legendre(order)
    ref_x, ref_w = gauss_legendre_mpmath(order)
    assert np.max(np.abs(x - ref_x)) <= 2e-16
    assert np.max(np.abs(w / ref_w - 1.0)) <= 1e-12
