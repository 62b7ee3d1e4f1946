import math
import warnings

import pytest

from hscm.errors import QuadratureError
from hscm.quadrature import quad_checked


def test_failure_names_interval_without_integration_warning():
    # sin(1/x) oscillates without bound at 0: scipy warns and its error
    # estimate misses the tolerance; only the QuadratureError may surface
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=r"on \[0\.0, 1\.0\]"):
            quad_checked(lambda x: math.sin(1.0 / x) if x else 0.0, 0.0, 1.0,
                         rtol=1e-14)
