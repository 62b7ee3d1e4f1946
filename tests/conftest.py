import pytest

from hscm.params import derive_params
from hscm.sampler import sample_replica
from hscm.stats import degree_histogram

# Master seed for every statistical test; replica streams derive from it.
ACCEPT_SEED = 20260810


@pytest.fixture(scope="session")
def hist_g2_e4():
    p = derive_params(2.0, 10.0, 10**4)
    return degree_histogram(sample_replica(p, ACCEPT_SEED, r) for r in range(100))


@pytest.fixture(scope="session")
def hist_g2_e5():
    p = derive_params(2.0, 10.0, 10**5)
    return degree_histogram(sample_replica(p, ACCEPT_SEED, r) for r in range(100))


@pytest.fixture(scope="session")
def hist_g11_e4():
    p = derive_params(1.1, 4.92, 10**4)
    return degree_histogram(sample_replica(p, ACCEPT_SEED, r) for r in range(100))


@pytest.fixture(scope="session")
def hist_g11_e5():
    p = derive_params(1.1, 4.92, 10**5)
    return degree_histogram(sample_replica(p, ACCEPT_SEED, r) for r in range(100))
