import numpy as np
import pytest

from hscm import rng, sampler
from hscm.params import derive_params
from hscm.stats import DegreeHistogram

# Master seed for every statistical test; replica streams derive from it.
ACCEPT_SEED = 20260810


def replica_graph(p, master_seed, index, variant="fast"):
    coord_seed = rng.subseed(master_seed, rng.TAG_REPLICA, 2 * index)
    edge_seed = rng.subseed(master_seed, rng.TAG_REPLICA, 2 * index + 1)
    if variant == "growing":
        graph, _ = sampler.sample_graph_growing(p, coord_seed)
        return graph
    coords = sampler.sample_coordinates(p, coord_seed)
    if variant == "naive":
        return sampler.sample_graph_naive(coords, edge_seed)
    return sampler.sample_graph_fast(coords, edge_seed)


def pooled_histogram(gamma, nu, n, replicas, master_seed, variant="fast"):
    """Stream replica degree counts into one histogram (graphs are not kept)."""
    p = derive_params(gamma, nu, n)
    per_graph_counts = []
    edges = []
    for r in range(replicas):
        g = replica_graph(p, master_seed, r, variant)
        per_graph_counts.append(np.bincount(g.degrees()))
        edges.append(g.num_edges)
    kmax = max(len(c) for c in per_graph_counts)
    counts = np.zeros(kmax, dtype=np.int64)
    for c in per_graph_counts:
        counts[: len(c)] += c
    return DegreeHistogram(counts=counts, n=n, n_graphs=replicas,
                           edges_per_graph=np.array(edges, dtype=np.int64))


@pytest.fixture(scope="session")
def hist_g2_e4():
    return pooled_histogram(2.0, 10.0, 10**4, 100, ACCEPT_SEED)


@pytest.fixture(scope="session")
def hist_g2_e5():
    return pooled_histogram(2.0, 10.0, 10**5, 100, ACCEPT_SEED)


@pytest.fixture(scope="session")
def hist_g11_e4():
    return pooled_histogram(1.1, 4.92, 10**4, 100, ACCEPT_SEED)


@pytest.fixture(scope="session")
def hist_g11_e5():
    return pooled_histogram(1.1, 4.92, 10**5, 100, ACCEPT_SEED)
