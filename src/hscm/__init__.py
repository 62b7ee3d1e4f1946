"""Sparse power-law random graphs with latent hyperparameters.

Samplers (equilibrium and growing), closed-form degree theory, and
graphon/Gibbs entropy numerics for the hypersoft configuration model.
"""

from .entropy import (
    AveragedGraphon,
    EntropyReport,
    PartitionSpec,
    averaged_graphon,
    gibbs_entropy_bounds,
    graphon_entropy,
)
from .errors import (
    ConvergenceError,
    DomainError,
    EdgeListParseError,
    HscmError,
    InsufficientTailError,
    ParseError,
    QuadratureError,
    SizeGuardError,
)
from .graphon import (
    bernoulli_entropy,
    expected_degree_fn,
    w_fermi_dirac,
)
from .params import (
    EnsembleParams,
    derive_params,
    mu_n_quantile,
)
from .sampler import (
    Graph,
    GrowthState,
    sample_coordinates,
    sample_graph_fast,
    sample_graph_growing,
    sample_graph_naive,
)
from .scm import ScmInstance, hscm_to_scm, solve_scm
from .stats import (
    ComparisonReport,
    DegreeHistogram,
    compare_to_theory,
    degree_histogram,
    finite_n_degree_pmf,
    ingest_edge_list,
    tail_exponent_fit,
)
from .theory import (
    DegreeLaw,
    expected_avg_degree_finite_n,
    finite_size_degree_tail,
)

__version__ = "0.1.0"
