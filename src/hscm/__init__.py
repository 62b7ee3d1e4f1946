"""Sparse power-law random graphs with latent hyperparameters.

Samplers (equilibrium and growing), closed-form degree theory, and
graphon/Gibbs entropy numerics for the hypersoft configuration model.
"""

from .entropy import (
    AveragedGraphon,
    EntropyReport,
    MaximalityReport,
    PartitionSpec,
    averaged_graphon,
    gibbs_entropy_bounds,
    graphon_entropy,
    rescaled_entropy_series,
    verify_graphon_maximality,
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
    KernelKind,
    bernoulli_entropy,
    expected_degree_fn,
    omega_n,
    w_classical,
    w_fermi_dirac,
    w_pareto,
    w_unit_interval,
)
from .params import (
    EnsembleParams,
    Representation,
    convert_coordinate,
    derive_params,
    mu_n_cdf,
    mu_n_density,
    mu_n_quantile,
)
from .sampler import (
    CoordinateSample,
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
    tail_exponent,
    tail_exponent_fit,
)
from .theory import (
    DegreeLaw,
    ParetoLaw,
    expected_avg_degree_finite_n,
    finite_size_degree_tail,
    pareto_tail,
)

__version__ = "0.1.0"
