"""Sparse power-law random graphs with latent hyperparameters.

Samplers (equilibrium and growing), closed-form degree theory, and
graphon/Gibbs entropy numerics for the hypersoft configuration model.

Every BLAS call here is vector-sized, so unless the caller has chosen
otherwise (or numpy is loaded already) OpenBLAS gets one thread: a second
one only busy-waits, ~0.1 s of CPU in a short command.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .entropy import (
    EntropyReport,
    averaged_graphon,
    gibbs_entropy_bounds,
    graphon_entropy,
)
from .errors import (
    ConvergenceError,
    DomainError,
    HscmError,
    InsufficientTailError,
    ParseError,
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
    sample_coordinates,
    sample_graph_fast,
    sample_graph_growing,
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
