"""Coarse Ricci curvature and heat-flow certificates for directed graphs.

The pipeline: build a strongly connected weighted digraph, take the
random walk and its stationary measure, symmetrize into a reversible
kernel, and study the induced Laplacian. Curvature between two
vertices is computed exactly by linear programming; positive curvature
is then certified to propagate into Lipschitz contraction of the heat
flow, Gaussian-type concentration of the stationary measure, and
transport inequalities against entropy and Fisher information.

__all__ holds the README's library API, what the CLI uses and what the
tests import; every other name stays in its submodule.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .certificates import InequalityCertificate, certificate_from_samples
from .chain import (
    MarkovData,
    gamma,
    inner,
    markov_data,
    mean,
    mean_kernel,
    perron_measure,
    transition_kernel,
)
from .concentration import (
    DensityFixture,
    centered_lipschitz_samples,
    check_bobkov_goetze,
    check_exp_chain_rule_bound,
    check_exp_square_chain_rule_bound,
    check_info_to_entropy,
    check_laplace_bound,
    check_transport_entropy,
    check_transport_information,
    check_transport_l1_bound,
    concentration_tail,
    random_densities,
)
from .curvature import (
    curvature_matrix,
    kappa_limit,
    kappa_lp,
    smoothed_measure,
)
from .digraph import (
    DirectedGraph,
    DistanceMatrix,
    build_graph,
    distances,
    lipschitz_constant,
    load_graph,
    sample_lipschitz_functions,
)
from .errors import (
    EpsOutOfRangeError,
    GraphCurvatureError,
    HypothesisUnmetError,
    MarginalMismatchError,
    NegativeTimeError,
    NegativeWeightError,
    NotLipschitzError,
    NotStronglyConnectedError,
    NumericsError,
    ParseError,
    SameVertexError,
    SelfLoopError,
)
from .heat import (
    curvature_time_limit,
    heat_kernel_matrix,
    heat_operator,
    verify_gradient_estimate,
    verify_transport_contraction,
)
from .lp import solve_lp, solve_transport
from .report import RunConfig, VerificationReport, render_json
from .transport import kantorovich_dual, wasserstein

__all__ = [
    "DensityFixture",
    "DirectedGraph",
    "DistanceMatrix",
    "EpsOutOfRangeError",
    "GraphCurvatureError",
    "HypothesisUnmetError",
    "InequalityCertificate",
    "MarginalMismatchError",
    "MarkovData",
    "NegativeTimeError",
    "NegativeWeightError",
    "NotLipschitzError",
    "NotStronglyConnectedError",
    "NumericsError",
    "ParseError",
    "RunConfig",
    "SameVertexError",
    "SelfLoopError",
    "VerificationReport",
    "build_graph",
    "centered_lipschitz_samples",
    "certificate_from_samples",
    "check_bobkov_goetze",
    "check_exp_chain_rule_bound",
    "check_exp_square_chain_rule_bound",
    "check_info_to_entropy",
    "check_laplace_bound",
    "check_transport_entropy",
    "check_transport_information",
    "check_transport_l1_bound",
    "concentration_tail",
    "curvature_matrix",
    "curvature_time_limit",
    "distances",
    "gamma",
    "heat_kernel_matrix",
    "heat_operator",
    "inner",
    "kantorovich_dual",
    "kappa_limit",
    "kappa_lp",
    "lipschitz_constant",
    "load_graph",
    "markov_data",
    "mean",
    "mean_kernel",
    "perron_measure",
    "random_densities",
    "render_json",
    "sample_lipschitz_functions",
    "smoothed_measure",
    "solve_lp",
    "solve_transport",
    "transition_kernel",
    "verify_gradient_estimate",
    "verify_transport_contraction",
    "wasserstein",
]
