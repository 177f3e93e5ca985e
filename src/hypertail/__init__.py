"""Vertex percolation on k-uniform hypergraphs: exact oracles, iterative
exposure, concentration bounds and seeded Monte Carlo estimation."""

__version__ = "0.1.0"

from .core import (
    BudgetError,
    Hypergraph,
    HypergraphStats,
    InfeasibleError,
    codegree,
    stats_of,
)
from .generators import (
    GraphSpec,
    complete,
    complete_bipartite,
    disjoint_edges,
    pair_rank,
    pair_unrank,
    random_uniform,
    subgraph_hypergraph,
)
from .oracle import exact_distribution, exact_expectation, exact_variance
from .percolation import (
    STRICT_EPS_RANGE,
    ExposureSchedule,
    PreconditionReport,
    RoundState,
    build_schedule,
    check_preconditions,
    lipschitz_bound,
    run_exposure,
)
from .bounds import (
    MainBound,
    NicenessParams,
    NicenessReport,
    RegimeParams,
    check_nice,
    main_bound,
    mcdiarmid,
    degree_moment_bound,
    regime,
)
from .montecarlo import (
    P4Evidence,
    SubGaussianFit,
    TailEstimate,
    TrialConfig,
    chi_square_two_sample,
    check_degree_moment,
    check_degree_square_sum,
    clopper_pearson,
    edge_count_samples,
    estimate_tail,
    fit_subgaussian,
    verify_p4,
)
from .extensions import (
    ExtensionCount,
    GraphSample,
    RootEmbedding,
    RootedGraph,
    build_rooted,
    count_extensions,
    expected_extensions,
    is_balanced,
    extension_cap_check,
    rooted_graph,
    sample_gnq,
    z_identity_check,
)
from .rng import TrialStream
