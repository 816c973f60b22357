"""Slack-matrix toolkit for self-dual polyhedral cones.

Builds slack matrices of V-represented cones, decides self-duality through
PSD slack scalings, certifies extreme rays of the doubly nonnegative cone,
applies the structural completely-positive(-semidefinite) exclusions, and
searches for self-dual realizations of combinatorial supports by spectral and
semidefinite starts, each finished by Gauss-Newton rank refinement.
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, ParseError, PreconditionError
from .linalg import (
    EigenDecomposition,
    low_rank_project,
    null_space,
    numeric_rank,
    psd_project,
    sym_eigen,
)
from .geometry import (
    PolyhedralCone,
    SlackMatrix,
    cone_from_factorization,
    cone_over_polytope,
    dual_cone,
    extreme_rays,
    facet_normals,
    is_full_dimensional,
    is_pointed,
    load_cone,
    load_matrix,
    load_support,
    save_cone,
    save_matrix,
    save_support,
    slack_matrix,
    slack_necessary_check,
)
from .selfdual import (
    PsdSlackCertificate,
    find_psd_scaling,
    is_irreducible,
    is_self_dual,
    is_simplicial,
)
from .dnn import (
    ExtremalityReport,
    SlackVerdicts,
    classify_psd_slack,
    dnn5_classify,
    dnn_extremality,
    is_dnn,
    verify_congruence,
)
from .analysis import analyze_matrix
from .patterns import SupportPattern
from .search import (
    Realization,
    SearchParams,
    extract_realization,
    randomized_retry,
    rank_refine,
    run_pipeline,
    sdp_feasibility,
    sisd_check,
    verify_realization,
)

__all__ = [
    "__version__",
    "ConvergenceError",
    "ParseError",
    "PreconditionError",
    "EigenDecomposition",
    "sym_eigen",
    "numeric_rank",
    "null_space",
    "psd_project",
    "low_rank_project",
    "PolyhedralCone",
    "SlackMatrix",
    "facet_normals",
    "dual_cone",
    "extreme_rays",
    "slack_matrix",
    "slack_necessary_check",
    "cone_over_polytope",
    "cone_from_factorization",
    "is_pointed",
    "is_full_dimensional",
    "save_cone",
    "load_cone",
    "save_matrix",
    "load_matrix",
    "save_support",
    "load_support",
    "PsdSlackCertificate",
    "find_psd_scaling",
    "is_self_dual",
    "is_irreducible",
    "is_simplicial",
    "ExtremalityReport",
    "SlackVerdicts",
    "is_dnn",
    "dnn_extremality",
    "dnn5_classify",
    "classify_psd_slack",
    "verify_congruence",
    "analyze_matrix",
    "SupportPattern",
    "SearchParams",
    "Realization",
    "sisd_check",
    "sdp_feasibility",
    "randomized_retry",
    "rank_refine",
    "extract_realization",
    "verify_realization",
    "run_pipeline",
]
