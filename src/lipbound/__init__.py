"""Certified Lipschitz bounds for ReLU MLPs.

Upper and lower bounds (and the full eps-margin curve) of the Lipschitz
constant in the induced 1-, 2-, and inf-norms, computed by activation
pattern enumeration or branch-and-bound over an embedded simplex LP
oracle, plus portable MIQCQP model export with an assignment checker.
"""

from .bounds import (
    BoundsReport,
    CurveSegment,
    SearchStats,
    branch_and_bound,
    brute_force_bounds,
    compute_report,
    report_to_dict,
    unconstrained_bound,
)
from .errors import (
    DomainEmptyError,
    DomainFormatError,
    EnumerationGuardError,
    LipboundError,
    ModelFormatError,
    NetworkFormatError,
    NonPolyhedralDomainError,
    SimplexBreakdownError,
    WitnessUnavailableError,
)
from .miqcqp import (
    CheckResult,
    MiqcqpModel,
    Violation,
    assignment_for_pattern,
    build_model,
    check_assignment,
    compute_bigM,
    emit_json,
    emit_lp_text,
    parse_json,
    witness_from_bounds,
)
from .network import (
    ActivationPattern,
    AffineForm,
    AllSpace,
    Box,
    InputDomain,
    L2Ball,
    MlpNetwork,
    Polytope,
    RelaxedPattern,
    affine_preactivations,
    forward,
    jacobian,
    load_domain,
    load_network,
    pattern_of,
    relaxed_jacobian,
)
from .norms import INF, norm_witness, operator_norm, pattern_norm
from .regions import SlackResult, max_slack, region_feasible, witness_at_level
from .sampling import SampleEstimate, pairwise_quotient_estimate, sampled_lower_bound
from .simplex import LinearProgram, LpSolution, lp_solve

__version__ = "0.1.0"

__all__ = [
    "ActivationPattern",
    "AffineForm",
    "AllSpace",
    "BoundsReport",
    "Box",
    "CheckResult",
    "CurveSegment",
    "DomainEmptyError",
    "DomainFormatError",
    "EnumerationGuardError",
    "INF",
    "InputDomain",
    "L2Ball",
    "LinearProgram",
    "LipboundError",
    "LpSolution",
    "MiqcqpModel",
    "MlpNetwork",
    "ModelFormatError",
    "NetworkFormatError",
    "NonPolyhedralDomainError",
    "Polytope",
    "RelaxedPattern",
    "SampleEstimate",
    "SearchStats",
    "SimplexBreakdownError",
    "SlackResult",
    "Violation",
    "WitnessUnavailableError",
    "affine_preactivations",
    "assignment_for_pattern",
    "branch_and_bound",
    "brute_force_bounds",
    "build_model",
    "check_assignment",
    "compute_bigM",
    "compute_report",
    "emit_json",
    "emit_lp_text",
    "forward",
    "jacobian",
    "load_domain",
    "load_network",
    "lp_solve",
    "max_slack",
    "norm_witness",
    "operator_norm",
    "pairwise_quotient_estimate",
    "parse_json",
    "pattern_norm",
    "pattern_of",
    "region_feasible",
    "relaxed_jacobian",
    "report_to_dict",
    "sampled_lower_bound",
    "unconstrained_bound",
    "witness_at_level",
    "witness_from_bounds",
]
