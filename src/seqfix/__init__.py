"""Fixed points of maps from bounded real sequences to the real line.

Weighted sup and power distances on eventually constant sequences, linear
sequence maps with closed-form Lipschitz constants, contraction
certificates, certified fixed-point iteration with a priori error bounds,
diagonal-map and product-space iterations, and finite-truncation studies.
"""

from .maps import (
    EmbeddedMap,
    FiniteArityMap,
    LinearSeqMap,
    SeqMap,
    SupHalfMap,
    embed_finite,
    empirical_lip_lower_bound,
    truncate,
)
from .metrics import (
    WeightSeq,
    dist_p_geom,
    dist_p_weighted,
    dist_sup_geom,
    dist_sup_weighted,
    validate_p_weights,
    validate_sup_weights,
)
from .sequences import BoundedSeq
from .solver import (
    BoundViolationError,
    ContractionCertificate,
    FixedPointSolution,
    IterationTrace,
    PCertificate,
    SeceleanStep,
    SupCertificate,
    TraceStep,
    TruncationReport,
    TruncationRow,
    UncertifiedMapError,
    find_p_certificate,
    find_sup_certificate,
    generalized_iterates,
    lift_step,
    presic_iterates,
    reduce_general_weights,
    secelean_iterates,
    solve_fixed_point,
    sup_certificate_from_p,
    truncation_study,
)

__version__ = "0.1.0"
