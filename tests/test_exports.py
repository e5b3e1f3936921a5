"""The names the ``seqfix`` package exports, so that a dropped or an added import is seen."""

import types

import seqfix

EXPORTS = {
    "BoundViolationError", "BoundedSeq", "ContractionCertificate", "EmbeddedMap", "FiniteArityMap",
    "FixedPointSolution", "IterationTrace", "LinearSeqMap", "PCertificate", "SeceleanStep", "SeqMap",
    "SupCertificate", "SupHalfMap", "TraceStep", "TruncationReport", "TruncationRow", "UncertifiedMapError",
    "WeightSeq", "dist_p_geom", "dist_p_weighted", "dist_sup_geom", "dist_sup_weighted", "embed_finite",
    "empirical_lip_lower_bound", "find_p_certificate", "find_sup_certificate", "generalized_iterates",
    "lift_step", "presic_iterates", "reduce_general_weights", "secelean_iterates", "solve_fixed_point",
    "sup_certificate_from_p", "truncate", "truncation_study", "validate_p_weights", "validate_sup_weights",
}


def test_seqfix_exports_exactly_its_public_names():
    # submodules such as seqfix.solver are attributes too, once imported, but no export
    public = {name for name, value in vars(seqfix).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTS
    namespace = {}
    exec("from seqfix import *", namespace)
    assert EXPORTS <= set(namespace)
