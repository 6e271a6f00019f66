"""Mixed binary/quaternary linear codes over Galois rings.

The package builds the chain ring GR(4, m) together with its residue
field, skew polynomial rings under a power of the Frobenius lift, and
the additive codes whose coordinates split into a binary block and a
quaternary block.  On top of that sit standard forms, parity-check
matrices, skew cyclic generator tuples with their cofactors and
spanning sets, and small brute-force oracles used to cross-check the
algebra by enumeration.

Only the oracles need numpy.  Their exports are resolved on first
access (PEP 562), so importing the package, or any of the structural
modules, does not load :mod:`artifact.oracle` or numpy.
"""

from .errors import (DEFAULT_BUDGET, ArtifactError, BudgetExceeded,
                     CheckFailed, ContextMismatch, DivisionByZero,
                     DivisorNotUnitLeading, FrobeniusIncompatible,
                     InvalidArgument, MissingComponent, NotACode,
                     NotBasicIrreducible, NotMonic, NotPrimitive,
                     NotRightDivisible, NotUnit, OrthogonalityCheckFailed,
                     ParseError, ShapeMismatch, TrivialCode)
from .galois import AutomorphismSpec, FieldElem, RingContext, RingElem
from .mixedcode import (CodeType, MixedMatrix, MixedWord,
                        StandardFormResult, inner_product, parity_check,
                        standard_form, syndrome)
from .skewcyclic import (ConditionCheck, SkewGenerators, SpanningSet,
                         ValidationReport, analyse_generators,
                         derive_cofactors, skew_closed,
                         skew_code_cardinality, spanning_set, theta_shift,
                         validate_generators)
from .skewpoly import SkewPoly, right_divides
from .textio import (emit_gens, emit_matrix, int_poly_str, parse_element,
                     parse_gens, parse_int_poly, parse_matrix, parse_poly)

__version__ = "1.0.0"

__all__ = [
    "ArtifactError", "AutomorphismSpec", "BudgetExceeded", "CheckFailed",
    "Classification", "CodeType", "ConditionCheck", "ContextMismatch",
    "DEFAULT_BUDGET", "DivisionByZero", "DivisorNotUnitLeading",
    "EnumeratedCode", "FieldElem", "FrobeniusIncompatible", "InvalidArgument",
    "MissingComponent", "MixedMatrix", "MixedWord", "NotACode",
    "NotBasicIrreducible", "NotMonic", "NotPrimitive", "NotRightDivisible",
    "NotUnit", "OrthogonalityCheckFailed", "ParseError", "RingContext",
    "RingElem", "ShapeMismatch", "SkewGenerators", "SkewPoly", "SpanningSet",
    "StandardFormResult", "TrivialCode", "ValidationReport",
    "analyse_generators", "brute_force_dual", "classify_z4_skew_cyclic",
    "derive_cofactors", "emit_gens", "emit_matrix", "inner_product",
    "int_poly_str", "is_skew_cyclic", "min_hamming_distance", "parity_check",
    "parse_element", "parse_gens", "parse_int_poly", "parse_matrix",
    "parse_poly", "right_divides", "skew_closed", "skew_code_cardinality",
    "span_closure", "spanning_set", "standard_form", "syndrome", "theta_shift",
    "validate_generators",
]

_ORACLE_EXPORTS = frozenset({
    "Classification", "EnumeratedCode", "brute_force_dual",
    "classify_z4_skew_cyclic", "is_skew_cyclic", "min_hamming_distance",
    "span_closure",
})


def __getattr__(name):
    if name in _ORACLE_EXPORTS:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_EXPORTS)
