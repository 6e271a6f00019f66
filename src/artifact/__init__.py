"""Mixed binary/quaternary linear codes over Galois rings.

The package builds the chain ring GR(4, m) together with its residue
field, skew polynomial rings under a power of the Frobenius lift, and
the additive codes whose coordinates split into a binary block and a
quaternary block.  On top of that sit standard forms, parity-check
matrices, skew cyclic generator tuples with their cofactors and
spanning sets, and small brute-force oracles used to cross-check the
algebra by enumeration.

``_EXPORTS`` lists each public name once, under the module that
defines it.  A name, or a module name from the table, resolves on first
access (PEP 562) by importing that module, so ``import artifact``
compiles no submodule: ``artifact.RingContext`` loads only
:mod:`artifact.errors` and :mod:`artifact.galois`, and numpy, which
only the oracles need, loads with the first oracle name.
"""

__version__ = "1.0.0"

_EXPORTS = {
    "errors": (
        "DEFAULT_BUDGET", "ArtifactError", "NotMonic", "NotBasicIrreducible",
        "NotPrimitive", "FrobeniusIncompatible", "ContextMismatch",
        "NotUnit", "InvalidArgument", "ShapeMismatch", "DivisionByZero",
        "DivisorNotUnitLeading", "OrthogonalityCheckFailed",
        "MissingComponent", "NotRightDivisible", "CheckFailed",
        "BudgetExceeded", "NotACode", "TrivialCode", "ParseError"),
    "galois": ("RingContext", "RingElem", "FieldElem", "AutomorphismSpec",
               "int_poly_str"),
    "mixedcode": ("MixedWord", "MixedMatrix", "CodeType",
                  "StandardFormResult", "inner_product", "standard_form",
                  "syndrome", "parity_check"),
    "skewcyclic": (
        "SkewGenerators", "ConditionCheck", "ValidationReport",
        "SpanningSet", "theta_shift", "skew_closed", "analyse_generators",
        "validate_generators", "derive_cofactors", "spanning_set",
        "skew_code_cardinality"),
    "skewpoly": ("SkewPoly", "right_divides"),
    "textio": ("parse_element", "parse_poly", "parse_int_poly",
               "parse_matrix", "parse_gens", "emit_matrix", "emit_gens"),
    "oracle": ("EnumeratedCode", "span_closure", "brute_force_dual",
               "is_skew_cyclic", "classify_z4_skew_cyclic", "Classification",
               "min_hamming_distance"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name == module or name in names:
            loaded = __import__(module, globals(), level=1)
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
