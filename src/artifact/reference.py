"""The paper's worked objects and the checks ``verify-paper`` runs on them.

The worked 4x5 matrix over GR(4, 2) with its standard form and parity
check row, and the r = s = 7 and r = s = 4 skew cyclic generator tuples
with their spanning matrices, are written down here once, for
``z24codes verify-paper`` and the tests alike.  They are built from int
and tuple literals through the constructors, never through
:mod:`artifact.textio`, so a parser defect cannot corrupt both the data
and the tests of the parser.  Each builder makes a fresh object per
call; importing the module constructs nothing.
"""

from __future__ import annotations

import functools

from .galois import AutomorphismSpec, RingContext
from .mixedcode import MixedMatrix, MixedWord, parity_check, standard_form
from .skewcyclic import (SkewGenerators, derive_cofactors, spanning_set,
                         validate_generators)
from .skewpoly import SkewPoly, right_divides

__all__ = ["worked_matrix", "worked_standard", "worked_dual_row",
           "gens_seven_seven", "seven_seven_matrix", "gens_four_four",
           "four_four_matrix", "checks"]

# The 10x14 spanning matrix of the seven-seven tuple, entries 0..3.
_SEVEN_SEVEN_ROWS = (
    ((1, 1, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((0, 1, 1, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((0, 0, 1, 1, 0, 1, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((0, 0, 0, 1, 1, 0, 1), (0, 0, 0, 0, 0, 0, 0)),
    ((1, 0, 1, 0, 0, 0, 0), (3, 0, 3, 1, 1, 0, 0)),
    ((0, 1, 0, 1, 0, 0, 0), (0, 3, 0, 3, 1, 1, 0)),
    ((0, 0, 1, 0, 1, 0, 0), (0, 0, 3, 0, 3, 1, 1)),
    ((1, 0, 0, 1, 1, 1, 0), (2, 2, 2, 0, 2, 0, 0)),
    ((0, 1, 0, 0, 1, 1, 1), (0, 2, 2, 2, 0, 2, 0)),
    ((1, 0, 1, 0, 0, 1, 1), (0, 0, 2, 2, 2, 0, 2)),
)


@functools.cache
def _autom() -> AutomorphismSpec:
    return AutomorphismSpec(RingContext(2, (1, 1, 1)), 1)


def _word(alpha, beta) -> MixedWord:
    """Word from coefficient vectors: field entries, then ring entries."""
    ctx = _autom().ctx
    return MixedWord(ctx, [ctx.field(a) for a in alpha],
                     [ctx.ring(b) for b in beta])


def _poly(coeffs, ring: bool) -> SkewPoly:
    """Skew polynomial from ascending coefficients, ints or vectors."""
    autom = _autom()
    make = autom.ctx.ring if ring else autom.ctx.field
    return SkewPoly(autom, [make((c,) if isinstance(c, int) else c)
                            for c in coeffs], ring)


def worked_matrix() -> MixedMatrix:
    """The worked 4x5 generator matrix, r = 2, s = 3."""
    return MixedMatrix.from_rows([
        _word([(1,), (1, 1)], [(2, 2), (2,), (2,)]),
        _word([(0, 1), (0,)], [(0, 2), (0,), (2,)]),
        _word([(0, 1), (1,)], [(2, 1), (1, 3), (0,)]),
        _word([(0,), (1, 1)], [(0, 2), (2,), (1,)]),
    ])


def worked_standard() -> MixedMatrix:
    """Standard form of :func:`worked_matrix`, type (2,3;2;2,0)."""
    return MixedMatrix.from_rows([
        _word([(1,), (0,)], [(0,), (0,), (0, 2)]),
        _word([(0,), (1,)], [(0,), (0,), (2, 2)]),
        _word([(0,), (0,)], [(1,), (0,), (0, 3)]),
        _word([(0,), (0,)], [(0,), (1,), (0,)]),
    ])


def worked_dual_row() -> MixedWord:
    """The one parity-check row of the worked code, ``w 1+w | w 0 1``."""
    return _word([(0, 1), (1, 1)], [(0, 1), (0,), (1,)])


def gens_seven_seven() -> SkewGenerators:
    """The r = s = 7 tuple (f, l, g, a), case ii."""
    return SkewGenerators(
        autom=_autom(), r=7, s=7,
        f=_poly([1, 1, 0, 1], False), l=_poly([1, 0, 1], False),
        g=_poly([1, 2, 3, 1, 1], True), a=_poly([3, 1], True))


def seven_seven_matrix() -> MixedMatrix:
    """The 10x14 spanning matrix of :func:`gens_seven_seven`."""
    ctx = _autom().ctx
    return MixedMatrix.from_rows(
        [MixedWord.from_ints(ctx, al, be) for al, be in _SEVEN_SEVEN_ROWS])


def gens_four_four() -> SkewGenerators:
    """The r = s = 4 tuple (f, l, l1, g, a, q), case iii."""
    return SkewGenerators(
        autom=_autom(), r=4, s=4,
        f=_poly([(0, 1), (1, 1), 1], False), l=_poly([1], False),
        l1=_poly([(0, 1), (0, 1)], False), g=_poly([1, 0, 1], True),
        a=_poly([(0, 1)], True), q=_poly([1, 0, 1], True))


def four_four_matrix() -> MixedMatrix:
    """The 6x8 spanning matrix of :func:`gens_four_four`."""
    x1, x2 = (0, 1), (1, 1)
    return MixedMatrix.from_rows([
        _word([x1, x2, (1,), (0,)], [(0,)] * 4),
        _word([(0,), x2, x1, (1,)], [(0,)] * 4),
        _word([(1,), (0,), (0,), (0,)], [(1, 2), (0,), (1,), (0,)]),
        _word([(0,), (1,), (0,), (0,)], [(0,), (3, 2), (0,), (1,)]),
        _word([x1, x1, (0,), (0,)], [(2,), (0,), (2,), (0,)]),
        _word([(0,), x2, x2, (0,)], [(0,), (2,), (0,), (2,)]),
    ])


def checks():
    """The ``verify-paper`` entries, as ``(name, compute, expected)``.

    A check passes when ``compute()`` equals ``expected``.  Only
    constructors run outside ``compute``, so an error fails one check.
    Values several checks share are computed once, on first use.
    """
    autom = _autom()
    ctx, R = autom.ctx, autom.ctx.ring
    fx = _poly([0, (0, 1)], True)
    gx = _poly([0, (1, 1)], True)
    sf = functools.cache(lambda: standard_form(worked_matrix()))
    dual = functools.cache(lambda: parity_check(sf()))
    full77 = functools.cache(lambda: derive_cofactors(gens_seven_seven()))
    full44 = functools.cache(lambda: derive_cofactors(gens_four_four()))
    xn = functools.partial(SkewPoly.x_pow_minus_one, autom)

    def divide(n, den):
        quo, rem = xn(n, den.ring).right_divmod(den)
        return rem.is_zero, quo

    def dual_type():
        dt = sf().code_type.dual()
        return str(dt), dt.cardinality(2)

    def brute_dual():
        from .oracle import brute_force_dual, span_closure
        found = brute_force_dual(span_closure(sf().g_std))
        return len(found), found == span_closure(dual())

    def validate(gens):
        rep = validate_generators(gens())
        return rep.valid, rep.case

    return [
        ("context accepts m=2, h=1+x+x^2", lambda: ctx.m, 2),
        ("(1+w)*w^2 equals 3*w",
         lambda: R((1, 1)) * R((0, 1)) * R((0, 1)), R((0, 3))),
        ("frobenius maps 1+w to 3*w",
         lambda: autom.apply(R((1, 1))), R((0, 3))),
        ("skew product (w)*x times (1+w)*x is (1+w)*x^2",
         lambda: str(fx * gx), "(1+w)*x^2"),
        ("skew product (1+w)*x times (w)*x is (3*w)*x^2",
         lambda: str(gx * fx), "(3*w)*x^2"),
        ("the two skew products differ", lambda: fx * gx == gx * fx, False),
        ("binary cofactor of 1+x+x^3 in x^7-1 is 1+x+x^2+x^4",
         lambda: divide(7, _poly([1, 1, 0, 1], False)),
         (True, _poly([1, 1, 1, 0, 1], False))),
        ("quaternary cofactor of 1+x^2 in x^4-1 is 3+x^2",
         lambda: divide(4, _poly([1, 0, 1], True)),
         (True, _poly([3, 0, 1], True))),
        ("3+x right-divides x^7-1",
         lambda: right_divides(_poly([3, 1], True), xn(7, True)), True),
        ("1+(2*w)*x+x^2 right-divides x^4-1",
         lambda: right_divides(_poly([1, (0, 2), 1], True), xn(4, True)),
         True),
        ("reference 4x5 matrix reduces to its standard form, type "
         "(2,3;2;2,0)", lambda: (sf().g_std, str(sf().code_type)),
         (worked_standard(), "(2,3;2;2,0)")),
        ("type (2,3;2;2,0) counts 4096 words at m=2",
         lambda: sf().code_type.cardinality(2), 4096),
        ("dual type is (2,3;0;1,0) with 16 words", dual_type,
         ("(2,3;0;1,0)", 16)),
        ("derived dual row is w 1+w | w 0 1", lambda: dual().rows,
         (worked_dual_row(),)),
        ("brute-force dual equals the span of the derived row", brute_dual,
         (16, True)),
        ("seven-seven generator tuple validates as case ii",
         lambda: validate(gens_seven_seven), (True, "ii")),
        ("seven-seven cofactors and residual row match",
         lambda: (full77().h_f, full77().h_g, full77().l1, full77().q),
         (_poly([1, 1, 1, 0, 1], False), _poly([3, 2, 3, 1], True),
          _poly([1, 0, 0, 1, 1, 1], False), _poly([1, 1, 1, 0, 1], True))),
        ("seven-seven spanning matrix matches all 10 rows",
         lambda: spanning_set(full77())[1], seven_seven_matrix()),
        ("four-four generator tuple validates as case iii",
         lambda: validate(gens_four_four), (True, "iii")),
        ("four-four cofactors k and h_q match",
         lambda: (full44().k, full44().h_q),
         (_poly([(0, 1)], False), _poly([1, 0, 1], False))),
        ("four-four spanning matrix matches all 6 rows",
         lambda: spanning_set(full44())[1], four_four_matrix()),
    ]
