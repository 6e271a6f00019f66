"""Skew cyclic generator tuples, cofactors and spanning sets."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artifact import (AutomorphismSpec, ContextMismatch, MissingComponent,
                      MixedMatrix, MixedWord, NotRightDivisible, RingContext,
                      ShapeMismatch, SkewGenerators, SkewPoly,
                      derive_cofactors, skew_closed, skew_code_cardinality,
                      spanning_set, theta_shift, validate_generators)
from artifact.reference import gens_four_four, gens_seven_seven

_CTXS = {1: RingContext(1, (1, 1)), 2: RingContext(2, (1, 1, 1)),
         3: RingContext(3, (3, 1, 2, 1))}


def word_of(a, b, r, s):
    """The word of ``(a mod x^r-1, b mod x^s-1)``, padded to ``(r, s)``."""
    if r:
        a = a.reduce_mod_xn(r)
    if s:
        b = b.reduce_mod_xn(s)
    return MixedWord(b.autom.ctx, [a.coeff(i) for i in range(r)],
                     [b.coeff(i) for i in range(s)])


def x_times(i, a, b, r, s):
    """The word of ``x^i * (a, b)``, from skew polynomial products."""
    autom = b.autom
    return word_of(SkewPoly.x_power(autom, i, False) * a,
                   SkewPoly.x_power(autom, i, True) * b, r, s)


@st.composite
def words_and_automs(draw):
    ctx = _CTXS[draw(st.sampled_from([1, 2, 3]))]
    autom = AutomorphismSpec(ctx, draw(st.sampled_from([1, 2])))
    r = draw(st.integers(0, 5))
    s = draw(st.integers(0 if r else 1, 5))
    alpha = [ctx.field_from_index(draw(st.integers(0, (1 << ctx.m) - 1)))
             for _ in range(r)]
    beta = [ctx.ring_from_index(draw(st.integers(0, (1 << 2 * ctx.m) - 1)))
            for _ in range(s)]
    return MixedWord(ctx, alpha, beta), autom


class TestShift:
    def test_rotates_and_twists(self, ctx2, autom2):
        w = MixedWord(ctx2,
                      [ctx2.field((1, 1)), ctx2.field((1,))],
                      [ctx2.ring((0, 1)), ctx2.ring((2,)),
                       ctx2.ring((1, 2))])
        out = theta_shift(w, autom2)
        # theta(1+w) = w on the binary side; theta(w) = 3+3*w and
        # theta(1+2*w) = 3+2*w on the quaternary side, then rotate.
        assert out == MixedWord(
            ctx2,
            [ctx2.field((1,)), ctx2.field((0, 1))],
            [ctx2.ring((3, 2)), ctx2.ring((3, 3)), ctx2.ring((2,))])

    def test_order_divides_lcm_of_lengths_and_m(self, ctx2, autom2):
        w = MixedWord.from_ints(ctx2, [1, 0], [1, 2, 0, 0])
        out = w
        for _ in range(4):
            out = theta_shift(out, autom2)
        assert out == w

    @given(words_and_automs())
    def test_x_action_is_the_shift(self, case):
        # x * (a(x), b(x)), reduced mod x^r-1 and x^s-1, is the shift.
        w, autom = case
        a = SkewPoly(autom, w.alpha, False)
        b = SkewPoly(autom, w.beta, True)
        assert theta_shift(w, autom) == x_times(1, a, b, w.r, w.s)

    def test_foreign_automorphism_refused_by_skew_closed(self, ctx2):
        foreign = AutomorphismSpec(_CTXS[3], 1)
        with pytest.raises(ContextMismatch):
            skew_closed(MixedMatrix(ctx2, 1, 2, []), foreign)


class TestGeneratorTuples:
    def test_component_domains_enforced(self, autom2):
        ring_poly = SkewPoly.from_ints(autom2, [1], True)
        field_poly = SkewPoly.from_ints(autom2, [1], False)
        with pytest.raises(ContextMismatch):
            SkewGenerators(autom=autom2, r=2, s=2, f=ring_poly)
        with pytest.raises(ContextMismatch):
            SkewGenerators(autom=autom2, r=2, s=2, g=field_poly)

    def test_dependent_components(self, autom2):
        a = SkewPoly.from_ints(autom2, [1], True)
        with pytest.raises(MissingComponent):
            SkewGenerators(autom=autom2, r=2, s=2, a=a)

    def test_lengths_must_cover_components(self, autom2):
        f = SkewPoly.from_ints(autom2, [1], False)
        with pytest.raises(ShapeMismatch):
            SkewGenerators(autom=autom2, r=0, s=2, f=f)

    def test_case_labels(self, autom2):
        g = SkewPoly.from_ints(autom2, [1, 0, 1], True)
        q = SkewPoly.from_ints(autom2, [1, 0, 1], True)
        assert SkewGenerators(autom=autom2, r=0, s=4, g=g).case == "ii"
        assert SkewGenerators(autom=autom2, r=0, s=4, q=q).case == "i"
        assert SkewGenerators(autom=autom2, r=0, s=4, g=g, q=q).case \
            == "iii"
        f = SkewPoly.from_ints(autom2, [1, 1], False)
        assert SkewGenerators(autom=autom2, r=2, s=0, f=f).case == "binary"


class TestValidation:
    def test_seven_seven_tuple_is_case_ii(self):
        report = validate_generators(gens_seven_seven())
        assert report.case == "ii"
        assert report.valid
        assert any("residual" in n for n in report.notes)

    def test_four_four_tuple_is_case_iii(self):
        report = validate_generators(gens_four_four())
        assert report.case == "iii"
        assert report.valid

    def test_quaternary_only_case_iii_tuple_validates(self, autom2):
        # No binary side: the f divisibilities hold vacuously.
        gens = SkewGenerators(
            autom=autom2, r=0, s=4,
            g=SkewPoly.from_ints(autom2, [1, 0, 1], True),
            q=SkewPoly.from_ints(autom2, [1, 1], True))
        report = validate_generators(gens)
        assert report.case == "iii"
        assert report.valid

    def test_quaternary_only_case_i_tuple_validates(self, autom2):
        gens = SkewGenerators(
            autom=autom2, r=0, s=4,
            q=SkewPoly.from_ints(autom2, [1, 0, 1], True))
        report = validate_generators(gens)
        assert report.case == "i"
        assert report.valid

    def test_failed_conditions_are_named(self, autom2):
        bad = SkewGenerators(
            autom=autom2, r=7, s=7,
            f=SkewPoly.from_ints(autom2, [1, 1, 1], False),
            g=SkewPoly.from_ints(autom2, [1, 2, 3, 1, 1], True))
        report = validate_generators(bad)
        assert not report.valid
        assert "f |r x^r-1 (mod 2)" in report.failed_names()

    def test_oversized_l_is_named(self, autom2):
        gens = gens_seven_seven()
        bad = SkewGenerators(
            autom=autom2, r=7, s=7, f=gens.f,
            l=SkewPoly.from_ints(autom2, [1, 0, 0, 1], False),
            g=gens.g, a=gens.a)
        report = validate_generators(bad)
        assert "deg(l) < deg(f)" in report.failed_names()

    def test_str_report_shows_status(self):
        text = str(validate_generators(gens_seven_seven()))
        assert "case ii" in text and "[ok  ]" in text


class TestCofactors:
    def test_seven_seven_chain(self, autom2):
        full = derive_cofactors(gens_seven_seven())
        assert full.h_f == SkewPoly.from_ints(autom2, [1, 1, 1, 0, 1],
                                              False)
        assert full.h_g == SkewPoly.from_ints(autom2, [3, 2, 3, 1], True)
        assert full.materialized
        assert full.l1 == SkewPoly.from_ints(autom2, [1, 0, 0, 1, 1, 1],
                                             False)
        assert full.q == SkewPoly.from_ints(autom2, [1, 1, 1, 0, 1], True)
        assert full.h_q == SkewPoly.from_ints(autom2, [1, 1, 0, 1], False)

    def test_four_four_chain(self, autom2):
        ctx = autom2.ctx
        full = derive_cofactors(gens_four_four())
        assert full.k == SkewPoly(autom2, [ctx.field((0, 1))], False)
        assert full.h_q == SkewPoly.from_ints(autom2, [1, 0, 1], False)
        assert not full.materialized

    def test_cofactors_multiply_back(self, autom2):
        full = derive_cofactors(gens_seven_seven())
        assert full.h_f * full.f == SkewPoly.x_pow_minus_one(autom2, 7,
                                                             False)
        assert full.h_g * full.g == SkewPoly.x_pow_minus_one(autom2, 7,
                                                             True)

    def test_indivisible_tuple_raises(self, autom2):
        bad = SkewGenerators(
            autom=autom2, r=7, s=7,
            f=SkewPoly.from_ints(autom2, [1, 1, 1], False))
        with pytest.raises(NotRightDivisible):
            derive_cofactors(bad)


class TestSpanningSet:
    def test_row_counts_follow_cofactor_degrees(self):
        ss, mat = spanning_set(derive_cofactors(gens_seven_seven()))
        assert len(ss.s1) == 4 and len(ss.s2) == 3 and len(ss.s3) == 3
        assert len(mat) == 10
        assert mat.r == 7 and mat.s == 7

    def test_first_rows_are_the_generators(self, autom2):
        # Row i of each block is x^i times its template, multiplied out
        # with skew polynomials rather than shifted.
        zero_f = SkewPoly.zero(autom2, False)
        for gens in (gens_seven_seven(), gens_four_four()):
            full = derive_cofactors(gens)
            ss, _ = spanning_set(full)
            templates = [
                (full.f, SkewPoly.zero(autom2, True)),
                (full.l if full.l is not None else zero_f, full.g_plus_2a()),
                (full.l1 if full.l1 is not None else zero_f, 2 * full.q)]
            for block, (a, b) in zip((ss.s1, ss.s2, ss.s3), templates):
                assert block
                for i, row in enumerate(block):
                    assert row == x_times(i, a, b, full.r, full.s)

    def test_later_rows_are_shifts(self, autom2):
        ss, _ = spanning_set(derive_cofactors(gens_seven_seven()))
        for block in (ss.s1, ss.s2, ss.s3):
            for prev, cur in zip(block, block[1:]):
                assert cur == theta_shift(prev, autom2)

    def test_empty_tuple_spans_zero_code(self, autom2):
        gens = SkewGenerators(autom=autom2, r=2, s=2)
        _, mat = spanning_set(gens)
        assert len(mat) == 0
        assert skew_code_cardinality(gens) == 1

    def test_cardinality_formula(self):
        assert skew_code_cardinality(
            derive_cofactors(gens_seven_seven())) == 1 << 26
        # The four-four tuple has dependent spanning rows, so the
        # degree formula overcounts; its true span is 2^14.
        assert skew_code_cardinality(
            derive_cofactors(gens_four_four())) == 1 << 16
