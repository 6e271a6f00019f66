"""Skew cyclic generator tuples, cofactors and spanning sets."""

import pytest

from artifact import (ContextMismatch, MissingComponent, MixedWord,
                      ModulePair, NotRightDivisible, ShapeMismatch,
                      SkewGenerators, SkewPoly, derive_cofactors,
                      from_pair, module_mul, skew_code_cardinality,
                      spanning_set, theta_shift, to_pair,
                      validate_generators)
from artifact.reference import gens_four_four, gens_seven_seven


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

    def test_x_action_is_the_shift(self, ctx2, autom2):
        w = MixedWord(ctx2,
                      [ctx2.field((0, 1)), ctx2.field_zero()],
                      [ctx2.ring((1, 2)), ctx2.ring_zero(),
                       ctx2.ring((3,))])
        x = SkewPoly.x_power(autom2, 1)
        acted = from_pair(module_mul(x, to_pair(w, autom2)))
        assert acted == theta_shift(w, autom2)


class TestModuleStructure:
    def test_pair_round_trip(self, ctx2, autom2):
        w = MixedWord.from_ints(ctx2, [1, 0, 1], [0, 3, 0, 2])
        assert from_pair(to_pair(w, autom2)) == w

    def test_action_is_associative(self, autom2):
        p = ModulePair(SkewPoly.from_ints(autom2, [1, 1], False),
                       SkewPoly.from_ints(autom2, [1, 0, 3], True), 3, 4)
        f = SkewPoly.from_ints(autom2, [0, 1, 2], True)
        g = SkewPoly.from_ints(autom2, [3, 1], True)
        lhs = module_mul(f * g, p)
        rhs = module_mul(f, module_mul(g, p))
        assert from_pair(lhs) == from_pair(rhs)

    def test_action_needs_quaternary_polynomial(self, autom2):
        p = ModulePair(SkewPoly.from_ints(autom2, [1], False),
                       SkewPoly.from_ints(autom2, [1], True), 1, 1)
        with pytest.raises(ContextMismatch):
            module_mul(SkewPoly.from_ints(autom2, [1], False), p)

    def test_projection_keeps_quaternary_side(self, autom2):
        p = ModulePair(SkewPoly.from_ints(autom2, [1, 1], False),
                       SkewPoly.from_ints(autom2, [0, 2], True), 2, 2)
        assert p.b == SkewPoly.from_ints(autom2, [0, 2], True)


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
        gens = gens_seven_seven()
        ss, _ = spanning_set(derive_cofactors(gens))
        assert ss.s1[0] == from_pair(ModulePair(
            gens.f, SkewPoly.zero(autom2, True), 7, 7))
        assert ss.s2[0] == from_pair(ModulePair(
            gens.l, gens.g_plus_2a(), 7, 7))

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
