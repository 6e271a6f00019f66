"""Ring and field arithmetic, context validation, Frobenius action."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artifact import (AutomorphismSpec, FrobeniusIncompatible,
                      InvalidArgument, NotBasicIrreducible, NotMonic,
                      NotPrimitive, NotUnit, RingContext, ShapeMismatch)


class TestContextValidation:
    def test_standard_degree_two_modulus(self, ctx2):
        assert ctx2.m == 2
        assert ctx2.h == (1, 1, 1)

    def test_nonmonic_rejected(self):
        with pytest.raises(NotMonic):
            RingContext(1, (1, 2))

    def test_wrong_degree_rejected(self):
        with pytest.raises(NotMonic):
            RingContext(2, (1, 1))

    def test_reducible_mod2_rejected(self):
        with pytest.raises(NotBasicIrreducible):
            RingContext(2, (1, 0, 1))

    def test_imprimitive_rejected(self):
        # x^4+x^3+x^2+x+1 is irreducible mod 2 but its root has order 5.
        with pytest.raises(NotPrimitive):
            RingContext(4, (1, 1, 1, 1, 1))

    def test_wrong_lift_rejected(self):
        # x^2+3x+1 reduces to x^2+x+1 but xi^2 is not a root of it.
        with pytest.raises(FrobeniusIncompatible):
            RingContext(2, (1, 3, 1))

    def test_unlifted_degree_three_rejected(self):
        with pytest.raises(FrobeniusIncompatible):
            RingContext(3, (1, 1, 0, 1))

    def test_degree_three_lift_accepted(self, ctx3):
        assert ctx3.h == (3, 1, 2, 1)

    def test_degree_one_accepted(self, ctx1):
        assert ctx1.h == (1, 1)

    @pytest.mark.parametrize("m, h", [
        (17, (1, 0, 0, 1) + (0,) * 13 + (1,)),   # x^17+x^3+1
        (17, (1, 1)),                            # not even of degree 17
        (64, (1, 1, 0, 1, 1) + (0,) * 59 + (1,)),  # x^64+x^4+x^3+x+1
    ])
    def test_degree_above_sixteen_rejected_at_once(self, m, h):
        start = time.perf_counter()
        with pytest.raises(InvalidArgument,
                           match="^degree m must be between 1 and 16$"):
            RingContext(m, h)
        assert time.perf_counter() - start < 0.5


class TestRingArithmetic:
    def test_xi_squared(self, ctx2):
        xi = ctx2.ring((0, 1))
        assert xi * xi == ctx2.ring((3, 3))

    def test_xi_cubed_is_one(self, ctx2):
        xi = ctx2.ring((0, 1))
        assert xi * xi * xi == ctx2.ring_one()

    def test_field_generator_relation(self, ctx2):
        b = ctx2.field((0, 1))
        assert b * b == ctx2.field((1, 1))

    def test_char_four(self, ctx2):
        one = ctx2.ring_one()
        assert one + one + one + one == ctx2.ring_zero()

    def test_char_two_in_field(self, ctx2):
        one = ctx2.field_one()
        assert one + one == ctx2.field_zero()

    def test_subtraction_and_negation(self, ctx2):
        a = ctx2.ring((1, 2))
        b = ctx2.ring((3, 3))
        assert (a - b) + b == a
        assert a + (-a) == ctx2.ring_zero()

    def test_degree_one_ring_is_z4(self, ctx1):
        two = ctx1.ring((2,))
        assert two + two == ctx1.ring_zero()
        assert two * two == ctx1.ring_zero()

    def test_mixed_type_operands_rejected(self, ctx2):
        with pytest.raises(Exception):
            ctx2.ring((1,)) + ctx2.field((1,))

    def test_coefficient_vector_longer_than_m_rejected(self, ctx2):
        with pytest.raises(ShapeMismatch):
            ctx2.ring((1, 0, 1))


class TestUnits:
    def test_unit_count(self, ctx2):
        assert ctx2.unit_count() == 12

    def test_unit_iff_nonzero_mod2(self, ctx2):
        for e in ctx2.all_ring_elems():
            assert e.is_unit() == bool(e.reduce_mod2())

    def test_every_unit_has_inverse(self, ctx2):
        one = ctx2.ring_one()
        units = [e for e in ctx2.all_ring_elems() if e.is_unit()]
        assert len(units) == 12
        for u in units:
            assert u * u.inverse() == one

    def test_nonunit_inverse_raises(self, ctx2):
        with pytest.raises(NotUnit):
            ctx2.ring((2, 2)).inverse()

    def test_field_inverses(self, ctx2):
        one = ctx2.field_one()
        for e in ctx2.all_field_elems():
            if e:
                assert e * e.inverse() == one

    def test_degree_three_unit_count(self, ctx3):
        assert ctx3.unit_count() == 7 * 8


class TestReductionAndLift:
    def test_reduce_mod2_is_homomorphism(self, ctx2):
        elems = list(ctx2.all_ring_elems())
        for a in elems:
            for b in elems:
                assert (a + b).reduce_mod2() == \
                    a.reduce_mod2() + b.reduce_mod2()
                assert (a * b).reduce_mod2() == \
                    a.reduce_mod2() * b.reduce_mod2()

    def test_lift_then_reduce_is_identity(self, ctx2):
        for e in ctx2.all_field_elems():
            assert e.lift().reduce_mod2() == e

    def test_halve_doubled_elements(self, ctx2):
        for e in ctx2.all_field_elems():
            doubled = e.lift() + e.lift()
            assert doubled.halve() == e
        with pytest.raises(InvalidArgument):
            ctx2.ring((2, 1)).halve()

    def test_index_round_trip(self, ctx2):
        for i in range(16):
            assert ctx2.ring_index(ctx2.ring_from_index(i)) == i
        for i in range(4):
            assert ctx2.field_index(ctx2.field_from_index(i)) == i


class TestFrobenius:
    def test_action_on_one_plus_xi(self, ctx2):
        autom = AutomorphismSpec(ctx2, 1)
        assert autom.apply(ctx2.ring((1, 1))) == ctx2.ring((0, 3))

    def test_order_is_m(self, ctx2, ctx3):
        for ctx in (ctx2, ctx3):
            autom = AutomorphismSpec(ctx, 1)
            for e in ctx.all_ring_elems():
                assert autom.apply_power(e, ctx.m) == e

    def test_fixes_z4_constants(self, ctx2):
        autom = AutomorphismSpec(ctx2, 1)
        for c in range(4):
            assert autom.apply(ctx2.ring((c,))) == ctx2.ring((c,))

    def test_ring_homomorphism(self, ctx2):
        autom = AutomorphismSpec(ctx2, 1)
        elems = list(ctx2.all_ring_elems())
        for a in elems:
            for b in elems:
                assert autom.apply(a + b) == autom.apply(a) + autom.apply(b)
                assert autom.apply(a * b) == autom.apply(a) * autom.apply(b)

    def test_field_action_is_squaring(self, ctx2):
        autom = AutomorphismSpec(ctx2, 1)
        for e in ctx2.all_field_elems():
            assert autom.apply(e) == e * e

    def test_power_t_equals_m_is_identity(self, ctx2):
        autom = AutomorphismSpec(ctx2, 2)
        for e in ctx2.all_ring_elems():
            assert autom.apply(e) == e

    def test_t_normalised(self, ctx2):
        assert AutomorphismSpec(ctx2, 3).t == 1
        assert AutomorphismSpec(ctx2, 3) == AutomorphismSpec(ctx2, 1)

    def test_nonpositive_t_rejected(self, ctx2):
        with pytest.raises(ValueError):
            AutomorphismSpec(ctx2, 0)

    def test_degree_one_frobenius_is_identity(self, ctx1):
        autom = AutomorphismSpec(ctx1, 1)
        for e in ctx1.all_ring_elems():
            assert autom.apply(e) == e


@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
def test_ring_axioms_degree_three(i, j, k):
    ctx = RingContext(3, (3, 1, 2, 1))
    a, b, c = (ctx.ring_from_index(n) for n in (i, j, k))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(st.integers(0, 63))
def test_frobenius_cubes_fix_degree_three(i):
    ctx = RingContext(3, (3, 1, 2, 1))
    autom = AutomorphismSpec(ctx, 1)
    e = ctx.ring_from_index(i)
    assert autom.apply(autom.apply(autom.apply(e))) == e
