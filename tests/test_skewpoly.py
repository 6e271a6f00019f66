"""Skew polynomial arithmetic and right division."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (AutomorphismSpec, ContextMismatch, DivisionByZero,
                      DivisorNotUnitLeading, InvalidArgument, RingContext,
                      SkewPoly, right_divides)


def ring_poly(autom, max_deg=5):
    ctx = autom.ctx
    n = 4 ** ctx.m
    return st.lists(st.integers(0, n - 1), max_size=max_deg + 1).map(
        lambda idx: SkewPoly(autom, [ctx.ring_from_index(i) for i in idx],
                             True))


def test_noncommutative_product_pair(autom2):
    ctx = autom2.ctx
    f = SkewPoly(autom2, [ctx.ring_zero(), ctx.ring((0, 1))], True)
    g = SkewPoly(autom2, [ctx.ring_zero(), ctx.ring((1, 1))], True)
    fg = f * g
    gf = g * f
    assert fg == SkewPoly(autom2, [ctx.ring_zero(), ctx.ring_zero(),
                                   ctx.ring((1, 1))], True)
    assert gf == SkewPoly(autom2, [ctx.ring_zero(), ctx.ring_zero(),
                                   ctx.ring((0, 3))], True)
    assert fg != gf


def test_coefficients_pass_through_theta(autom2):
    ctx = autom2.ctx
    x = SkewPoly.x_power(autom2, 1)
    a = SkewPoly(autom2, [ctx.ring((1, 1))], True)
    assert x * a == SkewPoly(autom2, [ctx.ring_zero(), ctx.ring((0, 3))],
                             True)
    assert a * x == SkewPoly(autom2, [ctx.ring_zero(), ctx.ring((1, 1))],
                             True)


def test_trailing_zeros_stripped(autom2):
    ctx = autom2.ctx
    p = SkewPoly(autom2, [ctx.ring_one(), ctx.ring_zero()], True)
    assert p.degree == 0
    assert SkewPoly.zero(autom2).degree == float("-inf")


def test_coeff_beyond_degree_is_zero(autom2):
    p = SkewPoly.from_ints(autom2, [1, 2])
    assert p.coeff(5) == p.autom.ctx.ring_zero()


def test_int_coercion(autom2):
    p = SkewPoly.from_ints(autom2, [1, 1])
    assert p + 3 == SkewPoly.from_ints(autom2, [0, 1])
    assert 2 * p == SkewPoly.from_ints(autom2, [2, 2])


def test_mixed_domains_rejected(autom2):
    r = SkewPoly.from_ints(autom2, [1], True)
    f = SkewPoly.from_ints(autom2, [1], False)
    with pytest.raises(ContextMismatch):
        r + f


class TestRightDivision:
    def test_binary_factorisation_of_x7_minus_one(self, autom2):
        num = SkewPoly.x_pow_minus_one(autom2, 7, False)
        den = SkewPoly.from_ints(autom2, [1, 1, 0, 1], False)
        quo, rem = num.right_divmod(den)
        assert rem.is_zero
        assert quo == SkewPoly.from_ints(autom2, [1, 1, 1, 0, 1], False)
        assert quo * den == num

    def test_quaternary_factorisation_of_x4_minus_one(self, autom2):
        num = SkewPoly.x_pow_minus_one(autom2, 4, True)
        den = SkewPoly.from_ints(autom2, [1, 0, 1], True)
        quo, rem = num.right_divmod(den)
        assert rem.is_zero
        assert quo == SkewPoly.from_ints(autom2, [3, 0, 1], True)
        assert quo * den == num

    def test_remainder_degree_bound(self, autom2):
        num = SkewPoly.from_ints(autom2, [1, 3, 0, 2, 1])
        den = SkewPoly.from_ints(autom2, [2, 1])
        quo, rem = num.right_divmod(den)
        assert quo * den + rem == num
        assert rem.is_zero or rem.degree < den.degree

    def test_division_by_zero(self, autom2):
        with pytest.raises(DivisionByZero):
            SkewPoly.one(autom2).right_divmod(SkewPoly.zero(autom2))

    def test_nonunit_leading_divisor_rejected(self, autom2):
        den = SkewPoly.from_ints(autom2, [1, 2])
        with pytest.raises(DivisorNotUnitLeading):
            SkewPoly.one(autom2).right_divmod(den)

    def test_right_divides_predicate(self, autom2):
        num = SkewPoly.x_pow_minus_one(autom2, 7, True)
        assert right_divides(SkewPoly.from_ints(autom2, [3, 1]), num)
        assert not right_divides(SkewPoly.from_ints(autom2, [1, 1]), num)


def test_x_power_minus_one_central_when_theta_power_is_identity(autom2):
    ctx = autom2.ctx
    mod4 = SkewPoly.x_pow_minus_one(autom2, 4)
    mod7 = SkewPoly.x_pow_minus_one(autom2, 7)
    xi = SkewPoly(autom2, [ctx.ring((0, 1))], True)
    assert mod4 * xi == xi * mod4
    assert mod7 * xi != xi * mod7


def test_reduce_mod_xn_folds_exponents(autom2):
    p = SkewPoly.x_power(autom2, 5)
    assert p.reduce_mod_xn(4) == SkewPoly.x_power(autom2, 1)
    mod = SkewPoly.x_pow_minus_one(autom2, 4)
    assert mod.reduce_mod_xn(4).is_zero
    with pytest.raises(InvalidArgument):
        p.reduce_mod_xn(0)


def test_mod2_and_lift(autom2):
    p = SkewPoly.from_ints(autom2, [1, 2, 3, 1])
    q = p.mod2()
    assert not q.ring
    assert q == SkewPoly.from_ints(autom2, [1, 0, 1, 1], False)
    assert q.lift() == SkewPoly.from_ints(autom2, [1, 0, 1, 1], True)


class TestRecords:
    """Specs and polynomials are frozen records: equal by value, hashed
    alike, pickled through their checking constructors."""

    @pytest.fixture(params=[1, 2, 3])
    def ctx(self, request, ctx1, ctx2, ctx3):
        return (ctx1, ctx2, ctx3)[request.param - 1]

    def test_fields_refuse_assignment(self, ctx):
        autom = AutomorphismSpec(ctx, 1)
        for value, name in ((autom, "t"), (SkewPoly.one(autom), "coeffs")):
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))

    def test_equal_distinct_specs(self, ctx):
        m, one = ctx.m, AutomorphismSpec(ctx, 1)
        other = AutomorphismSpec(RingContext(m, ctx.h), m + 1)
        assert other is not one and other.ctx is not ctx
        assert other == one and hash(other) == hash(one)
        for ring in (True, False):
            f, g = (SkewPoly.from_ints(a, [1, 2, 3], ring)
                    for a in (one, other))
            assert f == g and hash(f) == hash(g)

    def test_replace_normalises_t_again(self, ctx):
        autom = AutomorphismSpec(ctx, 2)
        assert autom.replace(t=ctx.m + 1).t == 1
        assert autom.replace(t=ctx.m + 2) == autom
        with pytest.raises(InvalidArgument):
            autom.replace(t=0)

    def test_pickle_round_trip(self, ctx):
        autom = AutomorphismSpec(ctx, 2)
        for value in (autom, SkewPoly.zero(autom),
                      SkewPoly.from_ints(autom, [3, 0, 2, 1]),
                      SkewPoly.from_ints(autom, [1, 0, 1], False)):
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and hash(copy) == hash(value)
            assert repr(copy) == repr(value)


def test_string_forms(autom2):
    ctx = autom2.ctx
    p = SkewPoly(autom2, [ctx.ring((3,)), ctx.ring_zero(),
                          ctx.ring((1, 2))], True)
    assert str(p) == "3+(1+2*w)*x^2"
    assert str(SkewPoly.zero(autom2)) == "0"
    assert str(SkewPoly(autom2, [ctx.ring_zero(), ctx.ring((0, 1))],
                        True)) == "(w)*x"


# hypothesis strategies cannot consume pytest fixtures; bind module
# level contexts for the property tests instead.
_CTX = RingContext(2, (1, 1, 1))
_AUT = AutomorphismSpec(_CTX, 1)
_CTX3 = RingContext(3, (3, 1, 2, 1))
_AUTOMS = [_AUT, AutomorphismSpec(_CTX3, 1), AutomorphismSpec(_CTX3, 2)]
# As many examples per automorphism as the profile gives one test.
_EACH = settings(max_examples=len(_AUTOMS) * settings.default.max_examples)


def polys(*degrees):
    """Ring polynomials over one automorphism drawn from ``_AUTOMS``."""
    return st.sampled_from(_AUTOMS).flatmap(
        lambda autom: st.tuples(*(ring_poly(autom, d) for d in degrees)))


@_EACH
@given(polys(3, 3, 3))
def test_associativity_and_distributivity(fgh):
    f, g, h = fgh
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@_EACH
@given(polys(4, 3))
def test_division_reconstruction(fg):
    f, g = fg
    if g.is_zero or not g.lead.is_unit():
        g = g + SkewPoly.x_power(g.autom, 4)
    quo, rem = f.right_divmod(g)
    assert quo * g + rem == f
    assert rem.is_zero or rem.degree < g.degree


@given(ring_poly(_AUT, 4), ring_poly(_AUT, 4))
def test_mod2_multiplicative(f, g):
    assert (f * g).mod2() == f.mod2() * g.mod2()
