"""Acceptance suite.

One test class per acceptance criterion.  Derived expectations are
recomputed here by independent means (naive enumeration, exhaustive
scans) rather than trusted from the library.  Four stated constants
are unattainable because the reference 6x8 and 10x14 matrices do not
have full row rank; those appear as strict xfail tests asserting the
stated value, next to passing tests asserting the enumerated truth.
"""

import itertools
import random

import pytest

from artifact import (AutomorphismSpec, CodeType, MixedMatrix, MixedWord,
                      RingContext, SkewGenerators, SkewPoly,
                      brute_force_dual, classify_z4_skew_cyclic,
                      derive_cofactors, inner_product, is_skew_cyclic,
                      min_hamming_distance, parity_check, parse_poly,
                      right_divides, skew_closed, skew_code_cardinality,
                      span_closure, spanning_set, standard_form,
                      validate_generators)
from artifact import oracle
from artifact.reference import (four_four_matrix, gens_four_four,
                                gens_seven_seven, seven_seven_matrix,
                                worked_dual_row, worked_matrix,
                                worked_standard)

_CTX1 = RingContext(1, (1, 1))
_CTX2 = RingContext(2, (1, 1, 1))
_AUT1 = AutomorphismSpec(_CTX1, 1)
_AUT2 = AutomorphismSpec(_CTX2, 1)


@pytest.fixture(scope="module")
def seven_seven():
    full = derive_cofactors(gens_seven_seven())
    _, mat = spanning_set(full)
    code = span_closure(list(mat.rows), budget=1 << 26)
    return full, mat, code


@pytest.fixture(scope="module")
def four_four():
    full = derive_cofactors(gens_four_four())
    _, mat = spanning_set(full)
    code = span_closure(list(mat.rows))
    return full, mat, code


class TestSkewProductPair:
    """Criterion: the two order-sensitive degree-one products."""

    def setup_method(self, method):
        z = _CTX2.ring_zero()
        self.f = SkewPoly(_AUT2, [z, _CTX2.ring((0, 1))], True)
        self.g = SkewPoly(_AUT2, [z, _CTX2.ring((1, 1))], True)

    def test_product_in_given_order(self):
        assert str(self.f * self.g) == "(1+w)*x^2"

    def test_product_in_swapped_order(self):
        assert str(self.g * self.f) == "(3*w)*x^2"

    def test_products_differ(self):
        assert self.f * self.g != self.g * self.f


class TestStandardFormReduction:
    """Criterion: the worked 4x5 matrix and its standard form."""

    def test_reduces_to_reference_matrix(self):
        sf = standard_form(worked_matrix())
        assert sf.g_std == worked_standard()

    def test_type_and_cardinality(self):
        sf = standard_form(worked_matrix())
        assert str(sf.code_type) == "(2,3;2;2,0)"
        assert sf.code_type.cardinality(2) == 4096

    def test_enumerated_span_has_4096_words(self):
        code = span_closure(list(worked_matrix().rows))
        assert len(code) == 4096

    @pytest.mark.xfail(
        reason="reaching the reference standard form requires swapping "
               "the last two quaternary columns; no identity-permutation "
               "reduction exists for this matrix")
    def test_reduction_uses_identity_column_permutation(self):
        sf = standard_form(worked_matrix())
        assert sf.quat_perm == (0, 1, 2)

    def test_reduction_uses_quaternary_column_swap(self):
        sf = standard_form(worked_matrix())
        assert sf.bin_perm == (0, 1)
        assert sf.quat_perm == (0, 2, 1)

    def test_span_preserved_under_the_declared_permutation(self):
        mat = worked_matrix()
        sf = standard_form(mat)
        permuted = mat.permute_columns(sf.bin_perm, sf.quat_perm)
        assert span_closure(list(sf.g_std.rows)) == \
            span_closure(list(permuted.rows))

    def test_span_is_not_skew_cyclic(self):
        mat = worked_matrix()
        assert not skew_closed(mat, _AUT2)
        assert not is_skew_cyclic(span_closure(list(mat.rows)), _AUT2)


class TestDualDerivation:
    """Criterion: brute-force dual of the worked code."""

    def setup_method(self, method):
        self.sf = standard_form(worked_matrix())
        self.h = parity_check(self.sf)
        self.derived = worked_dual_row()

    def test_brute_force_dual_has_16_words(self):
        code = span_closure(list(self.sf.g_std.rows))
        assert len(brute_force_dual(code)) == 16

    def test_dual_equals_span_of_single_derived_row(self):
        code = span_closure(list(self.sf.g_std.rows))
        assert brute_force_dual(code) == span_closure([self.derived])

    def test_dual_pairs_in_one_map_call(self, monkeypatch):
        code = span_closure(list(worked_matrix().rows))
        calls = []
        mapping = oracle._Codec.map

        def counted(codec, arr, plan, reduce=None):
            calls.append((len(arr), plan[0][2].shape[1:]))
            return mapping(codec, arr, plan, reduce)

        monkeypatch.setattr(oracle._Codec, "map", counted)
        assert len(brute_force_dual(code)) == 16
        assert len(code) == 4096
        # 16 bits split at bit 8: the two halves of 2^8 words each are
        # paired with every generator at once.
        assert calls == [(512, (len(code.gens),))]

    def test_derived_row_blocks(self):
        assert len(self.h) == 1
        assert self.h[0] == self.derived

    def test_dual_type_formula(self):
        dt = self.sf.code_type.dual()
        assert str(dt) == "(2,3;0;1,0)"
        assert dt.cardinality(2) == 16

    def test_generator_rows_orthogonal_to_dual_rows(self):
        permuted = worked_matrix().permute_columns(self.sf.bin_perm,
                                                   self.sf.quat_perm)
        zero = _CTX2.ring_zero()
        for g_row in permuted:
            assert inner_product(g_row, self.h[0]) == zero

    def test_variant_row_with_swapped_tail_is_not_orthogonal(self):
        # The same row with quaternary part (w, 1, 0) instead of
        # (w, 0, 1) fails the orthogonality identity, which is why the
        # derived row is the one asserted throughout.
        F, R = _CTX2.field, _CTX2.ring
        variant = MixedWord(_CTX2, [F((0, 1)), F((1, 1))],
                            [R((0, 1)), R((1,)), R((0,))])
        zero = _CTX2.ring_zero()
        rows = list(self.sf.g_std.rows)
        assert any(inner_product(row, variant) != zero for row in rows)


class TestCofactorDerivation:
    """Criterion: cofactors of the seven-seven generator tuple."""

    def test_binary_cofactor(self):
        full = derive_cofactors(gens_seven_seven())
        assert full.h_f == SkewPoly.from_ints(_AUT2, [1, 1, 1, 0, 1],
                                              False)

    def test_quaternary_cofactor(self):
        full = derive_cofactors(gens_seven_seven())
        assert full.h_g == SkewPoly.from_ints(_AUT2, [3, 2, 3, 1], True)

    def test_binary_factorisation_multiplies_back(self):
        full = derive_cofactors(gens_seven_seven())
        assert full.h_f * full.f == \
            SkewPoly.x_pow_minus_one(_AUT2, 7, False)

    def test_quaternary_factorisation_multiplies_back(self):
        full = derive_cofactors(gens_seven_seven())
        assert full.h_g * full.g == \
            SkewPoly.x_pow_minus_one(_AUT2, 7, True)


class TestSevenSevenSpanningSet:
    """Criterion: the 10x14 spanning matrix and its span."""

    def test_matrix_matches_reference_rows(self, seven_seven):
        _, mat, _ = seven_seven
        assert mat == seven_seven_matrix()

    def test_span_size_equals_cofactor_degree_formula(self, seven_seven):
        full, _, code = seven_seven
        assert len(code) == skew_code_cardinality(full) == 1 << 26

    def test_span_is_closed_under_the_skew_shift(self, seven_seven):
        _, _, code = seven_seven
        assert is_skew_cyclic(code, _AUT2)

    def test_skew_closure_read_from_the_parity_check(self):
        assert skew_closed(seven_seven_matrix(), _AUT2)

    @pytest.mark.xfail(
        reason="the reference 10x14 matrix spans 2^26 words, matching "
               "the cofactor-degree formula; 2^20 undercounts it")
    def test_span_size_matches_stated_constant(self, seven_seven):
        _, _, code = seven_seven
        assert len(code) == 1 << 20

    @pytest.mark.xfail(
        reason="a 2^26-word span cannot have type (7,7;4;3,3), which "
               "counts 2^20; the reduction reports (7,7;7;3,0)")
    def test_standard_form_type_matches_stated_constant(self,
                                                        seven_seven):
        _, mat, _ = seven_seven
        assert str(standard_form(mat).code_type) == "(7,7;4;3,3)"

    def test_standard_form_type_confirmed_by_span_size(self, seven_seven):
        _, mat, code = seven_seven
        sf = standard_form(mat)
        assert sf.code_type == CodeType(7, 7, 7, 3, 0)
        assert sf.code_type.cardinality(2) == len(code)


class TestFourFourSpanningSet:
    """Criterion: the 6x8 spanning matrix and its span."""

    def test_derived_k_and_h_q(self, four_four):
        full, _, _ = four_four
        assert full.k == SkewPoly(_AUT2, [_CTX2.field((0, 1))], False)
        assert str(full.k) == "w"
        assert full.h_q == parse_poly("x^2-1", _AUT2, ring=False)
        assert str(full.h_q) == "1+x^2"

    def test_matrix_matches_reference_rows(self, four_four):
        _, mat, _ = four_four
        assert mat == four_four_matrix()

    def test_span_is_closed_under_the_skew_shift(self, four_four):
        _, _, code = four_four
        assert is_skew_cyclic(code, _AUT2)

    def test_skew_closure_read_from_the_parity_check(self):
        assert skew_closed(four_four_matrix(), _AUT2)

    @pytest.mark.xfail(
        reason="three of the six reference rows are redundant; the "
               "span has 2^14 words, not 2^16")
    def test_span_size_matches_stated_constant(self, four_four):
        _, _, code = four_four
        assert len(code) == 1 << 16

    def test_span_size_confirmed_by_independent_recount(self, four_four):
        # Incremental closure keyed on the printed word form, sharing
        # nothing with the packed-integer enumeration it checks.
        _, mat, code = four_four
        assert len(code) == 1 << 14
        scalars = list(_CTX2.all_ring_elems())
        zero = MixedWord(_CTX2, [_CTX2.field_zero()] * 4,
                         [_CTX2.ring_zero()] * 4)
        seen = {str(zero): zero}
        for row in mat.rows:
            addends = [row.scale(c) for c in scalars]
            grown = dict(seen)
            for w in seen.values():
                for inc in addends:
                    u = w + inc
                    grown.setdefault(str(u), u)
            seen = grown
        assert len(seen) == 1 << 14

    def test_row_dependency_identity(self, four_four):
        _, mat, _ = four_four
        xi = _CTX2.ring((0, 1))
        two = _CTX2.ring((2,))
        two_xi = _CTX2.ring((0, 2))
        combo = mat[0] + mat[5].scale(xi) + mat[2].scale(two) + \
            mat[3].scale(two_xi)
        assert combo == mat[4]

    @pytest.mark.xfail(
        reason="rows 0, 4 and 5 of the reference matrix are each "
               "spanned by the others; removing one leaves the span "
               "intact")
    def test_removing_each_row_shrinks_span(self, four_four):
        _, mat, code = four_four
        for i in range(6):
            rest = [row for j, row in enumerate(mat.rows) if j != i]
            assert len(span_closure(rest)) < len(code)

    def test_exact_redundant_row_set(self, four_four):
        _, mat, code = four_four
        removable = set()
        for i in range(6):
            rest = [row for j, row in enumerate(mat.rows) if j != i]
            if span_closure(rest) == code:
                removable.add(i)
        assert removable == {0, 4, 5}

    def test_standard_form_confirms_rank(self, four_four):
        _, mat, code = four_four
        sf = standard_form(mat)
        assert sf.code_type == CodeType(4, 4, 3, 2, 0)
        assert sf.code_type.cardinality(2) == len(code) == 1 << 14


def _random_elem(rng, ctx, ring):
    if ring:
        return ctx.ring_from_index(rng.randrange(4 ** ctx.m))
    return ctx.field_from_index(rng.randrange(2 ** ctx.m))


def _random_poly(rng, autom, ring, max_deg):
    deg = rng.randrange(max_deg + 1)
    coeffs = [_random_elem(rng, autom.ctx, ring) for _ in range(deg + 1)]
    return SkewPoly(autom, coeffs, ring)


def _random_unit_leading(rng, autom, ring, max_deg):
    p = _random_poly(rng, autom, ring, max_deg)
    ctx = autom.ctx
    lead = ctx.ring_one() if ring else ctx.field_one()
    while True:
        cand = _random_elem(rng, ctx, ring)
        if cand.is_unit():
            lead = cand
            break
    return SkewPoly(autom, list(p.coeffs[:-1]) + [lead], ring) \
        if p.coeffs else SkewPoly(autom, [lead], ring)


def _random_word(rng, ctx, r, s):
    alpha = [_random_elem(rng, ctx, False) for _ in range(r)]
    beta = [_random_elem(rng, ctx, True) for _ in range(s)]
    return MixedWord(ctx, alpha, beta)


class TestPropertySuite:
    """Criterion: randomized laws at m <= 2 and r, s <= 4."""

    def test_ring_and_automorphism_axioms(self):
        rng = random.Random(101)
        for ctx, autom in ((_CTX1, _AUT1), (_CTX2, _AUT2)):
            n = 4 ** ctx.m
            for _ in range(300):
                a, b, c = (ctx.ring_from_index(rng.randrange(n))
                           for _ in range(3))
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert autom.apply(a * b) == \
                    autom.apply(a) * autom.apply(b)
                assert autom.apply(a + b) == \
                    autom.apply(a) + autom.apply(b)
                assert autom.apply_power(a, ctx.m) == a

    def test_reduce_mod2_homomorphism(self):
        for a in _CTX2.all_ring_elems():
            for b in _CTX2.all_ring_elems():
                assert (a + b).reduce_mod2() == \
                    a.reduce_mod2() + b.reduce_mod2()
                assert (a * b).reduce_mod2() == \
                    a.reduce_mod2() * b.reduce_mod2()

    def test_right_division_identity_on_1000_pairs(self):
        rng = random.Random(202)
        done = 0
        while done < 1000:
            autom = _AUT1 if rng.random() < 0.5 else _AUT2
            ring = rng.random() < 0.5
            f = _random_poly(rng, autom, ring, 8)
            g = _random_unit_leading(rng, autom, ring, 4)
            quo, rem = f.right_divmod(g)
            assert quo * g + rem == f
            assert rem.is_zero or rem.degree < g.degree
            done += 1

    def test_standard_form_span_preservation_and_idempotence(self):
        rng = random.Random(303)
        done = 0
        while done < 100:
            ctx = _CTX1 if rng.random() < 0.5 else _CTX2
            r = rng.randrange(5)
            s = rng.randrange(5)
            if r + s == 0:
                continue
            rows = [_random_word(rng, ctx, r, s)
                    for _ in range(rng.randrange(1, 5))]
            mat = MixedMatrix(ctx, r, s, rows)
            sf = standard_form(mat)
            permuted = mat.permute_columns(sf.bin_perm, sf.quat_perm)
            span_std = span_closure(sf.g_std)
            assert span_std == span_closure(permuted)
            assert len(span_std) == sf.code_type.cardinality(ctx.m)
            again = standard_form(sf.g_std)
            assert again.g_std == sf.g_std
            assert again.code_type == sf.code_type
            done += 1

    def test_duality_laws_on_50_instances(self):
        rng = random.Random(404)
        done = 0
        while done < 50:
            if rng.random() < 0.5:
                ctx, r, s = _CTX1, rng.randrange(5), rng.randrange(5)
            else:
                ctx, r, s = _CTX2, rng.randrange(5), rng.randrange(3)
            if r + s == 0:
                continue
            rows = [_random_word(rng, ctx, r, s)
                    for _ in range(rng.randrange(1, 4))]
            mat = MixedMatrix(ctx, r, s, rows)
            sf = standard_form(mat)
            h = parity_check(sf)
            permuted = mat.permute_columns(sf.bin_perm, sf.quat_perm)
            zero = ctx.ring_zero()
            for g_row in permuted:
                for h_row in h:
                    assert inner_product(g_row, h_row) == zero
            code = span_closure(list(permuted.rows))
            dual = span_closure(h)
            assert len(code) * len(dual) == 1 << (ctx.m * (r + 2 * s))
            assert dual == brute_force_dual(code)
            done += 1

    def test_validator_accepts_both_reference_tuples(self):
        assert validate_generators(gens_seven_seven()).valid
        assert validate_generators(gens_four_four()).valid

    @pytest.mark.parametrize("build,expect", [
        pytest.param(case[0], case[1], id=case[2]) for case in [
            ((lambda: SkewGenerators(
                autom=_AUT2, r=7, s=0,
                f=SkewPoly.from_ints(_AUT2, [1, 1, 1], False))),
             "f |r x^r-1 (mod 2)", "f-not-divisor-r7"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=4, s=0,
                f=SkewPoly.from_ints(_AUT2, [1, 1, 0, 1], False))),
             "f |r x^r-1 (mod 2)", "f-not-divisor-r4"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=7, s=4,
                f=SkewPoly.from_ints(_AUT2, [1, 1, 0, 1], False),
                l=SkewPoly.from_ints(_AUT2, [1, 1, 0, 1], False),
                g=SkewPoly.from_ints(_AUT2, [1, 0, 1], True))),
             "deg(l) < deg(f)", "l-as-large-as-f"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=7, s=4,
                f=SkewPoly.from_ints(_AUT2, [1, 1, 0, 1], False),
                l=SkewPoly.from_ints(_AUT2, [0, 0, 0, 0, 1], False),
                g=SkewPoly.from_ints(_AUT2, [1, 0, 1], True))),
             "deg(l) < deg(f)", "l-larger-than-f"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=0, s=4,
                g=SkewPoly.from_ints(_AUT2, [1, 0, 1], True),
                a=SkewPoly.from_ints(_AUT2, [1, 0, 1], True))),
             "deg(a) < deg(g)", "a-as-large-as-g"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=0, s=4,
                g=SkewPoly.from_ints(_AUT2, [1, 0, 1], True),
                a=SkewPoly.from_ints(_AUT2, [0, 0, 0, 1], True))),
             "deg(a) < deg(g)", "a-larger-than-g"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=0, s=4,
                g=SkewPoly.from_ints(_AUT2, [1, 1, 1], True))),
             "g+2a |r x^s-1, or g |r x^s-1 with a residual (l1, 2q) row",
             "g-not-divisor"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=7, s=4,
                f=SkewPoly.from_ints(_AUT2, [1, 1, 0, 1], False),
                l=SkewPoly.from_ints(_AUT2, [1], False),
                g=SkewPoly.from_ints(_AUT2, [1, 0, 1], True))),
             "f |r h_{g,a}*l (mod 2)", "case-ii-l-off-lattice"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=0, s=4,
                q=SkewPoly.from_ints(_AUT2, [1, 1, 1], True))),
             "q |r x^s-1 (mod 2)", "case-i-q-not-divisor"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=7, s=4,
                f=SkewPoly.from_ints(_AUT2, [1, 1, 0, 1], False),
                q=SkewPoly.from_ints(_AUT2, [1, 0, 1], True),
                l1=SkewPoly.from_ints(_AUT2, [1, 1, 0, 1], False))),
             "deg(l1) < deg(f)", "case-i-l1-too-large"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=7, s=4,
                f=SkewPoly.from_ints(_AUT2, [1, 1, 0, 1], False),
                q=SkewPoly.from_ints(_AUT2, [1, 0, 1], True),
                l1=SkewPoly.from_ints(_AUT2, [1], False))),
             "f |r h_q*l1 (mod 2)", "case-i-l1-off-lattice"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=0, s=4,
                g=SkewPoly.from_ints(_AUT2, [1, 0, 1], True),
                q=SkewPoly.from_ints(_AUT2, [1, 1, 1, 1], True))),
             "q |r g (mod 2)", "case-iii-q-too-deep"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=0, s=4,
                g=SkewPoly.from_ints(_AUT2, [1, 1, 1], True),
                q=SkewPoly.from_ints(_AUT2, [1, 1, 1], True))),
             "g |r x^s-1 (mod 2)", "case-iii-g-not-divisor"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=0, s=4,
                g=SkewPoly.from_ints(_AUT2, [1, 1, 1], True),
                q=SkewPoly.from_ints(_AUT2, [1, 1, 1], True))),
             "q |r x^s-1 (mod 2)", "case-iii-q-not-divisor"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=0, s=4,
                g=SkewPoly.from_ints(_AUT2, [1, 1, 1, 1], True),
                q=SkewPoly.from_ints(_AUT2, [1, 0, 1], True),
                a=SkewPoly.from_ints(_AUT2, [1], True))),
             "q |r h_g*a (mod 2)", "case-iii-a-off-lattice"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=0, s=4,
                g=SkewPoly.from_ints(_AUT2, [1, 1, 1, 1], True),
                q=SkewPoly.from_ints(_AUT2, [1, 0, 1], True),
                a=SkewPoly.from_ints(_AUT2, [0, 0, 1], True))),
             "deg(a) < deg(q)", "case-iii-a-too-large"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=7, s=4,
                f=SkewPoly.from_ints(_AUT2, [1, 1, 0, 1], False),
                l=SkewPoly.from_ints(_AUT2, [1, 1, 0, 1], False),
                g=SkewPoly.from_ints(_AUT2, [1, 1, 1, 1], True),
                q=SkewPoly.from_ints(_AUT2, [1, 0, 1], True))),
             "deg(l) < deg(f)", "case-iii-l-too-large"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=7, s=4,
                f=SkewPoly.from_ints(_AUT2, [1, 1, 0, 1], False),
                g=SkewPoly.from_ints(_AUT2, [1, 1, 1, 1], True),
                q=SkewPoly.from_ints(_AUT2, [1, 0, 1], True),
                l1=SkewPoly.from_ints(_AUT2, [1, 1, 0, 1], False))),
             "deg(l1) < deg(f)", "case-iii-l1-too-large"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=7, s=4,
                f=SkewPoly.from_ints(_AUT2, [1, 1, 0, 1], False),
                g=SkewPoly.from_ints(_AUT2, [1, 1, 1, 1], True),
                q=SkewPoly.from_ints(_AUT2, [1, 0, 1], True),
                l1=SkewPoly.from_ints(_AUT2, [1], False))),
             "f |r h_q*l1 (mod 2)", "case-iii-l1-off-lattice"),
            ((lambda: SkewGenerators(
                autom=_AUT2, r=7, s=4,
                f=SkewPoly.from_ints(_AUT2, [1, 1, 0, 1], False),
                l=SkewPoly.from_ints(_AUT2, [1], False),
                g=SkewPoly.from_ints(_AUT2, [1, 1, 1, 1], True),
                q=SkewPoly.from_ints(_AUT2, [1, 0, 1], True),
                a=SkewPoly.from_ints(_AUT2, [1, 1], True))),
             "f |r k*l1 + h_g*l (mod 2)", "case-iii-mixed-row-off"),
        ]
    ])
    def test_validator_rejects_constructed_violation(self, build, expect):
        report = validate_generators(build())
        assert not report.valid
        assert expect in report.failed_names()


def _coeff_row(ctx, poly, s):
    return MixedWord(ctx, [], [poly.coeff(i) for i in range(s)])


def _monic_divisors(autom, s, max_deg):
    ctx = autom.ctx
    n = 4 ** ctx.m
    target = SkewPoly.x_pow_minus_one(autom, s, True)
    out = []
    for deg in range(1, max_deg + 1):
        for idx in itertools.product(range(n), repeat=deg):
            cand = SkewPoly(
                autom,
                [ctx.ring_from_index(i) for i in idx] + [ctx.ring_one()],
                True)
            if right_divides(cand, target):
                out.append(cand)
    return out


class TestClassifierRoundTrips:
    """Criterion: witnesses regenerate >= 20 generated codes."""

    def test_round_trips_with_matching_case_labels(self):
        checked = 0
        for autom, s in ((_AUT1, 2), (_AUT1, 4), (_AUT2, 2), (_AUT2, 4)):
            ctx = autom.ctx
            divisors = _monic_divisors(autom, s, 2)
            assert divisors, "divisor scan found nothing"
            for g in divisors[:4]:
                if g.degree == s:
                    continue
                row = _coeff_row(ctx, g, s)
                code = span_closure([row], autom=autom, skew=True)
                cls = classify_z4_skew_cyclic(code, autom)
                assert cls.case == "ii"
                regen = span_closure(
                    [_coeff_row(ctx, cls.g if cls.a is None
                                else cls.g + 2 * cls.a, s)],
                    autom=autom, skew=True)
                assert regen == code
                checked += 1

                doubled = span_closure([row.scale(ctx.ring((2,)))],
                                       autom=autom, skew=True)
                cls2 = classify_z4_skew_cyclic(doubled, autom)
                assert cls2.case == "i"
                regen2 = span_closure(
                    [_coeff_row(ctx, 2 * cls2.q, s)],
                    autom=autom, skew=True)
                assert regen2 == doubled
                checked += 1

            for g in divisors:
                for q in divisors:
                    if g.degree >= s or not (0 < q.degree < g.degree):
                        continue
                    if not right_divides(q.mod2(), g.mod2()):
                        continue
                    rows = [_coeff_row(ctx, g, s),
                            _coeff_row(ctx, 2 * q, s)]
                    code = span_closure(rows, autom=autom, skew=True)
                    only_g = span_closure(rows[:1], autom=autom,
                                          skew=True)
                    cls = classify_z4_skew_cyclic(code, autom)
                    if code == only_g:
                        assert cls.case == "ii"
                        continue
                    assert cls.case == "iii"
                    regen_rows = [
                        _coeff_row(ctx, cls.g if cls.a is None
                                   else cls.g + 2 * cls.a, s),
                        _coeff_row(ctx, 2 * cls.q, s)]
                    assert span_closure(regen_rows, autom=autom,
                                        skew=True) == code
                    checked += 1
                    if checked >= 40:
                        break
                if checked >= 40:
                    break
        assert checked >= 20


class TestWorkedCodeDistance:
    """Distance of the worked code, fixed by exhaustive scan."""

    def test_distance_matches_exhaustive_scan(self):
        code = span_closure(list(worked_matrix().rows))
        best = min(
            sum(1 for a in w.alpha if a) + sum(1 for b in w.beta if b)
            for w in code if not w.is_zero)
        assert min_hamming_distance(code) == best
