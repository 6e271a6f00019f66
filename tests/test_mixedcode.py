"""Mixed words, standard forms, types and duals."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from artifact import galois, mixedcode
from artifact import (CodeType, ContextMismatch, MixedMatrix, MixedWord,
                      OrthogonalityCheckFailed, RingContext, ShapeMismatch,
                      StandardFormResult, inner_product, parity_check,
                      parse_gens, span_closure, spanning_set, standard_form)
from artifact.reference import (four_four_matrix, seven_seven_matrix,
                                worked_matrix, worked_standard)

# A case i generator tuple whose spanning set has six doubled pivots.
CASE_I_GENS = """m: 2
h: 1+x+x^2
r: 6
s: 8
t: 1
f: 1+x
q: 1+w+(1+w)*x+x^2
"""


class TestMixedWord:
    def test_from_ints_and_str(self, ctx2):
        w = MixedWord.from_ints(ctx2, [1, 0], [3, 0, 2])
        assert w.r == 2 and w.s == 3
        assert str(w) == "1 0 | 3 0 2"

    def test_binary_only_and_quaternary_only(self, ctx2):
        left = MixedWord.from_ints(ctx2, [1, 1], [])
        right = MixedWord.from_ints(ctx2, [], [2, 1])
        assert str(left) == "1 1 |"
        assert str(right) == "| 2 1"

    def test_addition_is_componentwise(self, ctx2):
        u = MixedWord.from_ints(ctx2, [1, 0], [3, 1, 2])
        v = MixedWord.from_ints(ctx2, [1, 1], [2, 3, 3])
        assert u + v == MixedWord.from_ints(ctx2, [0, 1], [1, 0, 1])
        assert u - v == u + (-v)

    def test_scale_reduces_through_mod2_on_binary_side(self, ctx2):
        w = MixedWord.from_ints(ctx2, [1, 1], [1, 0])
        two = ctx2.ring((2,))
        scaled = w.scale(two)
        assert scaled == MixedWord.from_ints(ctx2, [0, 0], [2, 0])

    def test_scale_by_unit_permutes_span(self, ctx2):
        w = MixedWord(ctx2, [ctx2.field((0, 1))], [ctx2.ring((1, 2))])
        xi = ctx2.ring((0, 1))
        assert w.scale(xi).scale(xi).scale(xi) == w

    def test_permute_columns(self, ctx2):
        w = MixedWord.from_ints(ctx2, [1, 0], [1, 2, 3])
        p = w.permute_columns((1, 0), (2, 0, 1))
        assert p == MixedWord.from_ints(ctx2, [0, 1], [3, 1, 2])

    def test_shape_check(self, ctx2):
        u = MixedWord.from_ints(ctx2, [1], [1])
        v = MixedWord.from_ints(ctx2, [1, 0], [1])
        with pytest.raises(ShapeMismatch):
            u + v

    def test_context_check(self, ctx2, ctx3):
        u = MixedWord.from_ints(ctx2, [1], [1])
        v = MixedWord.from_ints(ctx3, [1], [1])
        with pytest.raises(ContextMismatch):
            u + v


class TestInnerProduct:
    def test_doubles_the_binary_side(self, ctx2):
        u = MixedWord.from_ints(ctx2, [1], [0])
        assert inner_product(u, u) == ctx2.ring((2,))

    def test_quaternary_side_untouched(self, ctx2):
        u = MixedWord.from_ints(ctx2, [0], [3])
        assert inner_product(u, u) == ctx2.ring((1,))

    def test_symmetric_and_bilinear(self, ctx2):
        u = MixedWord.from_ints(ctx2, [1, 0], [1, 2])
        v = MixedWord.from_ints(ctx2, [1, 1], [3, 1])
        w = MixedWord.from_ints(ctx2, [0, 1], [2, 2])
        assert inner_product(u, v) == inner_product(v, u)
        assert inner_product(u + w, v) == \
            inner_product(u, v) + inner_product(w, v)
        gamma = ctx2.ring((1, 1))
        assert inner_product(u.scale(gamma), v) == \
            gamma * inner_product(u, v)


class TestCodeType:
    def test_str_and_cardinality(self):
        ct = CodeType(2, 3, 2, 2, 0)
        assert str(ct) == "(2,3;2;2,0)"
        assert ct.cardinality(2) == 4096

    def test_dual_formula_and_involution(self):
        ct = CodeType(7, 7, 3, 2, 1)
        assert ct.dual() == CodeType(7, 7, 4, 4, 1)
        assert ct.dual().dual() == ct

    def test_cardinality_product_law(self):
        for ct in (CodeType(2, 3, 2, 2, 0), CodeType(4, 4, 1, 2, 1),
                   CodeType(3, 2, 0, 1, 1)):
            for m in (1, 2, 3):
                total = 1 << (m * (ct.r + 2 * ct.s))
                assert ct.cardinality(m) * ct.dual().cardinality(m) == total

    def test_out_of_range_rejected(self):
        with pytest.raises(ShapeMismatch):
            CodeType(2, 3, 3, 0, 0)
        with pytest.raises(ShapeMismatch):
            CodeType(2, 3, 0, 2, 2)


class TestStandardForm:
    def test_worked_reduction(self):
        sf = standard_form(worked_matrix())
        assert sf.g_std == worked_standard()
        assert str(sf.code_type) == "(2,3;2;2,0)"
        assert sf.bin_perm == (0, 1)
        assert sf.quat_perm == (0, 2, 1)

    def test_span_preserved_up_to_declared_permutation(self):
        mat = worked_matrix()
        sf = standard_form(mat)
        permuted = mat.permute_columns(sf.bin_perm, sf.quat_perm)
        assert span_closure(list(sf.g_std.rows)) == \
            span_closure(list(permuted.rows))

    def test_idempotent_on_standard_matrices(self):
        sf = standard_form(worked_matrix())
        again = standard_form(sf.g_std)
        assert again.g_std == sf.g_std
        assert again.code_type == sf.code_type

    def test_zero_and_empty_matrices(self, ctx2):
        zero_rows = MixedMatrix(ctx2, 1, 2, [
            MixedWord.from_ints(ctx2, [0], [0, 0])])
        sf = standard_form(zero_rows)
        assert sf.code_type == CodeType(1, 2, 0, 0, 0)
        assert sf.code_type.cardinality(2) == 1
        empty = MixedMatrix(ctx2, 1, 2, [])
        assert standard_form(empty).code_type == CodeType(1, 2, 0, 0, 0)

    def test_matrix_needs_coordinates(self, ctx2):
        with pytest.raises(ShapeMismatch):
            MixedMatrix(ctx2, 0, 0, [])

    def test_doubled_rows_counted_in_k2_block(self, ctx2):
        mat = MixedMatrix.from_rows([MixedWord.from_ints(ctx2, [], [2, 0]),
                                     MixedWord.from_ints(ctx2, [], [0, 1])])
        sf = standard_form(mat)
        assert sf.code_type == CodeType(0, 2, 0, 1, 1)


    def test_k2_block_reduced_to_twice_identity(self):
        _, _, gens = parse_gens(CASE_I_GENS)
        _, mat = spanning_set(gens)
        sf = standard_form(mat)
        ct = sf.code_type
        ctx = mat.ctx
        parity_check(sf)
        two, zero = ctx.ring((2,)), ctx.ring_zero()
        k2_block = [row.beta[ct.k1:ct.k1 + ct.k2]
                    for row in sf.g_std.rows[ct.k0 + ct.k1:]]
        assert ct.k2 >= 2
        assert k2_block == [tuple(two if i == j else zero
                                  for j in range(ct.k2))
                            for i in range(ct.k2)]
        assert len(span_closure(mat, budget=1 << 22)) == \
            ct.cardinality(2) == 1 << 22

    def test_row_operations_make_no_element_operation_per_entry(
            self, monkeypatch):
        # Zero columns appended to every row take part in each row
        # operation, so a per-entry element operator would count more.
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__neg__"):
            def counted(*args, _op=getattr(galois._Elem, name)):
                calls.append(_op)
                return _op(*args)
            monkeypatch.setattr(galois._Elem, name, counted)
        for mat in (four_four_matrix(), seven_seven_matrix()):
            ctx, pad = mat.ctx, 5
            padded = MixedMatrix(ctx, mat.r + pad, mat.s + pad, [
                MixedWord(ctx, w.alpha + (ctx.field_zero(),) * pad,
                          w.beta + (ctx.ring_zero(),) * pad) for w in mat])
            counts = []
            for m in (mat, padded):
                del calls[:]
                standard_form(m)
                counts.append(len(calls))
            assert counts[0] == counts[1] < len(mat) * (mat.r + mat.s)


class TestParityCheck:
    def test_worked_dual_row(self, ctx2):
        sf = standard_form(worked_matrix())
        h = parity_check(sf)
        expect = MixedWord(ctx2,
                           [ctx2.field((0, 1)), ctx2.field((1, 1))],
                           [ctx2.ring((0, 1)), ctx2.ring((0,)),
                            ctx2.ring((1,))])
        assert len(h) == 1 and h[0] == expect

    def test_rows_orthogonal_to_generator(self, ctx2):
        mat = worked_matrix()
        sf = standard_form(mat)
        h = parity_check(sf)
        permuted = mat.permute_columns(sf.bin_perm, sf.quat_perm)
        zero = ctx2.ring_zero()
        for g_row in permuted:
            for h_row in h:
                assert inner_product(g_row, h_row) == zero

    def test_dual_row_count_matches_dual_type(self):
        sf = standard_form(worked_matrix())
        h = parity_check(sf)
        dt = sf.code_type.dual()
        assert len(h) == dt.k0 + dt.k1 + dt.k2

    def test_audit_names_a_row_with_a_nonzero_syndrome(self):
        # The unreduced matrix under the standard form's type: the rows
        # read from its blocks do not annihilate it.
        sf = standard_form(worked_matrix())
        unreduced = StandardFormResult(worked_matrix(), sf.code_type,
                                       sf.bin_perm, sf.quat_perm)
        with pytest.raises(OrthogonalityCheckFailed) as info:
            parity_check(unreduced)
        assert str(info.value) == "<1 1+w | 2+2*w 2 2, 1 1 | 0 3 1> = 2*w"


_AUDIT_CTXS = [RingContext(1, (1, 1)), RingContext(2, (1, 1, 1)),
               RingContext(3, (3, 1, 2, 1))]


@given(st.data())
def test_audit_of_a_perturbed_standard_form(data):
    """One entry of one row of a standard form changed: ``parity_check``
    returns rows pairing to zero with every row, or names the first
    nonzero pair in (g row, h row) order with its pairing."""
    ctx = data.draw(st.sampled_from(_AUDIT_CTXS), label="ctx")
    r = data.draw(st.integers(0, 4), label="r")
    s = data.draw(st.integers(0 if r else 1, 4), label="s")
    # Scalars 0, 1 and 2 give zero, free and doubled entries.
    field = st.builds(lambda i, c: ctx.field_from_index(i * c),
                      st.integers(0, (1 << ctx.m) - 1), st.integers(0, 1))
    ring = st.builds(lambda i, c: c * ctx.ring_from_index(i),
                     st.integers(0, (1 << 2 * ctx.m) - 1),
                     st.integers(0, 2))
    rows = data.draw(st.lists(st.builds(
        lambda a, b: MixedWord(ctx, a, b), st.lists(field, min_size=r,
                                                    max_size=r),
        st.lists(ring, min_size=s, max_size=s)), min_size=1, max_size=5))
    sf = standard_form(MixedMatrix(ctx, r, s, rows))
    assume(len(sf.g_std))
    g = list(sf.g_std)
    i = data.draw(st.integers(0, len(g) - 1), label="row")
    col = data.draw(st.integers(0, r + s - 1), label="column")
    alpha, beta = list(g[i].alpha), list(g[i].beta)
    if col < r:
        alpha[col] = data.draw(field, label="entry")
    else:
        beta[col - r] = data.draw(ring, label="entry")
    g[i] = MixedWord(ctx, alpha, beta)
    g = MixedMatrix(ctx, r, s, g)

    built = []

    def recorded(*args):
        built.append(MixedMatrix(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mixedcode, "MixedMatrix", recorded)
        try:
            h, error = parity_check(StandardFormResult(
                g, sf.code_type, sf.bin_perm, sf.quat_perm)), None
        except OrthogonalityCheckFailed as exc:
            h, error = built[-1], exc
    # inner_product has its own schoolbook witness in
    # test_skewpoly_schoolbook.py.
    pairs = [(g_row, h_row, inner_product(g_row, h_row))
             for g_row in g for h_row in h]
    nonzero = [pair for pair in pairs if pair[2]]
    if error is None:
        assert not nonzero
    else:
        assert nonzero and str(error) == "<{}, {}> = {}".format(*nonzero[0])
