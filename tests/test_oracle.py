"""Enumeration oracles, cross-checked against naive reference code."""

import itertools
import math
import pickle
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (AutomorphismSpec, BudgetExceeded, ContextMismatch,
                      MixedMatrix, MixedWord, NotACode, RingContext,
                      ShapeMismatch, SkewPoly, TrivialCode, brute_force_dual,
                      classify_z4_skew_cyclic, inner_product, is_skew_cyclic,
                      min_hamming_distance, parity_check, skew_closed,
                      span_closure, standard_form, syndrome, theta_shift)
from artifact import oracle
from artifact.reference import four_four_matrix, gens_seven_seven

_CTX1 = RingContext(1, (1, 1))
_CTX2 = RingContext(2, (1, 1, 1))
_AUT2 = AutomorphismSpec(_CTX2, 1)
_CTX3 = RingContext(3, (3, 1, 2, 1))
_AUT3 = AutomorphismSpec(_CTX3, 1)


def naive_span(rows):
    """All module combinations, built word by word with set semantics."""
    ctx = rows[0].ctx
    scalars = list(ctx.all_ring_elems())
    multiples = [[row.scale(c) for c in scalars] for row in rows]
    seen = {}
    for terms in itertools.product(*multiples):
        acc = terms[0]
        for t in terms[1:]:
            acc = acc + t
        seen[str(acc)] = acc
    return seen


def naive_dual(words, ctx, r, s):
    """Packed ambient words whose inner product with every word is 0."""
    words = list(words)
    codec = oracle._Codec(ctx, r, s)
    zero = ctx.ring_zero()
    keep = []
    for alpha in itertools.product(list(ctx.all_field_elems()), repeat=r):
        for beta in itertools.product(list(ctx.all_ring_elems()), repeat=s):
            w = MixedWord(ctx, alpha, beta)
            if all(inner_product(w, u) == zero for u in words):
                keep.append(codec.encode(w))
    return sorted(keep)


def naive_classify(code, autom):
    """``(case, g, a, q, regenerates)`` decoded from every nonzero word."""
    ctx, s = code.ctx, code.s
    polys = [SkewPoly(autom, w.beta, True) for w in code if not w.is_zero]
    min_deg = min(p.degree for p in polys)
    monics = [p.lead.inverse() * p for p in polys if p.lead.is_unit()]

    def ring_key(p):
        return tuple(ctx.ring_index(c) for c in p.coeffs)

    def halve(p):
        return SkewPoly(autom, [c.halve() for c in p.coeffs], False)

    def as_word(poly):
        return MixedWord(ctx, [], [poly.coeff(i) for i in range(s)])

    g = a = q = None
    rows = []
    if not monics:
        case = "i"
        half = halve(min((p for p in polys if p.degree == min_deg),
                         key=ring_key))
        q = (half.lead.inverse() * half).lift()
    else:
        dmin = min(p.degree for p in monics)
        case = "ii" if dmin == min_deg else "iii"
        cand = min((p for p in monics if p.degree == dmin), key=ring_key)
        g = cand.mod2().lift()
        a = halve(cand - g).lift()
        rows.append(as_word(cand))
        if case == "iii":
            halves = [halve(p) for p in polys
                      if all(not c.is_unit() for c in p.coeffs)]
            hmin = min(h.degree for h in halves)
            q = min((h.lead.inverse() * h for h in halves
                     if h.degree == hmin),
                    key=lambda h: tuple(ctx.field_index(c)
                                        for c in h.coeffs)).lift()
    if q is not None:
        rows.append(as_word((2 * q).reduce_mod_xn(s)))
    regen = span_closure(MixedMatrix(ctx, 0, s, rows), autom=autom, skew=True)
    return case, g, a, q, regen == code


def scan_coset_reps(codec, span, mult):
    """Representatives of the cosets of ``mult``'s intersection with
    ``span``: scanning the sorted multiples, each one not yet covered
    names its coset and covers it."""
    inter = mult[oracle._isin(span, mult)]
    reps = []
    covered = np.zeros(len(mult), dtype=bool)
    for i, k in enumerate(mult):
        if not covered[i]:
            reps.append(k)
            covered[np.searchsorted(mult, codec.add(inter, k))] = True
    return reps


def queue_close(codec, words, autom):
    """``(span, gens)`` by a queue of single words: drop the words the
    span holds, grow it by the first word left and, with ``autom``,
    append that word's shift to the queue."""
    span, gens = codec.array([0]), []
    work = words
    while len(work := work[~oracle._isin(span, work)]):
        mult = codec.multiples(work[:1])[0]
        span = oracle._grow(codec, span, mult, oracle.DEFAULT_BUDGET)
        gens.append(work[0])
        if autom is not None:
            work = np.concatenate([work, codec.shift(work[:1], autom)])
        work = work[1:]
    return span, codec.array(gens)


def krawtchouk(k, i, n, q):
    """Coefficient of ``X^(n-k) Y^k`` in ``(X + (q-1)Y)^(n-i) (X - Y)^i``."""
    return sum((-1) ** h * math.comb(i, h) * math.comb(n - i, k - h)
               * (q - 1) ** (k - h) for h in range(k + 1))


def block_weights(code):
    """Counts of (binary weight, quaternary weight) over the code."""
    codec = code.codec
    ctx = codec.ctx
    words = codec.array(code.packed)
    # Nonzero tables of its own, so the witness does not lean on the
    # codec's weight fold.
    ring, field = (np.array([int(bool(v)) for v in elems], dtype=codec.dtype)
                   for elems in (ctx.all_ring_elems(), ctx.all_field_elems()))
    binary = codec.map(words, codec.plan(
        codec.per_coord(np.zeros_like(ring), field), codec.zeros, 0))
    quaternary = codec.map(words, codec.plan(
        codec.per_coord(ring, np.zeros_like(field)), codec.zeros, 0))
    return Counter(zip(binary.tolist(), quaternary.tolist()))


def shift_orbit(row, autom):
    """The row and all its iterated skew shifts."""
    orbit = [row]
    while (nxt := theta_shift(orbit[-1], autom)) != row:
        orbit.append(nxt)
    return orbit


@st.composite
def random_rows(draw, ctx, shapes, max_rows):
    """One to ``max_rows`` words of one shape with arbitrary entries."""
    r, s = draw(st.sampled_from(shapes))
    m = ctx.m

    def word():
        alpha = [ctx.field_from_index(draw(st.integers(0, (1 << m) - 1)))
                 for _ in range(r)]
        beta = [ctx.ring_from_index(draw(st.integers(0, (1 << 2 * m) - 1)))
                for _ in range(s)]
        return MixedWord(ctx, alpha, beta)

    return [word() for _ in range(draw(st.integers(1, max_rows)))]


@st.composite
def period_two_row(draw):
    """A 66-bit word at m=3 whose shift orbit has length at most 2.

    Entries from GF(2) and Z4 are fixed by the Frobenius map, and the
    pattern repeats with period 2 on both blocks (r=2, s=10).
    """
    alpha = draw(st.lists(st.integers(0, 1), min_size=2, max_size=2))
    beta = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
    return MixedWord.from_ints(_CTX3, alpha, beta * 5)


_SMALL_SHAPES = [(0, 2), (0, 3), (1, 1), (1, 2), (2, 2), (2, 3)]
# Shapes at m=3 that pack into at most 64 bits.
_M3_SHAPES = [(0, 1), (0, 2), (1, 1), (2, 1), (1, 2)]
# Shapes whose ambient space has at most 2^10 words, for naive_dual.
_DUAL_SHAPES = {_CTX2: [(0, 2), (1, 1), (1, 2), (3, 1)],
                _CTX3: [(0, 1), (1, 1)]}
_M1_SHAPES = [(0, 3), (1, 2), (2, 3), (3, 4), (2, 6)]
# Shapes whose ambient space has at most 2^16 words, for the structural
# witnesses.
_WITNESS_SHAPES = {_CTX2: [(0, 4), (1, 3), (2, 2), (2, 3), (4, 2), (6, 1)],
                   _CTX3: [(0, 2), (1, 1), (1, 2), (3, 1), (5, 0)]}
# (ctx, r, s) by where brute_force_dual splits the packed bits, at
# bits // 2.
_SPLIT_SHAPES = [
    (_CTX1, 0, 3),  # bit 3, between the two bits of a Z4 coefficient
    (_CTX2, 2, 1),  # bit 4, the quaternary/binary border
    (_CTX2, 3, 1),  # bit 5, inside the binary block
    (_CTX2, 3, 0),  # bit 3, binary only
    (_CTX3, 1, 1),  # m = 3, bit 4 inside the quaternary block
    (_CTX3, 2, 1),  # m = 3, bit 6, the border
]


def wide_rows(ctx):
    """Two 66-bit words at m=3 (r=2, s=10) with a small skew closure.

    The quaternary block has period 2 and entries in 2R, the binary
    block holds any pair, so every closure stays within 2^12 words.
    """
    xi = ctx.field((0, 1))
    two_xi = ctx.ring((0, 2))
    zero, two = ctx.ring_zero(), ctx.ring((2,))
    return [MixedWord(ctx, [xi, ctx.field_zero()], [two_xi, zero] * 5),
            MixedWord(ctx, [ctx.field_one(), xi], [zero, two] * 5)]


def r1s1_rows(ctx):
    return [MixedWord.from_ints(ctx, [1], [1]),
            MixedWord.from_ints(ctx, [0], [2])]


class TestSpanClosure:
    def test_matches_naive_enumeration(self, ctx2):
        rows = r1s1_rows(ctx2)
        code = span_closure(rows)
        ref = naive_span(rows)
        assert len(code) == len(ref)
        for w in ref.values():
            assert w in code
        for w in code:
            assert str(w) in ref

    def test_idempotent(self, ctx2):
        rows = r1s1_rows(ctx2)
        once = span_closure(rows)
        again = span_closure(list(once))
        assert once == again

    def test_monotone(self, ctx2):
        small = span_closure([r1s1_rows(ctx2)[0]])
        big = span_closure(r1s1_rows(ctx2))
        assert len(small) <= len(big)
        for w in small:
            assert w in big

    def test_zero_rows_span_the_zero_code(self, ctx2):
        code = span_closure(MixedMatrix(ctx2, 1, 1))
        assert len(code) == 1
        assert MixedWord.from_ints(ctx2, [0], [0]) in code
        with pytest.raises(ShapeMismatch, match="empty MixedMatrix"):
            span_closure([])

    def test_skew_closure_adds_shift_orbits(self, ctx2, autom2):
        row = MixedWord.from_ints(ctx2, [], [1, 0, 1, 0])
        plain = span_closure([row])
        closed = span_closure([row], autom=autom2, skew=True)
        assert len(plain) == 16
        assert len(closed) == 256
        for w in closed:
            assert theta_shift(w, autom2) in closed

    def test_budget_is_enforced(self, ctx2):
        rows = [MixedWord.from_ints(ctx2, [], [1, 0, 0, 0]),
                MixedWord.from_ints(ctx2, [], [0, 1, 0, 0])]
        with pytest.raises(BudgetExceeded):
            span_closure(rows, budget=10)

    def test_container_protocol(self, ctx2):
        code = span_closure(r1s1_rows(ctx2))
        outside = MixedWord.from_ints(ctx2, [1], [0])
        assert outside not in code
        assert sorted(str(w) for w in code)[0] == "0 | 0"

    def test_budget_stops_before_allocating(self, ctx2):
        # Five independent unit rows span 16^5 = 2^20 words; the budget
        # admits the 2^16-word span of four of them.
        rows = [MixedWord.from_ints(ctx2, [], [int(i == j) for j in range(5)])
                for i in range(5)]
        budget = 1 << 16
        refused = 1 << 20
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as info:
                span_closure(rows, budget=budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * refused // 4
        assert str(refused) in str(info.value)
        assert str(budget) in str(info.value)

    def test_scalar_tables_refused_before_they_are_built(self):
        # A Hensel lift of 1 + x + x^7: its scalar tables would hold
        # 16^7 = 2^28 entries, past the default budget of 2^24.
        ctx7 = RingContext(7, (3, 1, 0, 0, 2, 0, 0, 1))
        with pytest.raises(BudgetExceeded, match=r"m = 7 .* 268435456 "):
            span_closure([MixedWord.from_ints(ctx7, [1], [1])])

    def test_wide_words_use_python_sets(self, ctx3):
        row = MixedWord.from_ints(ctx3, [1] + [0] * 21, [])
        code = span_closure([row])
        assert isinstance(code.packed, tuple)
        assert len(code) == 8
        assert row in code


class TestRecords:
    """The oracle's results are frozen records of the package."""

    def test_spans_pickle_and_neither_hash_nor_change(self, ctx2, ctx3):
        narrow = span_closure(r1s1_rows(ctx2))
        wide = span_closure([MixedWord.from_ints(ctx3, [1] + [0] * 21, [])])
        assert isinstance(narrow.packed, np.ndarray)
        assert isinstance(wide.packed, tuple)
        for code in (narrow, wide):
            copy = pickle.loads(pickle.dumps(code))
            assert copy == code
            assert type(copy.packed) is type(code.packed)
            with pytest.raises(TypeError):
                hash(code)
            with pytest.raises(AttributeError):
                code.packed = ()

    def test_records_holding_elements_pickle(self, ctx2, autom2):
        # Elements, skew polynomials and automorphism specs pickle through
        # their checking constructors, so the records holding them do.
        rows = [MixedWord.from_ints(ctx2, [], [1, 2, 1, 0])]
        found = classify_z4_skew_cyclic(
            span_closure(rows, autom=autom2, skew=True), autom2)
        assert found.g is not None and found.a is not None
        for value in (MixedWord.from_ints(ctx2, [1], [2]),
                      MixedWord(ctx2, [ctx2.field((0, 1))],
                                [ctx2.ring((3, 2))]),
                      gens_seven_seven(), standard_form(four_four_matrix()),
                      found):
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and str(copy) == str(value)

    def test_classification_fields(self):
        found = oracle.Classification("i")
        assert (found.g, found.a, found.q) == (None, None, None)
        assert found == oracle.Classification(case="i", q=None)
        assert found != oracle.Classification("ii")
        with pytest.raises(AttributeError):
            found.case = "ii"


class TestSpanProperties:
    """The coset loop against set-based references, on both layouts."""

    @settings(max_examples=30)
    @given(random_rows(_CTX2, _SMALL_SHAPES, 2))
    def test_array_span_matches_naive(self, rows):
        code = span_closure(rows)
        assert code.codec.vector
        ref = sorted(code.codec.encode(w) for w in naive_span(rows).values())
        assert [int(v) for v in code.packed] == ref

    @settings(max_examples=4)
    @given(random_rows(_CTX3, [(2, 10)], 2))
    def test_tuple_span_matches_naive(self, rows):
        code = span_closure(rows)
        assert isinstance(code.packed, tuple)
        ref = sorted(code.codec.encode(w) for w in naive_span(rows).values())
        assert [int(v) for v in code.packed] == ref

    @settings(max_examples=30)
    @given(random_rows(_CTX2, _SMALL_SHAPES, 2))
    def test_array_skew_closure_spans_all_shifts(self, rows):
        orbits = [w for row in rows for w in shift_orbit(row, _AUT2)]
        closed = span_closure(rows, autom=_AUT2, skew=True)
        assert closed == span_closure(orbits)

    @settings(max_examples=10)
    @given(st.lists(period_two_row(), min_size=1, max_size=2))
    def test_tuple_skew_closure_spans_all_shifts(self, rows):
        orbits = [w for row in rows for w in shift_orbit(row, _AUT3)]
        closed = span_closure(rows, autom=_AUT3, skew=True)
        assert isinstance(closed.packed, tuple)
        assert closed == span_closure(orbits)

    @settings(max_examples=12)
    @given(random_rows(_CTX3, _M3_SHAPES, 2), st.sampled_from([1, 2]))
    def test_m3_skew_closure_spans_all_shifts(self, rows, t):
        autom = AutomorphismSpec(_CTX3, t)
        orbits = [w for row in rows for w in shift_orbit(row, autom)]
        closed = span_closure(rows, autom=autom, skew=True)
        assert closed.codec.vector
        assert closed == span_closure(orbits)
        assert is_skew_cyclic(closed, autom)

    @settings(max_examples=40)
    @given(st.data(), st.sampled_from([
        (_CTX1, [(0, 3), (2, 6)]), (_CTX2, _SMALL_SHAPES),
        (_CTX2, [(1, 16)]), (_CTX3, [(1, 2)]), (_CTX3, [(2, 10)])]))
    def test_coset_reps_match_the_sorted_scan(self, data, ctx_shapes):
        # (1, 16) at m = 2 and (2, 10) at m = 3 pack into 66 bits.
        ctx, shapes = ctx_shapes
        rows = data.draw(random_rows(ctx, shapes, 3))
        if len(rows) > 1 and data.draw(st.booleans()):
            # Twice this row lies in the span of the first: the
            # intersection is a proper subgroup of its multiples.
            rows[-1] = rows[0] + rows[-1].scale(ctx.ring((2,)))
        codec = oracle._Codec(ctx, rows[0].r, rows[0].s)
        span = codec.array([0])
        for row in rows:
            packed = codec.encode(row)
            # The raw row of multiples, unsorted and with repeats, against
            # a scan of its distinct multiples.
            mult = codec.multiples(codec.array([packed]))[0]
            reps = scan_coset_reps(codec, span, np.unique(mult))
            assert [int(k) for k in oracle._coset_reps(codec, span, mult)] \
                == [int(k) for k in reps]
            # A row the span holds leaves one coset, and only such a row.
            held = oracle._isin(span, codec.array([packed]))[0]
            assert (len(reps) == 1) == held
            if held:
                continue
            grown = oracle._grow(codec, span, mult, oracle.DEFAULT_BUDGET)
            ref = np.sort(np.concatenate([codec.add(span, k) for k in reps]))
            assert grown.dtype == codec.dtype
            assert [int(v) for v in grown] == [int(v) for v in ref]
            span = grown


class TestClosureLoop:
    """``_close``, the one loop behind spans, the dual's generating set
    and the classifier's regeneration."""

    @settings(max_examples=30)
    @given(st.data(), st.sampled_from([
        (_CTX1, _M1_SHAPES), (_CTX2, _SMALL_SHAPES), (_CTX3, _M3_SHAPES),
        (_CTX3, None)]), st.sampled_from([1, 2]), st.booleans())
    def test_each_generator_grows_the_span(self, data, ctx_shapes, t, skew):
        ctx, shapes = ctx_shapes
        if shapes is None:
            # 66-bit words whose skew closure stays within 2^12 words.
            wide = wide_rows(ctx)
            rows = data.draw(st.sampled_from([wide[:1], wide[1:], wide]))
        else:
            rows = data.draw(random_rows(ctx, shapes, 3))
        code = span_closure(rows, autom=AutomorphismSpec(ctx, t), skew=skew)
        gens = [code.codec.decode(int(g)) for g in code.gens]
        sizes = [len(span_closure(MixedMatrix(ctx, code.r, code.s, gens[:k])))
                 for k in range(len(gens) + 1)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert span_closure(MixedMatrix(ctx, code.r, code.s, gens)) == code

    @settings(max_examples=40)
    @given(st.data(), st.sampled_from([
        (_CTX1, _M1_SHAPES), (_CTX2, _SMALL_SHAPES), (_CTX3, _M3_SHAPES),
        (_CTX3, None)]), st.sampled_from([1, 2]), st.booleans(),
        st.sampled_from(["rows", "dependent", "enumerated"]))
    def test_rounds_match_the_one_word_queue(self, data, ctx_shapes, t, skew,
                                             source):
        ctx, shapes = ctx_shapes
        if shapes is None:
            # 66-bit words whose skew closure stays within 2^12 words.
            rows = wide_rows(ctx)
        else:
            rows = data.draw(random_rows(ctx, shapes, 3))
        if source == "dependent":
            # A sum ahead of its second term, and a double at the end.
            rows = [rows[0], rows[0] + rows[-1], *rows[1:],
                    rows[-1].scale(ctx.ring((2,)))]
        codec = oracle._codec(ctx, rows[0].r, rows[0].s)
        if source == "enumerated":
            # The sorted words of a set without gens, as a dual is read.
            words = codec.array(span_closure(rows).packed)
        else:
            words = codec.array([codec.encode(w) for w in rows])
        autom = AutomorphismSpec(ctx, t) if skew else None
        span, gens = oracle._close(codec, words, autom, oracle.DEFAULT_BUDGET)
        ref_span, ref_gens = queue_close(codec, words, autom)
        assert span.dtype == codec.dtype
        assert [int(v) for v in span] == [int(v) for v in ref_span]
        assert [int(g) for g in gens] == [int(g) for g in ref_gens]

    def test_a_set_without_gens_maps_few_multiples_a_call(self, ctx2,
                                                          monkeypatch):
        dual = brute_force_dual(span_closure(
            [MixedWord.from_ints(ctx2, [1], [2, 2, 0])]))
        assert (len(dual), dual.gens) == (4096, None)
        sizes = []
        multiples = oracle._Codec.multiples
        monkeypatch.setattr(oracle._Codec, "multiples",
                            lambda codec, arr: sizes.append(len(arr))
                            or multiples(codec, arr))
        again = span_closure(dual)
        assert again == dual
        # Every call's first word grows the span, so there are at most
        # as many calls as generators, of at most codec.bits words each.
        assert max(sizes) <= dual.codec.bits
        assert len(sizes) <= len(again.gens)

    def test_dependent_rows_cost_no_step(self, ctx2, autom2, monkeypatch):
        # The third row is the sum of the first two, and the second is
        # the shift of the first: of the four rows and their shifts only
        # three words grow the span.
        rows = [MixedWord.from_ints(ctx2, [], entries) for entries in
                ([2, 0, 0], [0, 2, 0], [2, 2, 0], [0, 0, 2])]
        calls = Counter()
        for name in ("multiples", "shift"):
            def counted(codec, *args, _name=name,
                        _method=getattr(oracle._Codec, name)):
                calls[_name] += 1
                return _method(codec, *args)
            monkeypatch.setattr(oracle._Codec, name, counted)
        code = span_closure(rows, autom=autom2, skew=True)
        assert (len(code), len(code.gens)) == (64, 3)
        # One map of multiples and one shift per round: the rows, then
        # the generators' shifts, which the span holds.
        assert calls == {"multiples": 1, "shift": 1}

    def test_enumerated_input_is_read_packed(self, ctx2, monkeypatch):
        code = span_closure(r1s1_rows(ctx2))
        decodes = []
        decode = oracle._Codec.decode
        monkeypatch.setattr(oracle._Codec, "decode",
                            lambda codec, v: decodes.append(v)
                            or decode(codec, v))
        again = span_closure(code)
        assert again == code
        assert decodes == []

    @pytest.mark.parametrize("ctx,r,s", [(_CTX2, 1, 2), (_CTX3, 2, 10)],
                             ids=["narrow", "wide"])
    def test_empty_enumerated_set_spans_the_zero_code(self, ctx, r, s):
        codec = oracle._codec(ctx, r, s)
        empty = oracle.EnumeratedCode(codec, codec.store(codec.array([])),
                                      None)
        zero = span_closure(empty)
        assert zero == span_closure(MixedMatrix(ctx, r, s))
        assert (len(zero), len(zero.gens)) == (1, 0)


class TestBruteForceDual:
    def test_matches_inner_product_filter(self, ctx2):
        rows = r1s1_rows(ctx2)
        code = span_closure(rows)
        dual = brute_force_dual(code)
        zero = ctx2.ring_zero()
        ref = []
        for a in ctx2.all_field_elems():
            for b in ctx2.all_ring_elems():
                w = MixedWord(ctx2, [a], [b])
                if all(inner_product(w, row) == zero for row in rows):
                    ref.append(w)
        assert len(dual) == len(ref)
        for w in ref:
            assert w in dual

    def test_involution(self, ctx2):
        code = span_closure(r1s1_rows(ctx2))
        assert brute_force_dual(brute_force_dual(code)) == code

    def test_cardinality_product_law(self, ctx2):
        code = span_closure(r1s1_rows(ctx2))
        dual = brute_force_dual(code)
        assert len(code) * len(dual) == 1 << (2 * (1 + 2 * 1))

    def test_ambient_budget(self, ctx2):
        code = span_closure(r1s1_rows(ctx2))
        with pytest.raises(BudgetExceeded):
            brute_force_dual(code, budget=10)

    @settings(max_examples=10)
    @given(random_rows(_CTX3, [(0, 1), (1, 1), (2, 1), (0, 2)], 2))
    def test_m3_matches_parity_check_span(self, rows):
        mat = MixedMatrix.from_rows(rows)
        sf = standard_form(mat)
        permuted = mat.permute_columns(sf.bin_perm, sf.quat_perm)
        code = span_closure(list(permuted.rows))
        dual = span_closure(parity_check(sf))
        assert brute_force_dual(code) == dual

    def test_wide_words_exceed_any_budget(self, ctx3):
        code = span_closure(wide_rows(ctx3))
        assert not code.codec.vector
        with pytest.raises(BudgetExceeded):
            brute_force_dual(code, budget=1 << 70)


class TestDualWitnesses:
    """brute_force_dual against a per-codeword filter and MacWilliams."""

    @settings(max_examples=12)
    @given(st.data(), st.sampled_from([_CTX2, _CTX3]), st.sampled_from([1, 2]),
           st.booleans())
    def test_matches_naive_dual(self, data, ctx, t, skew):
        rows = data.draw(random_rows(ctx, _DUAL_SHAPES[ctx], 2))
        code = span_closure(rows, autom=AutomorphismSpec(ctx, t), skew=skew)
        assert len(code.gens) <= len(code).bit_length()
        ref = naive_dual(code, ctx, code.r, code.s)
        assert [int(v) for v in brute_force_dual(code).packed] == ref

    @pytest.mark.parametrize("ctx,r,s", _SPLIT_SHAPES, ids=[
        "m1-odd-in-quaternary", "m2-border", "m2-in-binary", "m2-binary-only",
        "m3-in-quaternary", "m3-border"])
    @settings(max_examples=4)
    @given(data=st.data())
    def test_every_split_placement_matches_naive_dual(self, data, ctx, r, s):
        code = span_closure(data.draw(random_rows(ctx, [(r, s)], 2)))
        dual = brute_force_dual(code)
        assert np.all(dual.packed[1:] > dual.packed[:-1])
        assert [int(v) for v in dual.packed] == naive_dual(code, ctx, r, s)

    def test_bare_rows_not_closed_under_addition(self, ctx2):
        rows = [MixedWord.from_ints(ctx2, [1], [1, 0]),
                MixedWord.from_ints(ctx2, [0], [2, 1])]
        dual = brute_force_dual(rows)
        assert [int(v) for v in dual.packed] == naive_dual(rows, ctx2, 1, 2)

    def test_dual_of_dual(self, ctx2):
        code = span_closure([MixedWord.from_ints(ctx2, [1], [1, 2]),
                             MixedWord.from_ints(ctx2, [0], [2, 3])])
        dual = brute_force_dual(code)
        again = brute_force_dual(dual)
        assert [int(v) for v in again.packed] == naive_dual(dual, ctx2, 1, 2)
        assert again == code

    def test_dual_of_dual_pairs_in_one_map_call(self, ctx2, monkeypatch):
        code = span_closure([MixedWord.from_ints(ctx2, [1], [2, 2, 0])])
        dual = brute_force_dual(code)
        assert (len(code), len(dual), dual.gens) == (4, 4096, None)
        gens = oracle._close(dual.codec, dual.codec.array(dual.packed),
                             None, oracle.DEFAULT_BUDGET)[1]
        pairings, multiples = [], []
        mapping = oracle._Codec.map

        def counted(codec, arr, plan):
            # Scalar multiples map at most codec.bits words a call; the
            # pairing maps both halves of the ambient space in one call.
            if plan is codec.plans.get("scaled"):
                multiples.append([int(v) for v in arr])
            else:
                pairings.append((len(arr), plan[0][2].shape[1:]))
            return mapping(codec, arr, plan)

        monkeypatch.setattr(oracle._Codec, "map", counted)
        assert brute_force_dual(dual) == code
        # 14 bits split at bit 7: 2^7 + 2^7 words, not 2^14, with one
        # key column per generator.
        assert pairings == [(256, (len(gens),))]
        assert all(len(words) <= dual.codec.bits for words in multiples)
        mapped = {v for words in multiples for v in words}
        assert all(int(g) in mapped for g in gens)

    def test_zero_code_has_the_ambient_dual(self, ctx2):
        empty = MixedMatrix(ctx2, 1, 2)
        dual = brute_force_dual(span_closure(empty))
        assert len(dual) == 1 << 10
        assert [int(v) for v in dual.packed] == naive_dual(empty, ctx2, 1, 2)
        assert brute_force_dual(empty) == dual

    @settings(max_examples=15)
    @given(st.data(), st.sampled_from([_CTX1, _CTX2]))
    def test_macwilliams_identity(self, data, ctx):
        """Two-block MacWilliams identity for the enumerated dual.

        ``W_dual(X0, Y0, X1, Y1) = W_C(X0 + (2^m-1)Y0, X0 - Y0,
        X1 + (4^m-1)Y1, X1 - Y1) / |C|``, where ``W`` counts words by
        binary and quaternary Hamming weight (Borges, Fernandez-Cordoba,
        Pujol, Rifa, Villanueva, "Z2Z4-linear codes: generator matrices
        and duality", Des. Codes Cryptogr. 54 (2010)).
        """
        shapes = _M1_SHAPES if ctx.m == 1 else _SMALL_SHAPES
        code = span_closure(data.draw(random_rows(ctx, shapes, 3)))
        r, s, m = code.r, code.s, ctx.m
        weights = block_weights(code)
        dual_weights = block_weights(brute_force_dual(code))
        for k in range(r + 1):
            for l in range(s + 1):
                transform = sum(
                    n * krawtchouk(k, i, r, 1 << m)
                    * krawtchouk(l, j, s, 1 << (2 * m))
                    for (i, j), n in weights.items())
                assert transform == len(code) * dual_weights[(k, l)]


class TestSkewCyclicPredicate:
    def test_shift_closed_span(self, ctx2, autom2):
        row = MixedWord.from_ints(ctx2, [], [1, 0, 1, 0])
        code = span_closure([row, theta_shift(row, autom2)])
        assert is_skew_cyclic(code, autom2)

    def test_open_span(self, ctx2, autom2):
        rows = [MixedWord.from_ints(ctx2, [], [1, 0, 1, 0]),
                MixedWord.from_ints(ctx2, [], [0, 2, 0, 2])]
        assert not is_skew_cyclic(span_closure(rows), autom2)

    def test_mixed_blocks_shift_together(self, ctx2, autom2):
        row = MixedWord.from_ints(ctx2, [1, 1], [2, 0])
        code = span_closure([row], autom=autom2, skew=True)
        assert is_skew_cyclic(code, autom2)

    def test_zero_code_from_an_empty_matrix(self, ctx2, autom2):
        empty = MixedMatrix(ctx2, 1, 2)
        assert is_skew_cyclic(empty, autom2) is True
        assert is_skew_cyclic(span_closure(empty), autom2) is True

    @pytest.mark.parametrize("check", [
        lambda rows, autom: span_closure(rows, autom=autom, skew=True),
        lambda rows, autom: is_skew_cyclic(rows, autom),
        lambda rows, autom: classify_z4_skew_cyclic(
            span_closure(rows, autom=_AUT2, skew=True), autom),
    ], ids=["span_closure", "is_skew_cyclic", "classify_z4_skew_cyclic"])
    def test_foreign_automorphism_refused_by_skew_closure(self, ctx2,
                                                          autom2, check):
        # Under the m = 3 automorphism with t = 2 the shift would read
        # the m = 2 tables at t % 2 = 0, an untwisted rotation.
        row = MixedWord(ctx2, [], [ctx2.ring((1,)), ctx2.ring((0, 1)),
                                   ctx2.ring_zero()])
        assert len(span_closure([row], autom=autom2, skew=True)) == 4096
        with pytest.raises(ContextMismatch):
            check([row], AutomorphismSpec(_CTX3, 2))

    @pytest.mark.parametrize("rows", [
        MixedMatrix(_CTX2, 1, 2), [MixedWord.from_ints(_CTX2, [0], [0, 0])]],
        ids=["empty-matrix", "zero-word"])
    def test_foreign_automorphism_refused_for_the_zero_code(self, rows):
        # No word grows the zero code's span, so no shift runs.
        with pytest.raises(ContextMismatch):
            span_closure(rows, autom=AutomorphismSpec(_CTX3, 2), skew=True)

    @pytest.mark.parametrize("t", [1, 2])
    def test_wide_words_agree_with_shift_membership(self, ctx3, t):
        autom = AutomorphismSpec(ctx3, t)
        rows = wide_rows(ctx3)
        closed = span_closure(rows, autom=autom, skew=True)
        opened = span_closure(rows)
        assert isinstance(closed.packed, tuple)
        for code, expect in ((closed, True), (opened, False)):
            members = all(theta_shift(w, autom) in code for w in code)
            assert members is expect
            assert is_skew_cyclic(code, autom) is expect


# (ctx, r, s) of the grouped-plan witnesses: at each m, shapes of at most
# 64 bits and past 64 bits, with r = 0 and with s = 0 among them.
_PLAN_SHAPES = [
    (_CTX1, 0, 3), (_CTX1, 4, 0), (_CTX1, 3, 5),
    (_CTX1, 0, 33), (_CTX1, 65, 0), (_CTX1, 10, 30),
    (_CTX2, 0, 2), (_CTX2, 5, 0), (_CTX2, 3, 4),
    (_CTX2, 0, 17), (_CTX2, 33, 0), (_CTX2, 8, 16),
    (_CTX3, 0, 2), (_CTX3, 3, 0), (_CTX3, 2, 3),
    (_CTX3, 0, 11), (_CTX3, 22, 0), (_CTX3, 2, 10),
]


def nonzero_count(w):
    return sum(1 for a in w.alpha if a) + sum(1 for b in w.beta if b)


class TestGroupedPlans:
    """Grouped lookups against word-by-word references."""

    @settings(max_examples=60)
    @given(st.data(), st.sampled_from(_PLAN_SHAPES), st.sampled_from([1, 2]))
    def test_shift_and_weight_match_word_by_word(self, data, shape, t):
        ctx, r, s = shape
        autom = AutomorphismSpec(ctx, t)
        words = data.draw(random_rows(ctx, [(r, s)], 6))
        codec = oracle._codec(ctx, r, s)
        assert codec.vector is (codec.bits <= 64)
        arr = codec.array([codec.encode(w) for w in words])
        shifted = codec.shift(arr, autom)
        assert [codec.decode(int(v)) for v in shifted] == \
            [theta_shift(w, autom) for w in words]
        assert codec.weights(arr).tolist() == \
            [nonzero_count(w) for w in words]

    @pytest.mark.parametrize("ctx, r, s", _PLAN_SHAPES)
    def test_weight_fold_stays_in_each_coordinate(self, ctx, r, s):
        # Each bit alone, every bit, and the top bit of every coordinate
        # (2 w^(m-1) or w^(m-1)): a fold step past a coordinate's width
        # would OR the next coordinate's bits into its lowest bit.
        codec = oracle._Codec(ctx, r, s)
        tops = sum(1 << (int(src) + width - 1)
                   for src, width in zip(codec.offsets, codec.widths))
        words = [1 << b for b in range(codec.bits)] + \
            [(1 << codec.bits) - 1, tops]
        assert codec.weights(codec.array(words)).tolist() == \
            [1] * codec.bits + [r + s] * 2

    @pytest.mark.parametrize("ctx, r, s", _PLAN_SHAPES)
    def test_groups_tile_the_word_within_the_bound(self, ctx, r, s):
        codec = oracle._Codec(ctx, r, s)
        t = codec.tables
        kinds = [(t["ring_scaled"], t["field_scaled"], codec.offsets),
                 (t["ring_frob"][0], t["field_frob"][0], codec.rotated)]
        for ring, field, dest in kinds:
            plan = codec.plan(codec.per_coord(ring, field), dest,
                              oracle._GROUP)
            ends = [0]
            for src, mask, table in plan:
                width = int(mask).bit_length()
                assert int(src) == ends[-1]
                assert len(table) == 1 << width
                if ends[-1]:
                    # The group before could not take this coordinate.
                    first = codec.widths[codec.offsets.index(src)]
                    assert previous.size << first > oracle._GROUP
                ends.append(ends[-1] + width)
                previous = table
                # A merged table keeps to the bound; only a coordinate
                # past it alone makes a larger one.
                assert table.size <= oracle._GROUP or \
                    ends[-2] in codec.offsets and width in codec.widths
            assert ends[-1] == codec.bits

    def test_a_coordinate_past_the_bound_is_a_group_of_one(self, ctx3):
        # m = 3: a ring coordinate's scaled multiples take 64 x 64
        # entries, past the bound, so each is looked up alone; the
        # binary ones (8 x 64 entries) cannot pair either.
        codec = oracle._Codec(ctx3, 2, 3)
        t = codec.tables
        bound = 1 << 10
        plan = codec.plan(codec.per_coord(t["ring_scaled"], t["field_scaled"]),
                          codec.offsets, bound)
        assert [(int(src), int(mask)) for src, mask, _ in plan] == \
            [(0, 63), (6, 63), (12, 63), (18, 7), (21, 7)]
        assert plan[0][2].size == 4096 > bound
        # The shift's 64-entry tables do pair up within the bound.
        shift = codec.plan(codec.per_coord(t["ring_frob"][1],
                                           t["field_frob"][1]),
                           codec.rotated, bound)
        assert len(shift) < 5
        rows = [MixedWord.from_ints(ctx3, [1, 5], [3, 0, 9])]
        code = span_closure(rows)
        assert len(code) == len(set(code.codec.multiples(code.codec.array(
            [code.codec.encode(rows[0])]))[0].tolist()))


    def test_the_bound_follows_the_word_layout(self, ctx2, autom2,
                                               monkeypatch):
        # 2^12 uint64 entries and 2^10 object entries, each about 32 KB.
        bounds = []
        plan = oracle._Codec.plan
        monkeypatch.setattr(oracle._Codec, "plan",
                            lambda codec, tables, dest, bound:
                            bounds.append((codec.vector, bound))
                            or plan(codec, tables, dest, bound))
        narrow, wide = oracle._Codec(ctx2, 8, 8), oracle._Codec(ctx2, 4, 16)
        for codec in (narrow, wide):
            codec.shift(codec.array([1]), autom2)
        assert bounds == [(True, 1 << 12), (False, 1 << 10)]
        # 48 bits in four lookups of 12 bits each.
        assert [int(mask) for _, mask, _ in narrow.plans[("frob", 1)]] == \
            [(1 << 12) - 1] * 4
        assert max(t.size for _, _, t in wide.plans[("frob", 1)]) == 1 << 10


class TestCodecCache:
    """One codec per shape, each plan built once."""

    def test_repeated_passes_build_each_plan_once(self, ctx2, autom2,
                                                  monkeypatch):
        oracle._codec.cache_clear()
        built = []
        plan = oracle._Codec.plan

        def counted(codec, tables, dest, bound):
            built.append(bound)
            return plan(codec, tables, dest, bound)

        monkeypatch.setattr(oracle._Codec, "plan", counted)
        rows = [MixedWord.from_ints(ctx2, [1, 0], [2, 1])]
        codes = []
        for _ in range(3):
            code = span_closure(rows, autom=autom2, skew=True)
            assert is_skew_cyclic(code, autom2)
            assert is_skew_cyclic(span_closure(rows), autom2) is False
            assert min_hamming_distance(code) == min(
                nonzero_count(w) for w in code if not w.is_zero)
            codes.append(code)
        # Scalar multiples and the shift at t = 1; weights take no plan.
        assert built == [oracle._GROUP] * 2
        assert codes[0].codec is codes[2].codec
        assert sorted(map(str, codes[0].codec.plans)) == \
            ["('frob', 1)", "scaled"]

    def test_classifier_builds_its_plans_once(self, ctx2, autom2,
                                              monkeypatch):
        # The regenerating skew closure used to rebuild its placed tables
        # in every map call, about 8 per job.
        code = span_closure([MixedWord.from_ints(ctx2, [], [1, 2, 1, 0])],
                            autom=autom2, skew=True)
        classify_z4_skew_cyclic(code, autom2)
        built = []
        plan = oracle._Codec.plan
        monkeypatch.setattr(oracle._Codec, "plan",
                            lambda *args: built.append(args) or plan(*args))
        for _ in range(3):
            assert classify_z4_skew_cyclic(code, autom2).case == "ii"
        assert built == []

    def test_cache_has_a_bound(self, ctx1):
        oracle._codec.cache_clear()
        assert oracle._codec.cache_info().maxsize == oracle._CODECS
        first = oracle._codec(ctx1, 1, 1)
        for r in range(2, oracle._CODECS + 6):
            oracle._codec(ctx1, r, 1)
        assert oracle._codec.cache_info().currsize == oracle._CODECS
        assert oracle._codec(ctx1, 1, 1) is not first
        assert oracle._codec(ctx1, 1, 1) is oracle._codec(ctx1, 1, 1)

    def test_codes_with_built_plans_pickle(self, ctx2, ctx3):
        for ctx, rows in ((ctx2, r1s1_rows(ctx2)), (ctx3, wide_rows(ctx3))):
            autom = AutomorphismSpec(ctx, 1)
            code = span_closure(rows, autom=autom, skew=True)
            distance = min_hamming_distance(code)
            assert code.codec.plans
            copy = pickle.loads(pickle.dumps(code))
            assert copy == code and copy.codec.plans == {}
            assert type(copy.packed) is type(code.packed)
            assert is_skew_cyclic(copy, autom)
            assert min_hamming_distance(copy) == distance


def sparse_word(rng, ctx, r, s):
    """A random word of shape ``(r, s)``; 40% of its entries are zero."""
    def index(bits):
        return 0 if rng.random() < 0.4 else rng.randrange(1 << bits)

    return MixedWord(ctx, [ctx.field_from_index(index(ctx.m))
                           for _ in range(r)],
                     [ctx.ring_from_index(index(2 * ctx.m))
                      for _ in range(s)])


def witness_rows(rng, ctx, autom, complete):
    """One to three sparse rows of a shape with at most 2^16 ambient
    words, 30% of them doubled, so column swaps and doubled pivots
    occur.  With ``complete``, every shift of every row joins them, so
    their span is skew cyclic."""
    r, s = rng.choice(_WITNESS_SHAPES[ctx])
    rows = []
    for _ in range(rng.randint(1, 3)):
        w = sparse_word(rng, ctx, r, s)
        rows.append(w.scale(ctx.ring((2,))) if rng.random() < 0.3 else w)
    if complete:
        rows = [w for row in rows for w in shift_orbit(row, autom)]
    return rows


class TestStructuralWitnesses:
    """skew_closed and syndrome, both read from the parity check,
    against the enumerated span."""

    @pytest.mark.parametrize("ctx", [_CTX2, _CTX3], ids=["m2", "m3"])
    @pytest.mark.parametrize("t", [1, 2])
    @settings(max_examples=30)
    @given(rng=st.randoms(use_true_random=False))
    def test_skew_closed_matches_enumeration(self, rng, ctx, t):
        autom = AutomorphismSpec(ctx, t)
        completed = rng.random() < 0.5
        rows = witness_rows(rng, ctx, autom, completed)
        closed = skew_closed(MixedMatrix.from_rows(rows), autom)
        assert closed is is_skew_cyclic(span_closure(rows), autom)
        assert closed or not completed

    def test_seeded_corpus_shows_both_answers(self):
        rng = random.Random(13)
        answers = Counter()
        for _ in range(80):
            ctx = rng.choice((_CTX2, _CTX3))
            autom = AutomorphismSpec(ctx, rng.choice((1, 2)))
            rows = witness_rows(rng, ctx, autom, rng.random() < 0.5)
            closed = skew_closed(MixedMatrix.from_rows(rows), autom)
            assert closed is is_skew_cyclic(span_closure(rows), autom)
            answers[closed] += 1
        assert answers[True] >= 20 and answers[False] >= 20

    @pytest.mark.parametrize("ctx", [_CTX2, _CTX3], ids=["m2", "m3"])
    @settings(max_examples=40)
    @given(rng=st.randoms(use_true_random=False))
    def test_zero_syndrome_is_membership(self, rng, ctx):
        rows = witness_rows(rng, ctx, None, False)
        r, s = rows[0].r, rows[0].s
        if rng.random() < 0.5:
            w = sparse_word(rng, ctx, r, s)
        else:
            w = MixedWord.from_ints(ctx, [0] * r, [0] * s)
            for row in rows:
                w = w + row.scale(ctx.ring_from_index(
                    rng.randrange(1 << 2 * ctx.m)))
        sf = standard_form(MixedMatrix.from_rows(rows))
        moved = w.permute_columns(sf.bin_perm, sf.quat_perm)
        member = not any(syndrome(parity_check(sf), moved))
        assert member is (w in span_closure(rows))


class TestClassifier:
    def test_case_i(self, ctx2, autom2):
        q = SkewPoly.from_ints(autom2, [1, 0, 1], True)
        rows = [MixedWord.from_ints(ctx2, [], [2, 0, 2, 0])]
        code = span_closure(rows, autom=autom2, skew=True)
        cls = classify_z4_skew_cyclic(code, autom2)
        assert cls.case == "i"
        assert cls.q == q
        assert cls.g is None and cls.a is None

    def test_case_ii(self, ctx2, autom2):
        rows = [MixedWord.from_ints(ctx2, [], [1, 2, 1, 0])]
        code = span_closure(rows, autom=autom2, skew=True)
        cls = classify_z4_skew_cyclic(code, autom2)
        assert cls.case == "ii"
        assert cls.g == SkewPoly.from_ints(autom2, [1, 0, 1], True)
        assert cls.a == SkewPoly.from_ints(autom2, [0, 1], True)

    def test_case_iii(self, ctx2, autom2):
        ctx = ctx2
        g_row = MixedWord(ctx, [], [ctx.ring((1,)), ctx.ring((0, 2)),
                                    ctx.ring((1,)), ctx.ring_zero()])
        q_row = MixedWord.from_ints(ctx, [], [2, 2, 0, 0])
        code = span_closure([g_row, q_row], autom=autom2, skew=True)
        cls = classify_z4_skew_cyclic(code, autom2)
        assert cls.case == "iii"
        assert cls.q == SkewPoly.from_ints(autom2, [1, 1], True)
        assert cls.g is not None and cls.g.degree == 2

    def test_full_space_is_case_ii_with_unit_generator(self, ctx2, autom2):
        rows = [MixedWord.from_ints(ctx2, [], [1, 0])]
        code = span_closure([rows[0], theta_shift(rows[0], autom2)])
        cls = classify_z4_skew_cyclic(code, autom2)
        assert cls.case == "ii"
        assert cls.g == SkewPoly.one(autom2)
        assert cls.a is None or cls.a.is_zero

    def test_non_code_rejected(self, ctx2, autom2):
        rows = [MixedWord.from_ints(ctx2, [], [1, 0, 1, 0]),
                MixedWord.from_ints(ctx2, [], [0, 2, 0, 2])]
        with pytest.raises(NotACode):
            classify_z4_skew_cyclic(span_closure(rows), autom2)

    def test_non_code_is_named_by_its_open_shift(self, ctx2, autom2):
        rows = [MixedWord.from_ints(ctx2, [], [1, 0, 1, 0]),
                MixedWord.from_ints(ctx2, [], [0, 2, 0, 2])]
        with pytest.raises(NotACode, match="skew shift"):
            classify_z4_skew_cyclic(span_closure(rows), autom2)

    def test_open_set_is_refused_within_its_own_size(self, ctx2, autom2):
        # The skew closure of (1, 0, ..., 0) is all 2^28 words, past the
        # default budget; the regeneration stops at the set's 2 words.
        rows = [MixedWord.from_ints(ctx2, [], [c] + [0] * 6) for c in (0, 1)]
        with pytest.raises(NotACode, match="skew shift"):
            classify_z4_skew_cyclic(rows, autom2)

    def test_binary_block_rejected(self, ctx2, autom2):
        code = span_closure([MixedWord.from_ints(ctx2, [1], [2])])
        with pytest.raises(ShapeMismatch):
            classify_z4_skew_cyclic(code, autom2)

    def test_set_without_doubled_words_rejected(self, ctx1, autom1):
        # Shift closed, but twice (1, 2, 0) is missing; the least-degree
        # word has a doubled lead, so the set would be case iii.
        rows = [MixedWord.from_ints(ctx1, [], v)
                for v in ([0, 0, 0], [1, 2, 0], [0, 1, 2], [2, 0, 1])]
        assert is_skew_cyclic(rows, autom1)
        with pytest.raises(NotACode):
            classify_z4_skew_cyclic(rows, autom1)

    def test_zero_code_is_trivial(self, ctx2, autom2):
        empty = MixedMatrix(ctx2, 0, 2)
        for code in (empty, span_closure(empty)):
            with pytest.raises(TrivialCode):
                classify_z4_skew_cyclic(code, autom2)

    def test_witnesses_regenerate(self, ctx2, autom2):
        rows = [MixedWord.from_ints(ctx2, [], [3, 2, 1, 0])]
        code = span_closure(rows, autom=autom2, skew=True)
        cls = classify_z4_skew_cyclic(code, autom2)
        regen_rows = []
        if cls.g is not None:
            word = cls.g if cls.a is None else cls.g + 2 * cls.a
            regen_rows.append(MixedWord(
                ctx2, [], [word.coeff(i) for i in range(4)]))
        if cls.q is not None:
            doubled = 2 * cls.q
            regen_rows.append(MixedWord(
                ctx2, [], [doubled.coeff(i) for i in range(4)]))
        assert span_closure(regen_rows, autom=autom2, skew=True) == code


# Classifications recorded before the classifier read degrees from
# packed words: (m, s, rows, |C|, case, g, a, q), entries and
# coefficients as context indices, t = 1.
_PINNED = [
    (1, 6, [[2, 0, 0, 0, 0, 2]], 32, "i", None, None, [1, 1]),
    (1, 6, [[1, 2, 0, 0, 0, 3]], 1024, "ii", [1, 1], [], None),
    (1, 6, [[1, 3, 0, 0, 1, 3]], 512, "iii", [1, 0, 1], [0, 1], [1, 1]),
    (2, 4, [[10, 2, 0, 8]], 16, "i", None, None, [5, 4, 1]),
    (2, 4, [[12, 7, 0, 0]], 4096, "ii", [5, 1], [4], None),
    (2, 4, [[13, 15, 0, 3], [8, 8, 0, 0]], 4096, "iii", [5, 1, 1], [], [1]),
    (3, 3, [[0, 40, 34]], 64, "i", None, None, [17, 1]),
    (3, 3, [[10, 53, 43]], 4096, "ii", [17, 1], [16], None),
    (3, 3, [[48, 0, 14], [34, 2, 0]], 32768, "iii", [21, 1], [], [1]),
]
_CTXS = {1: _CTX1, 2: _CTX2, 3: _CTX3}


def index_rows(ctx, rows):
    return [MixedWord(ctx, [], [ctx.ring_from_index(v) for v in row])
            for row in rows]


class TestClassifierPins:
    @pytest.mark.parametrize("m,s,rows,size,case,g,a,q", _PINNED)
    def test_pinned_classification(self, m, s, rows, size, case, g, a, q):
        ctx = _CTXS[m]
        autom = AutomorphismSpec(ctx, 1)
        code = span_closure(index_rows(ctx, rows), autom=autom, skew=True)
        assert len(code) == size
        cls = classify_z4_skew_cyclic(code, autom)

        def indices(poly):
            return None if poly is None else [ctx.ring_index(c)
                                              for c in poly.coeffs]
        assert (cls.case, indices(cls.g), indices(cls.a),
                indices(cls.q)) == (case, g, a, q)

    @settings(max_examples=30)
    @given(st.data(), st.sampled_from([(_CTX1, [3, 4, 5]), (_CTX2, [2, 3]),
                                       (_CTX3, [2])]),
           st.sampled_from([1, 2]))
    def test_matches_decoding_every_word(self, data, ctx_sizes, t):
        ctx, sizes = ctx_sizes
        shapes = [(0, s) for s in sizes]
        two = ctx.ring((2,))
        rows = [w.scale(two) if data.draw(st.booleans()) else w
                for w in data.draw(random_rows(ctx, shapes, 2))]
        autom = AutomorphismSpec(ctx, t)
        code = span_closure(rows, autom=autom, skew=True)
        if len(code) == 1:
            with pytest.raises(TrivialCode):
                classify_z4_skew_cyclic(code, autom)
            return
        case, g, a, q, regenerates = naive_classify(code, autom)
        if not regenerates:
            with pytest.raises(NotACode):
                classify_z4_skew_cyclic(code, autom)
            return
        cls = classify_z4_skew_cyclic(code, autom)
        assert (cls.case, cls.g, cls.a, cls.q) == (case, g, a, q)

    def test_decodes_at_most_one_word_per_scalar(self, monkeypatch):
        code = span_closure(index_rows(_CTX2, [[12, 7, 0, 0]]), autom=_AUT2,
                            skew=True)
        assert len(code) == 4096
        decodes = []
        decode = oracle._Codec.decode

        def counted(codec, v):
            decodes.append(v)
            return decode(codec, v)

        monkeypatch.setattr(oracle._Codec, "decode", counted)
        assert classify_z4_skew_cyclic(code, _AUT2).case == "ii"
        assert len(decodes) <= 2

    def test_unit_leads_without_a_monic_word_are_no_code(self):
        # The Teichmueller units x and x^2 swap under the Frobenius, so
        # the set is shift closed, but it lacks 1 * (1, 1, 1, 1).
        xi = _CTX2.ring((0, 1))
        units = [xi, xi * xi]
        ones = MixedWord(_CTX2, [], [_CTX2.ring_one()] * 4)
        words = [ones.scale(_CTX2.ring_zero())] + [ones.scale(u)
                                                  for u in units]
        assert is_skew_cyclic(words, _AUT2)
        with pytest.raises(NotACode, match="scalar multiples"):
            classify_z4_skew_cyclic(words, _AUT2)


class TestMinimumDistance:
    def test_weight_one_word_present(self, ctx2):
        code = span_closure([MixedWord.from_ints(ctx2, [1], [1]),
                             MixedWord.from_ints(ctx2, [0], [1])])
        assert min_hamming_distance(code) == 1

    def test_repetition_pair(self, ctx2):
        code = span_closure([MixedWord.from_ints(ctx2, [1, 1], [])])
        assert min_hamming_distance(code) == 2

    def test_matches_exhaustive_scan(self, ctx2):
        rows = r1s1_rows(ctx2)
        code = span_closure(rows)
        best = min(
            sum(1 for a in w.alpha if a) + sum(1 for b in w.beta if b)
            for w in code if not w.is_zero)
        assert min_hamming_distance(code) == best

    def test_zero_code_raises(self, ctx2):
        empty = MixedMatrix(ctx2, 1, 1)
        for code in (empty, span_closure(empty)):
            with pytest.raises(TrivialCode):
                min_hamming_distance(code)

    def test_single_word_on_both_layouts(self, ctx2, ctx3):
        narrow = MixedWord.from_ints(ctx2, [1], [1])
        wide = MixedWord.from_ints(ctx3, [1, 1], [1] + [0] * 9)
        assert min_hamming_distance([narrow]) == 2
        assert min_hamming_distance([wide]) == 3
        with pytest.raises(TrivialCode):
            min_hamming_distance([wide.scale(ctx3.ring_zero())])

    @pytest.mark.parametrize("wide", [False, True])
    def test_streams_in_slices_of_block_words(self, ctx2, ctx3, wide,
                                              monkeypatch):
        block = 1 << 8
        monkeypatch.setattr(oracle, "_BLOCK", block)
        if wide:
            autom = AutomorphismSpec(ctx3, 1)
            code = span_closure(wide_rows(ctx3), autom=autom, skew=True)
        else:
            code = span_closure([MixedWord.from_ints(
                ctx2, [], [int(i == j) for j in range(4)]) for i in range(4)])
        best = min(nonzero_count(w) for w in code if not w.is_zero)
        calls, sizes = [], []
        weights = oracle._Codec.weights

        def counted(codec, arr, reduce=None):
            calls.append(len(arr))
            return weights(codec, arr,
                           lambda acc: sizes.append(len(acc)) or reduce(acc))

        monkeypatch.setattr(oracle._Codec, "weights", counted)
        assert min_hamming_distance(code) == best
        # One weight pass over the nonzero words, reduced block by block.
        assert calls == [len(code) - 1]
        assert max(sizes) <= block
        assert sum(sizes) == len(code) - 1
        if not wide:
            # Neither a full-length weight array nor a cast copy of the
            # words: the peak stays a small part of the code's array.
            tracemalloc.start()
            try:
                min_hamming_distance(code)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(code) == 1 << 16
            assert peak < code.packed.nbytes // 8

    def test_wide_matches_exhaustive_scan(self, ctx3):
        code = span_closure(wide_rows(ctx3))
        assert isinstance(code.packed, tuple)
        best = min(
            sum(1 for a in w.alpha if a) + sum(1 for b in w.beta if b)
            for w in code if not w.is_zero)
        assert min_hamming_distance(code) == best
