"""Text grammars: parsing, canonical emission, round trips."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artifact import (AutomorphismSpec, MixedMatrix, MixedWord, ParseError,
                      RingContext, SkewGenerators, SkewPoly, emit_gens,
                      emit_matrix, int_poly_str, parse_element, parse_gens,
                      parse_int_poly, parse_matrix, parse_poly,
                      standard_form, textio)
from artifact import reference

_CTX = RingContext(2, (1, 1, 1))
_AUT = AutomorphismSpec(_CTX, 1)

WORKED_MATRIX_FILE = """m: 2
h: 1+x+x^2
r: 2
s: 3
rows:
1 1+w | 2+2*w 2 2
w 0 | 2*w 0 2
w 1 | 2+w 1+3*w 0
0 1+w | 2*w 2 1
"""

SEVEN_SEVEN_GENS_FILE = """m: 2
h: 1+x+x^2
r: 7
s: 7
t: 1
f: 1+x+x^3
l: 1+x^2
g: 1+2*x+3*x^2+x^3+x^4
a: 3+x
"""


class TestElements:
    @pytest.mark.parametrize("text,coeffs", [
        ("0", (0,)),
        ("2+2*w", (2, 2)),
        ("3*w", (0, 3)),
        ("w^2", (3, 3)),
        ("1+w+w^2", (0, 0)),
        ("-1", (3,)),
        ("2-w", (2, 3)),
    ])
    def test_ring_values(self, text, coeffs):
        assert parse_element(text, _CTX) == _CTX.ring(coeffs)

    def test_field_values(self):
        assert parse_element("w^2", _CTX, ring=False) == _CTX.field((1, 1))
        assert parse_element("1+w", _CTX, ring=False) == _CTX.field((1, 1))

    def test_canonical_emission(self):
        for e in _CTX.all_ring_elems():
            assert parse_element(str(e), _CTX) == e
            assert str(parse_element(str(e), _CTX)) == str(e)

    def test_degree_one_generator_is_modulus_root(self):
        ctx1 = RingContext(1, (1, 1))
        assert parse_element("w", ctx1) == ctx1.ring((3,))
        assert parse_element("w", ctx1, ring=False) == ctx1.field((1,))

    @pytest.mark.parametrize("text,column", [
        ("w^", 2),
        ("", 0),
        ("1+", 2),
        ("*w", 0),
        ("w^x", 2),
        ("w^\u00b2", 2),
    ])
    def test_error_positions(self, text, column):
        with pytest.raises(ParseError) as info:
            parse_element(text, _CTX)
        assert info.value.column == column
        assert info.value.line == 0

    @pytest.mark.parametrize("prefix", ["", "1+w^", "w+2*w^"])
    def test_overlong_literal_is_a_parse_error(self, prefix):
        # Past the interpreter's int-string limit `int` raises a bare
        # ValueError; the literal is refused before that, at its place.
        text = prefix + "1" * 5000
        with pytest.raises(ParseError) as info:
            parse_element(text, _CTX, line=3, col=7)
        assert "5000 digits" in info.value.message
        assert (info.value.line, info.value.column) == (3, 7 + len(prefix))

    def test_literal_at_the_limit_is_accepted(self):
        assert parse_element("1" * 4300, _CTX) == _CTX.ring((3,))
        assert parse_element("w^" + "0" * 4299 + "3", _CTX) == \
            _CTX.ring_one()


class TestPolynomials:
    def test_worked_example_string(self):
        p = parse_poly("(1+2*w)*x^3+3", _AUT)
        assert p == SkewPoly(_AUT, [_CTX.ring((3,)), _CTX.ring_zero(),
                                    _CTX.ring_zero(), _CTX.ring((1, 2))],
                             True)
        assert str(p) == "3+(1+2*w)*x^3"

    def test_negative_normalisation(self):
        assert str(parse_poly("x^2-1", _AUT)) == "3+x^2"
        assert str(parse_poly("x^2-1", _AUT, ring=False)) == "1+x^2"

    def test_like_terms_collapse(self):
        assert str(parse_poly("x+x", _AUT)) == "2*x"
        assert parse_poly("x-x", _AUT).is_zero

    def test_unit_coefficient_parenthesised(self):
        p = parse_poly("(w)*x", _AUT)
        assert str(p) == "(w)*x"

    def test_bare_tokens(self):
        assert parse_poly("x", _AUT) == SkewPoly.x_power(_AUT, 1)
        assert parse_poly("w", _AUT) == SkewPoly(_AUT, [_CTX.ring((0, 1))],
                                                 True)
        assert parse_poly("5", _AUT) == SkewPoly.from_ints(_AUT, [1])

    def test_exponent_cap(self):
        with pytest.raises(ParseError):
            parse_poly("x^5000", _AUT)

    def test_integer_times_w_is_a_coefficient_of_x(self):
        assert str(parse_poly("2*w*x", _AUT)) == "(2*w)*x"
        assert str(parse_poly("1+2*w^2*x^3", _AUT)) == "1+(2+2*w)*x^3"
        assert parse_poly("2*x", _AUT) == SkewPoly.from_ints(_AUT, [0, 2])

    def test_error_inside_coefficient(self):
        with pytest.raises(ParseError) as info:
            parse_poly("(1+w*x", _AUT)
        assert info.value.column == 4

    @given(st.lists(st.integers(0, 15), max_size=5))
    def test_round_trip_is_fixpoint(self, idx):
        p = SkewPoly(_AUT, [_CTX.ring_from_index(i) for i in idx], True)
        text = str(p)
        again = parse_poly(text, _AUT)
        assert again == p
        assert str(again) == text

    @given(st.lists(st.integers(0, 3), max_size=6))
    def test_field_round_trip(self, idx):
        p = SkewPoly(_AUT, [_CTX.field_from_index(i) for i in idx], False)
        assert parse_poly(str(p), _AUT, ring=False) == p


class TestIntPolynomials:
    def test_round_trip(self):
        for coeffs in ((1, 1, 1), (3, 1, 2, 1), (1,), (0, 1)):
            assert parse_int_poly(int_poly_str(coeffs)) == coeffs

    def test_negative_coefficient(self):
        assert parse_int_poly("x^2-1") == (-1, 0, 1)

    def test_leading_minus(self):
        assert parse_int_poly("-1+x+x^2") == (-1, 1, 1)
        assert parse_int_poly("-x") == (0, -1)

    def test_rejects_w(self):
        with pytest.raises(ParseError):
            parse_int_poly("1+w")


class TestMatrixFiles:
    def test_worked_file_round_trip(self):
        ctx, mat = parse_matrix(WORKED_MATRIX_FILE)
        assert ctx == _CTX
        assert mat.r == 2 and mat.s == 3 and len(mat) == 4
        assert mat[0] == MixedWord(
            ctx, [ctx.field((1,)), ctx.field((1, 1))],
            [ctx.ring((2, 2)), ctx.ring((2,)), ctx.ring((2,))])
        assert emit_matrix(mat) == WORKED_MATRIX_FILE
        ctx2, mat2 = parse_matrix(emit_matrix(mat))
        assert mat2 == mat

    def test_header_order_free(self):
        shuffled = ("s: 3\nr: 2\nh: 1+x+x^2\nm: 2\nrows:\n"
                    "0 0 | 0 0 0\n")
        _, mat = parse_matrix(shuffled)
        assert mat.r == 2 and mat.s == 3

    def test_binary_only_and_quaternary_only_rows(self):
        _, mat = parse_matrix("m: 2\nh: 1+x+x^2\nr: 2\ns: 0\nrows:\n"
                              "1 w |\n")
        assert mat[0] == MixedWord(_CTX, [_CTX.field((1,)),
                                          _CTX.field((0, 1))], [])
        _, mat = parse_matrix("m: 2\nh: 1+x+x^2\nr: 0\ns: 2\nrows:\n"
                              "| 2 3*w\n")
        assert mat[0].r == 0 and mat[0].s == 2

    def test_missing_header(self):
        with pytest.raises(ParseError) as info:
            parse_matrix("m: 2\nh: 1+x+x^2\nr: 2\nrows:\n")
        assert "s" in info.value.message

    def test_unknown_header(self):
        with pytest.raises(ParseError):
            parse_matrix("m: 2\nh: 1+x+x^2\nr: 1\ns: 1\nz: 9\nrows:\n")

    def test_line_without_a_key_before_rows(self):
        with pytest.raises(ParseError) as info:
            parse_matrix("m: 2\nh: 1+x+x^2\nr: 1\ns: 1\nbogus line\n"
                         "rows:\n1 | 1\n")
        assert info.value.message == "expected a 'key: value' line"
        assert (info.value.line, info.value.column) == (4, 0)

    def test_wrong_entry_count(self):
        text = "m: 2\nh: 1+x+x^2\nr: 2\ns: 1\nrows:\n1 | 2\n"
        with pytest.raises(ParseError) as info:
            parse_matrix(text)
        assert info.value.line == 5

    def test_entry_error_position(self):
        text = "m: 2\nh: 1+x+x^2\nr: 1\ns: 1\nrows:\n1 | w^\n"
        with pytest.raises(ParseError) as info:
            parse_matrix(text)
        assert info.value.line == 5
        assert info.value.column == 6

    @pytest.mark.parametrize("key", ["m", "r", "s"])
    def test_overlong_header_integer(self, key):
        headers = {"m": "2", "h": "1+x+x^2", "r": "1", "s": "1"}
        headers[key] = "1" * 5000
        line = list(headers).index(key)
        text = "".join(f"{k}: {v}\n" for k, v in headers.items()) + "rows:\n"
        with pytest.raises(ParseError) as info:
            parse_matrix(text)
        assert "5000 digits" in info.value.message
        assert (info.value.line, info.value.column) == (line, 3)

    def test_missing_bar(self):
        text = "m: 2\nh: 1+x+x^2\nr: 1\ns: 1\nrows:\n1 w\n"
        with pytest.raises(ParseError):
            parse_matrix(text)

    def test_repeated_bad_entry_reports_its_first_occurrence(self):
        text = ("m: 2\nh: 1+x+x^2\nr: 1\ns: 2\nrows:\n"
                "1 | 2  w^\nw^ | w^ w^\n")
        with pytest.raises(ParseError) as info:
            parse_matrix(text)
        assert info.value.message == "expected an exponent, found end of input"
        assert (info.value.line, info.value.column) == (5, 9)

    def test_each_distinct_entry_parsed_once(self, monkeypatch):
        text = emit_matrix(standard_form(reference.seven_seven_matrix()).g_std)
        calls = Counter()

        def counted(entry, ctx, ring, *where):
            calls[entry, ring] += 1
            return parse_element(entry, ctx, ring, *where)

        monkeypatch.setattr(textio, "parse_element", counted)
        _, mat = parse_matrix(text)
        rows = text.split("rows:\n")[1].splitlines()
        distinct = {(e, ring) for row in rows
                    for ring, side in enumerate(row.split("|"))
                    for e in side.split()}
        assert len(mat) * (mat.r + mat.s) > 2 * len(distinct)
        assert calls == Counter(dict.fromkeys(distinct, 1))


# Both m = 1 moduli (w = 3 and w = 1 in Z4), then m = 2 and m = 3.
_SPELLING_CTXS = [RingContext(1, (1, 1)), RingContext(1, (3, 1)), _CTX,
                  RingContext(3, (3, 1, 2, 1))]

_TERMS = st.lists(st.tuples(
    st.sampled_from("+-"), st.integers(0, 12), st.booleans(),
    st.one_of(st.none(), st.integers(0, 9), st.integers(10 ** 6, 10 ** 30))),
    min_size=1, max_size=3)


def spell(terms):
    """Text of the ``(sign, c, bare, k)`` terms: ``c``, ``c*w^k`` or, when
    ``bare``, ``w^k``; a leading ``+`` is left out."""
    text = ""
    for n, (sign, c, bare, k) in enumerate(terms):
        if n or sign == "-":
            text += sign
        if k is None:
            text += str(c)
        else:
            text += ("" if bare else f"{c}*") + ("w" if k == 1 else f"w^{k}")
    return text


def schoolbook_value(terms, ctx, ring):
    """The value of :func:`spell`'s text by element operators."""
    w = ctx.ring((-ctx.h[0],) if ctx.m == 1 else (0, 1))
    acc = ctx.ring_zero()
    for sign, c, bare, k in terms:
        term = ctx.ring((1 if k is not None and bare else c,))
        base, k = w, k or 0
        while k:
            if k & 1:
                term = term * base
            base, k = base * base, k >> 1
        acc = acc - term if sign == "-" else acc + term
    return acc if ring else acc.reduce_mod2()


@given(st.sampled_from(_SPELLING_CTXS), st.lists(_TERMS, min_size=1,
                                                 max_size=4),
       st.integers(0, 3), st.integers(0, 3), st.data())
def test_repeated_spellings_parse_as_single_entries(ctx, pool, r, s, data):
    s = s if r else max(s, 1)
    picks = st.integers(0, len(pool) - 1)
    rows = [[data.draw(picks) for _ in range(r + s)]
            for _ in range(data.draw(st.integers(1, 4)))]
    text = "".join(
        [f"m: {ctx.m}\nh: {int_poly_str(ctx.h)}\nr: {r}\ns: {s}\nrows:\n"]
        + [" ".join(spell(pool[i]) for i in row[:r]) + " | "
           + " ".join(spell(pool[i]) for i in row[r:]) + "\n"
           for row in rows])
    _, mat = parse_matrix(text)
    for word, row in zip(mat, rows):
        for j, (entry, i) in enumerate(zip(word.alpha + word.beta, row)):
            ring = j >= r
            assert entry == parse_element(spell(pool[i]), ctx, ring) \
                == schoolbook_value(pool[i], ctx, ring)


class TestGensFiles:
    def test_seven_seven_round_trip(self):
        ctx, autom, gens = parse_gens(SEVEN_SEVEN_GENS_FILE)
        assert autom.t == 1
        assert gens.case == "ii"
        assert gens.f == SkewPoly.from_ints(autom, [1, 1, 0, 1], False)
        assert gens.g == SkewPoly.from_ints(autom, [1, 2, 3, 1, 1], True)
        assert emit_gens(gens) == SEVEN_SEVEN_GENS_FILE
        _, _, again = parse_gens(emit_gens(gens))
        assert again == gens

    def test_t_defaults_to_one(self):
        _, autom, _ = parse_gens("m: 2\nh: 1+x+x^2\nr: 2\ns: 2\n"
                                 "f: 1+x\n")
        assert autom.t == 1

    def test_field_and_ring_parts_separated(self):
        _, _, gens = parse_gens("m: 2\nh: 1+x+x^2\nr: 0\ns: 4\n"
                                "g: 1+x^2\na: w\n")
        assert gens.g.ring and gens.a.ring
        assert gens.a == SkewPoly(_AUT, [_CTX.ring((0, 1))], True)

    def test_empty_tuple_allowed(self):
        _, _, gens = parse_gens("m: 2\nh: 1+x+x^2\nr: 2\ns: 2\n")
        assert gens.case == "binary"
        assert gens.f is None

    def test_duplicate_header_rejected(self):
        with pytest.raises(ParseError):
            parse_gens("m: 2\nm: 2\nh: 1+x+x^2\nr: 1\ns: 1\n")

    def test_component_constraint_surfaces(self):
        with pytest.raises(Exception):
            parse_gens("m: 2\nh: 1+x+x^2\nr: 0\ns: 4\na: w\n")


def test_text_fixtures_parse_to_the_reference_objects():
    # The text copies test the parser; the objects in artifact.reference
    # are built without it.  This keeps the two copies from drifting.
    assert parse_matrix(WORKED_MATRIX_FILE)[1] == reference.worked_matrix()
    assert parse_gens(SEVEN_SEVEN_GENS_FILE)[2] == \
        reference.gens_seven_seven()


class TestElementStrategyRoundTrip:
    @given(st.integers(0, 15))
    def test_every_ring_element(self, i):
        e = _CTX.ring_from_index(i)
        assert parse_element(str(e), _CTX) == e

    @given(st.integers(0, 63))
    def test_degree_three_elements(self, i):
        ctx = RingContext(3, (3, 1, 2, 1))
        e = ctx.ring_from_index(i)
        assert parse_element(str(e), ctx) == e
