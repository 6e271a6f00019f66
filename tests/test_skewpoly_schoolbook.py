"""Skew polynomial arithmetic, the pairing and word arithmetic against
a schoolbook.

The schoolbook below works on coefficient vectors: an element of
GR(4, m) is a tuple ``(v_0, ..., v_{m-1})`` read in ``Z4[x]/(h)``, an
element of GF(2^m) the same over ``Z2[x]/(h mod 2)``.  Products are
convolutions reduced by the monic ``h``, the Frobenius power ``phi^j``
is the substitution ``x -> x^(2^j)``, and inverses are found by search.
It shares no code with ``artifact.galois``: the library only builds the
inputs from vectors and gives its results back as vectors.
"""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artifact import (AutomorphismSpec, DivisionByZero,
                      DivisorNotUnitLeading, InvalidArgument, MixedWord,
                      RingContext, SkewPoly, inner_product)

MODULI = {1: (1, 1), 2: (1, 1, 1), 3: (3, 1, 2, 1)}
CASES = [(m, t) for m in MODULI for t in (1, 2)]
SPECS = {(m, t): AutomorphismSpec(RingContext(m, MODULI[m]), t)
         for m, t in CASES}


def _reduce(coeffs, h, q):
    """Integer polynomial mod (h, q) as a length-m vector."""
    m = len(h) - 1
    c = [v % q for v in coeffs] + [0] * m
    for k in range(len(c) - 1, m - 1, -1):
        lead, c[k] = c[k], 0
        for i in range(m):
            c[k - m + i] = (c[k - m + i] - lead * h[i]) % q
    return tuple(c[:m])


def _mul(a, b, h, q):
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _reduce(prod, h, q)


def _add(a, b, q):
    return tuple((x + y) % q for x, y in zip(a, b))


def _frob(a, j, h, q):
    """``a(x^(2^j))`` mod (h, q)."""
    spread = [0] * ((len(a) - 1 << j) + 1)
    for i, x in enumerate(a):
        spread[i << j] = x
    return _reduce(spread, h, q)


class Schoolbook:
    """Skew polynomials as lists of vectors over ``Z_q[x]/(h)``."""

    def __init__(self, m, t, ring):
        self.m, self.t = m, t
        self.q = 4 if ring else 2
        self.h = tuple(c % self.q for c in MODULI[m])
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        self.elements = [tuple(n // self.q ** i % self.q for i in range(m))
                         for n in range(self.q ** m)]
        self.inverse = {a: b for a in self.elements for b in self.elements
                        if _mul(a, b, self.h, self.q) == self.one}
        self.vector = st.sampled_from(self.elements)

    def twist(self, a, k):
        """``theta^k(a)``, theta being the t-th Frobenius power."""
        return _frob(a, self.t * k % self.m, self.h, self.q)

    def trim(self, p):
        p = list(p)
        while p and p[-1] == self.zero:
            p.pop()
        return p

    def add(self, f, g):
        f, g = list(f), list(g)
        size = max(len(f), len(g))
        f += [self.zero] * (size - len(f))
        g += [self.zero] * (size - len(g))
        return self.trim(_add(a, b, self.q) for a, b in zip(f, g))

    def mul(self, f, g):
        """``sum a_i theta^i(b_j) x^(i+j)``."""
        out = [self.zero] * (len(f) + len(g))
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                term = _mul(a, self.twist(b, i), self.h, self.q)
                out[i + j] = _add(out[i + j], term, self.q)
        return self.trim(out)

    def divmod(self, n, d):
        """Right division ``n = quo * d + rem`` by a unit-lead ``d``."""
        inv = self.inverse[d[-1]]
        quo, rem = [self.zero] * len(n), self.trim(n)
        while len(rem) >= len(d):
            k = len(rem) - len(d)
            quo[k] = c = _mul(rem[-1], self.twist(inv, k), self.h, self.q)
            # rem -= (c x^k) * d, whose x^(k+j) term is c * theta^k(d_j).
            for j, e in enumerate(d):
                term = _mul(c, self.twist(e, k), self.h, self.q)
                rem[k + j] = _add(rem[k + j], tuple(-v for v in term),
                                  self.q)
            rem = self.trim(rem)
        return self.trim(quo), rem


@functools.lru_cache(maxsize=None)
def _book(m, t, ring):
    return Schoolbook(m, t, ring)


def _poly(autom, vecs, ring):
    make = autom.ctx.ring if ring else autom.ctx.field
    return SkewPoly(autom, [make(v) for v in vecs], ring)


def _vectors(p):
    return [c.coeffs for c in p.coeffs]


def _draw_poly(data, book, max_size):
    return data.draw(st.lists(book.vector, max_size=max_size))


@given(st.sampled_from(CASES), st.booleans(), st.data())
def test_products_match_the_schoolbook(case, ring, data):
    book = _book(*case, ring)
    f, g = _draw_poly(data, book, 6), _draw_poly(data, book, 6)
    prod = _poly(SPECS[case], f, ring) * _poly(SPECS[case], g, ring)
    assert _vectors(prod) == book.mul(f, g)


@given(st.sampled_from(CASES), st.booleans(), st.integers(1, 5), st.data())
def test_sums_and_folding_match_the_schoolbook(case, ring, n, data):
    book, autom = _book(*case, ring), SPECS[case]
    f, g = _draw_poly(data, book, 6), _draw_poly(data, book, 6)
    pf, pg = _poly(autom, f, ring), _poly(autom, g, ring)
    minus_g = [tuple(-c % book.q for c in v) for v in g]
    # x^n - 1 is central, so reducing by it folds x^k onto x^(k mod n).
    folded = []
    for k, v in enumerate(f):
        folded = book.add(folded, [book.zero] * (k % n) + [v])
    assert _vectors(pf + pg) == book.add(f, g)
    assert _vectors(pf - pg) == book.add(f, minus_g)
    assert _vectors(-pg) == book.trim(minus_g)
    assert _vectors(pf.reduce_mod_xn(n)) == folded


@given(st.sampled_from(CASES), st.data())
def test_mod2_lift_and_halve_match_the_schoolbook(case, data):
    field, ring, autom = _book(*case, False), _book(*case, True), SPECS[case]
    f, b = _draw_poly(data, ring, 6), _draw_poly(data, field, 6)
    pf, pb = _poly(autom, f, True), _poly(autom, b, False)
    doubled = _poly(autom, [tuple(2 * c for c in v) for v in b], True)
    assert (pf.mod2().ring, pb.lift().ring) == (False, True)
    assert _vectors(pf.mod2()) == field.trim(
        tuple(c % 2 for c in v) for v in f)
    assert _vectors(pb.lift()) == ring.trim(b)
    assert _vectors(doubled.halve()) == field.trim(b)
    if any(c % 2 for v in f for c in v):
        with pytest.raises(InvalidArgument):
            pf.halve()
    else:
        assert _vectors(pf.halve()) == field.trim(
            tuple(c // 2 for c in v) for v in f)
    with pytest.raises(InvalidArgument):
        pb.halve()


@given(st.sampled_from(CASES), st.booleans(), st.data())
def test_right_division_matches_the_schoolbook(case, ring, data):
    book, autom = _book(*case, ring), SPECS[case]
    leads = {"monic": [book.one],
             "unit, not monic": [u for u in book.inverse if u != book.one],
             "lead not a unit": [v for v in book.elements
                                 if v != book.zero and v not in book.inverse]}
    # The field has no nonzero non-unit, and GF(2) no unit but 1.
    kind = data.draw(st.sampled_from(
        ["zero divisor"] + [name for name, vecs in leads.items() if vecs]))
    n = _draw_poly(data, book, 8)
    d = [] if kind == "zero divisor" else _draw_poly(data, book, 3) + [
        data.draw(st.sampled_from(leads[kind]))]
    num, den = _poly(autom, n, ring), _poly(autom, d, ring)
    if kind == "zero divisor":
        with pytest.raises(DivisionByZero):
            num.right_divmod(den)
    elif kind == "lead not a unit":
        with pytest.raises(DivisorNotUnitLeading):
            num.right_divmod(den)
    else:
        quo, rem = num.right_divmod(den)
        want_q, want_r = book.divmod(n, d)
        assert (_vectors(quo), _vectors(rem)) == (want_q, want_r)
        assert len(want_r) < len(d)
        assert book.add(book.mul(want_q, d), want_r) == book.trim(n)


@given(st.sampled_from(sorted(MODULI)), st.integers(0, 4), st.integers(0, 4),
       st.data())
def test_pairing_matches_the_schoolbook(m, r, s, data):
    ctx = SPECS[(m, 1)].ctx
    field, ring = _book(m, 1, False), _book(m, 1, True)
    words = []
    for _ in range(2):
        alpha = data.draw(st.lists(field.vector, min_size=r, max_size=r))
        beta = data.draw(st.lists(ring.vector, min_size=s, max_size=s))
        words.append((alpha, beta))
    (ua, ub), (va, vb) = words
    binary, quaternary = field.zero, ring.zero
    for a, d in zip(ua, va):
        binary = _add(binary, _mul(a, d, field.h, 2), 2)
    for b, e in zip(ub, vb):
        quaternary = _add(quaternary, _mul(b, e, ring.h, 4), 4)
    want = _add(quaternary, tuple(2 * c for c in binary), 4)
    u, v = (MixedWord(ctx, [ctx.field(a) for a in alpha],
                      [ctx.ring(b) for b in beta]) for alpha, beta in words)
    assert inner_product(u, v).coeffs == want


@given(st.sampled_from(sorted(MODULI)), st.integers(0, 4), st.data())
def test_word_arithmetic_matches_the_schoolbook(m, r, data):
    # A scalar acts on the binary side as its image mod 2.
    s = data.draw(st.integers(0 if r else 1, 4))
    ctx = SPECS[(m, 1)].ctx
    field, ring = _book(m, 1, False), _book(m, 1, True)
    (ua, ub), (va, vb) = [
        (data.draw(st.lists(field.vector, min_size=r, max_size=r)),
         data.draw(st.lists(ring.vector, min_size=s, max_size=s)))
        for _ in range(2)]
    gamma = data.draw(ring.vector)
    gamma_bar = tuple(c % 2 for c in gamma)
    u, v = (MixedWord(ctx, [ctx.field(a) for a in alpha],
                      [ctx.ring(b) for b in beta])
            for alpha, beta in ((ua, ub), (va, vb)))

    def vectors(w):
        return [a.coeffs for a in w.alpha], [b.coeffs for b in w.beta]

    def neg(vec, q):
        return tuple(-c % q for c in vec)

    assert vectors(u + v) == ([_add(a, d, 2) for a, d in zip(ua, va)],
                              [_add(b, e, 4) for b, e in zip(ub, vb)])
    assert vectors(u - v) == (
        [_add(a, neg(d, 2), 2) for a, d in zip(ua, va)],
        [_add(b, neg(e, 4), 4) for b, e in zip(ub, vb)])
    assert vectors(-u) == ([neg(a, 2) for a in ua], [neg(b, 4) for b in ub])
    assert vectors(u.scale(ctx.ring(gamma))) == (
        [_mul(gamma_bar, a, field.h, 2) for a in ua],
        [_mul(gamma, b, ring.h, 4) for b in ub])
