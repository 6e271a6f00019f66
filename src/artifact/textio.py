"""Text form of elements, polynomials, matrices and generator tuples.

Grammar, whitespace insensitive inside an expression, with ``A`` an
atom letter and ``T`` a term rule::

    sum(T)     :=  ['-'] T (('+'|'-') T)*
    mono(A)    :=  INT ['*' power(A)] | power(A)
    power(A)   :=  A ['^' INT]

    element    :=  sum(mono('w'))
    poly       :=  sum(pterm)
    pterm      :=  coef ['*' power('x')] | mono('x')
    coef       :=  '(' element ')' | mono('w')
    int_poly   :=  sum(mono('x'))

A polynomial term that starts `INT '*'` is `mono('x')` unless `w`
follows the `*`: `2*x` is 2 times x, `2*w*x` is (2*w) times x.  The
exponent of `x` is at most 4096, and no integer may have more digits
than the interpreter's int-string limit (4300 by default).  `w` denotes
the multiplicative generator of the coefficient ring or field; integer
coefficients reduce mod 4 or mod 2 by context, so subtraction is
accepted and normalised.
Values are evaluated on the packed ints of :mod:`~artifact.galois`
through its kernels.  Emission is canonical: ascending powers, zero
terms dropped, unit coefficients omitted, composite coefficients
parenthesised.  Parsing an emitted string gives back an equal value
and re-emitting it is a fixpoint.

A matrix file holds `m:`, `h:`, `r:`, `s:` headers in any order, a
`rows:` marker, then one line per row, `a0 a1 | b0 b1 b2`, entries in
the element grammar.  A generator file holds the same headers plus
`t:` (default 1) and any of `f:`, `l:`, `g:`, `a:`, `l1:`, `q:` in the
polynomial grammar; `f`, `l`, `l1` are binary, `g`, `a`, `q`
quaternary.  `h:` is an `int_poly`.  A matrix file parses each
distinct entry once.  Positions in errors are 0-based line and column.
"""

from __future__ import annotations

import re
import sys
from typing import Tuple

from .errors import ParseError
from .galois import (AutomorphismSpec, FieldElem, RingContext, RingElem,
                     int_poly_str)
from .mixedcode import MixedMatrix, MixedWord
from .skewcyclic import SkewGenerators
from .skewpoly import SkewPoly

__all__ = [
    "parse_element",
    "parse_poly",
    "parse_int_poly",
    "parse_matrix",
    "parse_gens",
    "emit_matrix",
    "emit_gens",
]

_MAX_X_EXPONENT = 4096


def _length_error(digits: str):
    """Why `int` would refuse a literal this long, or None.

    The interpreter caps integer literals (4300 digits by default; 0
    lifts the cap) and raises a bare ValueError past it.
    """
    limit = sys.get_int_max_str_digits()
    if 0 < limit < len(digits):
        return (f"integer of {len(digits)} digits exceeds the limit of "
                f"{limit} digits")
    return None


# An integer, a one-character symbol, or any other nonblank character,
# which is refused.
_TOKEN = re.compile(r"(\d+)|([wx^*+\-()])|([^ \t\r\n])")


class _Parser:
    """The tokens of one expression, each with its offset in the text.

    Three sentinel tokens of kind None end the list, so that `peek` can
    look two tokens ahead.  Line and column are worked out from the
    offset only when an error is raised.
    """

    def __init__(self, text: str, line: int, col: int):
        self.text, self.line, self.col = text, line, col
        self.toks = []
        for mt in _TOKEN.finditer(text):
            if mt.lastindex == 3:
                raise self.error(f"unexpected character {mt.group()!r}",
                                 mt.start())
            self.toks.append(("INT" if mt.lastindex == 1 else mt.group(),
                              mt.group(), mt.start()))
        self.toks += [(None, "", len(text))] * 3
        self.pos = 0

    def error(self, message: str, offset: int) -> ParseError:
        newlines = self.text.count("\n", 0, offset)
        col = offset - self.text.rfind("\n", 0, offset) - 1
        return ParseError(message, self.line + newlines,
                          col if newlines else self.col + col)

    def peek(self, ahead: int = 0):
        """Kind of a token still to come; None past the end."""
        return self.toks[self.pos + ahead][0]

    def next(self) -> str:
        self.pos += 1
        return self.toks[self.pos - 1][1]

    def take(self, kind: str) -> bool:
        """Consume the next token if it is of `kind`."""
        if self.toks[self.pos][0] != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str, expected: str):
        """The next token, which must be of `kind`, as (text, offset)."""
        found, text, offset = self.toks[self.pos]
        if found != kind:
            self.fail(expected)
        self.pos += 1
        return text, offset

    def integer(self, expected: str):
        """The next token, which must be an integer, as (value, offset)."""
        text, offset = self.expect("INT", expected)
        message = _length_error(text)
        if message:
            raise self.error(message, offset)
        return int(text), offset

    def fail(self, expected: str):
        kind, text, offset = self.toks[self.pos]
        found = "end of input" if kind is None else repr(text)
        raise self.error(f"expected {expected}, found {found}", offset)

    def done(self):
        kind, text, offset = self.toks[self.pos]
        if kind is not None:
            raise self.error(f"unexpected trailing {text!r}", offset)


def _sum(p: _Parser, term, neg):
    """``['-'] term (('+'|'-') term)*``.

    Each term is a (coefficient, exponent) pair; it is yielded with its
    sign applied to the coefficient by ``neg``.
    """
    negate = p.take("-")
    while True:
        c, k = term()
        yield (neg(c) if negate else c), k
        if p.peek() not in ("+", "-"):
            return
        negate = p.next() == "-"


def _power(p: _Parser, atom: str) -> int:
    """``atom ['^' INT]`` as its exponent, at most 4096 for x."""
    p.expect(atom, f"'{atom}'")
    if not p.take("^"):
        return 1
    k, offset = p.integer("an exponent")
    if atom == "x" and k > _MAX_X_EXPONENT:
        raise p.error(f"exponent {k} too large", offset)
    return k


def _monomial(p: _Parser, atom: str) -> Tuple[int, int]:
    """``INT ['*' power(atom)] | power(atom)`` as (integer, exponent)."""
    kind = p.peek()
    if kind == "INT":
        c, _ = p.integer("an integer")
        return c, (_power(p, atom) if p.take("*") else 0)
    if kind == atom:
        return 1, _power(p, atom)
    p.fail("a term" if atom == "w" else "an integer term")


def _element(p: _Parser, ctx: RingContext, kind) -> int:
    """Packed value of ``sum(mono('w'))``."""
    acc = 0
    for c, k in _sum(p, lambda: _monomial(p, "w"), int.__neg__):
        acc = kind._add(ctx, acc, kind._w_term(ctx, c, k))
    return acc


def _pterm(p: _Parser, ctx: RingContext, kind):
    """One polynomial term as (packed coefficient, power of x)."""
    if p.peek() == "x" or (p.peek() == "INT" and p.peek(1) == "*"
                           and p.peek(2) != "w"):
        c, k = _monomial(p, "x")
        return kind._const(ctx, c), k
    if p.take("("):
        coeff = _element(p, ctx, kind)
        p.expect(")", "')'")
    else:
        coeff = kind._w_term(ctx, *_monomial(p, "w"))
    return coeff, (_power(p, "x") if p.take("*") else 0)


def _by_power(p: _Parser, term, add, neg) -> list:
    """Ascending coefficients of a sum of (coefficient, power) terms."""
    acc = {}
    for c, k in _sum(p, term, neg):
        acc[k] = add(acc.get(k, 0), c)
    p.done()
    return [acc.get(k, 0) for k in range(max(acc) + 1)]


def parse_element(text: str, ctx: RingContext, ring: bool = True,
                  line: int = 0, col: int = 0):
    """An element from its text form; `ring` picks Z4[w] over Z2[w]."""
    kind = RingElem if ring else FieldElem
    p = _Parser(text, line, col)
    x = _element(p, ctx, kind)
    p.done()
    return kind._of(ctx, x)


def parse_poly(text: str, autom: AutomorphismSpec, ring: bool = True,
               line: int = 0, col: int = 0) -> SkewPoly:
    """A skew polynomial from its text form."""
    ctx, kind = autom.ctx, RingElem if ring else FieldElem
    p = _Parser(text, line, col)
    return SkewPoly._packed(autom, _by_power(
        p, lambda: _pterm(p, ctx, kind), lambda x, y: kind._add(ctx, x, y),
        lambda x: kind._neg(ctx, x)), ring)


def parse_int_poly(text: str, line: int = 0, col: int = 0) -> Tuple[int, ...]:
    """Ascending integer coefficients of a plain polynomial in x."""
    p = _Parser(text, line, col)
    return tuple(_by_power(p, lambda: _monomial(p, "x"), int.__add__,
                           int.__neg__))


_KEY_RE = re.compile(r"^\s*([a-z0-9]+)\s*:\s*(.*?)\s*$")
_CTX_KEYS = ("m", "h", "r", "s")


def _require_int(key, value, lineno, col) -> int:
    if not re.fullmatch(r"\d+", value):
        raise ParseError(f"{key} must be a nonnegative integer", lineno, col)
    message = _length_error(value)
    if message:
        raise ParseError(message, lineno, col)
    return int(value)


def _read_header(text: str, keys, marker=None):
    """The context, r, s, header fields and body lines of a file.

    Fields map each key to (value, line, value column).  With a
    `marker`, the header ends at the `marker:` line and the body is the
    nonblank lines after it, as (raw line, line number).
    """
    fields, body = {}, None
    for lineno, raw in enumerate(text.splitlines()):
        if not raw.strip():
            continue
        if body is not None:
            body.append((raw, lineno))
            continue
        mt = _KEY_RE.match(raw)
        if mt is None:
            raise ParseError("expected a 'key: value' line", lineno, 0)
        key, value = mt.groups()
        if key == marker:
            if value:
                raise ParseError(f"unexpected text after '{marker}:'",
                                 lineno, mt.start(2))
            body = []
        elif key not in keys:
            raise ParseError(f"unknown header {key!r}", lineno, 0)
        elif key in fields:
            raise ParseError(f"duplicate header {key!r}", lineno, 0)
        else:
            fields[key] = (value, lineno, mt.start(2))
    if marker is not None and body is None:
        raise ParseError(f"missing '{marker}:' marker", 0, 0)
    for key in ("r", "s", "m", "h"):
        if key not in fields:
            raise ParseError(f"missing header {key!r}", 0, 0)
    ctx = RingContext(_require_int("m", *fields["m"]),
                      parse_int_poly(*fields["h"]))
    return (ctx, _require_int("r", *fields["r"]),
            _require_int("s", *fields["s"]), fields, body)


def parse_matrix(text: str) -> Tuple[RingContext, MixedMatrix]:
    """A matrix file: context headers, `rows:`, then the rows; each
    distinct (entry text, side) is parsed once, at its first occurrence."""
    ctx, r, s, _, row_lines = _read_header(text, _CTX_KEYS, "rows")
    seen = {}

    def entry(mt, ring, lineno, start):
        key = mt.group(), ring
        if key not in seen:
            seen[key] = parse_element(key[0], ctx, ring, lineno,
                                      start + mt.start())
        return seen[key]

    rows = []
    for raw, lineno in row_lines:
        bar = raw.find("|")
        if bar < 0:
            raise ParseError("row needs a '|' separator", lineno, 0)
        if raw.find("|", bar + 1) >= 0:
            raise ParseError("row has more than one '|'", lineno,
                             raw.find("|", bar + 1))
        alpha = [entry(mt, False, lineno, 0)
                 for mt in re.finditer(r"\S+", raw[:bar])]
        beta = [entry(mt, True, lineno, bar + 1)
                for mt in re.finditer(r"\S+", raw[bar + 1:])]
        if len(alpha) != r:
            raise ParseError(f"expected {r} binary entries, found "
                             f"{len(alpha)}", lineno, 0)
        if len(beta) != s:
            raise ParseError(f"expected {s} quaternary entries, found "
                             f"{len(beta)}", lineno, bar + 1)
        rows.append(MixedWord._of(ctx, alpha, beta))
    return ctx, MixedMatrix(ctx, r, s, rows)


def emit_matrix(mat: MixedMatrix) -> str:
    ctx = mat.ctx
    lines = [f"m: {ctx.m}", f"h: {int_poly_str(ctx.h)}",
             f"r: {mat.r}", f"s: {mat.s}", "rows:"]
    lines.extend(str(w) for w in mat.rows)
    return "\n".join(lines) + "\n"


_GEN_KEYS = ("f", "l", "g", "a", "l1", "q")
_FIELD_PARTS = {"f", "l", "l1"}


def parse_gens(text: str) -> Tuple[RingContext, AutomorphismSpec,
                                   SkewGenerators]:
    """A generator file: context headers plus generator polynomials."""
    ctx, r, s, fields, _ = _read_header(text, _CTX_KEYS + ("t",) + _GEN_KEYS)
    t = 1
    if "t" in fields:
        t = _require_int("t", *fields["t"])
        if t < 1:
            raise ParseError("t must be at least 1", fields["t"][1],
                             fields["t"][2])
    autom = AutomorphismSpec(ctx, t)
    parts = {}
    for key in _GEN_KEYS:
        if key in fields:
            value, lineno, col = fields[key]
            parts[key] = parse_poly(value, autom,
                                    ring=key not in _FIELD_PARTS,
                                    line=lineno, col=col)
    return ctx, autom, SkewGenerators(autom=autom, r=r, s=s, **parts)


def emit_gens(gens: SkewGenerators) -> str:
    ctx = gens.autom.ctx
    lines = [f"m: {ctx.m}", f"h: {int_poly_str(ctx.h)}",
             f"r: {gens.r}", f"s: {gens.s}", f"t: {gens.autom.t}"]
    for key in _GEN_KEYS:
        poly = getattr(gens, key)
        if poly is not None:
            lines.append(f"{key}: {poly}")
    return "\n".join(lines) + "\n"
