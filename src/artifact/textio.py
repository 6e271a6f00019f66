"""Text form of elements, polynomials, matrices and generator tuples.

Grammar, whitespace insensitive inside an expression::

    element :=  ['-'] eterm (('+'|'-') eterm)*
    eterm   :=  INT ['*' watom] | watom
    watom   :=  'w' ['^' INT]

    poly    :=  ['-'] pterm (('+'|'-') pterm)*
    pterm   :=  coef ['*' xatom] | xatom
    coef    :=  INT | watom | '(' element ')'
    xatom   :=  'x' ['^' INT]

`w` denotes the multiplicative generator of the coefficient ring or
field; integer coefficients reduce mod 4 or mod 2 by context, so
subtraction is accepted and normalised.  Emission is canonical:
ascending powers, zero terms dropped, unit coefficients omitted,
composite coefficients parenthesised.  Parsing an emitted string gives
back an equal value and re-emitting it is a fixpoint.

A matrix file holds `m:`, `h:`, `r:`, `s:` headers in any order, a
`rows:` marker, then one line per row, `a0 a1 | b0 b1 b2`, entries in
the element grammar.  A generator file holds the same headers plus
`t:` (default 1) and any of `f:`, `l:`, `g:`, `a:`, `l1:`, `q:` in the
polynomial grammar; `f`, `l`, `l1` are binary, `g`, `a`, `q`
quaternary.  `h:` is a plain integer polynomial in `x`.  Positions in
errors are 0-based line and column.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .errors import ParseError
from .galois import AutomorphismSpec, RingContext
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
    "int_poly_str",
]

_MAX_X_EXPONENT = 4096


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind, self.text, self.line, self.col = kind, text, line, col


def _scan(text: str, line: int, col: int) -> Tuple[List[_Tok], int, int]:
    """Tokens plus the position just past the end of the text."""
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_Tok("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "wx^*+-()":
            toks.append(_Tok(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return toks, line, col


class _Parser:
    def __init__(self, text: str, line: int = 0, col: int = 0):
        self.toks, self.end_line, self.end_col = _scan(text, line, col)
        self.pos = 0

    def peek(self) -> Optional[_Tok]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> Optional[_Tok]:
        t = self.peek()
        if t is not None:
            self.pos += 1
        return t

    def fail(self, expected: str):
        t = self.peek()
        if t is None:
            raise ParseError(f"expected {expected}, found end of input",
                             self.end_line, self.end_col)
        raise ParseError(f"expected {expected}, found {t.text!r}",
                         t.line, t.col)

    def expect(self, kind: str, expected: str) -> _Tok:
        t = self.peek()
        if t is None or t.kind != kind:
            self.fail(expected)
        return self.next()

    def done(self):
        t = self.peek()
        if t is not None:
            raise ParseError(f"unexpected trailing {t.text!r}", t.line, t.col)

    def at_end(self) -> bool:
        return self.peek() is None


def _parse_watom_power(p: _Parser) -> int:
    p.expect("w", "'w'")
    if p.peek() is not None and p.peek().kind == "^":
        p.next()
        return int(p.expect("INT", "an exponent").text)
    return 1


def _w_power(ctx: RingContext, k: int, ring: bool):
    one = ctx.ring_one() if ring else ctx.field_one()
    if k == 0:
        return one
    if ctx.m == 1:
        # Degree one: w is the root of h itself, -h0.
        gen = ctx.ring((-ctx.h[0],)) if ring else ctx.field((ctx.h[0],))
    else:
        gen = ctx.ring((0, 1)) if ring else ctx.field((0, 1))
    return _pow(gen, k, one)


def _pow(base, exp: int, one):
    """``base ** exp`` by square and multiply."""
    result = one
    while exp:
        if exp & 1:
            result = result * base
        base = base * base
        exp >>= 1
    return result


def _parse_eterm(p: _Parser, ctx: RingContext, ring: bool):
    t = p.peek()
    if t is None:
        p.fail("a term")
    if t.kind == "INT":
        p.next()
        coeff = int(t.text)
        power = 0
        if p.peek() is not None and p.peek().kind == "*":
            p.next()
            power = _parse_watom_power(p)
        return coeff * _w_power(ctx, power, ring)
    if t.kind == "w":
        return _w_power(ctx, _parse_watom_power(p), ring)
    p.fail("a term")


def _parse_element_body(p: _Parser, ctx: RingContext, ring: bool):
    acc = ctx.ring_zero() if ring else ctx.field_zero()
    sign = 1
    if p.peek() is not None and p.peek().kind == "-":
        p.next()
        sign = -1
    acc = acc + sign * _parse_eterm(p, ctx, ring)
    while p.peek() is not None and p.peek().kind in "+-":
        sign = 1 if p.next().kind == "+" else -1
        acc = acc + sign * _parse_eterm(p, ctx, ring)
    return acc


def parse_element(text: str, ctx: RingContext, ring: bool = True,
                  line: int = 0, col: int = 0):
    """An element from its text form; `ring` picks Z4[w] over Z2[w]."""
    p = _Parser(text, line, col)
    v = _parse_element_body(p, ctx, ring)
    p.done()
    return v


def _parse_xatom(p: _Parser) -> int:
    p.expect("x", "'x'")
    if p.peek() is not None and p.peek().kind == "^":
        p.next()
        t = p.expect("INT", "an exponent")
        k = int(t.text)
        if k > _MAX_X_EXPONENT:
            raise ParseError(f"exponent {k} too large", t.line, t.col)
        return k
    return 1


def _parse_pterm(p: _Parser, ctx: RingContext, ring: bool):
    """One polynomial term as (coefficient element, power of x)."""
    t = p.peek()
    if t is None:
        p.fail("a term")
    if t.kind == "(":
        p.next()
        coeff = _parse_element_body(p, ctx, ring)
        p.expect(")", "')'")
        if p.peek() is not None and p.peek().kind == "*":
            p.next()
            return coeff, _parse_xatom(p)
        return coeff, 0
    if t.kind == "x":
        one = ctx.ring_one() if ring else ctx.field_one()
        return one, _parse_xatom(p)
    if t.kind == "INT":
        p.next()
        coeff = int(t.text) * _w_power(ctx, 0, ring)
        if p.peek() is not None and p.peek().kind == "*":
            p.next()
            nxt = p.peek()
            if nxt is not None and nxt.kind == "w":
                return int(t.text) * _w_power(
                    ctx, _parse_watom_power(p), ring), 0
            return coeff, _parse_xatom(p)
        return coeff, 0
    if t.kind == "w":
        coeff = _w_power(ctx, _parse_watom_power(p), ring)
        if p.peek() is not None and p.peek().kind == "*":
            p.next()
            return coeff, _parse_xatom(p)
        return coeff, 0
    p.fail("a term")


def parse_poly(text: str, autom: AutomorphismSpec, ring: bool = True,
               line: int = 0, col: int = 0) -> SkewPoly:
    """A skew polynomial from its text form."""
    ctx = autom.ctx
    p = _Parser(text, line, col)
    zero = ctx.ring_zero() if ring else ctx.field_zero()
    acc = {}
    sign = 1
    if p.peek() is not None and p.peek().kind == "-":
        p.next()
        sign = -1
    coeff, power = _parse_pterm(p, ctx, ring)
    acc[power] = acc.get(power, zero) + sign * coeff
    while p.peek() is not None and p.peek().kind in "+-":
        sign = 1 if p.next().kind == "+" else -1
        coeff, power = _parse_pterm(p, ctx, ring)
        acc[power] = acc.get(power, zero) + sign * coeff
    p.done()
    top = max(acc)
    coeffs = [acc.get(k, zero) for k in range(top + 1)]
    return SkewPoly(autom, coeffs, ring)


def parse_int_poly(text: str, line: int = 0, col: int = 0) -> Tuple[int, ...]:
    """Ascending integer coefficients of a plain polynomial in x."""
    p = _Parser(text, line, col)
    acc = {}
    sign = 1
    first = True
    while first or (p.peek() is not None and p.peek().kind in "+-"):
        if not first:
            sign = 1 if p.next().kind == "+" else -1
        first = False
        t = p.peek()
        if t is None:
            p.fail("a term")
        if t.kind == "INT":
            p.next()
            c = int(t.text)
            k = 0
            if p.peek() is not None and p.peek().kind == "*":
                p.next()
                k = _parse_xatom(p)
        elif t.kind == "x":
            c = 1
            k = _parse_xatom(p)
        else:
            p.fail("an integer term")
        acc[k] = acc.get(k, 0) + sign * c
    p.done()
    top = max(acc)
    return tuple(acc.get(k, 0) for k in range(top + 1))


def int_poly_str(coeffs) -> str:
    """Canonical text of an integer polynomial, ascending powers."""
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            xatom = "x" if k == 1 else f"x^{k}"
            parts.append(xatom if c == 1 else f"{c}*{xatom}")
    return "+".join(parts) if parts else "0"


_KEY_RE = re.compile(r"^\s*([a-z0-9]+)\s*:\s*(.*?)\s*$")


def _header_value_pos(raw: str) -> int:
    colon = raw.index(":")
    rest = raw[colon + 1:]
    return colon + 1 + (len(rest) - len(rest.lstrip()))


def _split_headers(text: str):
    """(key, value, line, value column, raw line) per nonblank line."""
    out = []
    for lineno, raw in enumerate(text.splitlines()):
        if not raw.strip():
            continue
        m = _KEY_RE.match(raw)
        if m is None:
            out.append((None, raw, lineno, 0, raw))
            continue
        out.append((m.group(1), m.group(2), lineno,
                    _header_value_pos(raw), raw))
    return out


def _require_int(key, value, lineno, col) -> int:
    if not re.fullmatch(r"\d+", value):
        raise ParseError(f"{key} must be a nonnegative integer", lineno, col)
    return int(value)


def _build_ctx(fields) -> RingContext:
    for key in ("m", "h"):
        if key not in fields:
            raise ParseError(f"missing header {key!r}", 0, 0)
    m_val, m_line, m_col = fields["m"]
    h_val, h_line, h_col = fields["h"]
    m = _require_int("m", m_val, m_line, m_col)
    return RingContext(m, parse_int_poly(h_val, h_line, h_col))


def parse_matrix(text: str) -> Tuple[RingContext, MixedMatrix]:
    """A matrix file: context headers, `rows:`, then the rows."""
    fields = {}
    row_lines = []
    in_rows = False
    for key, value, lineno, col, raw in _split_headers(text):
        if in_rows:
            row_lines.append((raw, lineno))
            continue
        if key == "rows":
            if value:
                raise ParseError("unexpected text after 'rows:'", lineno, col)
            in_rows = True
            continue
        if key not in ("m", "h", "r", "s"):
            raise ParseError(f"unknown header {key!r}", lineno, 0)
        if key in fields:
            raise ParseError(f"duplicate header {key!r}", lineno, 0)
        fields[key] = (value, lineno, col)
    if not in_rows:
        raise ParseError("missing 'rows:' marker", 0, 0)
    for key in ("r", "s"):
        if key not in fields:
            raise ParseError(f"missing header {key!r}", 0, 0)
    ctx = _build_ctx(fields)
    r = _require_int("r", *fields["r"])
    s = _require_int("s", *fields["s"])

    rows = []
    for raw, lineno in row_lines:
        bar = raw.find("|")
        if bar < 0:
            raise ParseError("row needs a '|' separator", lineno, 0)
        if raw.find("|", bar + 1) >= 0:
            raise ParseError("row has more than one '|'", lineno,
                             raw.find("|", bar + 1))
        alpha = []
        for mt in re.finditer(r"\S+", raw[:bar]):
            alpha.append(parse_element(mt.group(), ctx, ring=False,
                                       line=lineno, col=mt.start()))
        beta = []
        for mt in re.finditer(r"\S+", raw[bar + 1:]):
            beta.append(parse_element(mt.group(), ctx, ring=True,
                                      line=lineno, col=bar + 1 + mt.start()))
        if len(alpha) != r:
            raise ParseError(f"expected {r} binary entries, found "
                             f"{len(alpha)}", lineno, 0)
        if len(beta) != s:
            raise ParseError(f"expected {s} quaternary entries, found "
                             f"{len(beta)}", lineno, bar + 1)
        rows.append(MixedWord(ctx, alpha, beta))
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
    fields = {}
    for key, value, lineno, col, _raw in _split_headers(text):
        if key is None:
            raise ParseError("expected a 'key: value' line", lineno, 0)
        if key not in ("m", "h", "r", "s", "t") + _GEN_KEYS:
            raise ParseError(f"unknown header {key!r}", lineno, 0)
        if key in fields:
            raise ParseError(f"duplicate header {key!r}", lineno, 0)
        fields[key] = (value, lineno, col)
    for key in ("r", "s"):
        if key not in fields:
            raise ParseError(f"missing header {key!r}", 0, 0)
    ctx = _build_ctx(fields)
    r = _require_int("r", *fields["r"])
    s = _require_int("s", *fields["s"])
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
    gens = SkewGenerators(autom=autom, r=r, s=s, f=parts.get("f"),
                          l=parts.get("l"), g=parts.get("g"),
                          a=parts.get("a"), l1=parts.get("l1"),
                          q=parts.get("q"))
    return ctx, autom, gens


def emit_gens(gens: SkewGenerators) -> str:
    ctx = gens.autom.ctx
    lines = [f"m: {ctx.m}", f"h: {int_poly_str(ctx.h)}",
             f"r: {gens.r}", f"s: {gens.s}", f"t: {gens.autom.t}"]
    for key in _GEN_KEYS:
        poly = getattr(gens, key)
        if poly is not None:
            lines.append(f"{key}: {poly}")
    return "\n".join(lines) + "\n"
