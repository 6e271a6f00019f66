"""Brute-force enumeration backend for mixed binary/quaternary codes.

Words are packed into integers: quaternary coordinate ``j`` occupies
bits ``[2mj, 2m(j+1))`` (two bits per coefficient), and binary
coordinate ``i`` occupies ``m`` bits starting at ``2ms + mi``.  The
packed value of a coordinate equals its dense context index, so table
lookups translate directly.  Addition of packed words is carry-free on
the binary region (xor) and a two-bit parallel add on the quaternary
region, so whole arrays of words combine in a few vector operations.

Spans are built by coset enumeration over a worklist of generator
rows.  The scalar multiples ``K`` of a row form a subgroup of at most
``4^m`` words, so the next span ``H + K`` is the disjoint union of the
translates ``H + k`` over coset representatives ``k`` of
``K / (H & K)``.  The translates are concatenated and sorted once; no
deduplication is needed.  The next size ``|H| * |reps|`` is exact
before anything is allocated, so a word budget (default ``2**24``)
raises :class:`~artifact.errors.BudgetExceeded` before the buffer
exists.  For skew closure the shift of each processed row joins the
worklist when it is not already in the span.  Words of at most 64 bits
are kept in sorted ``np.uint64`` arrays, wider ones in sorted tuples
of Python ints; only the translate-and-sort step differs.

Everything here is independent of the structural machinery in
``mixedcode``/``skewcyclic``: it only uses element arithmetic, which
is what makes it usable as a cross-check oracle for those modules.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BudgetExceeded,
    ContextMismatch,
    NotACode,
    ShapeMismatch,
    TrivialCode,
)
from .galois import AutomorphismSpec, RingContext
from .mixedcode import MixedMatrix, MixedWord
from .skewcyclic import theta_shift
from .skewpoly import SkewPoly

__all__ = [
    "DEFAULT_BUDGET",
    "EnumeratedCode",
    "span_closure",
    "brute_force_dual",
    "is_skew_cyclic",
    "classify_z4_skew_cyclic",
    "Classification",
    "min_hamming_distance",
]

DEFAULT_BUDGET = 1 << 24


class _Codec:
    """Packing layout for one (context, r, s) shape."""

    def __init__(self, ctx: RingContext, r: int, s: int):
        m = ctx.m
        self.ctx, self.r, self.s = ctx, r, s
        self.bits = m * r + 2 * m * s
        self.q_width = 2 * m * s
        self.vector = self.bits <= 64
        low = 0
        for j in range(m * s):
            low |= 1 << (2 * j)
        self.low_mask = low

    def encode(self, w: MixedWord) -> int:
        if w.ctx != self.ctx or w.r != self.r or w.s != self.s:
            raise ShapeMismatch("word does not fit this code's shape")
        ctx, m = self.ctx, self.ctx.m
        acc = 0
        for j, b in enumerate(w.beta):
            acc |= ctx.ring_index(b) << (2 * m * j)
        for i, a in enumerate(w.alpha):
            acc |= ctx.field_index(a) << (self.q_width + m * i)
        return acc

    def decode(self, packed: int) -> MixedWord:
        ctx, m = self.ctx, self.ctx.m
        beta = [ctx.ring_from_index((packed >> (2 * m * j)) & ((1 << (2 * m)) - 1))
                for j in range(self.s)]
        alpha = [ctx.field_from_index(
            (packed >> (self.q_width + m * i)) & ((1 << m) - 1))
            for i in range(self.r)]
        return MixedWord(ctx, alpha, beta)

    def add(self, a, b):
        """Packed addition; works on ints and on numpy arrays alike."""
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            low = np.uint64(self.low_mask)
            return a ^ b ^ ((a & b & low) << np.uint64(1))
        return a ^ b ^ ((a & b & self.low_mask) << 1)

    def scale(self, gamma, packed: int) -> int:
        return self.encode(self.decode(packed).scale(gamma))

    def multiples(self, packed: int) -> list:
        """Distinct scalar multiples of one packed word, as sorted ints."""
        w = self.decode(packed)
        seen = {self.encode(w.scale(g)) for g in self.ctx.all_ring_elems()}
        return sorted(seen)


@dataclass(frozen=True)
class EnumeratedCode:
    """An explicit, sorted word set together with its packing."""

    codec: _Codec
    packed: object  # sorted np.uint64 array, or sorted tuple of ints

    @property
    def ctx(self) -> RingContext:
        return self.codec.ctx

    @property
    def r(self) -> int:
        return self.codec.r

    @property
    def s(self) -> int:
        return self.codec.s

    def __len__(self):
        return len(self.packed)

    def __contains__(self, w: MixedWord) -> bool:
        return _member(self.packed, self.codec.encode(w))

    def __iter__(self):
        for v in self.packed:
            yield self.codec.decode(int(v))

    def __eq__(self, other):
        if not isinstance(other, EnumeratedCode):
            return NotImplemented
        if (self.ctx, self.r, self.s) != (other.ctx, other.r, other.s):
            return False
        if isinstance(self.packed, np.ndarray):
            return len(self.packed) == len(other.packed) and \
                bool(np.array_equal(self.packed, other.packed))
        return tuple(self.packed) == tuple(other.packed)

    def packed_ints(self):
        return [int(v) for v in self.packed]


def _as_rows(rows) -> list:
    if isinstance(rows, MixedMatrix):
        return list(rows.rows)
    return list(rows)


def _row_shape(rows, ctx=None, r=None, s=None):
    if rows:
        w = rows[0]
        ctx, r, s = w.ctx, w.r, w.s
    if ctx is None or r is None or s is None:
        raise ShapeMismatch("shape must be given when there are no rows")
    for w in rows:
        if w.ctx != ctx:
            raise ContextMismatch("rows from different contexts")
        if (w.r, w.s) != (r, s):
            raise ShapeMismatch("rows of mixed shapes")
    return ctx, r, s


def _member(packed, key: int) -> bool:
    """Whether ``key`` occurs in a sorted array or tuple of packed words."""
    i = bisect.bisect_left(packed, key)
    return i < len(packed) and int(packed[i]) == key


def _shift_packed(codec: _Codec, autom: AutomorphismSpec, packed: int) -> int:
    return codec.encode(theta_shift(codec.decode(packed), autom))


def span_closure(rows, autom: Optional[AutomorphismSpec] = None,
                 skew: bool = False, budget: int = DEFAULT_BUDGET,
                 ctx: Optional[RingContext] = None,
                 r: Optional[int] = None,
                 s: Optional[int] = None) -> EnumeratedCode:
    """Enumerate the module span of some rows, optionally shift-closed.

    With ``skew=True`` (requires ``autom``) the skew shift of every
    processed row joins the worklist unless the span already holds it,
    so the result is the smallest skew cyclic code containing the rows.

    Raises
    ------
    BudgetExceeded
        Before allocating a span of more than ``budget`` words.
    """
    rows = _as_rows(rows)
    ctx, r, s = _row_shape(rows, ctx, r, s)
    if skew and autom is None:
        raise ContextMismatch("skew closure needs an automorphism")
    codec = _Codec(ctx, r, s)
    span = np.zeros(1, dtype=np.uint64) if codec.vector else (0,)
    work = deque(codec.encode(w) for w in rows)
    while work:
        row = work.popleft()
        mult = codec.multiples(row)
        inter = [k for k in mult if _member(span, k)]
        reps, covered = [], set()
        for k in mult:
            if k not in covered:
                reps.append(k)
                covered.update(codec.add(k, i) for i in inter)
        if len(reps) > 1:
            size = len(span) * len(reps)
            if size > budget:
                raise BudgetExceeded(f"span would grow to {size} words, "
                                     f"past the budget of {budget} words")
            if codec.vector:
                span = np.concatenate(
                    [codec.add(span, np.uint64(k)) for k in reps])
                span.sort()
            else:
                span = tuple(sorted(codec.add(x, k)
                                    for k in reps for x in span))
        if skew:
            shifted = _shift_packed(codec, autom, row)
            if not _member(span, shifted):
                work.append(shifted)
    return EnumeratedCode(codec, span)


def brute_force_dual(code, budget: int = DEFAULT_BUDGET) -> EnumeratedCode:
    """All ambient words orthogonal to every codeword.

    Filters the full ambient space word by word against the code, so
    it is deliberately independent of the parity-check construction.
    The ambient size ``2^(m(r+2s))`` must fit the budget.
    """
    code = _ensure_enumerated(code)
    codec = code.codec
    ctx, m = codec.ctx, codec.ctx.m
    ambient = 1 << codec.bits
    if ambient > budget:
        raise BudgetExceeded(
            f"ambient space of {ambient} words exceeds the budget {budget}")
    if not codec.vector:
        raise BudgetExceeded("ambient space too wide to enumerate")

    survivors = np.arange(ambient, dtype=np.uint64)
    rmask = np.uint64((1 << (2 * m)) - 1)
    fmask = np.uint64((1 << m) - 1)
    # Low bits of the coefficient pairs of a single ring element: the
    # accumulated inner product lives in the bottom 2m bits.
    elem_low = np.uint64(sum(1 << (2 * c) for c in range(m)))
    # 2 * lift(f): field bit i becomes ring bit 2i+1.
    lift2 = np.zeros(1 << m, dtype=np.uint64)
    for idx in range(1 << m):
        v = 0
        for i in range(m):
            if (idx >> i) & 1:
                v |= 1 << (2 * i + 1)
        lift2[idx] = v

    def mul_row_ring(cidx: int) -> np.ndarray:
        c = ctx.ring_from_index(cidx)
        return np.array([ctx.ring_index(c * ctx.ring_from_index(v))
                         for v in range(1 << (2 * m))], dtype=np.uint64)

    def mul_row_field(cidx: int) -> np.ndarray:
        c = ctx.field_from_index(cidx)
        return np.array([ctx.field_index(c * ctx.field_from_index(v))
                         for v in range(1 << m)], dtype=np.uint64)

    ring_rows: dict = {}
    field_rows: dict = {}
    for u in code.packed_ints():
        if not u:
            continue
        racc = np.zeros(len(survivors), dtype=np.uint64)
        for j in range(codec.s):
            cidx = (u >> (2 * m * j)) & ((1 << (2 * m)) - 1)
            if not cidx:
                continue
            if cidx not in ring_rows:
                ring_rows[cidx] = mul_row_ring(cidx)
            col = (survivors >> np.uint64(2 * m * j)) & rmask
            term = ring_rows[cidx][col]
            racc = racc ^ term ^ ((racc & term & elem_low) << np.uint64(1))
        facc = np.zeros(len(survivors), dtype=np.uint64)
        for i in range(codec.r):
            cidx = (u >> (codec.q_width + m * i)) & ((1 << m) - 1)
            if not cidx:
                continue
            if cidx not in field_rows:
                field_rows[cidx] = mul_row_field(cidx)
            col = (survivors >> np.uint64(codec.q_width + m * i)) & fmask
            facc ^= field_rows[cidx][col]
        tot = lift2[facc]
        tot = racc ^ tot ^ ((racc & tot & elem_low) << np.uint64(1))
        survivors = survivors[tot == 0]
        if len(survivors) == 0:
            break
    return EnumeratedCode(codec, survivors)


def _ensure_enumerated(code, ctx=None, r=None, s=None) -> EnumeratedCode:
    if isinstance(code, EnumeratedCode):
        return code
    rows = _as_rows(code)
    ctx, r, s = _row_shape(rows, ctx, r, s)
    codec = _Codec(ctx, r, s)
    keys = sorted({codec.encode(w) for w in rows})
    if codec.vector:
        packed = np.array(keys, dtype=np.uint64)
    else:
        packed = tuple(keys)
    return EnumeratedCode(codec, packed)


def is_skew_cyclic(code, autom: AutomorphismSpec) -> bool:
    """Whether a word set maps into itself under the skew shift.

    Checks every word, not just generators, so it is meaningful for
    arbitrary sets.
    """
    code = _ensure_enumerated(code)
    codec = code.codec
    if autom.ctx != codec.ctx:
        raise ContextMismatch("automorphism from a different context")
    m = codec.ctx.m
    if not isinstance(code.packed, np.ndarray):
        members = set(code.packed)
        return all(_shift_packed(codec, autom, v) in members
                   for v in code.packed)
    arr = code.packed
    theta_r = np.array(
        [codec.ctx.ring_index(autom.apply(codec.ctx.ring_from_index(v)))
         for v in range(1 << (2 * m))], dtype=np.uint64)
    theta_f = np.array(
        [codec.ctx.field_index(autom.apply(codec.ctx.field_from_index(v)))
         for v in range(1 << m)], dtype=np.uint64)
    shifted = np.zeros(len(arr), dtype=np.uint64)
    rmask = np.uint64((1 << (2 * m)) - 1)
    fmask = np.uint64((1 << m) - 1)
    for j in range(codec.s):
        col = (arr >> np.uint64(2 * m * j)) & rmask
        dest = (j + 1) % codec.s
        shifted |= theta_r[col] << np.uint64(2 * m * dest)
    for i in range(codec.r):
        col = (arr >> np.uint64(codec.q_width + m * i)) & fmask
        dest = (i + 1) % codec.r
        shifted |= theta_f[col] << np.uint64(codec.q_width + m * dest)
    shifted.sort()
    return bool(np.array_equal(shifted, arr))


@dataclass(frozen=True)
class Classification:
    """Outcome of classifying a quaternary skew cyclic code."""

    case: str
    g: Optional[SkewPoly] = None
    a: Optional[SkewPoly] = None
    q: Optional[SkewPoly] = None


def _word_to_ring_poly(codec: _Codec, autom: AutomorphismSpec, packed: int):
    w = codec.decode(packed)
    return SkewPoly(autom, w.beta, True)


def classify_z4_skew_cyclic(code, autom: AutomorphismSpec,
                            budget: int = DEFAULT_BUDGET) -> Classification:
    """Recognise a purely quaternary skew cyclic code by generators.

    The input must be an enumerated set of words with ``r = 0``.  The
    outcome names the case and the witness polynomials:

    - case `i`: no word has a unit leading coefficient; ``C = <2q>``.
    - case `ii`: a minimal-degree word is monic; ``C = <g + 2a>``.
    - case `iii`: monic words exist, none of minimal degree;
      ``C = <g + 2a, 2q>``.

    The witnesses are verified to regenerate the input exactly.

    Raises
    ------
    NotACode
        If the set is not module closed and shift closed, or the
        witnesses do not regenerate it.
    TrivialCode
        For the zero code, which fits every case at once.
    """
    code = _ensure_enumerated(code)
    codec = code.codec
    if codec.r != 0:
        raise ShapeMismatch("classification applies to quaternary codes only")
    if autom.ctx != codec.ctx:
        raise ContextMismatch("automorphism from a different context")
    ctx, s = codec.ctx, codec.s

    members = code.packed_ints()
    if members == [0]:
        raise TrivialCode("the zero code has no canonical generator")
    if 0 not in members:
        raise NotACode("a code must contain the zero word")
    if not is_skew_cyclic(code, autom):
        raise NotACode("the set is not closed under the skew shift")

    polys = [(_word_to_ring_poly(codec, autom, v), v) for v in members if v]
    degs = [p.degree for p, _ in polys]
    min_deg = min(degs)
    has_monic = any(p.lead.is_unit() for p, _ in polys)
    monic_min = any(p.lead.is_unit() for p, _ in polys
                    if p.degree == min_deg)

    def as_word(poly: SkewPoly) -> MixedWord:
        return MixedWord(ctx, [], [poly.coeff(i) for i in range(s)])

    def monic_scaled(p: SkewPoly) -> SkewPoly:
        return p.lead.inverse() * p

    g = a = q = None
    if not has_monic:
        case = "i"
        # Every word is doubled; halve the minimal-degree one.
        cand = min((p for p, _ in polys if p.degree == min_deg),
                   key=lambda p: tuple(ctx.ring_index(c) for c in p.coeffs))
        half = SkewPoly(autom, [c.halve() for c in cand.coeffs], False)
        half = half.lead.inverse() * half
        q = half.lift()
        witness_rows = [as_word((2 * q).reduce_mod_xn(s))]
    elif monic_min:
        case = "ii"
        cand = min((monic_scaled(p) for p, _ in polys
                    if p.degree == min_deg and p.lead.is_unit()),
                   key=lambda p: tuple(ctx.ring_index(c) for c in p.coeffs))
        g = cand.mod2().lift()
        a = SkewPoly(autom, [c.halve() for c in (cand - g).coeffs],
                     False).lift()
        witness_rows = [as_word(cand)]
    else:
        case = "iii"
        monics = [monic_scaled(p) for p, _ in polys if p.lead.is_unit()]
        dmin = min(p.degree for p in monics)
        cand = min((p for p in monics if p.degree == dmin),
                   key=lambda p: tuple(ctx.ring_index(c) for c in p.coeffs))
        g = cand.mod2().lift()
        a = SkewPoly(autom, [c.halve() for c in (cand - g).coeffs],
                     False).lift()
        doubled = [p for p, _ in polys
                   if all(not c.is_unit() for c in p.coeffs)]
        halves = [SkewPoly(autom, [c.halve() for c in p.coeffs], False)
                  for p in doubled]
        hmin = min(h.degree for h in halves if not h.is_zero)
        hcand = min((h.lead.inverse() * h for h in halves
                     if h.degree == hmin),
                    key=lambda h: tuple(ctx.field_index(c) for c in h.coeffs))
        q = hcand.lift()
        witness_rows = [as_word(cand), as_word((2 * q).reduce_mod_xn(s))]

    regen = span_closure(witness_rows, autom=autom, skew=True, budget=budget,
                         ctx=ctx, r=0, s=s)
    if not regen == code:
        raise NotACode("classification witnesses do not regenerate the set")
    return Classification(case, g=g, a=a, q=q)


def min_hamming_distance(code) -> int:
    """Smallest number of nonzero coordinates over the nonzero words."""
    code = _ensure_enumerated(code)
    codec = code.codec
    m = codec.ctx.m
    if isinstance(code.packed, np.ndarray):
        arr = code.packed
        if len(arr) < 2:
            raise TrivialCode("no nonzero words")
        weights = np.zeros(len(arr), dtype=np.uint32)
        rmask = np.uint64((1 << (2 * m)) - 1)
        fmask = np.uint64((1 << m) - 1)
        for j in range(codec.s):
            col = (arr >> np.uint64(2 * m * j)) & rmask
            weights += (col != 0)
        for i in range(codec.r):
            col = (arr >> np.uint64(codec.q_width + m * i)) & fmask
            weights += (col != 0)
        nz = weights[arr != 0]
        return int(nz.min())
    best = None
    for v in code.packed:
        if not v:
            continue
        w = codec.decode(v)
        wt = sum(1 for a in w.alpha if a) + sum(1 for b in w.beta if b)
        best = wt if best is None else min(best, wt)
    if best is None:
        raise TrivialCode("no nonzero words")
    return best
