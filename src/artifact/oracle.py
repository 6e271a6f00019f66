"""Brute-force enumeration backend for mixed binary/quaternary codes.

Words are packed into integers: quaternary coordinate ``j`` occupies
bits ``[2mj, 2m(j+1))`` (two bits per coefficient), and binary
coordinate ``i`` occupies ``m`` bits starting at ``2ms + mi``.  The
packed value of a coordinate equals its dense context index, so table
lookups translate directly.  Addition of packed words is carry-free on
the binary region (xor) and a two-bit parallel add on the quaternary
region, so whole arrays of words combine in a few vector operations.

Every operation runs on one numpy array of packed words; the word width
only picks its dtype, ``np.uint64`` up to 64 bits and ``object``
(Python ints) beyond.  Scalar multiples, the skew shift and the dual's
inner products are one mapping step: a sum over coordinates
of a dense table, indexed by the coordinate and placed at a destination
offset.  The tables (scalar times element, Frobenius powers) are built
once per context from element arithmetic.  Adjacent coordinates share
one lookup: their placed tables add up to one table over the group's
bits, kept while it holds at most ``2**12`` entries (``2**10`` past 64
bits, whose entries are Python ints), so a sum of lookups stays the
same sum.  One codec per (context, r, s) shape is cached, and it keeps
these grouped plans for the fixed table kinds (scalar multiples, each
Frobenius shift, the classifier's key); the dual's pairing tables
depend on its generators and go through the same loop one coordinate
per lookup.  Weights need no table: each coordinate's bits are ORed
down onto its lowest bit, and the bit count of those lowest bits is the
number of nonzero coordinates.  Whole-array passes run in blocks of
``_BLOCK`` words.  Stored word sets stay a sorted ``np.uint64`` array,
or a sorted tuple of ints for wide words.

Every span is built by one loop over packed words, ``_close``, in
rounds: a round drops the words the span holds and grows the span by
each word left in turn; for skew closure, the shifts of the words that
grew it make the next round.  Those words are the code's generators.
A round maps the multiples of its words at most ``bits`` words a call
and shifts its generators in one call.  A step adds the scalar
multiples ``K`` of a word, a subgroup of at most ``4^m`` words, so the
next span ``H + K`` is the disjoint union of the translates ``H + k``
over coset representatives ``k`` of ``K / (H & K)``.  Each coset is
named by its least word, read off one table of at most ``4^m x 4^m``
sums, and one broadcast addition writes every translate into one
``|reps| x |H|`` buffer, sorted once.  The next size ``|H| * |reps|``
is exact, so a word budget (default ``2**24``) raises
:class:`~artifact.errors.BudgetExceeded` before the buffer exists.

The dual pairs ambient words with those generators alone; a set built
otherwise (a word list, or a dual) first gets a generating set from its
own words through the same loop.  The pairing
``<u, v> = 2 lift(sum alpha alpha') + sum beta beta'`` is
GR(4,m)-bilinear: ``2 lift`` depends only on the residue, so
``<lambda u, v> = lambda <u, v>`` for every ring scalar ``lambda``, and
a word orthogonal to every generator is orthogonal to every codeword.
It is also additive in the ambient word, and a packed word is the sum
of its low and high bits, so the ambient space is split at its middle
bit: the words of each half are paired in one mapping step, and a low
and a high half join into a dual word exactly when their pairing
vectors are negatives of each other.  The join covers every ambient
word, uses element tables alone and never consults ``parity_check``,
so it stays a witness for it.

Everything here is independent of the structural machinery in
``mixedcode``/``skewcyclic``: it only uses element arithmetic, which
is what makes it usable as a cross-check oracle for those modules.
"""

from __future__ import annotations

import bisect
import functools
from typing import Optional

import numpy as np

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ContextMismatch,
    NotACode,
    ShapeMismatch,
    TrivialCode,
)
from .galois import AutomorphismSpec, Record, RingContext
from .mixedcode import MixedMatrix, MixedWord
from .skewpoly import SkewPoly

__all__ = [
    "EnumeratedCode",
    "span_closure",
    "brute_force_dual",
    "is_skew_cyclic",
    "classify_z4_skew_cyclic",
    "Classification",
    "min_hamming_distance",
]

# Words per block of a whole-array pass, whose 128 KB temporaries stay
# in cache.  On a 2-vCPU Xeon, over 2^16 words at m = 2, r = 4, s = 6,
# the weight pass took 0.2 ms in blocks of 2^13 or 2^14 words, 0.3 at
# 2^12 and 0.5 at 2^15 or 2^16, and the shift 0.46 ms at 2^14 against
# 0.79 at 2^16 (``block_sweep`` in BENCH_weights.json).
_BLOCK = 1 << 14
# Entries of one grouped table, trailing axes counted: 2^12 uint64
# entries are 32 KB.  A shift of 2^16 words at m = 2, r = s = 8 took 4
# lookups and 0.53-0.84 ms, against 6 and 0.73-1.16 ms at 2^10; larger
# bounds were no faster and raised enumerate's peak RSS (``group_sweep``
# in BENCH_closure.json).  An object entry also points to an int of
# about 36 bytes, so codecs past 64 bits take a quarter as many.
_GROUP = 1 << 12
_CODECS = 32  # cached codecs, one per (context, r, s) shape


@functools.cache
def _tables(ctx: RingContext) -> dict:
    """Dense ``np.uint64`` tables over ``ring_index``/``field_index``.

    ``*_scaled[v, g]`` is ``v`` times ring scalar ``g`` (its mod-2 image
    on the field side) and ``*_frob[k, v]`` is ``v`` under the k-th
    Frobenius power.  The scaled tables hold ``16^m`` entries, refused
    past the default word budget before they are built.
    """
    entries = 16 ** ctx.m
    if entries > DEFAULT_BUDGET:
        raise BudgetExceeded(f"the scalar tables at m = {ctx.m} would hold "
                             f"{entries} entries, past the budget of "
                             f"{DEFAULT_BUDGET}")
    phi = AutomorphismSpec(ctx, 1)
    ring = list(ctx.all_ring_elems())
    tables = {}
    for side, elems, index, scalars in (
            ("ring", ring, ctx.ring_index, ring),
            ("field", list(ctx.all_field_elems()), ctx.field_index,
             [g.reduce_mod2() for g in ring])):
        tables[f"{side}_scaled"] = [[index(g * v) for g in scalars]
                                    for v in elems]
        tables[f"{side}_frob"] = [[index(phi.apply_power(v, k))
                                   for v in elems] for k in range(ctx.m)]
    return {name: np.array(t, dtype=np.uint64) for name, t in tables.items()}


class _Codec:
    """Packing layout and word dtype for one (context, r, s) shape.

    Obtained through ``_codec``, which keeps one per shape, so the
    grouped plans in ``plans`` are built once per shape and table kind.
    """

    def __init__(self, ctx: RingContext, r: int, s: int):
        m = ctx.m
        self.ctx, self.r, self.s = ctx, r, s
        self.bits = m * r + 2 * m * s
        self.q_width = 2 * m * s
        self.vector = self.bits <= 64
        self.dtype = np.uint64 if self.vector else object
        self.group = _GROUP if self.vector else _GROUP >> 2
        # Shift amounts and masks share the words' type, so numpy keeps
        # uint64 arithmetic on uint64 and exact ints on object arrays.
        word = np.uint64 if self.vector else int
        self.low_mask = word(sum(1 << (2 * j) for j in range(m * s)))
        self.one = word(1)
        quat = [word(2 * m * j) for j in range(s)]
        binary = [word(self.q_width + m * i) for i in range(r)]
        self.offsets = quat + binary
        self.widths = self.per_coord(2 * m, m)
        self.word = word
        self.rotated = quat[1:] + quat[:1] + binary[1:] + binary[:1]
        self.zeros = [word(0)] * (r + s)
        self.masks = self.per_coord(word((1 << (2 * m)) - 1),
                                    word((1 << m) - 1))
        # For weights: (steps, lowest bits) per region in use, binary
        # first; the quaternary steps carry the fold on from m to 2m bits.
        self.fold, steps, cover = [], [], 1
        for width, region in ((m, binary), (2 * m, quat)):
            while cover < width:
                step = min(cover, width - cover)
                steps.append(word(step))
                cover += step
            if region:
                self.fold.append((steps, word(sum(1 << int(src)
                                                  for src in region))))
                steps = []
        self.tables = {name: t.astype(self.dtype)
                       for name, t in _tables(ctx).items()}
        self.plans = {}

    def __getstate__(self):
        # A pickled code leaves its plans behind; they rebuild on use.
        return {**self.__dict__, "plans": {}}

    def per_coord(self, ring, field) -> list:
        """One entry per coordinate: quaternary ones first, as packed."""
        return [ring] * self.s + [field] * self.r

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
        beta = [ctx.ring_from_index(
            (packed >> (2 * m * j)) & ((1 << (2 * m)) - 1))
            for j in range(self.s)]
        alpha = [ctx.field_from_index(
            (packed >> (self.q_width + m * i)) & ((1 << m) - 1))
            for i in range(self.r)]
        return MixedWord(ctx, alpha, beta)

    def array(self, words) -> np.ndarray:
        """Packed words (a stored word set, or any sequence) as an array."""
        return np.asarray(words, dtype=self.dtype)

    def store(self, arr: np.ndarray):
        """The stored layout of a sorted array of packed words."""
        return arr if self.vector else tuple(arr.tolist())

    def add(self, a, b, out=None):
        """Packed addition of arrays or words, optionally into ``out``."""
        out = np.bitwise_and(a, b, out=out)
        out &= self.low_mask
        out <<= self.one
        out ^= a
        out ^= b
        return out

    def plan(self, tables: list, dest: list, bound: int) -> list:
        """``(source shift, mask, placed table)`` per group of coordinates.

        A coordinate joins the group before it while the merged table
        holds at most ``bound`` entries, trailing axes counted; one past
        the bound on its own stays a group of one.  The merged table is
        the sum of its coordinates' placed tables, each read off its own
        bits of the group's index, so one lookup adds what they add.
        """
        groups = []
        for src, width, table, d in zip(self.offsets, self.widths,
                                        tables, dest):
            table = table << d
            if groups and groups[-1][2].size << width <= bound:
                start, low, merged = groups[-1]
                idx = np.arange(len(merged) << width)
                groups[-1] = (start, low + width,
                              merged[idx & (len(merged) - 1)]
                              + table[idx >> low])
            else:
                groups.append((src, width, table))
        return [(src, self.word((1 << width) - 1), table)
                for src, width, table in groups]

    def _planned(self, name, build) -> list:
        """The grouped plan ``name``, from ``plan(*build())`` on first use."""
        plan = self.plans.get(name)
        if plan is None:
            plan = self.plans[name] = self.plan(*build(), self.group)
        return plan

    def map(self, arr: np.ndarray, plan: list) -> np.ndarray:
        """Sum over the groups of ``plan`` of ``table[(word >> src) & mask]``.

        Trailing table axes become trailing axes of the result.  Words
        go through in blocks of ``_BLOCK`` so that the temporaries stay
        in cache.
        """
        out = np.empty((len(arr),) + plan[0][2].shape[1:], dtype=self.dtype)
        # uint64 indices read as intp: a view, where an intp buffer would
        # convert them once per group.  Group indices stay below 2^63.
        col = np.empty(min(len(arr), _BLOCK), dtype=np.uint64)
        for lo in range(0, len(arr), _BLOCK):
            part = arr[lo:lo + _BLOCK]
            acc = out[lo:lo + _BLOCK]
            acc.fill(0)
            idx = col[:len(part)]
            for src, mask, table in plan:
                np.bitwise_and(part >> src, mask, out=idx, casting="unsafe")
                acc += table[idx.view(np.intp)]
        return out

    def multiples(self, arr: np.ndarray) -> np.ndarray:
        """The scalar multiples of every word: one row per word, with one
        entry per ring scalar, so unsorted and possibly repeating."""
        plan = self._planned("scaled", lambda: (
            self.per_coord(self.tables["ring_scaled"],
                           self.tables["field_scaled"]), self.offsets))
        return self.map(arr, plan)

    def shift(self, arr: np.ndarray, autom: AutomorphismSpec) -> np.ndarray:
        """The skew shift of every word: rotate each block, twist entries."""
        if autom.ctx != self.ctx:
            raise ContextMismatch("automorphism from a different context")
        k = autom.t % self.ctx.m
        plan = self._planned(("frob", k), lambda: (
            self.per_coord(self.tables["ring_frob"][k],
                           self.tables["field_frob"][k]), self.rotated))
        return self.map(arr, plan)

    def weights(self, arr: np.ndarray, reduce=None):
        """Nonzero coordinates per word, or with ``reduce`` the list of its
        results on each block's counts, which are never all held at once.

        ``x | (x >> step)`` with ``step <= cover`` widens the run of bits
        that each bit of ``x`` ORs together from ``cover`` to ``cover +
        step``.  The steps of ``fold`` keep ``cover`` at most the width
        of a coordinate, so a coordinate's lowest bit only ever ORs its
        own bits: the binary ones are read at ``cover = m``, the
        quaternary ones at ``2m``, and the weight is the bit count of
        the lowest bits read.  No region needs a mask.
        """
        out = np.empty(len(arr) if reduce is None else 0,
                       dtype=np.uint8 if self.vector else object)
        reduced = []
        for lo in range(0, len(arr), _BLOCK):
            x, found = arr[lo:lo + _BLOCK], 0
            for steps, lows in self.fold:
                for step in steps:
                    x = x | (x >> step)
                found = found | (x & lows)
            count = np.bitwise_count(found)
            if reduce is None:
                out[lo:lo + _BLOCK] = count
            else:
                reduced.append(reduce(count))
        return out if reduce is None else reduced

    def ascending(self, arr: np.ndarray) -> np.ndarray:
        """Quaternary words (``r = 0``) with their coordinates reversed.

        These keys order words by their coefficients from ``x^0`` upward.
        """
        plan = self._planned("ascending", lambda: (
            [np.arange(4 ** self.ctx.m).astype(self.dtype)] * self.s,
            self.offsets[::-1]))
        return self.map(arr, plan)


# Passes on one shape in one process reuse its codec and plans: a span
# and its skew closure, a classification and its regenerating span, a
# batch of codes of one length.
_codec = functools.lru_cache(maxsize=_CODECS)(_Codec)


class EnumeratedCode(Record):
    """An explicit, sorted word set together with its packing.

    ``packed`` is a sorted np.uint64 array, or a sorted tuple of ints
    past 64 bits.  ``gens`` holds packed words that generate the set as
    a GR(4,m)-module, in the order they grew its span, each outside the
    span of the ones before it; or None for a set that was not built as
    a span.
    """

    __slots__ = ("codec", "packed", "gens")

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
        key = self.codec.encode(w)
        i = bisect.bisect_left(self.packed, key)
        return i < len(self.packed) and int(self.packed[i]) == key

    def __iter__(self):
        for v in self.packed:
            yield self.codec.decode(int(v))

    def __eq__(self, other):
        if not isinstance(other, EnumeratedCode):
            return NotImplemented
        if (self.ctx, self.r, self.s) != (other.ctx, other.r, other.s):
            return False
        return bool(np.array_equal(self.codec.array(self.packed),
                                   other.codec.array(other.packed)))


def _words(rows) -> tuple:
    """``(codec, packed words)`` of an :class:`EnumeratedCode`, a matrix
    or a nonempty word list; an enumerated set is read as packed."""
    if isinstance(rows, EnumeratedCode):
        return rows.codec, rows.codec.array(rows.packed)
    mat = rows if isinstance(rows, MixedMatrix) else \
        MixedMatrix.from_rows(list(rows))
    codec = _codec(mat.ctx, mat.r, mat.s)
    return codec, codec.array([codec.encode(w) for w in mat])


def _isin(span: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which ``keys`` occur in the sorted, nonempty array ``span``."""
    idx = np.minimum(np.searchsorted(span, keys), len(span) - 1)
    return span[idx] == keys


def _coset_reps(codec: _Codec, span: np.ndarray,
                mult: np.ndarray) -> np.ndarray:
    """The least word of each coset of ``H & K`` in ``K``, sorted.

    ``H`` is the sorted span and ``K`` the scalar multiples of one word,
    given as its row ``mult`` of ``multiples``: unsorted, and a repeated
    multiple names the same coset, so the final ``np.unique`` drops it.
    The table of sums has at most ``4^m x 4^m`` entries.
    """
    inter = mult[_isin(span, mult)]
    return np.unique(codec.add(mult[:, None], inter[None, :]).min(axis=1))


def _grow(codec: _Codec, span: np.ndarray, mult: np.ndarray,
          budget: int) -> np.ndarray:
    """One coset step: the sorted span of ``span`` and a word outside it,
    given as its row ``mult`` of ``multiples``."""
    reps = _coset_reps(codec, span, mult)
    n = len(span)
    size = n * len(reps)
    if size > budget:
        raise BudgetExceeded(f"span would grow to {size} words, "
                             f"past the budget of {budget} words")
    grown = np.empty(size, dtype=codec.dtype)
    codec.add(span[None, :], reps[:, None], out=grown.reshape(len(reps), n))
    grown.sort()
    return grown


def _close(codec: _Codec, words: np.ndarray,
           autom: Optional[AutomorphismSpec], budget: int) -> tuple:
    """``(span, gens)``: the sorted span of ``words`` and the words that
    grew it, in order; with ``autom``, closed under its skew shift.

    Round 0 is ``words``, round k+1 the shifts of the words that grew
    the span in round k: the order of a queue that grows the span by its
    first word left and appends that word's shift.  The shift is additive
    and twists scalars, ``T(sum l_i g_i) = sum theta(l_i) T(g_i)``, so a
    word the span held has a shift spanned by the shifts of earlier
    generators, which come before it: skipping it changes neither the
    span nor the generators.  A round maps the multiples of at most
    ``codec.bits`` words a call, as each step at least doubles a span of
    at most ``2^bits`` words, and shifts its generators at once.
    """
    span, gens, found, work = codec.array([0]), [], 0, words
    while True:
        while len(work := work[~_isin(span, work)]):
            head, work = work[:codec.bits], work[codec.bits:]
            mults = codec.multiples(head)
            while len(head):
                span = _grow(codec, span, mults[0], budget)
                gens.append(head[0])
                left = ~_isin(span, head[1:])
                head, mults = head[1:][left], mults[1:][left]
        if autom is None or len(gens) == found:
            return span, codec.array(gens)
        work, found = codec.shift(codec.array(gens[found:]), autom), len(gens)


def span_closure(rows, autom: Optional[AutomorphismSpec] = None,
                 skew: bool = False,
                 budget: int = DEFAULT_BUDGET) -> EnumeratedCode:
    """Enumerate the module span of some rows, optionally shift-closed.

    ``rows`` is a :class:`MixedMatrix`, which carries the code's shape
    even with no rows (its span is the zero code), an
    :class:`EnumeratedCode`, read as its packed words (an empty one
    spans the zero code), or a nonempty sequence of words.

    With ``skew=True`` (requires ``autom``) the skew shift of every row
    that grew the span joins the end of the work, so the result is the
    smallest skew cyclic code containing the rows; the shift of a row
    the span already held is in the span of the generators' shifts.
    The rows that grew the span, shifted ones included, become the
    result's ``gens``.

    Raises
    ------
    BudgetExceeded
        Before allocating a span of more than ``budget`` words.
    ContextMismatch
        With ``skew=True`` and no ``autom``, or one of another context.
    """
    codec, words = _words(rows)
    if skew and autom is None:
        raise ContextMismatch("skew closure needs an automorphism")
    if skew and autom.ctx != codec.ctx:
        # Checked here: a code no word grows never reaches the shift.
        raise ContextMismatch("automorphism from a different context")
    span, gens = _close(codec, words, autom if skew else None, budget)
    return EnumeratedCode(codec, codec.store(span), gens)


def _lanes(v, m: int, width: int, lane: int):
    """Move the ``m`` coefficients of ``width`` bits in ``v`` to lanes."""
    mask = (1 << width) - 1
    return sum(((v >> (width * k)) & mask) << (lane * k) for k in range(m))


def brute_force_dual(code, budget: int = DEFAULT_BUDGET) -> EnumeratedCode:
    """All ambient words orthogonal to every codeword.

    The pairing is GR(4,m)-bilinear (``2 lift`` depends only on the
    residue, so ``<lambda u, v> = lambda <u, v>``), so a word is
    orthogonal to the code exactly when it is orthogonal to the code's
    ``gens``; a set without them first gets them from its own words,
    the ones that grow their span in ``_close``.  The pairing is also
    additive in the ambient word.
    Split at the middle bit, every ambient word is ``low + high`` for
    exactly one low half and one high half, and it lies in the dual
    exactly when ``P(low) = -P(high)``, ``P`` being its vector of
    pairings with the generators.  Both halves are paired in one mapping
    step and joined on equal keys, so the search stays exhaustive over
    the ambient space while touching ``2^(bits/2)`` words per half.
    Only element tables are used, never the parity-check construction,
    so the result stays an independent witness for it.  The ambient
    size ``2^(m(r+2s))`` must fit the budget.
    """
    code = _ensure_enumerated(code)
    codec = code.codec
    m, s = codec.ctx.m, codec.s
    ambient = 1 << codec.bits
    if ambient > budget:
        raise BudgetExceeded(
            f"ambient space of {ambient} words exceeds the budget {budget}")
    if not codec.vector:
        raise BudgetExceeded("ambient space too wide to enumerate")

    gens = code.gens
    if gens is None:
        gens = _close(codec, codec.array(code.packed), None, budget)[1]
    if not len(gens):
        # The zero word generates the zero code; a key needs a column.
        gens = codec.array([0])
    # Each product coefficient gets a lane of 64 // m bits, wide enough
    # that summing one term per coordinate cannot carry into the next
    # lane; a pairing vanishes when every lane is 0 mod 4.
    lane = 64 // m
    ones = sum(1 << (lane * k) for k in range(m))
    mod4 = np.uint64(3 * ones)
    # [v, k]: ambient entry v times the k-th generator's entry.  A field
    # entry acts as its lift, the ring scalar with its bits, and pairs
    # as 2 * lift(product): lane bit 1 per coefficient.
    ring_terms = _lanes(codec.tables["ring_scaled"], m, 2, lane)
    field_terms = _lanes(codec.tables["field_scaled"], m, 1, lane) << 1
    cols = [(gens >> src) & mask
            for src, mask in zip(codec.offsets, codec.masks)]
    tables = [ring_terms[:, c] for c in cols[:s]] + \
        [field_terms[:, _lanes(c, m, 1, 2)] for c in cols[s:]]

    # Any bit splits a word additively: a quaternary coefficient c cut
    # between its two bits is (c & 1) + (c & 2) in Z4.
    split = codec.bits // 2
    n_low = 1 << split
    high = np.arange(1 << (codec.bits - split), dtype=np.uint64)
    words = np.concatenate([np.arange(n_low, dtype=np.uint64),
                            high << np.uint64(split)])
    keys = codec.map(words, codec.plan(tables, codec.zeros, 0))
    keys &= mod4
    # -a mod 4 per lane keeps the low bit and xors it into the high one.
    keys[n_low:] ^= (keys[n_low:] & np.uint64(ones)) << np.uint64(1)

    # Equal keys get equal labels; lexsort is stable, so the low words
    # of one label stay in increasing order.
    order = np.lexsort(keys.T)
    ordered = keys[order]
    labels = np.zeros(len(order), dtype=np.intp)
    np.cumsum((ordered[1:] != ordered[:-1]).any(axis=1), out=labels[1:])
    is_low = order < n_low
    low, low_labels = order[is_low], labels[is_low]
    high_labels = np.empty(len(high), dtype=np.intp)
    high_labels[order[~is_low] - n_low] = labels[~is_low]
    # Each high word takes the run of low words with its label; the high
    # half is the major key, so the words come out sorted.
    start = np.searchsorted(low_labels, high_labels, "left")
    count = np.searchsorted(low_labels, high_labels, "right") - start
    first = np.cumsum(count) - count
    pick = np.arange(count.sum()) + np.repeat(start - first, count)
    dual = (np.repeat(high, count) << np.uint64(split)) | \
        low[pick].astype(np.uint64)
    return EnumeratedCode(codec, dual, None)


def _ensure_enumerated(code) -> EnumeratedCode:
    if isinstance(code, EnumeratedCode):
        return code
    codec, words = _words(code)
    return EnumeratedCode(codec, codec.store(np.unique(words)), None)


def is_skew_cyclic(code, autom: AutomorphismSpec) -> bool:
    """Whether a word set maps into itself under the skew shift.

    Checks every word, not just generators, so it is meaningful for
    arbitrary sets.
    """
    code = _ensure_enumerated(code)
    codec = code.codec
    arr = codec.array(code.packed)
    shifted = codec.shift(arr, autom)
    shifted.sort()
    return bool(np.array_equal(shifted, arr))


class Classification(Record):
    """Outcome of classifying a quaternary skew cyclic code."""

    __slots__ = ("case", "g", "a", "q")
    _defaults = dict.fromkeys(__slots__[1:])


def classify_z4_skew_cyclic(code, autom: AutomorphismSpec) -> Classification:
    """Recognise a purely quaternary skew cyclic code by generators.

    The input must be an enumerated set of words with ``r = 0``.  The
    outcome names the case and the witness polynomials:

    - case `i`: no word has a unit leading coefficient; ``C = <2q>``.
    - case `ii`: a minimal-degree word is monic; ``C = <g + 2a>``.
    - case `iii`: monic words exist, none of minimal degree;
      ``C = <g + 2a, 2q>``.

    The witnesses are picked in numpy: among the least-degree words
    whose leading coefficient is 1 (for ``g + 2a``) or 2 (for ``2q``),
    the one whose coefficients, read from ``x^0`` upward, come first.
    In a module these are exactly the words normalised by their leading
    unit, so only the one or two chosen words are decoded.  The
    witnesses are verified to regenerate the input exactly.  They are
    words of the input, so a code holds their skew closure: the
    regeneration stops, and the set is no code, once it would outgrow
    the input.

    Raises
    ------
    NotACode
        If the set is not module closed and shift closed (unit-leading
        words of the least degree but no monic one among them, say), or
        the witnesses do not regenerate it.
    TrivialCode
        For a set with no nonzero word, such as the zero code or an
        empty matrix: the zero code fits every case at once.
    """
    code = _ensure_enumerated(code)
    codec = code.codec
    if codec.r != 0:
        raise ShapeMismatch("classification applies to quaternary codes only")
    ctx = codec.ctx

    arr = codec.array(code.packed)
    # Sorted: a nonzero word would come last, zero would come first.
    if not len(arr) or arr[-1] == 0:
        raise TrivialCode("the zero code has no canonical generator")
    if arr[0] != 0:
        raise NotACode("a code must contain the zero word")

    # Per nonzero word: its degree (highest nonzero coordinate), whether
    # its leading coefficient is a unit (has an odd coefficient), and
    # whether every coefficient is even.
    words = arr[1:]
    odd = words & codec.low_mask
    deg = np.zeros(len(words), dtype=np.intp)
    unit = np.zeros(len(words), dtype=bool)
    for j, (src, mask) in enumerate(zip(codec.offsets, codec.masks)):
        nonzero = ((words >> src) & mask) != 0
        deg[nonzero] = j
        unit[nonzero] = ((odd[nonzero] >> src) & mask) != 0
    doubled = odd == 0
    # codec.ascending orders doubled words as their halves: the index of
    # 2b is the index of b spread over the high bit of each pair.

    witnesses = []

    def least(select, degree: int, lead: int) -> SkewPoly:
        """The first word, by ``codec.ascending``, of those in
        ``words[select]`` (all of ``degree``) whose leading coordinate
        has index ``lead``.  It joins ``witnesses``, and only it is
        decoded, to its polynomial.

        In a module each word of ``select`` has a unit multiple with
        that lead, so finding none means the set is not one.
        """
        cand = words[select]
        src, mask = codec.offsets[degree], codec.masks[degree]
        cand = cand[((cand >> src) & mask) == lead]
        if not len(cand):
            raise NotACode("the set lacks the scalar multiples of its words")
        witnesses.append(cand[np.argmin(codec.ascending(cand))])
        return SkewPoly(autom, codec.decode(int(witnesses[-1])).beta, True)

    g = a = q = None
    if unit.any():
        dmin = deg[unit].min()
        case = "ii" if dmin == deg.min() else "iii"
        cand = least(unit & (deg == dmin), dmin,
                     ctx.ring_index(ctx.ring_one()))
        g = cand.mod2().lift()
        a = (cand - g).halve().lift()
    else:
        case = "i"
    if case != "ii":
        # In case i every word is doubled: rotating a unit coefficient to
        # the top would give a unit-leading word.  The least-degree
        # doubled words of lead 2 are the ones with monic halves.
        if not doubled.any():
            raise NotACode("the set lacks the doubles of its words")
        hmin = deg[doubled].min()
        # The doubled word d is its own witness: 2 lift(halve(d)) = d.
        q = least(doubled & (deg == hmin), hmin,
                  ctx.ring_index(ctx.ring((2,)))).halve().lift()

    try:
        regen = _close(codec, codec.array(witnesses), autom, len(arr))[0]
    except BudgetExceeded:
        regen = None
    if not np.array_equal(regen, arr):
        # A code equals the skew closure of its witnesses, so only a
        # failed regeneration needs the shift check to name the fault.
        if not is_skew_cyclic(code, autom):
            raise NotACode("the set is not closed under the skew shift")
        raise NotACode("classification witnesses do not regenerate the set")
    return Classification(case, g=g, a=a, q=q)


def min_hamming_distance(code) -> int:
    """Smallest number of nonzero coordinates over the nonzero words."""
    code = _ensure_enumerated(code)
    codec = code.codec
    arr = codec.array(code.packed)
    # Sorted: only the first word can be 0.  A search key of the array's
    # own type keeps numpy from casting the whole array to compare.
    arr = arr[np.searchsorted(arr, codec.one):]
    if len(arr) == 0:
        raise TrivialCode("no nonzero words")
    return int(min(codec.weights(arr, reduce=np.min)))
