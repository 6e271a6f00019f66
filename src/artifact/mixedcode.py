"""Additive codes mixing binary and quaternary coordinates.

A word has ``r`` coordinates in GF(2^m) followed by ``s`` coordinates
in GR(4, m).  Scalars come from the quaternary ring: a scalar ``gamma``
acts as its mod-2 image on the binary part and as itself on the
quaternary part, so scaling by 2 kills the binary part.  Words combine
through that one action, ``u + gamma*v`` in a single pass over the
packed entries: sums, differences, negation, scaling and the row
operations of ``standard_form`` are all calls of it.

``standard_form`` reduces a generator matrix to the block layout::

    [ I  A01b | 0    0     2T  ]      k0 rows
    [ 0  S    | I    A01   A02 ]      k1 rows
    [ 0  0    | 0    2I    2A12]      k2 rows

in one pivot loop, recording the column permutations that were needed
(they are returned, never hidden).  ``parity_check`` reads the blocks
from that matrix to build a generator matrix of the dual code.  A word
is in the code exactly when its ``syndrome``, its pairings with those
rows, is zero; ``parity_check`` requires that of every standard-form
row before returning.  Words, matrices and results are ``Record`` values.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (CheckFailed, ContextMismatch, OrthogonalityCheckFailed,
                     ShapeMismatch)
from .galois import FieldElem, Record, RingContext, RingElem

__all__ = ["MixedWord", "MixedMatrix", "CodeType", "StandardFormResult",
           "inner_product", "standard_form", "syndrome", "parity_check"]


class MixedWord(Record):
    """An (r, s)-shaped word: field entries then ring entries."""

    __slots__ = ("ctx", "alpha", "beta")

    def __init__(self, ctx: RingContext, alpha: Sequence[FieldElem],
                 beta: Sequence[RingElem]):
        self._fill((ctx, tuple(alpha), tuple(beta)))._validate()

    def _validate(self):
        ctx = self.ctx
        for a in self.alpha:
            if not isinstance(a, FieldElem) or a.ctx != ctx:
                raise ContextMismatch("binary entries must be field elements "
                                      "of the same context")
        for b in self.beta:
            if not isinstance(b, RingElem) or b.ctx != ctx:
                raise ContextMismatch("quaternary entries must be ring "
                                      "elements of the same context")

    @classmethod
    def _of(cls, ctx: RingContext, alpha, beta) -> "MixedWord":
        """A word of entries that are already ``ctx``'s, unchecked."""
        return object.__new__(cls)._fill((ctx, tuple(alpha), tuple(beta)))

    @classmethod
    def from_ints(cls, ctx: RingContext, alpha: Iterable[int],
                  beta: Iterable[int]) -> "MixedWord":
        """Word with constant entries given as plain ints."""
        return cls(ctx, [ctx.field((c,)) for c in alpha],
                   [ctx.ring((c,)) for c in beta])

    @property
    def r(self) -> int:
        return len(self.alpha)

    @property
    def s(self) -> int:
        return len(self.beta)

    @property
    def is_zero(self) -> bool:
        return not (any(self.alpha) or any(self.beta))

    def _check(self, other: "MixedWord"):
        if not isinstance(other, MixedWord):
            raise ShapeMismatch("expected a word")
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ContextMismatch("words from different contexts")
        if other.r != self.r or other.s != self.s:
            raise ShapeMismatch(f"shape ({other.r},{other.s}) does not match "
                                f"({self.r},{self.s})")

    def _add_scaled(self, c: int, other: "MixedWord") -> "MixedWord":
        """``self + c*other`` for a packed ring scalar ``c``, unchecked;
        ``c`` acts as its mod-2 image on the binary side."""
        ctx, cbar = self.ctx, RingElem._mod2(self.ctx, c)
        fadd, fmul, fof = FieldElem._add, FieldElem._mul, FieldElem._of
        radd, rmul, rof = RingElem._add, RingElem._mul, RingElem._of
        return MixedWord._of(
            ctx, [fof(ctx, fadd(ctx, a._x, fmul(ctx, cbar, d._x)))
                  for a, d in zip(self.alpha, other.alpha)],
            [rof(ctx, radd(ctx, b._x, rmul(ctx, c, e._x)))
             for b, e in zip(self.beta, other.beta)])

    def __add__(self, other):
        self._check(other)
        return self._add_scaled(1, other)

    def __sub__(self, other):
        self._check(other)
        return self._add_scaled(RingElem._const(self.ctx, -1), other)

    def __neg__(self):
        # -w = w + 2w: 2 is 0 mod 2, and -a = a in the field.
        return self._add_scaled(RingElem._const(self.ctx, 2), self)

    def scale(self, gamma: RingElem) -> "MixedWord":
        """Scalar action: mod-2 image on the left, full ring on the right."""
        if not isinstance(gamma, RingElem) or gamma.ctx != self.ctx:
            raise ContextMismatch("scalar must be a ring element of the "
                                  "same context")
        # gamma*w = w + (gamma - 1)*w.
        return self._add_scaled((gamma - 1)._x, self)

    def permute_columns(self, bin_perm: Sequence[int],
                        quat_perm: Sequence[int]) -> "MixedWord":
        """Reorder entries; position ``i`` shows source column ``perm[i]``."""
        if sorted(bin_perm) != list(range(self.r)) or \
           sorted(quat_perm) != list(range(self.s)):
            raise ShapeMismatch("not a permutation of the column indices")
        return MixedWord._of(self.ctx, [self.alpha[j] for j in bin_perm],
                             [self.beta[j] for j in quat_perm])

    def __str__(self):
        left = " ".join(str(a) for a in self.alpha)
        right = " ".join(str(b) for b in self.beta)
        return f"{left} | {right}".strip()

    def __repr__(self):
        return f"MixedWord({self})"


def _packed(w: MixedWord) -> tuple:
    """The packed ints of ``w``'s binary and quaternary entries."""
    return [a._x for a in w.alpha], [b._x for b in w.beta]


def _pairing(ctx: RingContext, u: tuple, v: tuple) -> int:
    """Packed ``<u, v>`` of two :func:`_packed` words; zero entries are
    skipped, as packed 0 absorbs ``_mul`` and is neutral for ``_add``."""
    fadd, fmul = FieldElem._add, FieldElem._mul
    radd, rmul = RingElem._add, RingElem._mul
    f = r = 0
    for a, d in zip(u[0], v[0]):
        if a and d:
            f = fadd(ctx, f, fmul(ctx, a, d))
    for b, e in zip(u[1], v[1]):
        if b and e:
            r = radd(ctx, r, rmul(ctx, b, e))
    # Packed f is also the ring element T(f), and 2*T(f) = 2*lift(f).
    return radd(ctx, r, rmul(ctx, f, RingElem._const(ctx, 2)))


def inner_product(u: MixedWord, v: MixedWord) -> RingElem:
    """Quaternary-valued pairing: doubled binary dot plus quaternary dot."""
    u._check(v)
    return RingElem._of(u.ctx, _pairing(u.ctx, _packed(u), _packed(v)))


class MixedMatrix(Record):
    """An ordered list of same-shaped words; rows may be dependent."""

    __slots__ = ("ctx", "r", "s", "rows")

    def __init__(self, ctx: RingContext, r: int, s: int,
                 rows: Iterable[MixedWord] = ()):
        self._fill((ctx, r, s, tuple(rows)))._validate()

    def _validate(self):
        for w in self.rows:
            if not isinstance(w, MixedWord):
                raise ShapeMismatch("rows must be words")
            if w.ctx != self.ctx:
                raise ContextMismatch("row from a different context")
            if w.r != self.r or w.s != self.s:
                raise ShapeMismatch("row shape does not match the matrix")
        if self.r < 0 or self.s < 0 or self.r + self.s == 0:
            raise ShapeMismatch("matrix must have coordinates")

    @classmethod
    def from_rows(cls, rows: Sequence[MixedWord]) -> "MixedMatrix":
        if not rows:
            raise ShapeMismatch("cannot infer shape from zero rows; "
                                "an empty MixedMatrix(ctx, r, s) carries it")
        return cls(rows[0].ctx, rows[0].r, rows[0].s, rows)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i) -> MixedWord:
        return self.rows[i]

    def permute_columns(self, bin_perm, quat_perm) -> "MixedMatrix":
        return MixedMatrix(self.ctx, self.r, self.s,
                           [w.permute_columns(bin_perm, quat_perm)
                            for w in self.rows])

    def __str__(self):
        return "\n".join(str(w) for w in self.rows)

    def __repr__(self):
        return f"MixedMatrix(r={self.r}, s={self.s}, rows={len(self.rows)})"


class CodeType(Record):
    """The type ``(r, s; k0; k1, k2)`` of a code in standard position."""

    __slots__ = ("r", "s", "k0", "k1", "k2")

    def _validate(self):
        if not (0 <= self.k0 <= self.r):
            raise ShapeMismatch("k0 out of range")
        if self.k1 < 0 or self.k2 < 0 or self.k1 + self.k2 > self.s:
            raise ShapeMismatch("k1, k2 out of range")

    def cardinality(self, m: int) -> int:
        """Number of codewords, ``2^(m (k0 + 2 k1 + k2))``."""
        return 1 << (m * (self.k0 + 2 * self.k1 + self.k2))

    def dual(self) -> "CodeType":
        """Type of the dual code."""
        return CodeType(self.r, self.s, self.r - self.k0,
                        self.s - self.k1 - self.k2, self.k2)

    def __str__(self):
        return f"({self.r},{self.s};{self.k0};{self.k1},{self.k2})"


class StandardFormResult(Record):
    """Outcome of ``standard_form``.

    ``g_std`` lives in permuted coordinates: its column ``i`` on either
    side is the caller's column ``bin_perm[i]`` or ``quat_perm[i]``.
    Its rows come in the k0, k1, k2 order of the layout in the module
    docstring, and ``parity_check`` reads the blocks from them.
    """

    __slots__ = ("g_std", "code_type", "bin_perm", "quat_perm")


def standard_form(mat: MixedMatrix) -> StandardFormResult:
    """Row-reduce a generator matrix to standard block form.

    Dependent, duplicate and zero rows vanish.  Only invertible row
    operations are used; the column order on each side may change and
    the permutations applied are reported in the result.

    Returns
    -------
    StandardFormResult
    """
    ctx, r, s = mat.ctx, mat.r, mat.s
    rows = list(mat.rows)
    free = list(range(len(rows)))

    # (side, width, is-pivot test, scalar an entry stands for, whether
    # the k1 rows are cleared) of the k1, k0 and k2 blocks.  Once the k1
    # rows are out, the free rows' quaternary parts are doubled, so only
    # a scalar's mod-2 image matters; k2 pivots on halves and leaves the
    # k1 rows their A01 block.  Clearing a column can place pivots into
    # columns already scanned, so every round rescans from the left.
    phases = (("beta", s, RingElem.is_unit, lambda e: e, True),
              ("alpha", r, FieldElem.is_unit, FieldElem.lift, True),
              ("beta", s, bool, lambda e: e.halve().lift(), False))
    pivots = []
    for side, width, is_pivot, scalar, clear_k1 in phases:
        skip = () if clear_k1 else pivots[0][0]
        p_rows, p_cols = [], []
        while True:
            hit = next(((i, c) for c in range(width) for i in free
                        if is_pivot(getattr(rows[i], side)[c])), None)
            if hit is None:
                break
            i, col = hit
            rows[i] = rows[i].scale(
                scalar(getattr(rows[i], side)[col]).inverse())
            for j in range(len(rows)):
                if j != i and j not in skip and (
                        entry := getattr(rows[j], side)[col]):
                    rows[j] = rows[j]._add_scaled(
                        RingElem._neg(ctx, scalar(entry)._x), rows[i])
            free.remove(i)
            p_rows.append(i)
            p_cols.append(col)
        pivots.append((p_rows, p_cols))
    (k1_rows, k1_cols), (k0_rows, k0_cols), (k2_rows, k2_cols) = pivots

    if any(not rows[i].is_zero for i in free):
        raise CheckFailed("a row survived all reduction phases")

    bin_perm = tuple(k0_cols + [c for c in range(r) if c not in k0_cols])
    quat_perm = tuple(k1_cols + k2_cols +
                      [c for c in range(s)
                       if c not in k1_cols and c not in k2_cols])
    g_std = MixedMatrix(ctx, r, s, [
        rows[i].permute_columns(bin_perm, quat_perm)
        for i in k0_rows + k1_rows + k2_rows])
    return StandardFormResult(
        g_std, CodeType(r, s, len(k0_rows), len(k1_rows), len(k2_rows)),
        bin_perm, quat_perm)


def syndrome(h: MixedMatrix, w: MixedWord) -> tuple:
    """The pairings of ``w`` with the rows of ``h``.

    With ``h`` a parity check of a code, all of them are zero exactly
    when ``w`` is in the code (C = C-perp-perp).
    """
    return tuple(inner_product(w, row) for row in h)


def parity_check(sf: StandardFormResult) -> MixedMatrix:
    """Generator matrix of the dual code, in the same permuted coordinates.

    Built from the blocks of ``sf.g_std`` and audited: every row of
    ``sf.g_std`` must have a zero syndrome against the result.

    Raises
    ------
    OrthogonalityCheckFailed
        If the audit finds a nonzero pairing.
    """
    g, ct = sf.g_std, sf.code_type
    ctx = g.ctx
    r, s, k0, k1, k2 = ct.r, ct.s, ct.k0, ct.k1, ct.k2
    fneg, lift, half = FieldElem._neg, FieldElem._lift, RingElem._half
    radd, rneg, rmul = RingElem._add, RingElem._neg, RingElem._mul
    one, two = RingElem._const(ctx, 1), RingElem._const(ctx, 2)
    gx = [_packed(w) for w in g]
    g0, g1, g2 = gx[:k0], gx[k0:k0 + k1], gx[k0 + k1:]

    # Packed entries of each row.  A field entry a read as a ring element
    # is T(a), and 2*T(a) = 2*lift(a).  Packed 0 and 1 are the same on
    # either side.
    hx = []
    # Rows dual to the binary information set.
    for c in range(k0, r):
        hx.append(([fneg(ctx, a[c]) for a, _ in g0] +
                   [one if j == c else 0 for j in range(k0, r)],
                   [rneg(ctx, rmul(ctx, a[c], two)) for a, _ in g1] +
                   [0] * (s - k1)))
    # Rows dual to the free quaternary columns.
    for c in range(k1 + k2, s):
        a12 = [lift(ctx, half(ctx, b[c])) for _, b in g2]
        beta = []
        for _, b in g1:
            acc = rneg(ctx, b[c])
            for a, e in zip(a12, b[k1:k1 + k2]):
                acc = radd(ctx, acc, rmul(ctx, a, e))
            beta.append(acc)
        hx.append(([fneg(ctx, half(ctx, b[c])) for _, b in g0] +
                   [0] * (r - k0),
                   beta + [rneg(ctx, a) for a in a12] +
                   [one if j == c else 0 for j in range(k1 + k2, s)]))
    # Rows dual to the doubled pivots.
    for c in range(k1, k1 + k2):
        hx.append(([0] * r,
                   [rneg(ctx, rmul(ctx, two, b[c])) for _, b in g1] +
                   [two if j == c else 0 for j in range(k1, s)]))

    fof, rof = FieldElem._of, RingElem._of
    h = MixedMatrix(ctx, r, s, [
        MixedWord._of(ctx, [fof(ctx, x) for x in alpha],
                      [rof(ctx, x) for x in beta]) for alpha, beta in hx])
    for g_row, u in zip(g, gx):
        for h_row, v in zip(h, hx):
            if pairing := _pairing(ctx, u, v):
                raise OrthogonalityCheckFailed(
                    f"<{g_row}, {h_row}> = {rof(ctx, pairing)}")
    return h
