"""Additive codes mixing binary and quaternary coordinates.

A word has ``r`` coordinates in GF(2^m) followed by ``s`` coordinates
in GR(4, m).  Scalars come from the quaternary ring: a scalar ``gamma``
acts as its mod-2 image on the binary part and as itself on the
quaternary part, so scaling by 2 kills the binary part.

``standard_form`` reduces a generator matrix to the block layout::

    [ I  A01b | 0    0     2T  ]      k0 rows
    [ 0  S    | I    A01   A02 ]      k1 rows
    [ 0  0    | 0    2I    2A12]      k2 rows

recording the row-reduction and the column permutations that were
needed (they are returned, never hidden).  ``parity_check`` builds a
generator matrix of the dual code from those blocks and audits it
against the standard form before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    CheckFailed,
    ContextMismatch,
    OrthogonalityCheckFailed,
    ShapeMismatch,
)
from .galois import FieldElem, RingContext, RingElem

__all__ = [
    "MixedWord",
    "MixedMatrix",
    "CodeType",
    "StandardFormResult",
    "inner_product",
    "standard_form",
    "parity_check",
]


class MixedWord:
    """An (r, s)-shaped word: field entries then ring entries."""

    __slots__ = ("ctx", "alpha", "beta")

    def __init__(self, ctx: RingContext, alpha: Sequence[FieldElem],
                 beta: Sequence[RingElem]):
        alpha = tuple(alpha)
        beta = tuple(beta)
        for a in alpha:
            if not isinstance(a, FieldElem) or a.ctx != ctx:
                raise ContextMismatch("binary entries must be field elements "
                                      "of the same context")
        for b in beta:
            if not isinstance(b, RingElem) or b.ctx != ctx:
                raise ContextMismatch("quaternary entries must be ring "
                                      "elements of the same context")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def __setattr__(self, name, value):
        raise AttributeError("words are immutable")

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
        if other.ctx != self.ctx:
            raise ContextMismatch("words from different contexts")
        if other.r != self.r or other.s != self.s:
            raise ShapeMismatch(f"shape ({other.r},{other.s}) does not match "
                                f"({self.r},{self.s})")

    def __add__(self, other):
        self._check(other)
        return MixedWord(self.ctx,
                         [a + b for a, b in zip(self.alpha, other.alpha)],
                         [a + b for a, b in zip(self.beta, other.beta)])

    def __sub__(self, other):
        self._check(other)
        return MixedWord(self.ctx,
                         [a - b for a, b in zip(self.alpha, other.alpha)],
                         [a - b for a, b in zip(self.beta, other.beta)])

    def __neg__(self):
        return MixedWord(self.ctx, [-a for a in self.alpha],
                         [-b for b in self.beta])

    def scale(self, gamma: RingElem) -> "MixedWord":
        """Scalar action: mod-2 image on the left, full ring on the right."""
        if not isinstance(gamma, RingElem) or gamma.ctx != self.ctx:
            raise ContextMismatch("scalar must be a ring element of the "
                                  "same context")
        gbar = gamma.reduce_mod2()
        return MixedWord(self.ctx, [gbar * a for a in self.alpha],
                         [gamma * b for b in self.beta])

    def permute_columns(self, bin_perm: Sequence[int],
                        quat_perm: Sequence[int]) -> "MixedWord":
        """Reorder entries; position ``i`` shows source column ``perm[i]``."""
        if sorted(bin_perm) != list(range(self.r)) or \
           sorted(quat_perm) != list(range(self.s)):
            raise ShapeMismatch("not a permutation of the column indices")
        return MixedWord(self.ctx, [self.alpha[j] for j in bin_perm],
                         [self.beta[j] for j in quat_perm])

    def __eq__(self, other):
        if not isinstance(other, MixedWord):
            return NotImplemented
        return (self.ctx == other.ctx and self.alpha == other.alpha
                and self.beta == other.beta)

    def __hash__(self):
        return hash((self.ctx, self.alpha, self.beta))

    def __str__(self):
        left = " ".join(str(a) for a in self.alpha)
        right = " ".join(str(b) for b in self.beta)
        return f"{left} | {right}".strip()

    def __repr__(self):
        return f"MixedWord({self})"


def inner_product(u: MixedWord, v: MixedWord) -> RingElem:
    """Quaternary-valued pairing: doubled binary dot plus quaternary dot."""
    u._check(v)
    ctx = u.ctx
    facc = ctx.field_zero()
    for a, d in zip(u.alpha, v.alpha):
        facc = facc + a * d
    racc = ctx.ring_zero()
    for b, e in zip(u.beta, v.beta):
        racc = racc + b * e
    return 2 * facc.lift() + racc


class MixedMatrix:
    """An ordered list of same-shaped words; rows may be dependent."""

    __slots__ = ("ctx", "r", "s", "rows")

    def __init__(self, ctx: RingContext, r: int, s: int,
                 rows: Iterable[MixedWord] = ()):
        rows = tuple(rows)
        for w in rows:
            if not isinstance(w, MixedWord):
                raise ShapeMismatch("rows must be words")
            if w.ctx != ctx:
                raise ContextMismatch("row from a different context")
            if w.r != r or w.s != s:
                raise ShapeMismatch("row shape does not match the matrix")
        if r < 0 or s < 0 or r + s == 0:
            raise ShapeMismatch("matrix must have coordinates")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[MixedWord]) -> "MixedMatrix":
        if not rows:
            raise ShapeMismatch("cannot infer shape from zero rows")
        return cls(rows[0].ctx, rows[0].r, rows[0].s, rows)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i) -> MixedWord:
        return self.rows[i]

    def __eq__(self, other):
        if not isinstance(other, MixedMatrix):
            return NotImplemented
        return (self.ctx == other.ctx and self.r == other.r
                and self.s == other.s and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ctx, self.r, self.s, self.rows))

    def permute_columns(self, bin_perm, quat_perm) -> "MixedMatrix":
        return MixedMatrix(self.ctx, self.r, self.s,
                           [w.permute_columns(bin_perm, quat_perm)
                            for w in self.rows])

    def __str__(self):
        return "\n".join(str(w) for w in self.rows)

    def __repr__(self):
        return f"MixedMatrix(r={self.r}, s={self.s}, rows={len(self.rows)})"


@dataclass(frozen=True)
class CodeType:
    """The type ``(r, s; k0; k1, k2)`` of a code in standard position."""

    r: int
    s: int
    k0: int
    k1: int
    k2: int

    def __post_init__(self):
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


@dataclass(frozen=True)
class StandardFormResult:
    """Outcome of ``standard_form``.

    ``g_std`` lives in permuted coordinates: its column ``i`` on either
    side is the caller's column ``bin_perm[i]`` or ``quat_perm[i]``.
    The block attributes follow the layout in the module docstring;
    ``t_block`` and ``a12`` hold the halved (field) entries whose
    doubles appear in ``g_std``.
    """

    g_std: MixedMatrix
    code_type: CodeType
    bin_perm: tuple
    quat_perm: tuple
    a01b: tuple
    t_block: tuple
    s_block: tuple
    a01: tuple
    a02: tuple
    a12: tuple


def _pivot(free, width, entry):
    """First ``(row, col)`` with ``entry(row, col)`` true, column-major."""
    for col in range(width):
        for i in free:
            if entry(i, col):
                return i, col
    return None


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
    rows = [[list(w.alpha), list(w.beta)] for w in mat.rows]
    n = len(rows)
    free = list(range(n))

    def scale_row(i, gamma):
        gbar = gamma.reduce_mod2()
        rows[i][0] = [gbar * a for a in rows[i][0]]
        rows[i][1] = [gamma * b for b in rows[i][1]]

    def subtract(i, gamma, j):
        # row i -= gamma * row j
        gbar = gamma.reduce_mod2()
        rows[i][0] = [a - gbar * b for a, b in zip(rows[i][0], rows[j][0])]
        rows[i][1] = [a - gamma * b for a, b in zip(rows[i][1], rows[j][1])]

    # Quaternary unit pivots (k1).  Clearing a pivot column can place
    # new units into columns already scanned, so rescan from the left
    # every round.
    k1_rows, k1_cols = [], []
    while True:
        hit = _pivot(free, s, lambda i, c: rows[i][1][c].is_unit())
        if hit is None:
            break
        i, col = hit
        scale_row(i, rows[i][1][col].inverse())
        for j in range(n):
            if j != i and rows[j][1][col]:
                subtract(j, rows[j][1][col], i)
        free.remove(i)
        k1_rows.append(i)
        k1_cols.append(col)

    # Binary pivots (k0) among the remaining rows.  Their quaternary
    # parts are all doubled now, so these eliminations never disturb
    # the k1 identity block.
    k0_rows, k0_cols = [], []
    while True:
        hit = _pivot(free, r, lambda i, c: rows[i][0][c])
        if hit is None:
            break
        i, col = hit
        scale_row(i, rows[i][0][col].inverse().lift())
        for j in range(n):
            if j != i and rows[j][0][col]:
                subtract(j, rows[j][0][col].lift(), i)
        free.remove(i)
        k0_rows.append(i)
        k0_cols.append(col)

    # Doubled pivots (k2).  Remaining free rows have zero binary part
    # and doubled quaternary part, so an entry is nonzero exactly when
    # its half is; reduce the halves over the field.  Each pivot column
    # is cleared from the earlier k2 rows too, so the k2 block ends up
    # 2I.
    k2_rows, k2_cols = [], []
    while True:
        hit = _pivot(free, s, lambda i, c: rows[i][1][c])
        if hit is None:
            break
        i, col = hit
        scale_row(i, rows[i][1][col].halve().inverse().lift())
        for j in free + k2_rows:
            if j != i and rows[j][1][col]:
                subtract(j, rows[j][1][col].halve().lift(), i)
        free.remove(i)
        k2_rows.append(i)
        k2_cols.append(col)

    # Clear the k2 pivot columns out of the k0 rows so their quaternary
    # parts live entirely in the trailing block.
    for pi, col in zip(k2_rows, k2_cols):
        for j in k0_rows:
            if rows[j][1][col]:
                subtract(j, rows[j][1][col].halve().lift(), pi)

    for i in free:
        if any(rows[i][0]) or any(rows[i][1]):
            raise CheckFailed("a row survived all reduction phases")

    k0, k1, k2 = len(k0_rows), len(k1_rows), len(k2_rows)
    bin_perm = tuple(k0_cols + [c for c in range(r) if c not in k0_cols])
    quat_perm = tuple(k1_cols + k2_cols +
                      [c for c in range(s)
                       if c not in k1_cols and c not in k2_cols])

    def build(i):
        return MixedWord(ctx, [rows[i][0][c] for c in bin_perm],
                         [rows[i][1][c] for c in quat_perm])

    ordered = [build(i) for i in k0_rows + k1_rows + k2_rows]
    g_std = MixedMatrix(ctx, r, s, ordered)
    ct = CodeType(r, s, k0, k1, k2)

    a01b = tuple(tuple(g_std[i].alpha[k0:]) for i in range(k0))
    t_block = tuple(tuple(b.halve() for b in g_std[i].beta[k1 + k2:])
                    for i in range(k0))
    s_block = tuple(tuple(g_std[k0 + i].alpha[k0:]) for i in range(k1))
    a01 = tuple(tuple(g_std[k0 + i].beta[k1:k1 + k2]) for i in range(k1))
    a02 = tuple(tuple(g_std[k0 + i].beta[k1 + k2:]) for i in range(k1))
    a12 = tuple(tuple(b.halve() for b in g_std[k0 + k1 + i].beta[k1 + k2:])
                for i in range(k2))
    return StandardFormResult(g_std, ct, bin_perm, quat_perm,
                              a01b, t_block, s_block, a01, a02, a12)


def parity_check(sf: StandardFormResult) -> MixedMatrix:
    """Generator matrix of the dual code, in the same permuted coordinates.

    Built from the standard-form blocks and audited: every returned row
    is checked orthogonal to every row of ``sf.g_std``.

    Raises
    ------
    OrthogonalityCheckFailed
        If the audit finds a nonzero pairing.
    """
    ctx = sf.g_std.ctx
    ct = sf.code_type
    r, s, k0, k1, k2 = ct.r, ct.s, ct.k0, ct.k1, ct.k2
    sw = s - k1 - k2
    f0, f1 = ctx.field_zero(), ctx.field_one()
    r0, r1 = ctx.ring_zero(), ctx.ring_one()

    rows = []
    # Rows dual to the binary information set.
    for i in range(r - k0):
        alpha = [-sf.a01b[j][i] for j in range(k0)] + \
                [f1 if j == i else f0 for j in range(r - k0)]
        beta = [-(2 * sf.s_block[j][i].lift()) for j in range(k1)] + \
               [r0] * (k2 + sw)
        rows.append(MixedWord(ctx, alpha, beta))
    # Rows dual to the free quaternary columns.
    for i in range(sw):
        alpha = [-sf.t_block[j][i] for j in range(k0)] + [f0] * (r - k0)
        beta = []
        for j in range(k1):
            acc = -sf.a02[j][i]
            for k in range(k2):
                acc = acc + sf.a12[k][i].lift() * sf.a01[j][k]
            beta.append(acc)
        beta += [-sf.a12[k][i].lift() for k in range(k2)]
        beta += [r1 if j == i else r0 for j in range(sw)]
        rows.append(MixedWord(ctx, alpha, beta))
    # Rows dual to the doubled pivots.
    for i in range(k2):
        alpha = [f0] * r
        beta = [-(2 * sf.a01[j][i]) for j in range(k1)]
        beta += [2 * r1 if j == i else r0 for j in range(k2)]
        beta += [r0] * sw
        rows.append(MixedWord(ctx, alpha, beta))

    h = MixedMatrix(ctx, r, s, rows)
    for g_row in sf.g_std:
        for h_row in h:
            if inner_product(g_row, h_row):
                raise OrthogonalityCheckFailed(
                    f"<{g_row}, {h_row}> = "
                    f"{inner_product(g_row, h_row)}"
                )
    return h
