"""Arithmetic in the Galois ring GR(4, m) and its residue field GF(2^m).

A :class:`RingContext` fixes a monic modulus ``h`` of degree ``m`` over
the integers mod 4.  Writing ``xi`` for the class of ``x`` in
``Z4[x]/(h)``, elements are read and shown as coefficient vectors
``(v_0, ..., v_{m-1})`` with ``v_i`` in ``{0, 1, 2, 3}``, meaning
``v_0 + v_1*xi + ... + v_{m-1}*xi^(m-1)``.  Reducing every coefficient
mod 2 lands in the residue field ``GF(2^m) = Z2[x]/(h mod 2)``, whose
elements use the same vector shape over ``{0, 1}`` and the same symbol
``w`` for the field generator.

Inside, every element is one int in 2-adic form (Wan, *Lectures on
Finite Fields and Galois Rings*, 2003, ch. 14).  A field element is its
bitmask ``a``; a ring element ``T(a) + 2*T(b)`` is ``a | b << m``,
where ``T`` lifts the field onto the Teichmüller set ``{0} ∪ <xi>``.
``T`` is multiplicative and ``T(a) + T(c) = T(a + c) + 2*T(sqrt(ac))``,
so with the field's log/antilog tables every operation is O(1)::

    (a, b) * (c, d) = (ac, ad + bc)     -(a, b) = (a, a + b)
    (a, b) + (c, d) = (a + c, b + d + sqrt(ac))
    (a, b)^-1 = (1/a, b/a^2)            phi^j (a, b) = (a^(2^j), b^(2^j))

Each formula is written once, as a kernel on packed ints: ``_add``,
``_neg``, ``_mul`` and ``_w_term`` (``c*w^k``) of :class:`RingElem` and
:class:`FieldElem`, the shared ``_frob``, the mod-2 image ``_mod2`` and
half ``_half`` of a ring element and the ``_lift`` of a field element.
The element operators call them, and so do the loops of
:mod:`~artifact.skewpoly`, ``mixedcode.MixedWord._add_scaled`` (the word
primitive), ``mixedcode._pairing`` (the one pairing), the rows of
``parity_check``, ``theta_shift`` and the text grammar of
:mod:`~artifact.textio`; no other module reads the packed layout.

The tables hold O(2^m) entries, filled by one walk over the powers of
``xi`` in plain Z4 coefficient arithmetic; coefficient vectors appear
only where an element is built from or shown as one.  The degree ``m``
is at most 16, so that no input can ask for tables, or for an
irreducibility search, of more than 2^16 steps.

The modulus must be monic, irreducible and primitive mod 2, and (for
``m >= 2``) the Hensel lift of its reduction, ``xi^(2^m - 1) = 1``: then
``xi`` is Teichmüller and ``xi -> xi^2`` is a ring automorphism.  Its
powers are exposed through :class:`AutomorphismSpec` and are the twists
used by the skew polynomial rings built on top of this module.  Specs,
skew polynomials, words and results are all ``Record`` values.

Example
-------
>>> ctx = RingContext(2, (1, 1, 1))        # h = 1 + x + x^2
>>> xi = ctx.ring((0, 1))
>>> str(xi * xi)
'3+3*w'
>>> str(xi.inverse())
'3+3*w'
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import (ContextMismatch, FrobeniusIncompatible, InvalidArgument,
                     NotBasicIrreducible, NotMonic, NotPrimitive, NotUnit,
                     ShapeMismatch)

__all__ = ["RingContext", "RingElem", "FieldElem", "AutomorphismSpec",
           "int_poly_str"]

_MAX_DEGREE = 16


def _f2_is_irreducible(p: int, m: int) -> bool:
    """True when no binary polynomial of degree 1..m/2 divides ``p``."""
    for q in range(2, 1 << (m // 2 + 1)):
        r = p
        while r.bit_length() >= q.bit_length():
            r ^= q << (r.bit_length() - q.bit_length())
        if not r:
            return False
    return True


def int_poly_str(coeffs: Sequence[int], atom: str = "x") -> str:
    """Canonical text of an integer polynomial in ``atom``, ascending."""
    terms = [str(c) if k == 0 else ("" if c == 1 else f"{c}*")
             + (atom if k == 1 else f"{atom}^{k}")
             for k, c in enumerate(coeffs) if c]
    return "+".join(terms) or "0"


class Record:
    """Base of the frozen value records of this package.

    A subclass names its fields in ``__slots__``, their defaults in
    ``_defaults`` and its checks in ``_validate``.  Records take fields by
    position or name, compare, hash and pickle by class and values,
    refuse changes, and :meth:`replace` validates its copy again.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(names) or given.keys() & kwargs.keys() \
                    or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields "
                                f"{', '.join(names)}, each once")
            args = [values[name] for name in names]
        self._fill(args)._validate()

    def _fill(self, values):
        """Set the fields to ``values``, unchecked."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def _validate(self):
        """Raise when the fields do not describe a valid record."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return other is self or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated again."""
        return type(self)(**{**dict(zip(self.__slots__, self._values())),
                             **changes})


class _Elem:
    """Shared behaviour of ring and field elements; ``_x`` is packed."""

    __slots__ = ("ctx", "_x")

    def __init__(self, ctx: "RingContext", coeffs: Sequence[int]):
        vec = tuple(coeffs)
        if len(vec) > ctx.m:
            raise ShapeMismatch(f"coefficient vector longer than m={ctx.m}")
        _set_ctx(self, ctx)
        _set_x(self, self._parse(ctx, vec))

    def __setattr__(self, name, value):
        raise AttributeError("elements are immutable")

    def __reduce__(self):
        return type(self), (self.ctx, self.coeffs)

    @classmethod
    def _of(cls, ctx, x):
        """The element of packed ``x`` from ``ctx``'s own tables, unchecked."""
        return _make(cls, ctx, x)

    @staticmethod
    def _frob(ctx, x, j):
        """``phi^j`` of packed ``x``, ring or field: both halves ^ 2^j."""
        n, log, exp = ctx._n, ctx._log, ctx._exp
        a, b = x & n, x >> ctx.m  # b is 0 for a field element
        return (exp[(log[a] << j) % n] if a else 0) \
            | (exp[(log[b] << j) % n] if b else 0) << ctx.m

    @classmethod
    def _w_term(cls, ctx, c, k):
        """Packed ``c*w^k``: at m = 1, w is the root -h0 of h; otherwise
        it is the Teichmüller xi, whose packed powers are the field's."""
        w = cls._const(ctx, pow(-ctx.h[0], k, 4)) if ctx.m == 1 \
            else ctx._exp[k % ctx._n]
        return cls._mul(ctx, cls._const(ctx, c), w)

    def _operand(self, other):
        """Packed int of ``other`` in this context, or None."""
        if isinstance(other, type(self)):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatch("operands from different contexts")
            return other._x
        if isinstance(other, int):
            return self._const(self.ctx, other)
        return None

    def __add__(self, other):
        y = self._operand(other)
        if y is None:
            return NotImplemented
        return _make(type(self), self.ctx, self._add(self.ctx, self._x, y))

    __radd__ = __add__

    def __neg__(self):
        return _make(type(self), self.ctx, self._neg(self.ctx, self._x))

    def __sub__(self, other):
        y = self._operand(other)
        if y is None:
            return NotImplemented
        ctx = self.ctx
        return _make(type(self), ctx,
                     self._add(ctx, self._x, self._neg(ctx, y)))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        y = self._operand(other)
        if y is None:
            return NotImplemented
        return _make(type(self), self.ctx, self._mul(self.ctx, self._x, y))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self._x == self._const(self.ctx, other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._x == other._x and (
            self.ctx is other.ctx or self.ctx == other.ctx)

    def __hash__(self):
        return hash((self._side, self.ctx, self._x))

    def __bool__(self):
        return bool(self._x)

    def __str__(self):
        names = self.ctx._names[self._side]
        s = names.get(self._x)
        if s is None:
            s = names[self._x] = int_poly_str(self.coeffs, "w")
        return s

    def __repr__(self):
        return f"{type(self).__name__}({self})"


_new, _set_ctx, _set_x = object.__new__, _Elem.ctx.__set__, _Elem._x.__set__


def _make(cls, ctx, x):
    e = _new(cls)
    _set_ctx(e, ctx)
    _set_x(e, x)
    return e


class RingElem(_Elem):
    """An element of GR(4, m), printed in the ``c*w^k`` notation."""

    __slots__ = ()
    _side = 0

    @staticmethod
    def _parse(ctx, vec):
        return ctx._from_index(sum((int(c) & 3) << (2 * i)
                                   for i, c in enumerate(vec)))

    @staticmethod
    def _const(ctx, c):
        return (c & 1) | ((c >> 1) & 1) << ctx.m

    @staticmethod
    def _add(ctx, x, y):
        log, n = ctx._log, ctx._n
        return x ^ y ^ ctx._root[log[x & n] + log[y & n]]

    @staticmethod
    def _neg(ctx, x):
        return x ^ (x & ctx._n) << ctx.m

    @staticmethod
    def _mul(ctx, x, y):
        m, n, log, exp = ctx.m, ctx._n, ctx._log, ctx._exp
        la, lc = log[x & n], log[y & n]
        return exp[la + lc] | (
            exp[la + log[y >> m]] ^ exp[log[x >> m] + lc]) << m

    @staticmethod
    def _mod2(ctx, x):
        return x & ctx._n

    @staticmethod
    def _half(ctx, x):
        return x >> ctx.m

    @property
    def coeffs(self) -> tuple:
        """Ascending coefficients in ``{0, 1, 2, 3}``."""
        idx = self.ctx._index(self._x)
        return tuple((idx >> (2 * i)) & 3 for i in range(self.ctx.m))

    def is_unit(self) -> bool:
        """True when the element is invertible, i.e. nonzero mod 2."""
        return bool(self._x & self.ctx._n)

    def inverse(self) -> "RingElem":
        """Multiplicative inverse, ``(a, b)^-1 = (1/a, b/a^2)``.

        Raises
        ------
        NotUnit
            If the element is not invertible.
        """
        ctx, x = self.ctx, self._x
        n, log, exp = ctx._n, ctx._log, ctx._exp
        if not x & n:
            raise NotUnit(f"{self} is not a unit")
        la = log[x & n]
        return _make(RingElem, ctx, exp[n - la] | exp[
            log[x >> ctx.m] + (-2 * la) % n] << ctx.m)

    def reduce_mod2(self) -> "FieldElem":
        """Image in the residue field (coefficients taken mod 2)."""
        return _make(FieldElem, self.ctx, self._mod2(self.ctx, self._x))

    def halve(self) -> "FieldElem":
        """For an element of 2R, the field element it doubles.

        Raises
        ------
        InvalidArgument
            If some coefficient is odd.
        """
        if self._mod2(self.ctx, self._x):
            raise InvalidArgument(f"{self} is not doubled")
        return _make(FieldElem, self.ctx, self._half(self.ctx, self._x))


class FieldElem(_Elem):
    """An element of the residue field GF(2^m)."""

    __slots__ = ()
    _side = 1

    @staticmethod
    def _parse(ctx, vec):
        return sum((int(c) & 1) << i for i, c in enumerate(vec))

    @staticmethod
    def _const(ctx, c):
        return c & 1

    @staticmethod
    def _add(ctx, x, y):
        return x ^ y

    @staticmethod
    def _neg(ctx, x):
        return x

    @staticmethod
    def _mul(ctx, x, y):
        log = ctx._log
        return ctx._exp[log[x] + log[y]]

    @staticmethod
    def _lift(ctx, x):
        return ctx._from_index(ctx._spread[x])

    @property
    def coeffs(self) -> tuple:
        """Ascending coefficients in ``{0, 1}``."""
        return tuple((self._x >> i) & 1 for i in range(self.ctx.m))

    def is_unit(self) -> bool:
        return bool(self._x)

    def inverse(self) -> "FieldElem":
        """Multiplicative inverse in the field.

        Raises
        ------
        NotUnit
            If the element is zero.
        """
        if not self:
            raise NotUnit("zero has no inverse")
        ctx = self.ctx
        return _make(FieldElem, ctx, ctx._exp[ctx._n - ctx._log[self._x]])

    def lift(self) -> RingElem:
        """The ring element with the same {0, 1} coefficient vector."""
        return _make(RingElem, self.ctx, self._lift(self.ctx, self._x))


class RingContext:
    """Fixed modulus and precomputed arithmetic tables for GR(4, m).

    Contexts are immutable and hashable; elements remember their
    context and refuse mixed-context arithmetic with
    :class:`~artifact.errors.ContextMismatch`.

    Parameters
    ----------
    m:
        Degree of the extension, from 1 to 16.
    h:
        Coefficients ``(h_0, ..., h_m)`` of the modulus, ascending: monic
        of degree ``m``, irreducible and primitive mod 2, and for
        ``m >= 2`` with ``xi`` of order ``2^m - 1`` (the Hensel lift).

    Raises
    ------
    InvalidArgument
        When ``m`` is outside ``1..16``, before any table is built.
    NotMonic, NotBasicIrreducible, NotPrimitive, FrobeniusIncompatible
        When the modulus fails the corresponding requirement, checked
        in that order.
    """

    __slots__ = ("m", "h", "h_bar", "_hash", "_n", "_log", "_exp", "_root",
                 "_teich", "_spread", "_unspread", "_names")

    def __init__(self, m: int, h: Sequence[int]):
        if m < 1:
            raise InvalidArgument("degree m must be at least 1")
        if m > _MAX_DEGREE:
            raise InvalidArgument(
                f"degree m must be between 1 and {_MAX_DEGREE}")
        h = tuple(int(c) % 4 for c in h)
        if len(h) != m + 1 or h[m] != 1:
            raise NotMonic(f"h must be monic of degree {m}")
        h_bar = tuple(c % 2 for c in h)
        if not _f2_is_irreducible(sum(b << i for i, b in enumerate(h_bar)), m):
            raise NotBasicIrreducible("h mod 2 is reducible")

        # One walk over xi^0 .. xi^n in Z4 coefficients: xi^k is the
        # Teichmüller lift of the field element w^k, its image mod 2.
        n = (1 << m) - 1
        spread = [sum(((a >> i) & 1) << (2 * i) for i in range(m))
                  for a in range(n + 1)]
        exp = [0] * n
        log = [2 * n] * (n + 1)  # log 0 indexes the zero tail of _exp
        teich = [0] * (n + 1)
        vec = [1] + [0] * (m - 1)
        for k in range(n + 1):
            idx = sum(c << (2 * i) for i, c in enumerate(vec))
            a = sum((c & 1) << i for i, c in enumerate(vec))
            if (a == 1) != (k % n == 0):
                raise NotPrimitive("x is not a generator mod (h mod 2)")
            if k == n:
                break
            exp[k], log[a], teich[a] = a, k, idx
            vec = [(v - vec[-1] * c) % 4 for v, c in zip([0] + vec[:-1], h)]
        if m >= 2 and idx != 1:
            raise FrobeniusIncompatible(
                "h is not the Hensel lift of h mod 2, so xi -> xi^2 "
                "is not an automorphism")

        # n is the field mask and the order of its unit group.  _exp[la +
        # lc] is the product for every pair of logs, 0 when either is log
        # 0 = 2n; _root[la + lc] is sqrt(ac) << m.  _names caches str.
        zeros = [0] * (2 * n + 1)
        for name, value in zip(self.__slots__, (
                m, h, h_bar, hash((m, h)), n, log,
                [exp[k % n] for k in range(2 * n)] + zeros,
                [exp[(k << (m - 1)) % n] << m for k in range(2 * n)] + zeros,
                teich, spread, {s: a for a, s in enumerate(spread)},
                ({}, {}))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("contexts are immutable")

    def __eq__(self, other):
        if not isinstance(other, RingContext):
            return NotImplemented
        return self.m == other.m and self.h == other.h

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return RingContext, (self.m, self.h)

    def __repr__(self):
        return f"RingContext(m={self.m}, h={list(self.h)})"

    def _index(self, x: int) -> int:
        """``ring_index`` of packed ``x``: ``2*T(b)`` is ``b`` spread into
        the high bit of each pair."""
        return self._teich[x & self._n] ^ self._spread[x >> self.m] << 1

    def _from_index(self, idx: int) -> int:
        """Packed ring element of a ``ring_index`` (inverse of _index)."""
        low, unspread = self._spread[self._n], self._unspread
        a = unspread[idx & low]
        return a | unspread[((idx ^ self._teich[a]) >> 1) & low] << self.m

    # Constructors.

    def ring(self, coeffs: Iterable[int]) -> RingElem:
        """Ring element from an ascending coefficient iterable."""
        return RingElem(self, tuple(coeffs))

    def field(self, coeffs: Iterable[int]) -> FieldElem:
        """Field element from an ascending coefficient iterable."""
        return FieldElem(self, tuple(coeffs))

    def ring_zero(self) -> RingElem:
        return _make(RingElem, self, 0)

    def ring_one(self) -> RingElem:
        return _make(RingElem, self, 1)

    def field_zero(self) -> FieldElem:
        return _make(FieldElem, self, 0)

    def field_one(self) -> FieldElem:
        return _make(FieldElem, self, 1)

    # Census.

    def unit_count(self) -> int:
        """Number of units of GR(4, m), ``2^m * (2^m - 1)``."""
        return (1 << self.m) * ((1 << self.m) - 1)

    def all_ring_elems(self) -> Iterator[RingElem]:
        return map(self.ring_from_index, range(1 << (2 * self.m)))

    def all_field_elems(self) -> Iterator[FieldElem]:
        return map(self.field_from_index, range(1 << self.m))

    # Dense integer indexing, used by the enumeration backend.  A ring
    # element packs each coefficient into two bits, a field element into
    # one bit, both little-endian in the power of w.

    def ring_index(self, e: RingElem) -> int:
        return self._index(e._x)

    def ring_from_index(self, idx: int) -> RingElem:
        return _make(RingElem, self, self._from_index(idx))

    def field_index(self, e: FieldElem) -> int:
        return e._x

    def field_from_index(self, idx: int) -> FieldElem:
        return _make(FieldElem, self, idx & self._n)


class AutomorphismSpec(Record):
    """A chosen power of the Frobenius automorphism of a context.

    The base automorphism substitutes ``xi -> xi^2`` in the coefficient
    expansion; this class fixes the power ``t`` of that substitution,
    normalised into ``1..m`` (``t = m`` acts as the identity).  The same
    power acts on the residue field.

    Parameters
    ----------
    ctx:
        The arithmetic context.
    t:
        Any positive integer; only ``t mod m`` matters.
    """

    __slots__ = ("ctx", "t")

    def __init__(self, ctx: RingContext, t: int = 1):
        if t < 1:
            raise InvalidArgument("t must be a positive integer")
        self._fill((ctx, (t - 1) % ctx.m + 1))

    def __repr__(self):
        return f"AutomorphismSpec(t={self.t}, m={self.ctx.m})"

    def apply(self, elem):
        """Apply the automorphism once."""
        return self.apply_power(elem, 1)

    def apply_power(self, elem, k: int):
        """Apply the automorphism ``k`` times (``k`` may be 0 or large).

        Works on both ring and field elements and fixes every constant,
        in particular 0, 1, 2, 3.  On the 2-adic form ``phi^j`` raises
        both halves to the power ``2^j``.
        """
        ctx = self.ctx
        if elem.ctx is not ctx and elem.ctx != ctx:
            raise ContextMismatch("element from a different context")
        j = (self.t * k) % ctx.m
        return _make(type(elem), ctx, elem._frob(ctx, elem._x, j))
