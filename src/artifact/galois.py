"""Arithmetic in the Galois ring GR(4, m) and its residue field GF(2^m).

A :class:`RingContext` fixes a monic modulus ``h`` of degree ``m`` over
the integers mod 4.  Writing ``xi`` for the class of ``x`` in
``Z4[x]/(h)``, ring elements are stored as coefficient vectors
``(v_0, ..., v_{m-1})`` with ``v_i`` in ``{0, 1, 2, 3}``, meaning
``v_0 + v_1*xi + ... + v_{m-1}*xi^(m-1)``.  Reducing every coefficient
mod 2 lands in the residue field ``GF(2^m) = Z2[x]/(h mod 2)``, whose
elements use the same vector shape over ``{0, 1}`` and are printed with
the same symbol ``w`` for the field generator.

The modulus must be monic, irreducible mod 2, primitive mod 2, and (for
``m >= 2``) the Hensel lift of its mod-2 reduction, so that substituting
``xi -> xi^2`` on coefficients is a ring automorphism.  The powers of
that substitution are exposed through :class:`AutomorphismSpec` and are
the twists used by the skew polynomial rings built on top of this
module.

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

from .errors import (
    CheckFailed,
    ContextMismatch,
    FrobeniusIncompatible,
    InvalidArgument,
    NotBasicIrreducible,
    NotMonic,
    NotPrimitive,
    NotUnit,
    ShapeMismatch,
)

__all__ = ["RingContext", "RingElem", "FieldElem", "AutomorphismSpec"]


# Binary polynomials as int bitmasks, used only to vet the modulus.

def _f2_deg(p: int) -> int:
    return p.bit_length() - 1


def _f2_mod(a: int, b: int) -> int:
    db = _f2_deg(b)
    while _f2_deg(a) >= db:
        a ^= b << (_f2_deg(a) - db)
    return a


def _f2_is_irreducible(p: int, m: int) -> bool:
    for d in range(1, m // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if _f2_mod(p, q) == 0:
                return False
    return True


def _f2_order_of_x(p: int, m: int) -> int:
    """Multiplicative order of x modulo the irreducible p."""
    v = _f2_mod(0b10, p)
    order = 1
    while v != 1:
        v <<= 1
        if _f2_deg(v) >= m:
            v ^= p
        order += 1
        if order > (1 << m):
            raise CheckFailed("order search did not terminate")
    return order


def _term_str(coeff: int, power: int) -> str:
    if power == 0:
        return str(coeff)
    watom = "w" if power == 1 else f"w^{power}"
    return watom if coeff == 1 else f"{coeff}*{watom}"


def _vec_str(coeffs: Sequence[int]) -> str:
    terms = [_term_str(c, k) for k, c in enumerate(coeffs) if c]
    return "+".join(terms) if terms else "0"


class _Elem:
    """Shared behaviour of ring and field elements (internal)."""

    __slots__ = ("ctx", "coeffs")

    _mod = 4  # overridden

    def __init__(self, ctx: "RingContext", coeffs: Sequence[int]):
        vec = [int(c) % self._mod for c in coeffs]
        if len(vec) > ctx.m:
            raise ShapeMismatch(f"coefficient vector longer than m={ctx.m}")
        vec.extend([0] * (ctx.m - len(vec)))
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", tuple(vec))

    def __setattr__(self, name, value):
        raise AttributeError("elements are immutable")

    def _coerce(self, other):
        if isinstance(other, int):
            return type(self)(self.ctx, (other,))
        if isinstance(other, type(self)):
            if other.ctx != self.ctx:
                raise ContextMismatch("operands from different contexts")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(self.ctx, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(self.ctx, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return type(self)(self.ctx, [-a for a in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.ctx.m
        prod = [0] * (2 * m - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    prod[i + j] += a * b
        return type(self)(self.ctx, self.ctx._fold(prod, self._mod))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = type(self)(self.ctx, (other,))
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.ctx, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __str__(self):
        return _vec_str(self.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class RingElem(_Elem):
    """An element of GR(4, m), printed in the ``c*w^k`` notation."""

    __slots__ = ()
    _mod = 4

    def is_unit(self) -> bool:
        """True when the element is invertible, i.e. nonzero mod 2."""
        return any(c % 2 for c in self.coeffs)

    def inverse(self) -> "RingElem":
        """Multiplicative inverse, computed by exponentiation.

        The unit group has order ``2^m * (2^m - 1)``, so the inverse of
        a unit ``a`` is ``a`` raised to that order minus one.

        Raises
        ------
        NotUnit
            If the element is not invertible.
        """
        if not self.is_unit():
            raise NotUnit(f"{self} is not a unit")
        exp = (1 << self.ctx.m) * ((1 << self.ctx.m) - 1) - 1
        return _pow(self, exp, self.ctx.ring_one())

    def reduce_mod2(self) -> "FieldElem":
        """Image in the residue field (coefficients taken mod 2)."""
        return FieldElem(self.ctx, self.coeffs)

    def halve(self) -> "FieldElem":
        """For an element of 2R, the field element it doubles.

        Raises
        ------
        InvalidArgument
            If some coefficient is odd.
        """
        if any(c % 2 for c in self.coeffs):
            raise InvalidArgument(f"{self} is not doubled")
        return FieldElem(self.ctx, [c // 2 for c in self.coeffs])


class FieldElem(_Elem):
    """An element of the residue field GF(2^m)."""

    __slots__ = ()
    _mod = 2

    def is_unit(self) -> bool:
        return bool(self)

    def inverse(self) -> "FieldElem":
        """Multiplicative inverse in the field.

        Raises
        ------
        NotUnit
            If the element is zero.
        """
        if not self:
            raise NotUnit("zero has no inverse")
        exp = (1 << self.ctx.m) - 2
        return _pow(self, exp, self.ctx.field_one())

    def lift(self) -> RingElem:
        """The ring element with the same {0, 1} coefficient vector."""
        return RingElem(self.ctx, self.coeffs)


def _pow(base, exp, one):
    result = one
    acc = base
    while exp:
        if exp & 1:
            result = result * acc
        acc = acc * acc
        exp >>= 1
    return result


class RingContext:
    """Fixed modulus and precomputed reduction data for GR(4, m).

    Parameters
    ----------
    m:
        Degree of the extension, at least 1.
    h:
        Coefficients ``(h_0, ..., h_m)`` of the modulus, ascending.
        ``h`` must be monic of degree exactly ``m``, its mod-2 reduction
        must be irreducible and primitive, and for ``m >= 2`` the class
        of ``x^2`` must again be a root of ``h`` (Hensel lift), which is
        what makes the Frobenius substitution an automorphism.

    Raises
    ------
    NotMonic, NotBasicIrreducible, NotPrimitive, FrobeniusIncompatible
        When the modulus fails the corresponding requirement, checked
        in that order.

    Notes
    -----
    Contexts are immutable and hashable; elements remember their
    context and refuse mixed-context arithmetic with
    :class:`~artifact.errors.ContextMismatch`.
    """

    __slots__ = ("m", "h", "h_bar", "_pow4", "_pow2", "_frob4", "_frob2")

    def __init__(self, m: int, h: Sequence[int]):
        if m < 1:
            raise NotMonic("degree m must be at least 1")
        h = tuple(int(c) % 4 for c in h)
        if len(h) != m + 1 or h[m] != 1:
            raise NotMonic(f"h must be monic of degree {m}")
        h_bar = tuple(c % 2 for c in h)
        h_bar_int = sum(b << i for i, b in enumerate(h_bar))
        if not _f2_is_irreducible(h_bar_int, m):
            raise NotBasicIrreducible("h mod 2 is reducible")
        if _f2_order_of_x(h_bar_int, m) != (1 << m) - 1:
            raise NotPrimitive("x is not a generator mod (h mod 2)")

        object.__setattr__(self, "m", m)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "h_bar", h_bar)

        # xi^k for k up to 2^(m-1) * (m-1), enough for products and for
        # every Frobenius power image.
        top = max(2 * m - 1, (1 << (m - 1)) * (m - 1) + 1)
        pow4 = [[0] * m for _ in range(top)]
        for k in range(min(m, top)):
            pow4[k][k] = 1
        for k in range(m, top):
            prev = pow4[k - 1]
            carry = prev[m - 1]
            vec = [0] + prev[: m - 1]
            if carry:
                for i in range(m):
                    vec[i] = (vec[i] - carry * h[i]) % 4
            pow4[k] = vec
        pow2 = [[c % 2 for c in vec] for vec in pow4]
        object.__setattr__(self, "_pow4", tuple(tuple(v) for v in pow4))
        object.__setattr__(self, "_pow2", tuple(tuple(v) for v in pow2))

        # Basis images of the Frobenius powers phi^j, phi(xi) = xi^2.
        frob4 = []
        frob2 = []
        for j in range(m):
            step = 1 << j
            imgs4 = []
            imgs2 = []
            for i in range(m):
                e = step * i
                imgs4.append(self._pow4[e])
                imgs2.append(self._pow2[e])
            frob4.append(tuple(imgs4))
            frob2.append(tuple(imgs2))
        object.__setattr__(self, "_frob4", tuple(frob4))
        object.__setattr__(self, "_frob2", tuple(frob2))

        if m >= 2:
            xi_sq = RingElem(self, self._pow4[2])
            acc = self.ring_zero()
            p = self.ring_one()
            for c in h:
                acc = acc + c * p
                p = p * xi_sq
            if acc:
                raise FrobeniusIncompatible(
                    "h is not the Hensel lift of h mod 2, so xi -> xi^2 "
                    "is not an automorphism"
                )

    def __setattr__(self, name, value):
        raise AttributeError("contexts are immutable")

    def __eq__(self, other):
        if not isinstance(other, RingContext):
            return NotImplemented
        return self.m == other.m and self.h == other.h

    def __hash__(self):
        return hash((self.m, self.h))

    def __repr__(self):
        return f"RingContext(m={self.m}, h={list(self.h)})"

    def _fold(self, prod: list, mod: int) -> list:
        """Reduce a raw product vector of length <= 2m-1 to length m."""
        pows = self._pow4 if mod == 4 else self._pow2
        vec = [c % mod for c in prod[: self.m]]
        for k in range(self.m, len(prod)):
            c = prod[k] % mod
            if c:
                table = pows[k]
                for i in range(self.m):
                    vec[i] = (vec[i] + c * table[i]) % mod
        return vec

    # Constructors.

    def ring(self, coeffs: Iterable[int]) -> RingElem:
        """Ring element from an ascending coefficient iterable."""
        return RingElem(self, tuple(coeffs))

    def field(self, coeffs: Iterable[int]) -> FieldElem:
        """Field element from an ascending coefficient iterable."""
        return FieldElem(self, tuple(coeffs))

    def ring_zero(self) -> RingElem:
        return RingElem(self, ())

    def ring_one(self) -> RingElem:
        return RingElem(self, (1,))

    def field_zero(self) -> FieldElem:
        return FieldElem(self, ())

    def field_one(self) -> FieldElem:
        return FieldElem(self, (1,))

    # Census.

    def unit_count(self) -> int:
        """Number of units of GR(4, m), ``2^m * (2^m - 1)``."""
        return (1 << self.m) * ((1 << self.m) - 1)

    def all_ring_elems(self) -> Iterator[RingElem]:
        for idx in range(1 << (2 * self.m)):
            yield self.ring_from_index(idx)

    def all_field_elems(self) -> Iterator[FieldElem]:
        for idx in range(1 << self.m):
            yield self.field_from_index(idx)

    # Dense integer indexing, used by the enumeration backend.  A ring
    # element packs each coefficient into two bits, a field element into
    # one bit, both little-endian in the power of w.

    def ring_index(self, e: RingElem) -> int:
        return sum(c << (2 * i) for i, c in enumerate(e.coeffs))

    def ring_from_index(self, idx: int) -> RingElem:
        return RingElem(self, [(idx >> (2 * i)) & 3 for i in range(self.m)])

    def field_index(self, e: FieldElem) -> int:
        return sum(c << i for i, c in enumerate(e.coeffs))

    def field_from_index(self, idx: int) -> FieldElem:
        return FieldElem(self, [(idx >> i) & 1 for i in range(self.m)])


class AutomorphismSpec:
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

    __slots__ = ("ctx", "t_raw", "t")

    def __init__(self, ctx: RingContext, t: int = 1):
        if t < 1:
            raise InvalidArgument("t must be a positive integer")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "t_raw", t)
        object.__setattr__(self, "t", (t - 1) % ctx.m + 1)

    def __setattr__(self, name, value):
        raise AttributeError("automorphism specs are immutable")

    def __eq__(self, other):
        if not isinstance(other, AutomorphismSpec):
            return NotImplemented
        return self.ctx == other.ctx and self.t == other.t

    def __hash__(self):
        return hash((self.ctx, self.t))

    def __repr__(self):
        return f"AutomorphismSpec(t={self.t}, m={self.ctx.m})"

    def apply(self, elem):
        """Apply the automorphism once."""
        return self.apply_power(elem, 1)

    def apply_power(self, elem, k: int):
        """Apply the automorphism ``k`` times (``k`` may be 0 or large).

        Works on both ring and field elements and fixes every constant,
        in particular 0, 1, 2, 3.
        """
        ctx = self.ctx
        if elem.ctx != ctx:
            raise ContextMismatch("element from a different context")
        j = (self.t * k) % ctx.m
        if j == 0:
            return elem
        if isinstance(elem, RingElem):
            table, mod = ctx._frob4[j], 4
        else:
            table, mod = ctx._frob2[j], 2
        vec = [0] * ctx.m
        for i, c in enumerate(elem.coeffs):
            if c:
                img = table[i]
                for p in range(ctx.m):
                    vec[p] = (vec[p] + c * img[p]) % mod
        return type(elem)(ctx, vec)
