"""Skew polynomials over GR(4, m) and GF(2^m) twisted by a Frobenius power.

Multiplication follows the rule ``x * c = theta(c) * x``, so
``(a x^i) * (b x^j) = a theta^i(b) x^(i+j)`` where ``theta`` is the
automorphism fixed by an :class:`~artifact.galois.AutomorphismSpec`.
Coefficients are stored ascending; the zero polynomial has an empty
coefficient tuple and degree ``float('-inf')``.

Right division by a polynomial with a unit leading coefficient is
always possible and unique: ``f = q * g + r`` with ``deg r < deg g``.
Divisibility below always means right divisibility, ``f = q * g``.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from .errors import (
    ContextMismatch,
    DivisionByZero,
    DivisorNotUnitLeading,
    InvalidArgument,
)
from .galois import AutomorphismSpec, FieldElem, RingElem

__all__ = [
    "SkewPoly",
    "right_divides",
]

NEG_INF = float("-inf")


class SkewPoly:
    """A skew polynomial with ring or field coefficients.

    Use :meth:`from_ints` or the context element constructors to build
    instances; the ``ring`` flag records the coefficient domain, which
    matters for the zero polynomial where it cannot be inferred.
    """

    __slots__ = ("autom", "coeffs", "ring")

    def __init__(self, autom: AutomorphismSpec, coeffs: Sequence, ring: bool):
        want = RingElem if ring else FieldElem
        vec = list(coeffs)
        for c in vec:
            if not isinstance(c, want):
                raise ContextMismatch(
                    f"expected {want.__name__} coefficients"
                )
            if c.ctx != autom.ctx:
                raise ContextMismatch("coefficient from a different context")
        while vec and not vec[-1]:
            vec.pop()
        object.__setattr__(self, "autom", autom)
        object.__setattr__(self, "coeffs", tuple(vec))
        object.__setattr__(self, "ring", ring)

    def __setattr__(self, name, value):
        raise AttributeError("skew polynomials are immutable")

    # Builders.

    @classmethod
    def from_ints(
        cls, autom: AutomorphismSpec, ints: Iterable[int], ring: bool = True
    ) -> "SkewPoly":
        """Polynomial with constant coefficients given as ints."""
        ctx = autom.ctx
        make = ctx.ring if ring else ctx.field
        return cls(autom, [make((c,)) for c in ints], ring)

    @classmethod
    def zero(cls, autom: AutomorphismSpec, ring: bool = True) -> "SkewPoly":
        return cls(autom, (), ring)

    @classmethod
    def one(cls, autom: AutomorphismSpec, ring: bool = True) -> "SkewPoly":
        return cls.from_ints(autom, (1,), ring)

    @classmethod
    def x_power(cls, autom: AutomorphismSpec, k: int, ring: bool = True) -> "SkewPoly":
        return cls.from_ints(autom, [0] * k + [1], ring)

    @classmethod
    def x_pow_minus_one(
        cls, autom: AutomorphismSpec, n: int, ring: bool = True
    ) -> "SkewPoly":
        """The modulus ``x^n - 1`` (central exactly when theta^n = id)."""
        return cls.from_ints(autom, [-1] + [0] * (n - 1) + [1], ring)

    # Introspection.

    @property
    def degree(self):
        """Degree as an int, or ``float('-inf')`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if not self.coeffs:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        """Coefficient of ``x^k`` (zero beyond the degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        ctx = self.autom.ctx
        return ctx.ring_zero() if self.ring else ctx.field_zero()

    # Arithmetic.

    def _check(self, other: "SkewPoly"):
        if self.autom != other.autom:
            raise ContextMismatch("polynomials from different skew rings")
        if self.ring != other.ring:
            raise ContextMismatch("mixed ring and field coefficients")

    def _coerce(self, other):
        if isinstance(other, SkewPoly):
            self._check(other)
            return other
        if isinstance(other, int):
            return SkewPoly.from_ints(self.autom, (other,), self.ring)
        want = RingElem if self.ring else FieldElem
        if isinstance(other, want):
            return SkewPoly(self.autom, (other,), self.ring)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        vec = list(a)
        for i, c in enumerate(b):
            vec[i] = vec[i] + c
        return SkewPoly(self.autom, vec, self.ring)

    __radd__ = __add__

    def __neg__(self):
        return SkewPoly(self.autom, [-c for c in self.coeffs], self.ring)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return SkewPoly(self.autom, (), self.ring)
        autom = self.autom
        ctx = autom.ctx
        zero = ctx.ring_zero() if self.ring else ctx.field_zero()
        vec = [zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if not b:
                    continue
                vec[i + j] = vec[i + j] + a * autom.apply_power(b, i)
        return SkewPoly(autom, vec, self.ring)

    def __rmul__(self, other):
        # Only scalars reach here; scalar times poly twists nothing.
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __eq__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return (
            self.autom == other.autom
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.autom, self.ring, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # Division.

    def right_divmod(self, divisor: "SkewPoly"):
        """Quotient and remainder with ``self = q * divisor + r``.

        Raises
        ------
        DivisionByZero
            If the divisor is zero.
        DivisorNotUnitLeading
            If the divisor's leading coefficient is not a unit.
        """
        self._check(divisor)
        if divisor.is_zero:
            raise DivisionByZero("right division by the zero polynomial")
        if not divisor.lead.is_unit():
            raise DivisorNotUnitLeading(
                f"leading coefficient {divisor.lead} is not a unit"
            )
        autom = self.autom
        ctx = autom.ctx
        zero = ctx.ring_zero() if self.ring else ctx.field_zero()
        inv_lc = divisor.lead.inverse()
        dd = divisor.degree
        q = SkewPoly(autom, (), self.ring)
        r = self
        while not r.is_zero and r.degree >= dd:
            k = r.degree - dd
            c = r.lead * autom.apply_power(inv_lc, k)
            mono = SkewPoly(autom, [zero] * k + [c], self.ring)
            q = q + mono
            r = r - mono * divisor
        return q, r

    def reduce_mod_xn(self, n: int) -> "SkewPoly":
        """Remainder modulo the central polynomial ``x^n - 1``.

        Because ``x^n - 1`` has constant coefficients, the remainder is
        plain coefficient folding ``x^(n+j) -> x^j``.
        """
        if n < 1:
            raise InvalidArgument("n must be positive")
        ctx = self.autom.ctx
        zero = ctx.ring_zero() if self.ring else ctx.field_zero()
        vec = [zero] * n
        for k, c in enumerate(self.coeffs):
            vec[k % n] = vec[k % n] + c
        return SkewPoly(self.autom, vec, self.ring)

    def mod2(self) -> "SkewPoly":
        """Image with coefficients reduced to the residue field."""
        if not self.ring:
            return self
        return SkewPoly(
            self.autom, [c.reduce_mod2() for c in self.coeffs], False
        )

    def lift(self) -> "SkewPoly":
        """Ring polynomial with the same {0, 1} coefficients."""
        if self.ring:
            return self
        return SkewPoly(self.autom, [c.lift() for c in self.coeffs], True)

    # Text.

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, e in enumerate(self.coeffs):
            if not e:
                continue
            if k == 0:
                parts.append(str(e))
                continue
            xatom = "x" if k == 1 else f"x^{k}"
            name = str(e)
            if name == "1":
                parts.append(xatom)
            elif name.isdigit():  # a constant 2 or 3
                parts.append(f"{name}*{xatom}")
            else:
                parts.append(f"({name})*{xatom}")
        return "+".join(parts)

    def __repr__(self):
        kind = "ring" if self.ring else "field"
        return f"SkewPoly[{kind}]({self})"


def right_divides(g: SkewPoly, f: SkewPoly) -> bool:
    """True when ``g`` right-divides ``f``, i.e. ``f = q * g`` exactly."""
    _, r = f.right_divmod(g)
    return r.is_zero
