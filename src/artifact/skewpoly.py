"""Skew polynomials over GR(4, m) and GF(2^m) twisted by a Frobenius power.

Multiplication follows the rule ``x * c = theta(c) * x``, so
``(a x^i) * (b x^j) = a theta^i(b) x^(i+j)`` where ``theta`` is the
automorphism fixed by an :class:`~artifact.galois.AutomorphismSpec`.
Coefficients are stored ascending; the zero polynomial has an empty
coefficient tuple and degree ``float('-inf')``.

Right division by a polynomial with a unit leading coefficient is
always possible and unique: ``f = q * g + r`` with ``deg r < deg g``.
Divisibility below always means right divisibility, ``f = q * g``.

Products, divisions and reductions run on packed coefficient ints
through the ``_add``, ``_neg``, ``_mul`` and ``_frob`` kernels of
:mod:`~artifact.galois`, twisting a factor once per distinct Frobenius
power; ``_packed`` wraps the result without the constructor's checks.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (ContextMismatch, DivisionByZero, DivisorNotUnitLeading,
                     InvalidArgument)
from .galois import AutomorphismSpec, FieldElem, Record, RingElem

__all__ = ["SkewPoly", "right_divides"]

NEG_INF = float("-inf")


class SkewPoly(Record):
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
                raise ContextMismatch(f"expected {want.__name__} coefficients")
            if c.ctx is not autom.ctx and c.ctx != autom.ctx:
                raise ContextMismatch("coefficient from a different context")
        self._trim(autom, vec, ring)

    def _trim(self, autom: AutomorphismSpec, vec: list, ring: bool):
        """Fill the fields with ``vec`` less its trailing zeros, unchecked."""
        while vec and not vec[-1]:
            vec.pop()
        return self._fill((autom, tuple(vec), ring))

    @classmethod
    def _packed(cls, autom: AutomorphismSpec, xs, ring: bool) -> "SkewPoly":
        """Polynomial of packed coefficients from ``autom.ctx``'s tables."""
        of, ctx = (RingElem if ring else FieldElem)._of, autom.ctx
        return cls.__new__(cls)._trim(autom, [of(ctx, x) for x in xs], ring)

    def _kernels(self):
        """``(ctx, add, neg, mul, frob)`` of the coefficient class."""
        kind = RingElem if self.ring else FieldElem
        return self.autom.ctx, kind._add, kind._neg, kind._mul, kind._frob

    # Builders.

    @classmethod
    def from_ints(cls, autom: AutomorphismSpec, ints: Iterable[int],
                  ring: bool = True) -> "SkewPoly":
        """Polynomial with constant coefficients given as ints."""
        const = (RingElem if ring else FieldElem)._const
        return cls._packed(autom, [const(autom.ctx, c) for c in ints], ring)

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
    def x_pow_minus_one(cls, autom: AutomorphismSpec, n: int,
                        ring: bool = True) -> "SkewPoly":
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
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx, add, _, mul, frob = self._kernels()
        t, b = self.autom.t, [c._x for c in o.coeffs]
        vec = [0] * (len(self.coeffs) + len(b) - 1)
        twisted = {}
        for i, c in enumerate(self.coeffs):
            x, j = c._x, t * i % ctx.m
            if not x:
                continue
            if j not in twisted:
                twisted[j] = [frob(ctx, y, j) for y in b]
            for k, y in enumerate(twisted[j], i):
                if y:
                    vec[k] = add(ctx, vec[k], mul(ctx, x, y))
        return SkewPoly._packed(self.autom, vec, self.ring)

    def __rmul__(self, other):
        # Only scalars reach here; scalar times poly twists nothing.
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

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
                f"leading coefficient {divisor.lead} is not a unit")
        # Step k clears x^(k+dd) with c x^k, c = lead * theta^k(1/lc):
        # r -= c x^k * divisor adds c * -theta^k(d_i) at each x^(k+i).
        ctx, add, neg, mul, frob = self._kernels()
        t, d = self.autom.t, [c._x for c in divisor.coeffs]
        dd, inv = len(d) - 1, divisor.lead.inverse()._x
        r = [c._x for c in self.coeffs]
        q = [0] * max(len(r) - dd, 0)
        twisted = {}
        for k in range(len(q) - 1, -1, -1):
            if not r[k + dd]:
                continue
            j = t * k % ctx.m
            if j not in twisted:
                twisted[j] = frob(ctx, inv, j), [
                    neg(ctx, frob(ctx, y, j)) for y in d[:-1]]
            inv_j, minus_d = twisted[j]
            c = q[k] = mul(ctx, r[k + dd], inv_j)
            for i, y in enumerate(minus_d, k):
                if y:
                    r[i] = add(ctx, r[i], mul(ctx, c, y))
        return (SkewPoly._packed(self.autom, q, self.ring),
                SkewPoly._packed(self.autom, r[:dd], self.ring))

    def reduce_mod_xn(self, n: int) -> "SkewPoly":
        """Remainder modulo the central polynomial ``x^n - 1``.

        Because ``x^n - 1`` has constant coefficients, the remainder is
        plain coefficient folding ``x^(n+j) -> x^j``.
        """
        if n < 1:
            raise InvalidArgument("n must be positive")
        ctx, add = self._kernels()[:2]
        vec = [0] * n
        for k, c in enumerate(self.coeffs):
            vec[k % n] = add(ctx, vec[k % n], c._x)
        return SkewPoly._packed(self.autom, vec, self.ring)

    def mod2(self) -> "SkewPoly":
        """Image with coefficients reduced to the residue field."""
        if not self.ring:
            return self
        return SkewPoly(self.autom, [c.reduce_mod2() for c in self.coeffs],
                        False)

    def lift(self) -> "SkewPoly":
        """Ring polynomial with the same {0, 1} coefficients."""
        if self.ring:
            return self
        return SkewPoly(self.autom, [c.lift() for c in self.coeffs], True)

    def halve(self) -> "SkewPoly":
        """The field polynomial that a ring polynomial in 2R[x] doubles;
        ``InvalidArgument`` for field coefficients or an odd one."""
        if not self.ring:
            raise InvalidArgument("only ring polynomials halve")
        return SkewPoly(self.autom, [c.halve() for c in self.coeffs], False)

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
