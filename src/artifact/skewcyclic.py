"""Skew cyclic structure on mixed binary/quaternary words.

A word ``(a_0 .. a_{r-1} | b_0 .. b_{s-1})`` reads as a pair of skew
polynomials ``(a(x), b(x))`` in ``F[x;theta] x R[x;theta]`` taken
modulo ``x^r - 1`` and ``x^s - 1``.  The skew cyclic shift rotates
each side one step and applies the automorphism to every entry, which
is multiplication by ``x`` on both polynomials.  ``skew_closed``
decides whether the span of a matrix is closed under the shift from
its parity check, without enumerating.

A code of this kind is described by a generator tuple built from up to
three template rows::

    (f, 0)        f   binary, right divisor of x^r - 1 mod 2
    (l, g + 2a)   g,a quaternary, l binary
    (l1, 2q)      q   quaternary, l1 binary

``validate_generators`` checks the compatibility conditions case by
case and reports each one by name.  ``derive_cofactors`` returns the
cofactors ``h_f, h_g, h_q`` and the mixing polynomial ``k``: they are
the quotients of the divisions the report names, taken from the same
single pass over the cases, and it raises with the first required
division that leaves a remainder.  ``analyse_generators`` returns that
pass whole: the report and the completed tuple together.
``spanning_set`` builds each template row from its polynomials,
reduced modulo ``x^r - 1`` and ``x^s - 1``, and follows it with its
shifts, the rows ``x^i`` times the template; their span is the whole
code.  ``skew_code_cardinality`` counts the codewords from the
cofactor degrees alone.

When ``g + 2a`` does not divide ``x^s - 1`` exactly but ``g`` does,
the tuple is still accepted: the leftover of the ``g`` row under
``h_g`` is itself a code row of the third kind and is materialised as
a derived ``(l1, 2q)`` generator.  The validation report says so.
"""

from __future__ import annotations

from typing import Optional

from .errors import (ContextMismatch, DivisionByZero, DivisorNotUnitLeading,
                     MissingComponent, NotRightDivisible, ShapeMismatch)
from .galois import AutomorphismSpec, Record
from .mixedcode import (MixedMatrix, MixedWord, parity_check, standard_form,
                        syndrome)
from .skewpoly import SkewPoly

__all__ = [
    "SkewGenerators", "ConditionCheck", "ValidationReport", "SpanningSet",
    "theta_shift", "skew_closed", "analyse_generators", "validate_generators",
    "derive_cofactors", "spanning_set", "skew_code_cardinality",
]


def theta_shift(w: MixedWord, autom: AutomorphismSpec) -> MixedWord:
    """One skew cyclic step: rotate each side, twisting every entry."""
    if autom.ctx is not w.ctx and autom.ctx != w.ctx:
        raise ContextMismatch("word and automorphism contexts differ")
    ctx, j = w.ctx, autom.t % w.ctx.m
    alpha, beta = ([e._of(ctx, e._frob(ctx, e._x, j)) for e in v[-1:] + v[:-1]]
                   for v in (w.alpha, w.beta))
    return MixedWord._of(ctx, alpha, beta)


def skew_closed(mat: MixedMatrix, autom: AutomorphismSpec) -> bool:
    """Whether the span of ``mat`` maps into itself under the skew shift.

    The shift is additive and twists scalars by the automorphism, so it
    maps the span into itself exactly when it maps every row into it;
    each shifted row, moved into the standard form's coordinates, must
    have a zero syndrome against the parity check.
    """
    if autom.ctx != mat.ctx:
        raise ContextMismatch("matrix and automorphism contexts differ")
    sf = standard_form(mat)
    h = parity_check(sf)
    for w in mat:
        shifted = theta_shift(w, autom)
        if any(syndrome(h, shifted.permute_columns(sf.bin_perm,
                                                   sf.quat_perm))):
            return False
    return True


class SkewGenerators(Record):
    """A generator tuple, optionally completed with its cofactors.

    Component kinds: ``f``, ``l``, ``l1`` binary; ``g``, ``a``, ``q``
    quaternary.  Any component may be ``None`` (absent).  ``a`` or
    ``l`` require ``g``; ``l1`` requires ``q``.  The cofactor slots
    are filled by :func:`derive_cofactors`; ``materialized`` marks a
    derived ``(l1, 2q)`` row (see the module docstring).
    """

    __slots__ = ("autom", "r", "s", "f", "l", "g", "a", "l1", "q",
                 "h_f", "h_g", "h_q", "k", "materialized")
    _defaults = dict.fromkeys(__slots__[3:-1], None) | {"materialized": False}

    def _validate(self):
        if self.r < 0 or self.s < 0 or self.r + self.s == 0:
            raise ShapeMismatch("lengths r, s must describe coordinates")
        for name in ("f", "l", "l1", "g", "a", "q"):
            p, ring = getattr(self, name), name in ("g", "a", "q")
            if p is not None and p.ring != ring:
                kind = "quaternary" if ring else "binary"
                raise ContextMismatch(f"{name} must be a {kind} polynomial")
        for name in ("f", "l", "l1", "g", "a", "q"):
            p = getattr(self, name)
            if p is not None and p.autom != self.autom:
                raise ContextMismatch(f"{name} uses a different skew ring")
        if (self.a is not None or self.l is not None) and self.g is None:
            raise MissingComponent("a and l only make sense with g")
        if self.l1 is not None and self.q is None:
            raise MissingComponent("l1 only makes sense with q")
        if (self.f is not None or self.l is not None
                or self.l1 is not None) and self.r == 0:
            raise ShapeMismatch("binary components need r > 0")
        if (self.g is not None or self.q is not None) and self.s == 0:
            raise ShapeMismatch("quaternary components need s > 0")

    @property
    def case(self) -> str:
        """Which shape of tuple this is: 'i', 'ii', 'iii' or 'binary'."""
        if self.g is not None and self.q is not None:
            return "iii"
        if self.g is not None:
            return "ii"
        if self.q is not None:
            return "i"
        return "binary"

    def g_plus_2a(self) -> SkewPoly:
        if self.g is None:
            raise MissingComponent("no g component")
        return self.g if self.a is None else self.g + 2 * self.a


class ConditionCheck(Record):
    __slots__ = ("name", "passed", "detail")
    _defaults = {"detail": ""}


class ValidationReport(Record):
    __slots__ = ("case", "checks", "notes")
    _defaults = {"notes": ()}

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self):
        return [c.name for c in self.checks if not c.passed]

    def __str__(self):
        lines = [f"case {self.case}"]
        for c in self.checks:
            status = "ok  " if c.passed else "FAIL"
            suffix = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  [{status}] {c.name}{suffix}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


def _exact(num: SkewPoly, den: SkewPoly):
    """``(quotient, None)`` when den right-divides num.

    Otherwise ``(None, why)``, where `why` names a zero divisor or a
    non-unit leading coefficient and is None for a nonzero remainder.
    """
    try:
        quo, rem = num.right_divmod(den)
    except (DivisorNotUnitLeading, DivisionByZero) as exc:
        return None, str(exc)
    return (quo, None) if rem.is_zero else (None, None)


def _materialized_residual(gens: SkewGenerators, h_g: SkewPoly):
    """Residual row components h_g * (l, g+2a) with 2q halved out.

    Returns (l1, q) as (field poly or None, field poly or None).
    """
    l1m = None
    if gens.l is not None and not gens.l.is_zero:
        l1m = (h_g.mod2() * gens.l).reduce_mod_xn(gens.r)
        if l1m.is_zero:
            l1m = None
    qm = None
    if gens.a is not None and not gens.a.is_zero:
        qm = (h_g * (2 * gens.a)).reduce_mod_xn(gens.s).halve()
        if qm.is_zero:
            qm = None
    return l1m, qm


def analyse_generators(gens: SkewGenerators):
    """Walk the case conditions of a tuple once.

    Returns the :class:`ValidationReport`, the tuple completed with
    every cofactor that exists, and the message of the first division
    the case requires that fails (None when all are exact, as in every
    valid report).  One reporter records every division check; the
    ones the case requires carry the message to return.
    :func:`validate_generators` and :func:`derive_cofactors` each
    return a part of this one result.
    """
    autom, r, s, case = gens.autom, gens.r, gens.s, gens.case
    checks, notes = [], []
    error = None
    zero = SkewPoly.zero(autom, False)
    h_f = h_g = h_q = k = None
    l1, q = gens.l1, gens.q
    materialized = False

    def check(name, ok, detail="remainder is nonzero", passed=""):
        checks.append(ConditionCheck(name, ok, passed if ok else detail))

    def divides(name, division, message=None, detail="remainder is nonzero",
                passed=""):
        """Report an `_exact` division; a refused one says why.  A
        required one carries a `message`: the first to fail is the error."""
        nonlocal error
        quo, why = division
        check(name, quo is not None, why or detail, passed)
        if quo is None and error is None:
            error = message
        return quo

    def deg_check(name, p, bound, bound_name):
        limit = bound.degree if bound is not None else float("inf")
        val = p.degree if p is not None else float("-inf")
        check(f"deg({name}) < deg({bound_name})", val < limit,
              f"deg {val} vs {limit}")

    def times(h, p):
        """h*p mod x^r-1, zero for an absent p, None for an absent h."""
        if h is None:
            return None
        return (h * p).reduce_mod_xn(r) if p else zero

    # An absent f reads as x^r-1, whose lattice holds only zero mod x^r-1.
    f = gens.f
    if f is None:
        f = SkewPoly.x_pow_minus_one(autom, r, False) if r else None
        notes.append("f absent, divisibilities read against x^r-1")

    def f_divides(name, prod, undefined=""):
        if prod is None:
            check(name, False, undefined)
        elif f is None:
            check(name, prod.is_zero)
        else:
            divides(name, _exact(prod, f))

    if r:
        h_f = divides("f |r x^r-1 (mod 2)",
                      _exact(SkewPoly.x_pow_minus_one(autom, r, False), f),
                      "f does not right-divide x^r-1 (mod 2)")
    xs1 = SkewPoly.x_pow_minus_one(autom, s, False) if s else None

    if case == "i":
        notes.append("the divisibility names l; it is read as l1")
        h_q = divides("q |r x^s-1 (mod 2)", _exact(xs1, gens.q.mod2()),
                      "q does not right-divide x^s-1 (mod 2)")
        deg_check("l1", gens.l1, f, "f")
        f_divides("f |r h_q*l1 (mod 2)", times(h_q, gens.l1),
                  "h_q undefined")

    elif case == "ii":
        deg_check("l", gens.l, f, "f")
        deg_check("a", gens.a, gens.g, "g")
        xs1_ring = SkewPoly.x_pow_minus_one(autom, s, True)
        h_g, _ = _exact(xs1_ring, gens.g_plus_2a())
        if h_g is not None:
            check("g+2a |r x^s-1", True)
            f_divides("f |r h_{g,a}*l (mod 2)", times(h_g.mod2(), gens.l))
        else:
            # g + 2a leaves a remainder; accept the tuple when g itself
            # divides, materialising the leftover row h_g * (l, g+2a).
            h_g = divides(
                "g+2a |r x^s-1, or g |r x^s-1 with a residual (l1, 2q) row",
                _exact(xs1_ring, gens.g),
                "neither g+2a nor g right-divides x^s-1",
                "neither g+2a nor g divides x^s-1",
                "g+2a leaves a remainder; g divides exactly")
            if h_g is not None:
                notes.append(
                    "residual row (l1, 2q) = h_g * (l, g+2a) materialised")
                l1m, qm = _materialized_residual(gens, h_g)
                if qm is None:
                    # Residual has no quaternary part; the binary
                    # leftover must already be an f multiple.
                    f_divides("f |r h_g*l (mod 2)", l1m or zero)
                else:
                    materialized, l1, q = True, l1m, qm.lift()
                    h_q = divides(
                        "q |r x^s-1 (mod 2), q = h_g*a of the residual row",
                        _exact(xs1, qm), "the residual q = h_g*a does not "
                        "right-divide x^s-1 (mod 2)")
                    if h_q is not None:
                        f_divides("f |r h_q*l1 (mod 2)", times(h_q, l1m))

    elif case == "iii":
        g_bar, q_bar = gens.g.mod2(), gens.q.mod2()
        a_bar = gens.a.mod2() if gens.a is not None else zero
        divides("q |r g (mod 2)", _exact(g_bar, q_bar))
        h_g = divides("g |r x^s-1 (mod 2)", _exact(xs1, g_bar),
                      "g does not right-divide x^s-1 (mod 2)")
        h_q = divides("q |r x^s-1 (mod 2)", _exact(xs1, q_bar),
                      "q does not right-divide x^s-1 (mod 2)")
        k = divides("q |r h_g*a (mod 2)", (None, None) if h_g is None
                    else _exact((h_g * a_bar).reduce_mod_xn(s), q_bar),
                    "h_g*a is not a right multiple of q (mod 2)",
                    "no k with k*q = h_g*a")
        deg_check("l", gens.l, f, "f")
        deg_check("l1", gens.l1, f, "f")
        deg_check("a", gens.a, gens.q, "q")
        f_divides("f |r h_q*l1 (mod 2)", times(h_q, gens.l1),
                  "h_q undefined")
        f_divides("f |r k*l1 + h_g*l (mod 2)",
                  None if k is None else times(k, gens.l1)
                  + times(h_g, gens.l), "k or h_g undefined")

    report = ValidationReport(case, tuple(checks), tuple(notes))
    full = gens.replace(l1=l1, q=q, h_f=h_f if gens.f is not None else None,
                        h_g=h_g, h_q=h_q, k=k, materialized=materialized)
    return report, full, error


def validate_generators(gens: SkewGenerators) -> ValidationReport:
    """Check the case conditions of a generator tuple, one by one.

    Nothing is raised for a failed condition; each is reported by name
    with a detail string.  The report's ``valid`` property is the
    conjunction.
    """
    return analyse_generators(gens)[0]


def derive_cofactors(gens: SkewGenerators) -> SkewGenerators:
    """Complete a tuple with ``h_f``, ``h_g``, ``h_q`` and ``k``.

    The cofactors are the quotients of the divisions that
    :func:`validate_generators` reports, from the same pass.  ``h_g``
    is quaternary in case ii (the cofactor of ``g + 2a``, or of ``g``
    when only the fallback division is exact) and binary in case iii.
    ``h_q`` and ``k`` are always binary.

    Raises
    ------
    NotRightDivisible
        With the first division this case requires that leaves a
        remainder, in the order the report lists them.
    """
    _, full, error = analyse_generators(gens)
    if error is not None:
        raise NotRightDivisible(error)
    return full


class SpanningSet(Record):
    """Shift rows of each template generator, in matrix order."""

    __slots__ = ("s1", "s2", "s3")

    @property
    def rows(self):
        return list(self.s1) + list(self.s2) + list(self.s3)


def _completed(gens: SkewGenerators):
    """The tuple, completed when it carries no cofactor, and the row
    count of each block: its cofactor's degree, 0 when there is none."""
    if gens.h_f is None and gens.h_g is None and gens.h_q is None:
        gens = derive_cofactors(gens)
    return gens, [0 if h is None or h.is_zero else h.degree
                  for h in (gens.h_f, gens.h_g, gens.h_q)]


def _padded(p: Optional[SkewPoly], n: int, zero) -> list:
    """The ``n`` coefficients of ``p`` mod ``x^n - 1``; None reads as 0."""
    coeffs = () if p is None else p.reduce_mod_xn(n).coeffs
    return list(coeffs) + [zero] * (n - len(coeffs))


def spanning_set(gens: SkewGenerators):
    """Rows spanning the code: shifts of each template generator.

    Completes the tuple first when the cofactors are missing.  Row
    counts are the cofactor degrees, so the matrix has
    ``deg h_f + deg h_g + deg h_q`` rows.

    Returns
    -------
    (SpanningSet, MixedMatrix)
    """
    gens, (n_f, n_g, n_q) = _completed(gens)
    autom, r, s = gens.autom, gens.r, gens.s
    ctx = autom.ctx
    zero_f, zero_r = ctx.field_zero(), ctx.ring_zero()

    def shifts(a, b, count):
        # Row i is x^i times the template (a, b): the i-th shift.
        rows = [MixedWord._of(ctx, _padded(a, r, zero_f),
                              _padded(b, s, zero_r))] if count else []
        while len(rows) < count:
            rows.append(theta_shift(rows[-1], autom))
        return tuple(rows)

    s1 = s2 = s3 = ()
    if gens.f is not None:
        s1 = shifts(gens.f, None, n_f)
    if gens.g is not None:
        s2 = shifts(gens.l, gens.g_plus_2a(), n_g)
    if gens.q is not None:
        s3 = shifts(gens.l1, 2 * gens.q, n_q)
    ss = SpanningSet(s1, s2, s3)
    return ss, MixedMatrix(ctx, r, s, ss.rows)


def skew_code_cardinality(gens: SkewGenerators) -> int:
    """Codeword count implied by the cofactor degrees.

    This is the span size when the spanning rows are independent, which
    the degree conditions on a generator tuple do not force on their
    own.  Enumerate the span to confirm it for a particular tuple.
    """
    gens, (n_f, n_g, n_q) = _completed(gens)
    return 1 << gens.autom.ctx.m * (n_f + 2 * n_g + n_q)
