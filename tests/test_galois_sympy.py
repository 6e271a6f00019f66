"""Differential witness for ``galois`` written with sympy.

Ring results are compared with ``Poly`` reduction modulo ``(h, 4)``:
integer polynomials are divided by the monic ``h`` and their
coefficients taken mod 4.  Field results use ``Poly(..., modulus=2)``
modulo ``h mod 2``, and the Frobenius power ``phi^j`` is the
substitution ``x -> x^(2^j)``.  Modulus validation is compared with
sympy's own irreducibility test, the multiplicative order of ``x`` and
the Hensel-lift condition ``h(x^2) = 0 mod (h, 4)``.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import Poly, symbols

from artifact import (AutomorphismSpec, FrobeniusIncompatible,
                      NotBasicIrreducible, NotPrimitive, NotUnit,
                      RingContext, RingElem)

X = symbols("x")

# x^4 + 2x^2 + 3x + 1, the lift of x^4 + x + 1 to Z4;
# test_modulus_validation_matches_sympy shows that sympy accepts it.
H4 = (1, 3, 2, 0, 1)


def _poly(coeffs, modulus=None):
    """Poly from ascending coefficients."""
    opts = {"modulus": modulus} if modulus else {}
    return Poly(list(reversed(coeffs)) or [0], X, **opts)


def _vec(p, m, mod):
    """Ascending coefficients of ``p`` mod ``mod``, padded to ``m``."""
    c = [int(v) % mod for v in reversed(p.all_coeffs())]
    return tuple(c + [0] * (m - len(c)))[:m]


def _ring_reduce(p, h):
    return _vec(p.rem(_poly(h)), len(h) - 1, 4)


def _field_reduce(p, h):
    return _vec(p.rem(_poly([c % 2 for c in h], 2)), len(h) - 1, 2)


def _sympy_verdict(m, h):
    """The error class sympy predicts for modulus ``h``, or None."""
    h_bar = _poly([c % 2 for c in h], 2)
    if not h_bar.is_irreducible:
        return NotBasicIrreducible
    n = (1 << m) - 1
    orders = [k for k in range(1, n + 1)
              if _poly([0] * k + [1], 2).rem(h_bar) == _poly([1], 2)]
    if orders[:1] != [n]:
        return NotPrimitive
    if m >= 2:
        lifted = _poly(h).compose(_poly([0, 0, 1])).rem(_poly(h))
        if any(int(c) % 4 for c in lifted.all_coeffs()):
            return FrobeniusIncompatible
    return None


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_modulus_validation_matches_sympy(m):
    accepted = []
    for low in itertools.product(range(4), repeat=m):
        h = low + (1,)
        expected = _sympy_verdict(m, h)
        try:
            RingContext(m, h)
            got = None
        except (NotBasicIrreducible, NotPrimitive,
                FrobeniusIncompatible) as exc:
            got = type(exc)
        assert got is expected, f"h={h}: {got} != {expected}"
        if got is None:
            accepted.append(h)
    # Two Z4 constants at m = 1, then one Hensel lift per primitive
    # binary polynomial: 1 of degree 2, 2 of degree 3, 2 of degree 4.
    assert len(accepted) == {1: 2, 2: 1, 3: 2, 4: 2}[m]
    if m == 4:
        assert H4 in accepted


def _check_ring_pair(ctx, a, b):
    h, m = ctx.h, ctx.m
    pa, pb = _poly(a.coeffs), _poly(b.coeffs)
    assert (a + b).coeffs == _ring_reduce(pa + pb, h)
    assert (a - b).coeffs == _ring_reduce(pa - pb, h)
    assert (-a).coeffs == _ring_reduce(-pa, h)
    assert (a * b).coeffs == _ring_reduce(pa * pb, h)
    if a.is_unit():
        one = (1,) + (0,) * (m - 1)
        assert _ring_reduce(pa * _poly(a.inverse().coeffs), h) == one
    else:
        with pytest.raises(NotUnit):
            a.inverse()


def _check_field_pair(ctx, a, b):
    h, m = ctx.h, ctx.m
    pa, pb = _poly(a.coeffs, 2), _poly(b.coeffs, 2)
    assert (a + b).coeffs == _field_reduce(pa + pb, h)
    assert (a - b).coeffs == _field_reduce(pa - pb, h)
    assert (a * b).coeffs == _field_reduce(pa * pb, h)
    if a:
        one = (1,) + (0,) * (m - 1)
        assert _field_reduce(pa * _poly(a.inverse().coeffs, 2), h) == one


def _check_frobenius(ctx, e, t, k):
    image = AutomorphismSpec(ctx, t).apply_power(e, k)
    power = [0] * (1 << ((t * k) % ctx.m)) + [1]  # x^(2^j)
    if isinstance(e, RingElem):
        want = _ring_reduce(_poly(e.coeffs).compose(_poly(power)), ctx.h)
    else:
        want = _field_reduce(_poly(e.coeffs, 2).compose(_poly(power, 2)),
                             ctx.h)
    assert image.coeffs == want


@pytest.mark.parametrize("m, h", [(1, (1, 1)), (1, (3, 1)), (2, (1, 1, 1))])
def test_every_pair_matches_sympy(m, h):
    ctx = RingContext(m, h)
    ring = list(ctx.all_ring_elems())
    field = list(ctx.all_field_elems())
    for a, b in itertools.product(ring, ring):
        _check_ring_pair(ctx, a, b)
    for a, b in itertools.product(field, field):
        _check_field_pair(ctx, a, b)
    for e in ring + field:
        for t in range(1, m + 1):
            for k in range(2 * m + 1):
                _check_frobenius(ctx, e, t, k)


_SAMPLED = [RingContext(3, (3, 1, 2, 1)), RingContext(4, H4)]


@given(st.sampled_from(_SAMPLED), st.data())
def test_sampled_pairs_match_sympy(ctx, data):
    ring = st.integers(0, (1 << (2 * ctx.m)) - 1).map(ctx.ring_from_index)
    field = st.integers(0, (1 << ctx.m) - 1).map(ctx.field_from_index)
    _check_ring_pair(ctx, data.draw(ring), data.draw(ring))
    _check_field_pair(ctx, data.draw(field), data.draw(field))
    t = data.draw(st.integers(1, ctx.m))
    k = data.draw(st.integers(0, 2 * ctx.m))
    _check_frobenius(ctx, data.draw(ring), t, k)
    _check_frobenius(ctx, data.draw(field), t, k)
