"""Independent checks of job results.

The arithmetic here is written from the definitions and shares no code
with the library: ring products reduce by long division by the modulus
instead of the context's power tables, the Frobenius map substitutes
``xi -> xi^(2^t)`` by repeated multiplication, and codeword weights are
counted by folding bits and a popcount instead of a per-coordinate scan.
"""

from __future__ import annotations

import numpy as np


def gr_mul(h, mod, a, b):
    """Product of two coefficient vectors in ``Z_mod[x]/(h)``."""
    m = len(h) - 1
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, m - 1, -1):
        c = prod[k] % mod
        if c:
            for i in range(m + 1):
                prod[k - m + i] -= c * h[i]
    return tuple(c % mod for c in prod[:m])


def frobenius(h, mod, a, t):
    """``a(xi) -> a(xi^(2^t))`` in ``Z_mod[x]/(h)``."""
    m = len(h) - 1
    one = (1,) + (0,) * (m - 1)
    xi = (0, 1) + (0,) * (m - 2) if m > 1 else ((-h[0]) % mod,)
    root = xi
    for _ in range(t):
        root = gr_mul(h, mod, root, root)
    acc = (0,) * m
    power = one
    for c in a:
        acc = tuple((x + c * y) % mod for x, y in zip(acc, power))
        power = gr_mul(h, mod, power, root)
    return acc


def inner(u, v):
    """The doubled binary dot plus the quaternary dot, as a vector."""
    h = u.ctx.h
    m = len(h) - 1
    facc = [0] * m
    for a, d in zip(u.alpha, v.alpha):
        facc = [(x + y) % 2 for x, y in zip(facc, gr_mul(h, 2, a.coeffs,
                                                         d.coeffs))]
    racc = [2 * x for x in facc]
    for b, e in zip(u.beta, v.beta):
        racc = [(x + y) % 4 for x, y in zip(racc, gr_mul(h, 4, b.coeffs,
                                                         e.coeffs))]
    return tuple(racc)


def unpermute(word, bin_perm, quat_perm):
    """A standard-form word moved back to the caller's column order."""
    alpha = [None] * len(bin_perm)
    beta = [None] * len(quat_perm)
    for i, c in enumerate(bin_perm):
        alpha[c] = word.alpha[i]
    for j, c in enumerate(quat_perm):
        beta[c] = word.beta[j]
    return type(word)(word.ctx, alpha, beta)


def _coordinate_mask(m, r, s):
    """Lowest bit of every coordinate of the packed layout."""
    mask = 0
    for j in range(s):
        mask |= 1 << (2 * m * j)
    for i in range(r):
        mask |= 1 << (2 * m * s + m * i)
    return mask


def _fold(x, m, r, s):
    """Set the lowest bit of each coordinate when any of its bits is set.

    Works on Python ints and on ``np.uint64`` arrays alike.
    """
    q_bits = 2 * m * s
    quat = x & ((1 << q_bits) - 1)
    binary = x >> q_bits
    qf, bf = quat, binary
    for k in range(1, 2 * m):
        qf = qf | (quat >> k)
    for k in range(1, m):
        bf = bf | (binary >> k)
    return qf | (bf << q_bits)


def min_weight(code):
    """Smallest number of nonzero coordinates over the nonzero words."""
    m, r, s = code.ctx.m, code.r, code.s
    mask = _coordinate_mask(m, r, s)
    if isinstance(code.packed, np.ndarray):
        arr = code.packed[code.packed != 0]
        folded = _fold(arr, m, r, s) & np.uint64(mask)
        return int(np.bitwise_count(folded).min())
    return min(bin(_fold(v, m, r, s) & mask).count("1")
               for v in code.packed if v)


def all_doubled(code):
    """Whether every quaternary coefficient of every word lies in 2R."""
    m, s = code.ctx.m, code.s
    low = sum(1 << (2 * k) for k in range(m * s))
    if isinstance(code.packed, np.ndarray):
        return not bool(np.any(code.packed & np.uint64(low)))
    return not any(v & low for v in code.packed)


def is_subset(small, big):
    """Whether every word of ``small`` is a word of ``big``."""
    if isinstance(small.packed, np.ndarray):
        idx = np.searchsorted(big.packed, small.packed)
        idx[idx == len(big.packed)] = 0
        return bool(np.all(big.packed[idx] == small.packed))
    return set(small.packed) <= set(big.packed)
