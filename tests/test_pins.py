"""Byte-identical printing, indexing and ``verify-paper`` output.

The digests were recorded from the coefficient-vector arithmetic that
the 2-adic representation replaced.  A change in how an element prints,
in its ``coeffs``, in the order of ``all_ring_elems`` or in the text of
``verify-paper`` breaks them.
"""

import hashlib
import subprocess
import sys
import timeit

import pytest

from artifact import RingContext
from artifact.galois import _vec_str

# Default moduli of the command line, with the sha256 of the newline-
# joined str of every ring element, of every field element, and of the
# repr of the list of ring coefficient tuples, in all_*_elems order.
PINS = {
    1: ((1, 1),
        "9d3d950edf1e7c7772a879becd48455ec4dc3fdfcf7dcdba916baa7b01ef1b42",
        "1e9987e996a1c529f61f4339797481b7b1138b15f18a44e06dde45eabbc67921",
        "461b5db84c52bbd92adbe814ba54f6d4f5653bb4757d05e7a733d2a668176d3d"),
    2: ((1, 1, 1),
        "ab113ed9a8c3cd32425e3e575eb67a66cf1859d99ce993d1eba32adad0a73751",
        "656c68c166e66d27af76099bc6c2b452cea32f5735660afb468908434eabf214",
        "18077fe3b209eca5d8211d77bf9ff5f6b3956c3a4089267add34ee7c1dd467c4"),
    3: ((3, 1, 2, 1),
        "f1ff6f95fef57b762cdecda51ddb0832a79916b7a86ec2098bbbc77f97fc1838",
        "4ed4275318521b78db6b35b6f4f6270b1e3de7a3f96d8572ea2164341a9520ac",
        "fe02daa5968dffc9c0a04f71e5aaf2a7b1b25f0c44e42f9b71945ffe0fdbb001"),
}

VERIFY_PAPER_SHA = \
    "b3ffdcd7933e1f7147e70db4b0861421cc96d4b897173b0e51e7d3d69c37fb70"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("m", sorted(PINS))
def test_elements_print_as_before(m):
    h, ring_str, field_str, ring_coeffs = PINS[m]
    ctx = RingContext(m, h)
    ring = list(ctx.all_ring_elems())
    assert _sha("\n".join(str(e) for e in ring)) == ring_str
    assert _sha("\n".join(str(e) for e in ctx.all_field_elems())) == \
        field_str
    assert _sha(repr([e.coeffs for e in ring])) == ring_coeffs


@pytest.mark.parametrize("m, h", [(m, PINS[m][0]) for m in sorted(PINS)]
                         + [(4, (1, 3, 2, 0, 1))])
def test_ring_index_round_trip(m, h):
    ctx = RingContext(m, h)
    for i in range(1 << (2 * m)):
        e = ctx.ring_from_index(i)
        assert ctx.ring_index(e) == i
        assert e.coeffs == tuple((i >> (2 * k)) & 3 for k in range(m))
    for i in range(1 << m):
        assert ctx.field_index(ctx.field_from_index(i)) == i


def test_verify_paper_stdout_as_before():
    res = subprocess.run([sys.executable, "-m", "artifact.cli",
                          "verify-paper"], capture_output=True, text=True)
    assert res.returncode == 0
    assert _sha(res.stdout) == VERIFY_PAPER_SHA


def test_str_no_slower_than_formatting_coefficients(ctx2):
    elems = list(ctx2.all_ring_elems()) * 64
    assert [str(e) for e in elems] == [_vec_str(e.coeffs) for e in elems]

    def best(fn):
        return min(timeit.repeat(fn, number=1, repeat=7))

    assert best(lambda: [str(e) for e in elems]) <= \
        best(lambda: [_vec_str(e.coeffs) for e in elems])
