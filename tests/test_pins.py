"""Byte-identical printing, indexing and ``verify-paper`` output.

The element digests were recorded from the coefficient-vector
arithmetic that the 2-adic representation replaced.  A change in how an
element prints, in its ``coeffs``, in the order of ``all_ring_elems`` or
in the text of ``verify-paper`` breaks them.  The generator-tuple and
standard-form digests pin the validation reports, the derived cofactors
or ``NotRightDivisible`` messages, the spanning sets, the standard forms
and the parity checks of seeded random inputs.  The grammar digest pins
what the three expression parsers return or where they fail on seeded
strings over the token alphabet.  The command-line digests pin the exit
code, standard output and standard error of ``z24codes`` calls.
"""

import contextlib
import hashlib
import io
import random
import re
import subprocess
import sys
import timeit

import pytest
from hypothesis import given, strategies as st

from artifact import (AutomorphismSpec, MixedMatrix, MixedWord,
                      NotRightDivisible, ParseError, RingContext,
                      SkewGenerators, SkewPoly, derive_cofactors,
                      parity_check, parse_element, parse_int_poly,
                      parse_poly, skew_code_cardinality, spanning_set,
                      standard_form, validate_generators)
from artifact.cli import main
from artifact.galois import int_poly_str
from artifact.reference import (gens_four_four, gens_seven_seven,
                                worked_matrix)
from artifact.textio import emit_gens, emit_matrix

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
    assert [str(e) for e in elems] == [int_poly_str(e.coeffs, "w")
                                       for e in elems]

    def best(fn):
        return min(timeit.repeat(fn, number=1, repeat=7))

    assert best(lambda: [str(e) for e in elems]) <= \
        best(lambda: [int_poly_str(e.coeffs, "w") for e in elems])


# Generator tuples and matrices, drawn from seeded generators.  The
# digests below were recorded before validate_generators and
# derive_cofactors were merged into one case analysis and before the
# pivot scans of standard_form were merged into one helper.  GENS_SHA
# was re-recorded when a refused division began to name its cause, a
# zero divisor or a non-unit leading coefficient, in place of the
# remainder detail; with those details mapped back to the remainder
# text the corpus gives the earlier digest, 715181d5...d33129a.

_MODULI = {1: (1, 1), 2: (1, 1, 1), 3: (3, 1, 2, 1)}
_DIVISIONS = frozenset({
    "f |r x^r-1 (mod 2)", "q |r x^s-1 (mod 2)", "g+2a |r x^s-1",
    "g+2a |r x^s-1, or g |r x^s-1 with a residual (l1, 2q) row",
    "q |r x^s-1 (mod 2), q = h_g*a of the residual row",
    "g |r x^s-1 (mod 2)", "q |r h_g*a (mod 2)"})


class _Draw:
    """Random generator tuples over one skew ring.

    Components are random polynomials or right divisors of ``x^n - 1``,
    the latter drawn from 1, the monic polynomials of degree 1..3 with
    integer coefficients and six random monic ones of degree 2.
    """

    def __init__(self, rng, autom):
        self.rng, self.autom = rng, autom
        ctx = autom.ctx
        self.elems = {True: list(ctx.all_ring_elems()),
                      False: list(ctx.all_field_elems())}
        self.pools = {}

    def poly(self, ring, top):
        """A random polynomial of degree at most ``top``; may be zero."""
        size = self.rng.randint(1, top + 1)
        return SkewPoly(self.autom, [self.rng.choice(self.elems[ring])
                                     for _ in range(size)], ring)

    def divisor(self, n, ring):
        if (n, ring) not in self.pools:
            top = 4 if ring else 2
            cands = [SkewPoly.from_ints(self.autom, [c // top ** i % top
                                                     for i in range(d)]
                                        + [1], ring)
                     for d in (1, 2, 3) for c in range(top ** d)]
            cands += [self.poly(ring, 1) + SkewPoly.x_power(self.autom, 2,
                                                            ring)
                      for _ in range(6)]
            xn1 = SkewPoly.x_pow_minus_one(self.autom, n, ring)
            self.pools[n, ring] = [SkewPoly.one(self.autom, ring)] + [
                d for d in cands if xn1.right_divmod(d)[1].is_zero]
        return self.rng.choice(self.pools[n, ring])

    def maybe(self, make, p=0.75):
        return make() if self.rng.random() < p else None

    def gens(self):
        rng = self.rng
        case = rng.choice(("binary", "i", "ii", "iii"))
        r = rng.randint(1 if case == "binary" else 0, 7)
        s = rng.randint(0 if case == "binary" else 1, 7)
        parts = {}
        if r:
            parts["f"] = self.maybe(lambda: self.divisor(r, False)
                                    if rng.random() < 0.7
                                    else self.poly(False, 3))
        binary = (lambda: self.poly(False, 3)) if r else (lambda: None)
        if case in ("ii", "iii"):
            parts["g"] = self.divisor(s, True) if rng.random() < 0.7 \
                else self.poly(True, 3)
            parts["a"] = self.maybe(lambda: self.poly(True, 2), 0.6)
            parts["l"] = self.maybe(binary, 0.6)
        if case in ("i", "iii"):
            if case == "iii" and rng.random() < 0.4:
                parts["q"] = parts["g"]
            else:
                parts["q"] = self.divisor(s, False).lift() \
                    if rng.random() < 0.7 else self.poly(True, 3)
            parts["l1"] = self.maybe(binary, 0.6)
        return SkewGenerators(autom=self.autom, r=r, s=s, **parts)


def _gens_text(gens):
    report = validate_generators(gens)
    try:
        full = derive_cofactors(gens)
    except NotRightDivisible as exc:
        return f"{report}\nNotRightDivisible: {exc}"
    ss, mat = spanning_set(full)
    slots = ("l1", "q", "h_f", "h_g", "h_q", "k")
    cof = " ".join(f"{n}={getattr(full, n)}" for n in slots)
    return (f"{report}\n{cof} materialized={full.materialized}\n"
            f"rows {len(ss.s1)} {len(ss.s2)} {len(ss.s3)} "
            f"size {skew_code_cardinality(full)}\n{mat}")


def _gens_corpus(count=300, seed=9):
    rng = random.Random(seed)
    draws = [_Draw(rng, AutomorphismSpec(RingContext(m, h), t))
             for m, h in sorted(_MODULI.items()) for t in (1, 2)]
    return [rng.choice(draws).gens() for _ in range(count)]


def _matrix_corpus(count=400, seed=5):
    rng = random.Random(seed)
    ctxs = [RingContext(m, h) for m, h in sorted(_MODULI.items())]
    out = []
    for _ in range(count):
        ctx = rng.choice(ctxs)
        fields, rings = list(ctx.all_field_elems()), list(ctx.all_ring_elems())
        r, s = rng.randint(0, 5), rng.randint(0, 5)
        if r + s == 0:
            s = 1
        rows = []
        for _ in range(rng.randint(1, 6)):
            w = MixedWord(ctx, [rng.choice(fields) for _ in range(r)],
                          [rng.choice(rings) for _ in range(s)])
            rows.append(w.scale(ctx.ring((2,))) if rng.random() < 0.4
                        else w)
        out.append(MixedMatrix(ctx, r, s, rows))
    return out


def _std_text(mat):
    sf = standard_form(mat)
    return (f"{sf.code_type} {sf.bin_perm} {sf.quat_perm}\n{sf.g_std}\n--\n"
            f"{parity_check(sf)}")


GENS_SHA = \
    "121c9e998ec7b6da4515face54191a9fc8fa01b6041bff9d16629b946c129491"
STD_FORM_SHA = \
    "d63882224dd808ce88744c8346efd5d436177095c2d14f45da32842b4f0df637"


def test_generator_tuples_analyse_as_before():
    texts = [_gens_text(g) for g in _gens_corpus()]
    assert {t.split("\n", 1)[0] for t in texts} == {
        "case binary", "case i", "case ii", "case iii"}
    assert sum("NotRightDivisible" in t for t in texts) >= 50
    assert _sha("\n\n".join(texts)) == GENS_SHA


def test_standard_forms_as_before():
    mats = _matrix_corpus()
    assert max(standard_form(m).code_type.k2 for m in mats) >= 2
    assert _sha("\n\n".join(_std_text(m) for m in mats)) == STD_FORM_SHA


@pytest.mark.parametrize("m, t", [(2, 1), (3, 1), (3, 2)])
@given(rng=st.randoms(use_true_random=False))
def test_derive_raises_exactly_on_a_failed_division(m, t, rng):
    gens = _Draw(rng, AutomorphismSpec(RingContext(m, _MODULI[m]), t)).gens()
    report = validate_generators(gens)
    failed = set(report.failed_names()) & _DIVISIONS
    try:
        derive_cofactors(gens)
    except NotRightDivisible:
        assert failed and not report.valid
    else:
        assert not failed


# Expression grammars.  Strings are token soups or sums drawn from the
# three grammars, half of those with one token deleted, inserted or
# replaced; each is parsed as a ring and a field element, a ring and a
# field polynomial at m = 1..3 and once as an integer polynomial.  The
# digest was recorded before the parsers were merged into one
# tokenizer and one signed-sum rule.  It leaves out the two inputs whose
# reading changed on purpose, which have their own tests in
# test_textio.py: integer polynomials with a leading '-', and
# polynomial terms INT*w*x.

_INTS = ("0", "1", "2", "3", "7", "12", "4097")
_PUNCT = ("w", "x", "^", "*", "+", "-", "(", ")")


def _grammar_string(rng):
    def exp(atom):
        k = rng.choice(_INTS[:-1] if rng.random() < 0.95 else _INTS)
        return [atom] if rng.random() < 0.5 else [atom, "^", k]

    def monomial(atom):
        pick = rng.random()
        if pick < 0.3:
            return [rng.choice(_INTS[:6])]
        if pick < 0.6:
            return [rng.choice(_INTS[:6]), "*"] + exp(atom)
        return exp(atom)

    def pterm():
        pick = rng.random()
        if pick < 0.3:
            coef = ["("] + signed_sum(lambda: monomial("w")) + [")"]
        elif pick < 0.6:
            coef = monomial("w")
        else:
            return monomial("x")
        return coef + ["*"] + exp("x") if rng.random() < 0.6 else coef

    def signed_sum(term):
        toks = ["-"] if rng.random() < 0.2 else []
        toks += term()
        for _ in range(rng.randint(0, 3)):
            toks += [rng.choice("+-")] + term()
        return toks

    alphabet = _INTS + _PUNCT + (" ", "\n", "?")
    if rng.random() < 0.3:
        toks = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
    else:
        term = rng.choice((lambda: monomial("w"), lambda: monomial("x"),
                           pterm))
        toks = signed_sum(term)
        if rng.random() < 0.5:
            i = rng.randint(0, len(toks))
            edit = rng.choice(("delete", "insert", "replace"))
            if edit == "insert":
                toks.insert(i, rng.choice(alphabet))
            elif toks and i < len(toks):
                if edit == "delete":
                    del toks[i]
                else:
                    toks[i] = rng.choice(alphabet)
    seps = ("",) * 6 + (" ", "  ", "\n")
    return "".join(t + rng.choice(seps) for t in toks)


def _outcome(parse):
    try:
        return str(parse())
    except ParseError as exc:
        return f"error at {exc.line}:{exc.column}"


def _grammar_outcomes(count=2500, seed=11):
    rng = random.Random(seed)
    auts = [AutomorphismSpec(RingContext(m, h), 1)
            for m, h in sorted(_MODULI.items())]
    out = []
    for _ in range(count):
        text = _grammar_string(rng)
        line, col = (0, 0) if rng.random() < 0.5 else (3, 5)
        squeezed = re.sub(r"\s", "", text)
        if not squeezed.startswith("-"):
            out.append(_outcome(lambda: parse_int_poly(text, line, col)))
        for aut in auts:
            for ring in (True, False):
                out.append(_outcome(lambda: parse_element(
                    text, aut.ctx, ring, line, col)))
                if not re.search(r"\d\*w(\^\d+)?\*", squeezed):
                    out.append(_outcome(lambda: parse_poly(
                        text, aut, ring, line, col)))
    return out


GRAMMAR_SHA = \
    "75c7c5f341c6ea1181a2c7a614e06c1e9c0917d94e96cbb50ec42a39f0d23a74"


def test_expression_grammars_parse_as_before():
    outcomes = _grammar_outcomes()
    errors = sum(o.startswith("error at") for o in outcomes)
    assert errors >= 5000 and len(outcomes) - errors >= 5000
    assert _sha("\n".join(outcomes)) == GRAMMAR_SHA


# Command-line calls, run in-process from a directory that holds the
# input files below, keyed by argv with the sha256 of the repr of
# (exit code, stdout, stderr).  Recorded before the subcommands were
# declared in one table.  The two "span four.gens" entries were
# re-recorded when span began to print the exact cardinality, 16384, in
# place of the cofactor-degree formula's 65536; they were 9a5e1664...
# and 975cf3fb... before.  "span bad.gens" was re-recorded, and its
# JSON form added, when span began to print a failing validation report
# on stdout as validate-gens does; it was 88c312a4... before, with the
# report on stderr.

_CLI_FILES = {
    "code.mat": emit_matrix(worked_matrix()),
    "quat.mat": "m: 2\nh: 1+x+x^2\nr: 0\ns: 4\nrows:\n"
                "| 1 0 1 0\n| 0 1 0 1\n",
    "open.mat": "m: 2\nh: 1+x+x^2\nr: 0\ns: 4\nrows:\n"
                "| 1 0 1 0\n| 0 2 0 2\n",
    "bad.mat": "m: 2\nh: 1+x+x^2\nr: 1\ns: 1\nrows:\n1 | w^\n",
    "seven.gens": emit_gens(gens_seven_seven()),
    "four.gens": emit_gens(gens_four_four()),
    "empty.gens": "m: 2\nh: 1+x+x^2\nr: 2\ns: 2\n",
    "bad.gens": "m: 2\nh: 1+x+x^2\nr: 7\ns: 7\nf: 1+x+x^2\n",
}

CLI_SHA = {
    "ctx-info --m 2":
        "b7b01d03af1e782da6ef8c44a855c92772b1293be9b57ced1ac256628bdeac78",
    "ctx-info --m 2 --format json":
        "b1816bbecf1b2dcc24f3b994972a472299c6ac60d0d56d05cca1b75543ef4d0f",
    "ctx-info --m 3 --h 3+x+2*x^2+x^3":
        "e0ed6a9f20b63024e29ad7b41d1fa699d9d749eb7af4b3d3eda3b006c78921d6",
    "ctx-info --m 2 --h 1+x^2":
        "7cdf8e0b90e321b83c3d77ff80b567e6cfc03305093f8badaca3edc3d3e87ee9",
    "ctx-info --m 5":
        "6ad5bdce5a966f5a2f4754614d3f611253d33d66824e5d7ab0ec88b05b47b140",
    "skew-mul --m 2 (w)*x (1+w)*x":
        "7f787639fd5fbec78a1b64eb37cff43003b968c641174a0c97dc0e18e4e5d1c7",
    "skew-mul --m 2 (w)*x (1+w)*x --format json":
        "393dc7631e7074007a3d1caaa5b83285cfe056b3ea1adfbd4d19e890982227c0",
    "skew-mul --m 3 --t 2 --field (w)*x (1+w)*x^2":
        "e6d8455f0d894045073494648ae1ad7f0a8cf4e109e09d7732c72751dea6d23c",
    "skew-mul --m 2 w^ 1":
        "fe82c9d184072e9f717819a7a6cabffca576c8a8066569f2d4afafe20daa61db",
    "std-form code.mat":
        "6463967cf3efa7175555a0ecb4e4685b2cfe1572460401f9f4cff1fde7e7eb58",
    "std-form code.mat --format json":
        "9d4c37d58e82d36a39bab2829e9f4c069ec155b7670b61302d2658bbb1c35320",
    "std-form bad.mat":
        "75199ca300d748182d2f2037d59b67b7a987247a0f369f8baac3adc950932555",
    "std-form absent.mat":
        "d28c7d2625c6b855969351dfa306bde95991ca6cdb37c19dcc4310b31193496d",
    "dual code.mat":
        "3a5235c9b35f4e9a478b5b66ad1f062ad3c833722681bc5f42523d88d6f31061",
    "dual code.mat --format json":
        "e5373b86d4d5774267ed5420238331f790974d77118129ca3023e6e9033345be",
    "validate-gens seven.gens":
        "40ec806865f428869b6cc1b42be7963f5d3b6090cb04910a24d91f1e378b94c7",
    "validate-gens seven.gens --format json":
        "b7302a0e2f5d21f3706e1b2d83183e7a967d3c45d11348e9cfb678f6fc51ce1f",
    "validate-gens four.gens":
        "bd4a83ab894d759b9f980536ef26afc18622666344e289d43a434767b08bba04",
    "validate-gens bad.gens":
        "b173402789b2fc70b12a24c0e95304b6dddd88066e1263d585f8852e7d63f073",
    "validate-gens bad.gens --format json":
        "0f2d39015bd3f5e53fe679e540969d2ffadd411d733a195a047e7faa1346bdd9",
    "cofactors seven.gens":
        "6e7c91387caaed7f5e993cb5ce268c9e4d9dce3560a25db36fadcc60bff77873",
    "cofactors seven.gens --format json":
        "cb596788cb657ceb76af1c11fb0ef3e89167c39333877c72549fb33820554376",
    "cofactors four.gens":
        "54ae4569d1213a889b65b4bd661972e15abddafa76840e2c638ccfba03ce4b64",
    "span seven.gens":
        "3e39b3256a66def1f6df511e5950a51c05b6b0d00b8bc225f02d9b2b05f06657",
    "span seven.gens --format json":
        "a132486353fdce89f2e792e7f47c7460efbf97b20dee3e5beb76a2b6ee5d70c7",
    "span four.gens":
        "4d9734885182b23828be4f5025c5f5ac434b8600be7f275bfcbcc7b5259a2087",
    "span four.gens --format json":
        "1a2cbfb03dcc913d2b5bed0a94ef6675d6cbdf5212ceaa3eeaff9b4406ca081b",
    "span empty.gens":
        "122a841cd28ba838d94a87f9e5aa74876e65a3ec0f98bccc206b7affb4829f20",
    "span bad.gens":
        "b173402789b2fc70b12a24c0e95304b6dddd88066e1263d585f8852e7d63f073",
    "span bad.gens --format json":
        "0f2d39015bd3f5e53fe679e540969d2ffadd411d733a195a047e7faa1346bdd9",
    "enumerate quat.mat":
        "c170eb2179e88dfdbc2275bef05c2f3cfb782bc893d63a0399309eaa4b670d7b",
    "enumerate quat.mat --format json":
        "fa63660a0127fc391182a6f77987328235f36a922280eeb3f222d41cbadb3196",
    "enumerate quat.mat --words":
        "5545097d784d60c9980430eb341982e74d63001fe14cd270a3a7c37efcdd6589",
    "enumerate quat.mat --budget 10":
        "950106fcef253327a9b9ce9584fffddbc020e9a88f0c81f2d34b518fa7734aa0",
    "is-skew-cyclic quat.mat":
        "0e0bbb9504ae16a921cf78c1da2cbb529104a9209b86f840dab9a49d54d3d918",
    "is-skew-cyclic quat.mat --format json":
        "7f6334a260f0b0333a14f4b08e3d5035384ca96a512f93b9a8ee891f710aefcf",
    "is-skew-cyclic quat.mat --t 0":
        "e347771b361418426af543098d245aa65946228d2b5c29198f0fc59fc88b7cb9",
    "classify-z4 quat.mat":
        "7b1b444ea9633afc5d48962a2be2f65fb602d2786604227f7ace70a3ef56697c",
    "classify-z4 quat.mat --format json":
        "fde386ea2532ec1e03bdd98e74e0e8afe8ebb5f28a1c58cf7a0ee7625edaa80f",
    "classify-z4 open.mat":
        "370f64c54355ed9658ec3165cbf21986eedf1998598812dd3bc1aa79a14e242d",
    "verify-paper":
        "3befa7fed8c5afa106892b5d117fa64efda72014dded6f6d65536c0552567227",
    "verify-paper --format json":
        "480f2fb187ec8754be7efa48ae77b4c62067e37cf4fbcf345e26243631e4e4cd",
}


def _cli_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(
        repr((code, out.getvalue(), err.getvalue())).encode()).hexdigest()


def test_cli_outputs_as_before(tmp_path, monkeypatch):
    for name, text in _CLI_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert {key: _cli_digest(key.split()) for key in CLI_SHA} == CLI_SHA
