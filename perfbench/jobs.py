"""What one job of each kind runs, how it is checked, and its word count.

``RUN[kind](payload, tracer)`` is the timed part: it calls the library
and wraps every call in a span named after the layer it enters.
``CHECK[kind](payload, result)`` runs outside the timed region and
returns a list of problems, empty when the result is right.
``WORDS[kind](payload, result)`` is the number of words the job handled.
"""

from __future__ import annotations

import os
import subprocess
import sys

from artifact import (BudgetExceeded, MixedMatrix, MixedWord, SkewPoly,
                      brute_force_dual, classify_z4_skew_cyclic,
                      derive_cofactors, emit_matrix, is_skew_cyclic,
                      min_hamming_distance, parity_check, parse_gens,
                      parse_matrix, right_divides, span_closure,
                      spanning_set, standard_form, validate_generators)

import witness


# algebra: generator file -> validated tuple -> matrices -> text.

def run_gens(p, tr):
    text = p["text"]
    with tr.span("textio.parse"):
        _, _, gens = parse_gens(text)
    tr.add("textio.bytes", len(text))
    with tr.span("skewcyclic.validate"):
        report = validate_generators(gens)
    tr.add("skewcyclic.validated")
    if not report.valid:
        return {"valid": False}
    tr.add("skewcyclic.valid")
    with tr.span("skewcyclic.cofactors"):
        full = derive_cofactors(gens)
    with tr.span("skewcyclic.spanning_set"):
        _, mat = spanning_set(full)
    with tr.span("mixedcode.standard_form"):
        sf = standard_form(mat)
    with tr.span("mixedcode.parity_check"):
        h = parity_check(sf)
    with tr.span("textio.emit"):
        out = emit_matrix(sf.g_std)
    with tr.span("textio.parse"):
        _, back = parse_matrix(out)
    tr.add("textio.bytes", 2 * len(out))
    return {"valid": True, "rows": len(mat), "sf": sf, "h": h,
            "back": back}


def check_gens(p, res):
    if res["valid"] != p["valid"]:
        return [f"validation said {res['valid']}, expected {p['valid']}"]
    if not res["valid"]:
        return []
    problems = []
    g_std, h = res["sf"].g_std, res["h"]
    zero = (0,) * g_std.ctx.m
    if any(witness.inner(g, v) != zero for g in g_std for v in h):
        problems.append("a parity-check row is not orthogonal")
    if res["back"] != g_std:
        problems.append("parse_matrix(emit_matrix(M)) != M")
    return problems


def words_gens(p, res):
    return res["rows"] + len(res["h"]) if res["valid"] else 0


# algebra: skew products and right divisions.

def run_skew(p, tr):
    out = []
    for f, d, n in p["pairs"]:
        with tr.span("skewpoly.mul"):
            prod = f * d
        with tr.span("skewpoly.divmod"):
            q, r = n.right_divmod(d)
        out.append((prod, q, r))
    return out


def check_skew(p, res):
    problems = []
    for (f, d, n), (prod, q, r) in zip(p["pairs"], res):
        if q * d + r != n or not r.degree < d.degree:
            problems.append(f"q*d + r != n for n={n}, d={d}")
        if prod.right_divmod(d) != (f, SkewPoly.zero(d.autom, d.ring)):
            problems.append(f"(f*d) / d != f for f={f}, d={d}")
    return problems


# algebra: element multiply, inverse and Frobenius.

def run_elem(p, tr):
    autom = p["autom"]
    with tr.span("galois.elem"):
        out = [(a * b, u.inverse(), autom.apply(a))
               for a, b, u in p["elems"]]
    tr.add("galois.elem.ops", 3 * len(out))
    return out


def check_elem(p, res):
    autom = p["autom"]
    h = autom.ctx.h
    one = (1,) + (0,) * (autom.ctx.m - 1)
    problems = []
    for (a, b, u), (ab, inv, fa) in zip(p["elems"], res):
        if ab.coeffs != witness.gr_mul(h, 4, a.coeffs, b.coeffs):
            problems.append(f"{a} * {b} = {ab}")
        if witness.gr_mul(h, 4, u.coeffs, inv.coeffs) != one:
            problems.append(f"{u} * {inv} != 1")
        if fa.coeffs != witness.frobenius(h, 4, a.coeffs, autom.t):
            problems.append(f"theta({a}) = {fa}")
    return problems


# enumerate: plain span, skew closure, shift checks, distance.

def run_span(p, tr):
    autom = p["autom"]
    with tr.span("oracle.span"):
        plain = span_closure(p["rows"])
    with tr.span("oracle.span"):
        skew = span_closure(p["templates"], autom=autom, skew=True)
    tr.add("oracle.span.words", len(plain) + len(skew))
    with tr.span("oracle.skew_check"):
        plain_cyclic = is_skew_cyclic(plain, autom)
        skew_cyclic = is_skew_cyclic(skew, autom)
    with tr.span("oracle.min_distance"):
        dist = min_hamming_distance(skew)
    return {"plain": plain, "skew": skew, "plain_cyclic": plain_cyclic,
            "skew_cyclic": skew_cyclic, "distance": dist}


def check_span(p, res):
    plain, skew = res["plain"], res["skew"]
    problems = []
    m = plain.ctx.m
    expect = standard_form(
        MixedMatrix.from_rows(p["rows"])).code_type.cardinality(m)
    if len(plain) != expect:
        problems.append(f"|span| {len(plain)} != standard-form count "
                        f"{expect}")
    if len(skew) != p["full"]:
        problems.append(f"|skew closure| {len(skew)} != {p['full']}")
    if not witness.is_subset(plain, skew):
        problems.append("the span is not inside its skew closure")
    if not res["skew_cyclic"]:
        problems.append("a skew closure failed is_skew_cyclic")
    if res["plain_cyclic"] != (len(plain) == len(skew)):
        problems.append("is_skew_cyclic disagrees with the closure size")
    if res["distance"] != witness.min_weight(skew):
        problems.append(f"distance {res['distance']} != "
                        f"{witness.min_weight(skew)}")
    return problems


def words_span(p, res):
    return len(res["plain"]) + len(res["skew"])


# enumerate: a span that must stop at its budget.

def run_budget(p, tr):
    with tr.span("oracle.budget_stop"):
        try:
            code = span_closure(p["rows"], budget=p["budget"])
        except BudgetExceeded:
            return {"raised": True}
    return {"raised": False, "size": len(code)}


def check_budget(p, res):
    if res["raised"]:
        return []
    return [f"returned {res['size']} words instead of raising "
            f"BudgetExceeded at budget {p['budget']}"]


# dual: brute-force dual and the quaternary classifier.

def run_dual(p, tr):
    code = p["code"]
    with tr.span("oracle.dual"):
        dual = brute_force_dual(code)
    tr.add("oracle.dual.ambient_words", 1 << code.codec.bits)
    tr.add("oracle.dual.code_words", len(code))
    return {"dual": dual}


def check_dual(p, res):
    code, dual = p["code"], res["dual"]
    problems = []
    if len(code) * len(dual) != 1 << code.codec.bits:
        problems.append(f"|C| * |C^perp| = {len(code)} * {len(dual)} "
                        f"!= 2^{code.codec.bits}")
    sf = standard_form(MixedMatrix.from_rows(p["rows"]))
    for row in parity_check(sf):
        if witness.unpermute(row, sf.bin_perm, sf.quat_perm) not in dual:
            problems.append(f"parity-check row {row} is not in the dual")
    return problems


def words_dual(p, res):
    return 1 << p["code"].codec.bits


def run_classify(p, tr):
    code = p["code"]
    with tr.span("oracle.classify"):
        cls = classify_z4_skew_cyclic(code, p["autom"])
    tr.add("oracle.classify.words", len(code))
    return {"cls": cls}


def check_classify(p, res):
    code, autom, cls = p["code"], p["autom"], res["cls"]
    ctx, s = code.ctx, code.s
    problems = []
    if (cls.case == "i") != witness.all_doubled(code):
        problems.append(f"case {cls.case} but all_doubled is "
                        f"{witness.all_doubled(code)}")

    def row(poly):
        return MixedWord(ctx, [], [poly.coeff(i) for i in range(s)])
    rows = []
    if cls.g is not None:
        lead = cls.g if cls.a is None else cls.g + 2 * cls.a
        rows.append(row(lead))
        if not right_divides(cls.g.mod2(),
                             SkewPoly.x_pow_minus_one(autom, s, False)):
            problems.append(f"g = {cls.g} does not divide x^{s}-1 mod 2")
    if cls.q is not None:
        rows.append(row((2 * cls.q).reduce_mod_xn(s)))
    if span_closure(rows, autom=autom, skew=True) != code:
        problems.append(f"case {cls.case} witnesses do not regenerate")
    return problems


def words_classify(p, res):
    return len(p["code"])


# cli: one cold start of the command line per job.

def spawn(argv, env, out_path):
    """Run ``z24codes`` once; (exit code, stdout, peak RSS in KiB).

    Output goes to a file, not a pipe, so the child can be reaped with
    ``wait4``, which reports that one child's peak RSS.
    """
    with open(out_path, "w+b") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "artifact.cli", *argv],
            stdout=out, stderr=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8")
    return proc.returncode, text, usage.ru_maxrss


def run_cli(p, tr):
    with tr.span(f"cli.command.{p['command']}"):
        code, out, rss = spawn(p["argv"], p["env"], p["out"])
    return {"exit": code, "stdout": out, "rss_kib": rss}


def check_cli(p, res):
    problems = []
    if res["exit"] != p["exit"]:
        problems.append(f"{p['command']} exited {res['exit']}, in-process "
                        f"{p['exit']}")
    if res["stdout"] != p["stdout"]:
        problems.append(f"{p['command']} output differs from in-process")
    return problems


def words_cli(p, res):
    return p["words"]


RUN = {"gens": run_gens, "skew": run_skew, "elem": run_elem,
       "span": run_span, "budget": run_budget, "dual": run_dual,
       "classify": run_classify, "cli": run_cli}
CHECK = {"gens": check_gens, "skew": check_skew, "elem": check_elem,
         "span": check_span, "budget": check_budget, "dual": check_dual,
         "classify": check_classify, "cli": check_cli}
WORDS = {"gens": words_gens, "skew": lambda p, res: 0,
         "elem": lambda p, res: 0, "span": words_span,
         "budget": lambda p, res: 0, "dual": words_dual,
         "classify": words_classify, "cli": words_cli}
