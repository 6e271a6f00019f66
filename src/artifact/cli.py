"""Command line front end.

Each subcommand parses the documented text formats, calls the library
and prints a report.  Exit codes: 0 success, 1 named constraint or
validation failure, 2 parse error (position on stderr), 3 enumeration
budget exceeded.  ``--format json`` mirrors every table as a document
with the same canonical element strings.

Only the commands that enumerate import :mod:`artifact.oracle`, and
with it numpy, so the purely algebraic commands start without it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .errors import (DEFAULT_BUDGET, ArtifactError, BudgetExceeded,
                     CheckFailed, ParseError)
from .galois import AutomorphismSpec, RingContext
from .mixedcode import MixedMatrix, MixedWord, parity_check, standard_form
from .skewcyclic import (derive_cofactors, skew_code_cardinality,
                         spanning_set, validate_generators)
from .skewpoly import SkewPoly, right_divides
from .textio import (emit_matrix, int_poly_str, parse_gens, parse_int_poly,
                     parse_matrix, parse_poly)

__all__ = ["JobConfig", "run", "main"]

# Moduli used when --h is omitted.
_DEFAULT_H = {1: (1, 1), 2: (1, 1, 1), 3: (3, 1, 2, 1)}


@dataclass
class JobConfig:
    """One CLI invocation, fully resolved."""

    command: str
    path: Optional[str] = None
    texts: List[str] = field(default_factory=list)
    m: Optional[int] = None
    h: Optional[str] = None
    t: int = 1
    ring: bool = True
    fmt: str = "table"
    budget: int = DEFAULT_BUDGET
    words: bool = False


def _context(config: JobConfig) -> RingContext:
    if config.m is None:
        raise ArtifactError("--m is required for this command")
    if config.h is not None:
        return RingContext(config.m, parse_int_poly(config.h))
    if config.m in _DEFAULT_H:
        return RingContext(config.m, _DEFAULT_H[config.m])
    raise ArtifactError(f"no default modulus for m={config.m}; pass --h")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(config: JobConfig, table_lines: List[str], doc: dict) -> None:
    if config.fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in table_lines:
            print(line)


def _perm_str(perm) -> str:
    return " ".join(str(i) for i in perm)


def _cmd_ctx_info(config: JobConfig) -> int:
    ctx = _context(config)
    xi = ctx.ring((0, 1)) if ctx.m > 1 else ctx.ring((-ctx.h[0],))
    order = 1
    acc = xi
    while acc != ctx.ring_one():
        acc = acc * xi
        order += 1
    lines = [
        f"m: {ctx.m}",
        f"h: {int_poly_str(ctx.h)}",
        f"ring size: {4 ** ctx.m}",
        f"field size: {2 ** ctx.m}",
        f"units: {ctx.unit_count()}",
        f"order of w: {order}",
    ]
    doc = {"m": ctx.m, "h": int_poly_str(ctx.h), "ring_size": 4 ** ctx.m,
           "field_size": 2 ** ctx.m, "units": ctx.unit_count(),
           "order_of_w": order}
    _emit(config, lines, doc)
    return 0


def _cmd_skew_mul(config: JobConfig) -> int:
    ctx = _context(config)
    autom = AutomorphismSpec(ctx, config.t)
    f = parse_poly(config.texts[0], autom, ring=config.ring)
    g = parse_poly(config.texts[1], autom, ring=config.ring)
    prod = f * g
    _emit(config, [str(prod)], {"product": str(prod)})
    return 0


def _matrix_doc(mat: MixedMatrix) -> dict:
    return {"m": mat.ctx.m, "h": int_poly_str(mat.ctx.h),
            "r": mat.r, "s": mat.s, "rows": [str(w) for w in mat.rows]}


def _cmd_std_form(config: JobConfig) -> int:
    _, mat = parse_matrix(_read(config.path))
    sf = standard_form(mat)
    lines = emit_matrix(sf.g_std).splitlines()
    lines += [
        f"type: {sf.code_type}",
        f"cardinality: {sf.code_type.cardinality(mat.ctx.m)}",
        f"binary permutation: {_perm_str(sf.bin_perm)}",
        f"quaternary permutation: {_perm_str(sf.quat_perm)}",
    ]
    doc = _matrix_doc(sf.g_std)
    doc.update({"type": str(sf.code_type),
                "cardinality": sf.code_type.cardinality(mat.ctx.m),
                "bin_perm": list(sf.bin_perm),
                "quat_perm": list(sf.quat_perm)})
    _emit(config, lines, doc)
    return 0


def _cmd_dual(config: JobConfig) -> int:
    _, mat = parse_matrix(_read(config.path))
    sf = standard_form(mat)
    h = parity_check(sf)
    dtype = sf.code_type.dual()
    lines = emit_matrix(h).splitlines()
    lines += [
        f"type: {dtype}",
        f"cardinality: {dtype.cardinality(mat.ctx.m)}",
        "orthogonality: verified",
    ]
    doc = _matrix_doc(h)
    doc.update({"type": str(dtype),
                "cardinality": dtype.cardinality(mat.ctx.m),
                "orthogonality": "verified"})
    _emit(config, lines, doc)
    return 0


def _cmd_validate_gens(config: JobConfig) -> int:
    _, _, gens = parse_gens(_read(config.path))
    report = validate_generators(gens)
    doc = {"case": report.case, "valid": report.valid,
           "checks": [{"name": c.name, "passed": c.passed,
                       "detail": c.detail} for c in report.checks],
           "notes": list(report.notes)}
    _emit(config, str(report).splitlines(), doc)
    return 0 if report.valid else 1


def _cmd_cofactors(config: JobConfig) -> int:
    _, _, gens = parse_gens(_read(config.path))
    full = derive_cofactors(gens)
    pairs = [(name, getattr(full, name))
             for name in ("h_f", "h_g", "h_q", "k")]
    lines = [f"{name}: {poly}" for name, poly in pairs if poly is not None]
    doc = {name: str(poly) for name, poly in pairs if poly is not None}
    if full.materialized:
        lines.append(f"l1: {full.l1}")
        lines.append(f"q: {full.q}")
        lines.append("residual row: materialised")
        doc.update({"l1": str(full.l1), "q": str(full.q),
                    "materialized": True})
    _emit(config, lines, doc)
    return 0


def _cmd_span(config: JobConfig) -> int:
    _, _, gens = parse_gens(_read(config.path))
    report = validate_generators(gens)
    if not report.valid:
        print(str(report), file=sys.stderr)
        return 1
    full = derive_cofactors(gens)
    _, mat = spanning_set(full)
    card = skew_code_cardinality(full)
    lines = emit_matrix(mat).splitlines()
    lines.append(f"cardinality: {card}")
    doc = _matrix_doc(mat)
    doc["cardinality"] = card
    _emit(config, lines, doc)
    return 0


def _cmd_enumerate(config: JobConfig) -> int:
    from .oracle import span_closure
    ctx, mat = parse_matrix(_read(config.path))
    code = span_closure(list(mat.rows), budget=config.budget,
                        ctx=ctx, r=mat.r, s=mat.s)
    lines = [f"count: {len(code)}"]
    doc = {"count": len(code)}
    if config.words:
        words = [str(w) for w in code]
        lines.extend(words)
        doc["words"] = words
    _emit(config, lines, doc)
    return 0


def _cmd_is_skew_cyclic(config: JobConfig) -> int:
    from .oracle import is_skew_cyclic, span_closure
    ctx, mat = parse_matrix(_read(config.path))
    autom = AutomorphismSpec(ctx, config.t)
    code = span_closure(list(mat.rows), budget=config.budget,
                        ctx=ctx, r=mat.r, s=mat.s)
    flag = is_skew_cyclic(code, autom)
    _emit(config, [f"skew cyclic: {'yes' if flag else 'no'}"],
          {"skew_cyclic": flag})
    return 0


def _cmd_classify_z4(config: JobConfig) -> int:
    from .oracle import classify_z4_skew_cyclic, span_closure
    ctx, mat = parse_matrix(_read(config.path))
    autom = AutomorphismSpec(ctx, config.t)
    code = span_closure(list(mat.rows), budget=config.budget,
                        ctx=ctx, r=mat.r, s=mat.s)
    cls = classify_z4_skew_cyclic(code, autom, budget=config.budget)
    lines = [f"case: {cls.case}"]
    doc = {"case": cls.case}
    for name in ("g", "a", "q"):
        poly = getattr(cls, name)
        if poly is not None:
            lines.append(f"{name}: {poly}")
            doc[name] = str(poly)
    _emit(config, lines, doc)
    return 0


# Reference data for the verify-paper command: the worked examples the
# library is expected to reproduce exactly.

def _expect(actual, expected):
    """Raise CheckFailed unless a computed value equals its reference."""
    if actual != expected:
        raise CheckFailed(f"got {actual!r}, expected {expected!r}")


def _reference_checks():
    ctx = RingContext(2, (1, 1, 1))
    autom = AutomorphismSpec(ctx, 1)
    F, R = ctx.field, ctx.ring

    def W(alpha, beta):
        return MixedWord(ctx, [F(a) for a in alpha], [R(b) for b in beta])

    def mat_4x5():
        return MixedMatrix.from_rows([
            W([(1,), (1, 1)], [(2, 2), (2,), (2,)]),
            W([(0, 1), (0,)], [(0, 2), (0,), (2,)]),
            W([(0, 1), (1,)], [(2, 1), (1, 3), (0,)]),
            W([(0,), (1, 1)], [(0, 2), (2,), (1,)]),
        ])

    def std_4x5():
        return MixedMatrix.from_rows([
            W([(1,), (0,)], [(0,), (0,), (0, 2)]),
            W([(0,), (1,)], [(0,), (0,), (2, 2)]),
            W([(0,), (0,)], [(1,), (0,), (0, 3)]),
            W([(0,), (0,)], [(0,), (1,), (0,)]),
        ])

    def gens_r7s7():
        from .skewcyclic import SkewGenerators
        return SkewGenerators(
            autom=autom, r=7, s=7,
            f=SkewPoly.from_ints(autom, [1, 1, 0, 1], False),
            l=SkewPoly.from_ints(autom, [1, 0, 1], False),
            g=SkewPoly.from_ints(autom, [1, 2, 3, 1, 1], True),
            a=SkewPoly.from_ints(autom, [3, 1], True))

    def gens_r4s4():
        from .skewcyclic import SkewGenerators
        return SkewGenerators(
            autom=autom, r=4, s=4,
            f=SkewPoly(autom, [F((0, 1)), F((1, 1)), F((1,))], False),
            l=SkewPoly.from_ints(autom, [1], False),
            l1=SkewPoly(autom, [F((0, 1)), F((0, 1))], False),
            g=SkewPoly.from_ints(autom, [1, 0, 1], True),
            a=SkewPoly(autom, [R((0, 1))], True),
            q=SkewPoly.from_ints(autom, [1, 0, 1], True))

    def check_context():
        _expect(ctx.m, 2)

    def check_xi_square_product():
        xi = R((0, 1))
        _expect(R((1, 1)) * xi * xi, R((0, 3)))

    def check_frobenius():
        _expect(autom.apply(R((1, 1))), R((0, 3)))

    def check_product_forward():
        f = SkewPoly(autom, [R((0,)), R((0, 1))], True)
        g = SkewPoly(autom, [R((0,)), R((1, 1))], True)
        _expect(str(f * g), "(1+w)*x^2")

    def check_product_reverse():
        f = SkewPoly(autom, [R((0,)), R((0, 1))], True)
        g = SkewPoly(autom, [R((0,)), R((1, 1))], True)
        _expect(str(g * f), "(3*w)*x^2")

    def check_products_differ():
        f = SkewPoly(autom, [R((0,)), R((0, 1))], True)
        g = SkewPoly(autom, [R((0,)), R((1, 1))], True)
        _expect(f * g == g * f, False)

    def check_binary_division():
        num = SkewPoly.x_pow_minus_one(autom, 7, False)
        den = SkewPoly.from_ints(autom, [1, 1, 0, 1], False)
        quo, rem = num.right_divmod(den)
        _expect(rem.is_zero, True)
        _expect(quo, SkewPoly.from_ints(autom, [1, 1, 1, 0, 1], False))

    def check_quaternary_division():
        num = SkewPoly.x_pow_minus_one(autom, 4, True)
        den = SkewPoly.from_ints(autom, [1, 0, 1], True)
        quo, rem = num.right_divmod(den)
        _expect(rem.is_zero, True)
        _expect(quo, SkewPoly.from_ints(autom, [3, 0, 1], True))

    def check_linear_right_factor():
        den = SkewPoly.from_ints(autom, [3, 1], True)
        _expect(right_divides(den, SkewPoly.x_pow_minus_one(autom, 7, True)),
                True)

    def check_quadratic_right_factor():
        den = SkewPoly(autom, [R((1,)), R((0, 2)), R((1,))], True)
        _expect(right_divides(den, SkewPoly.x_pow_minus_one(autom, 4, True)),
                True)

    def check_standard_form():
        sf = standard_form(mat_4x5())
        _expect(sf.g_std.rows, std_4x5().rows)
        _expect(str(sf.code_type), "(2,3;2;2,0)")

    def check_cardinality():
        sf = standard_form(mat_4x5())
        _expect(sf.code_type.cardinality(2), 4096)

    def check_dual_type():
        sf = standard_form(mat_4x5())
        dt = sf.code_type.dual()
        _expect((str(dt), dt.cardinality(2)), ("(2,3;0;1,0)", 16))

    def check_dual_row():
        sf = standard_form(mat_4x5())
        h = parity_check(sf)
        _expect(h.rows, (W([(0, 1), (1, 1)], [(0, 1), (0,), (1,)]),))

    def check_brute_dual():
        from .oracle import brute_force_dual, span_closure
        sf = standard_form(mat_4x5())
        h = parity_check(sf)
        code = span_closure(list(sf.g_std.rows))
        dual = brute_force_dual(code)
        _expect(len(dual), 16)
        _expect(dual == span_closure(list(h.rows)), True)

    def check_validate_r7s7():
        rep = validate_generators(gens_r7s7())
        _expect((rep.valid, rep.case), (True, "ii"))

    def check_cofactors_r7s7():
        full = derive_cofactors(gens_r7s7())
        _expect(full.h_f, SkewPoly.from_ints(autom, [1, 1, 1, 0, 1], False))
        _expect(full.h_g, SkewPoly.from_ints(autom, [3, 2, 3, 1], True))
        _expect(full.l1,
                SkewPoly.from_ints(autom, [1, 0, 0, 1, 1, 1], False))
        _expect(full.q, SkewPoly.from_ints(autom, [1, 1, 1, 0, 1], True))

    def check_spanning_r7s7():
        _, mat = spanning_set(derive_cofactors(gens_r7s7()))
        rows = [
            ([1, 1, 0, 1, 0, 0, 0], [0] * 7),
            ([0, 1, 1, 0, 1, 0, 0], [0] * 7),
            ([0, 0, 1, 1, 0, 1, 0], [0] * 7),
            ([0, 0, 0, 1, 1, 0, 1], [0] * 7),
            ([1, 0, 1, 0, 0, 0, 0], [3, 0, 3, 1, 1, 0, 0]),
            ([0, 1, 0, 1, 0, 0, 0], [0, 3, 0, 3, 1, 1, 0]),
            ([0, 0, 1, 0, 1, 0, 0], [0, 0, 3, 0, 3, 1, 1]),
            ([1, 0, 0, 1, 1, 1, 0], [2, 2, 2, 0, 2, 0, 0]),
            ([0, 1, 0, 0, 1, 1, 1], [0, 2, 2, 2, 0, 2, 0]),
            ([1, 0, 1, 0, 0, 1, 1], [0, 0, 2, 2, 2, 0, 2]),
        ]
        _expect(mat.rows,
                tuple(MixedWord.from_ints(ctx, al, be) for al, be in rows))

    def check_validate_r4s4():
        rep = validate_generators(gens_r4s4())
        _expect((rep.valid, rep.case), (True, "iii"))

    def check_cofactors_r4s4():
        full = derive_cofactors(gens_r4s4())
        _expect(full.k, SkewPoly(autom, [F((0, 1))], False))
        _expect(full.h_q, SkewPoly.from_ints(autom, [1, 0, 1], False))

    def check_spanning_r4s4():
        _, mat = spanning_set(derive_cofactors(gens_r4s4()))
        x1, x2 = (0, 1), (1, 1)
        _expect(mat.rows, (
            W([x1, x2, (1,), (0,)], [(0,)] * 4),
            W([(0,), x2, x1, (1,)], [(0,)] * 4),
            W([(1,), (0,), (0,), (0,)], [(1, 2), (0,), (1,), (0,)]),
            W([(0,), (1,), (0,), (0,)], [(0,), (3, 2), (0,), (1,)]),
            W([x1, x1, (0,), (0,)], [(2,), (0,), (2,), (0,)]),
            W([(0,), x2, x2, (0,)], [(0,), (2,), (0,), (2,)]),
        ))

    return [
        ("context accepts m=2, h=1+x+x^2", check_context),
        ("(1+w)*w^2 equals 3*w", check_xi_square_product),
        ("frobenius maps 1+w to 3*w", check_frobenius),
        ("skew product (w)*x times (1+w)*x is (1+w)*x^2",
         check_product_forward),
        ("skew product (1+w)*x times (w)*x is (3*w)*x^2",
         check_product_reverse),
        ("the two skew products differ", check_products_differ),
        ("binary cofactor of 1+x+x^3 in x^7-1 is 1+x+x^2+x^4",
         check_binary_division),
        ("quaternary cofactor of 1+x^2 in x^4-1 is 3+x^2",
         check_quaternary_division),
        ("3+x right-divides x^7-1", check_linear_right_factor),
        ("1+(2*w)*x+x^2 right-divides x^4-1", check_quadratic_right_factor),
        ("reference 4x5 matrix reduces to its standard form, type "
         "(2,3;2;2,0)", check_standard_form),
        ("type (2,3;2;2,0) counts 4096 words at m=2", check_cardinality),
        ("dual type is (2,3;0;1,0) with 16 words", check_dual_type),
        ("derived dual row is w 1+w | w 0 1", check_dual_row),
        ("brute-force dual equals the span of the derived row",
         check_brute_dual),
        ("seven-seven generator tuple validates as case ii",
         check_validate_r7s7),
        ("seven-seven cofactors and residual row match",
         check_cofactors_r7s7),
        ("seven-seven spanning matrix matches all 10 rows",
         check_spanning_r7s7),
        ("four-four generator tuple validates as case iii",
         check_validate_r4s4),
        ("four-four cofactors k and h_q match", check_cofactors_r4s4),
        ("four-four spanning matrix matches all 6 rows",
         check_spanning_r4s4),
    ]


def _cmd_verify_paper(config: JobConfig) -> int:
    results = []
    for name, fn in _reference_checks():
        try:
            fn()
            results.append((name, True, None))
        except ArtifactError as exc:
            results.append((name, False, str(exc)))
    lines = []
    doc = {"checks": [], "all_passed": all(ok for _, ok, _ in results)}
    for name, ok, detail in results:
        mark = "pass" if ok else "FAIL"
        lines.append(f"[{mark}] {name}" + (f" ({detail})" if detail else ""))
        doc["checks"].append({"name": name, "passed": ok, "detail": detail})
    _emit(config, lines, doc)
    return 0 if doc["all_passed"] else 1


_COMMANDS = {
    "ctx-info": _cmd_ctx_info,
    "skew-mul": _cmd_skew_mul,
    "std-form": _cmd_std_form,
    "dual": _cmd_dual,
    "validate-gens": _cmd_validate_gens,
    "cofactors": _cmd_cofactors,
    "span": _cmd_span,
    "enumerate": _cmd_enumerate,
    "is-skew-cyclic": _cmd_is_skew_cyclic,
    "classify-z4": _cmd_classify_z4,
    "verify-paper": _cmd_verify_paper,
}


def run(config: JobConfig) -> int:
    """Dispatch one resolved invocation; returns the exit code."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        print(f"unknown command {config.command!r}", file=sys.stderr)
        return 1
    try:
        return handler(config)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ArtifactError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z24codes",
        description="Mixed binary/quaternary codes over Galois rings: "
                    "standard forms, duals, skew cyclic spanning sets and "
                    "brute-force checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, path=False, texts=0, ctx=False, t=False, budget=False):
        if path:
            p.add_argument("path", help="input file")
        for i in range(texts):
            p.add_argument(f"text{i + 1}", help="expression")
        if ctx:
            p.add_argument("--m", type=int, required=True,
                           help="extension degree")
            p.add_argument("--h", help="modulus polynomial in x "
                                       "(defaults exist for m <= 3)")
        if t:
            p.add_argument("--t", type=int, default=1,
                           help="automorphism power (default 1)")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="enumeration word budget")
        p.add_argument("--format", choices=("table", "json"),
                       default="table", help="output format")

    p = sub.add_parser("ctx-info", help="validate a modulus and describe "
                                        "the ring")
    common(p, ctx=True)
    p = sub.add_parser("skew-mul", help="multiply two skew polynomials")
    common(p, texts=2, ctx=True, t=True)
    p.add_argument("--field", action="store_true",
                   help="work over the residue field instead of the ring")
    p = sub.add_parser("std-form", help="standard form of a matrix file")
    common(p, path=True)
    p = sub.add_parser("dual", help="parity-check matrix of a matrix file")
    common(p, path=True)
    p = sub.add_parser("validate-gens", help="check a generator file")
    common(p, path=True)
    p = sub.add_parser("cofactors", help="derive cofactors of a generator "
                                         "file")
    common(p, path=True)
    p = sub.add_parser("span", help="spanning-set matrix of a generator "
                                    "file")
    common(p, path=True)
    p = sub.add_parser("enumerate", help="enumerate the span of a matrix "
                                         "file")
    common(p, path=True, budget=True)
    p.add_argument("--words", action="store_true", help="print every word")
    p = sub.add_parser("is-skew-cyclic", help="test skew-shift closure of "
                                              "the span of a matrix file")
    common(p, path=True, t=True, budget=True)
    p = sub.add_parser("classify-z4", help="classify the span of a "
                                           "quaternary matrix file")
    common(p, path=True, t=True, budget=True)
    p = sub.add_parser("verify-paper", help="run the built-in reference "
                                            "checks")
    common(p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    config = JobConfig(
        command=args.command,
        path=getattr(args, "path", None),
        texts=[getattr(args, f"text{i}") for i in (1, 2)
               if hasattr(args, f"text{i}")],
        m=getattr(args, "m", None),
        h=getattr(args, "h", None),
        t=getattr(args, "t", 1),
        ring=not getattr(args, "field", False),
        fmt=getattr(args, "format", "table"),
        budget=getattr(args, "budget", DEFAULT_BUDGET),
        words=getattr(args, "words", False),
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
