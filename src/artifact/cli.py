"""Command line front end.

Each subcommand parses the documented text formats, calls the library
and returns its exit code, table lines and JSON document; ``_COMMANDS``
declares each one once, and one loop builds the parser from it.
:func:`main` alone prints the report in the chosen format and turns the
named errors into exit codes: 0 success, 1 named constraint or
validation failure, 2 parse error (position on stderr), 3 enumeration
budget exceeded.  Table and JSON use the same canonical element strings.

Only ``enumerate``, ``classify-z4`` and ``verify-paper`` load
:mod:`artifact.oracle`, and with it numpy, so the algebraic commands,
``is-skew-cyclic`` among them, start without it.  Likewise only
``verify-paper`` loads :mod:`artifact.reference`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (DEFAULT_BUDGET, ArtifactError, BudgetExceeded, NotMonic,
                     ParseError)
from .galois import AutomorphismSpec, RingContext, int_poly_str
from .mixedcode import parity_check, standard_form
from .skewcyclic import (analyse_generators, derive_cofactors,
                         skew_closed, spanning_set, validate_generators)
from .textio import (emit_matrix, parse_element, parse_gens, parse_int_poly,
                     parse_matrix, parse_poly)

__all__ = ["main"]

# Moduli used when --h is omitted.
_DEFAULT_H = {1: (1, 1), 2: (1, 1, 1), 3: (3, 1, 2, 1)}


def _context(args) -> RingContext:
    if args.h is not None:
        return RingContext(args.m, parse_int_poly(args.h))
    try:
        # RingContext checks m before h, so it names a degree out of range.
        return RingContext(args.m, _DEFAULT_H.get(args.m, ()))
    except NotMonic:
        raise ArtifactError(
            f"no default modulus for m={args.m}; pass --h") from None


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _report(facts, mat=None):
    """Exit 0 with ``mat``, if given, followed by ``(label, key, value)``
    facts; a list value prints space-separated in the table."""
    lines, doc = [], {}
    if mat is not None:
        lines = emit_matrix(mat).splitlines()
        doc = {"m": mat.ctx.m, "h": int_poly_str(mat.ctx.h), "r": mat.r,
               "s": mat.s, "rows": [str(w) for w in mat.rows]}
    for label, key, value in facts:
        shown = " ".join(map(str, value)) if isinstance(value, list) \
            else value
        lines.append(f"{label}: {shown}")
        doc[key] = value
    return 0, lines, doc


def _poly_facts(obj, names):
    """Facts for the polynomials among ``names`` that ``obj`` has set."""
    return [(name, name, str(getattr(obj, name))) for name in names
            if getattr(obj, name) is not None]


def _span(args, t=1):
    """The span of the matrix file under ``--budget``, and the skew ring
    of power ``t``, checked before anything is enumerated."""
    from .oracle import span_closure
    ctx, mat = parse_matrix(_read(args.path))
    autom = AutomorphismSpec(ctx, t)
    return span_closure(mat, budget=args.budget), autom


def _cmd_ctx_info(args):
    ctx = _context(args)
    xi = parse_element("w", ctx)
    order, acc = 1, xi
    while acc != ctx.ring_one():
        acc = acc * xi
        order += 1
    return _report([("m", "m", ctx.m), ("h", "h", int_poly_str(ctx.h)),
                    ("ring size", "ring_size", 4 ** ctx.m),
                    ("field size", "field_size", 2 ** ctx.m),
                    ("units", "units", ctx.unit_count()),
                    ("order of w", "order_of_w", order)])


def _cmd_skew_mul(args):
    autom = AutomorphismSpec(_context(args), args.t)
    f = parse_poly(args.text1, autom, ring=not args.field)
    g = parse_poly(args.text2, autom, ring=not args.field)
    prod = f * g
    return 0, [str(prod)], {"product": str(prod)}


def _cmd_std_form(args):
    _, mat = parse_matrix(_read(args.path))
    sf = standard_form(mat)
    return _report([("type", "type", str(sf.code_type)),
                    ("cardinality", "cardinality",
                     sf.code_type.cardinality(mat.ctx.m)),
                    ("binary permutation", "bin_perm", list(sf.bin_perm)),
                    ("quaternary permutation", "quat_perm",
                     list(sf.quat_perm))], sf.g_std)


def _cmd_dual(args):
    _, mat = parse_matrix(_read(args.path))
    sf = standard_form(mat)
    dtype = sf.code_type.dual()
    return _report([("type", "type", str(dtype)),
                    ("cardinality", "cardinality",
                     dtype.cardinality(mat.ctx.m)),
                    ("orthogonality", "orthogonality", "verified")],
                   parity_check(sf))


def _validation(report):
    """A validation report's lines: exit 0 when valid, else 1."""
    doc = {"case": report.case, "valid": report.valid,
           "checks": [{"name": c.name, "passed": c.passed,
                       "detail": c.detail} for c in report.checks],
           "notes": list(report.notes)}
    return (0 if report.valid else 1), str(report).splitlines(), doc


def _cmd_validate_gens(args):
    _, _, gens = parse_gens(_read(args.path))
    return _validation(validate_generators(gens))


def _cmd_cofactors(args):
    _, _, gens = parse_gens(_read(args.path))
    full = derive_cofactors(gens)
    names = ("h_f", "h_g", "h_q", "k")
    if full.materialized:
        names += ("l1", "q")
    status, lines, doc = _report(_poly_facts(full, names))
    if full.materialized:
        lines.append("residual row: materialised")
        doc["materialized"] = True
    return status, lines, doc


def _cmd_span(args):
    _, _, gens = parse_gens(_read(args.path))
    report, full, _ = analyse_generators(gens)
    status, lines, doc = _validation(report)
    if status:
        return status, lines, doc
    _, mat = spanning_set(full)
    # Exact, where skew_code_cardinality overcounts dependent rows.
    card = standard_form(mat).code_type.cardinality(mat.ctx.m)
    return _report([("cardinality", "cardinality", card)], mat)


def _cmd_enumerate(args):
    span, _ = _span(args)
    status, lines, doc = _report([("count", "count", len(span))])
    if args.words:
        doc["words"] = [str(w) for w in span]
        lines += doc["words"]
    return status, lines, doc


def _cmd_is_skew_cyclic(args):
    ctx, mat = parse_matrix(_read(args.path))
    flag = skew_closed(mat, AutomorphismSpec(ctx, args.t))
    return 0, [f"skew cyclic: {'yes' if flag else 'no'}"], \
        {"skew_cyclic": flag}


def _cmd_classify_z4(args):
    from .oracle import classify_z4_skew_cyclic
    span, autom = _span(args, args.t)
    cls = classify_z4_skew_cyclic(span, autom)
    return _report([("case", "case", cls.case)]
                   + _poly_facts(cls, ("g", "a", "q")))


def _cmd_verify_paper(args):
    from .reference import checks
    lines, entries = [], []
    for name, compute, expected in checks():
        try:
            actual = compute()
            detail = (f"got {actual!r}, expected {expected!r}"
                      if actual != expected else None)
        except ArtifactError as exc:
            detail = str(exc)
        ok = detail is None
        lines.append(f"[{'pass' if ok else 'FAIL'}] {name}"
                     + (f" ({detail})" if detail else ""))
        entries.append({"name": name, "passed": ok, "detail": detail})
    doc = {"checks": entries, "all_passed": all(e["passed"] for e in entries)}
    return (0 if doc["all_passed"] else 1), lines, doc


# name: (handler, help, inputs); the inputs are path, texts (text1 and
# text2), ctx (--m and --h), t, budget, field and words.
_COMMANDS = {
    "ctx-info": (_cmd_ctx_info,
                 "validate a modulus and describe the ring", "ctx"),
    "skew-mul": (_cmd_skew_mul, "multiply two skew polynomials",
                 "texts ctx t field"),
    "std-form": (_cmd_std_form, "standard form of a matrix file", "path"),
    "dual": (_cmd_dual, "parity-check matrix of a matrix file", "path"),
    "validate-gens": (_cmd_validate_gens, "check a generator file", "path"),
    "cofactors": (_cmd_cofactors, "derive cofactors of a generator file",
                  "path"),
    "span": (_cmd_span, "spanning-set matrix of a generator file", "path"),
    "enumerate": (_cmd_enumerate, "enumerate the span of a matrix file",
                  "path budget words"),
    "is-skew-cyclic": (_cmd_is_skew_cyclic, "test skew-shift closure of "
                       "the span of a matrix file", "path t"),
    "classify-z4": (_cmd_classify_z4, "classify the span of a quaternary "
                    "matrix file", "path t budget"),
    "verify-paper": (_cmd_verify_paper, "run the built-in reference checks",
                     ""),
}


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"invalid positive int value: {text!r}")
    return value


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it rejects arguments it does not know
    itself, so the error shows its own usage line, not the root's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z24codes",
        description="Mixed binary/quaternary codes over Galois rings: "
                    "standard forms, duals, skew cyclic spanning sets and "
                    "brute-force checks.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)
    for name, (handler, help_text, inputs) in _COMMANDS.items():
        inputs = inputs.split()
        p = sub.add_parser(name, help=help_text)
        if "path" in inputs:
            p.add_argument("path", help="input file")
        if "texts" in inputs:
            p.add_argument("text1", help="expression")
            p.add_argument("text2", help="expression")
        if "ctx" in inputs:
            p.add_argument("--m", type=int, required=True,
                           help="extension degree")
            p.add_argument("--h", help="modulus polynomial in x "
                                       "(defaults exist for m <= 3)")
        if "t" in inputs:
            p.add_argument("--t", type=int, default=1,
                           help="automorphism power (default 1)")
        if "budget" in inputs:
            p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                           help="enumeration word budget, a positive int")
        p.add_argument("--format", choices=("table", "json"),
                       default="table", help="output format")
        if "field" in inputs:
            p.add_argument("--field", action="store_true",
                           help="work over the residue field instead of "
                                "the ring")
        if "words" in inputs:
            p.add_argument("--words", action="store_true",
                           help="print every word")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    """Run one ``z24codes`` invocation; returns the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        code, lines, doc = args.handler(args)
        if args.format == "json":
            lines = [json.dumps(doc, indent=2)]
        for line in lines:
            print(line)
        return code
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


if __name__ == "__main__":
    sys.exit(main())
