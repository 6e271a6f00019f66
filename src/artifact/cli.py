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

from .errors import DEFAULT_BUDGET, ArtifactError, BudgetExceeded, ParseError
from .galois import AutomorphismSpec, RingContext
from .mixedcode import MixedMatrix, parity_check, standard_form
from .reference import checks
from .skewcyclic import (derive_cofactors, skew_code_cardinality,
                         spanning_set, validate_generators)
from .textio import (emit_matrix, int_poly_str, parse_element, parse_gens,
                     parse_int_poly, parse_matrix, parse_poly)

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
    xi = parse_element("w", ctx)
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


def _cmd_verify_paper(config: JobConfig) -> int:
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
