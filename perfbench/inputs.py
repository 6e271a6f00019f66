"""Seeded inputs for the benchmark workloads.

Everything here runs before timing starts.  A workload's inputs are a
pure function of its name and the ``--seed`` value: the generators draw
from one ``random.Random`` and hand the library nothing but the values
they produce.  Generation may call the library (to find right divisors
with ``right_divides``, or to enumerate a code that a job then takes as
its input); those calls are never timed or traced.

A workload is one round, a list of ``(kind, payload)`` jobs that the
timed loop repeats.  Its composition is fixed: the seed picks the
contents of each job, never the sizes or how many jobs of each size
the round holds, so different seeds cost about the same per round.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

from artifact import (AutomorphismSpec, MixedMatrix, MixedWord,
                      RingContext, SkewGenerators, SkewPoly, emit_gens,
                      emit_matrix, right_divides, span_closure,
                      spanning_set, derive_cofactors)
from artifact import cli as artifact_cli

# The moduli the command line uses by default, one per extension degree.
MODULI = {1: (1, 1), 2: (1, 1, 1), 3: (3, 1, 2, 1)}

# (m, t) pairs each workload builds during set-up.
CONTEXT_SPECS = {
    "algebra": [(2, 1), (2, 2), (3, 1), (3, 2)],
    "enumerate": [(2, 1), (3, 1), (3, 2)],
    "dual": [(1, 1), (2, 1), (3, 1)],
    "cli": [(2, 1), (2, 2), (3, 1), (3, 2)],
}

def build_contexts(specs):
    """``{(m, t): AutomorphismSpec}`` for the given pairs."""
    ctxs = {}
    for m, _ in specs:
        if m not in ctxs:
            ctxs[m] = RingContext(m, MODULI[m])
    return {(m, t): AutomorphismSpec(ctxs[m], t) for m, t in specs}


# Elements and polynomials.

def rand_ring(rng, ctx):
    return ctx.ring_from_index(rng.randrange(4 ** ctx.m))


def rand_field(rng, ctx):
    return ctx.field_from_index(rng.randrange(2 ** ctx.m))


def rand_unit(rng, ctx):
    """A ring element whose residue is nonzero, hence a unit."""
    while True:
        e = rand_ring(rng, ctx)
        if e.is_unit():
            return e


def rand_poly(rng, autom, deg, ring, unit_lead=False):
    ctx = autom.ctx
    make = rand_ring if ring else rand_field
    coeffs = [make(rng, ctx) for _ in range(deg)]
    if ring:
        lead = rand_unit(rng, ctx) if unit_lead else rand_ring(rng, ctx)
    else:
        lead = ctx.field_from_index(rng.randrange(1, 2 ** ctx.m))
    return SkewPoly(autom, coeffs + [lead], ring)


def _peel(rng, autom, n, d, ring):
    """A product of ``d`` monic linear right factors of ``x^n - 1``."""
    ctx = autom.ctx
    cof = SkewPoly.x_pow_minus_one(autom, n, ring)
    g = SkewPoly.one(autom, ring)
    size = 4 ** ctx.m if ring else 2 ** ctx.m
    make = ctx.ring_from_index if ring else ctx.field_from_index
    one = ctx.ring_one() if ring else ctx.field_one()
    for _ in range(d):
        cands = list(range(size))
        rng.shuffle(cands)
        for c in cands:
            lin = SkewPoly(autom, [make(c), one], ring)
            quo, rem = cof.right_divmod(lin)
            if rem.is_zero:
                g, cof = lin * g, quo
                break
        else:
            return None, None
    return g, cof


def divisor(rng, autom, n, d, ring):
    """A monic right divisor of degree ``d`` of ``x^n - 1``.

    Found by peeling off ``d`` linear right factors, or as the cofactor
    of a peeled divisor of degree ``n - d``.  Every candidate is
    confirmed with ``right_divides`` before it is returned.
    """
    target = SkewPoly.x_pow_minus_one(autom, n, ring)
    for _ in range(10):
        for g in (_peel(rng, autom, n, d, ring)[0],
                  _peel(rng, autom, n, n - d, ring)[1]):
            if g is not None and g.degree == d and right_divides(g, target):
                return g
    raise ValueError(f"no right divisor of degree {d} of x^{n}-1 found "
                     f"(m={autom.ctx.m}, t={autom.t}, ring={ring})")


# Matrices.

def mix_rows(rng, rows, ops):
    """Apply random invertible row operations; the span is unchanged."""
    ctx = rows[0].ctx
    rows = [w.scale(rand_unit(rng, ctx)) for w in rows]
    for _ in range(ops):
        i, j = rng.sample(range(len(rows)), 2)
        rows[i] = rows[i] + rows[j].scale(rand_ring(rng, ctx))
    rng.shuffle(rows)
    return rows


def random_code(rng, ctx, r, s, k0, k1, k2):
    """Rows of a random code of type ``(r,s;k0;k1,k2)``, mixed.

    The rows start in standard block shape, so the span has exactly
    ``2^(m(k0 + 2 k1 + k2))`` words; random columns and row operations
    then hide the shape.
    """
    fz, rz = ctx.field_zero(), ctx.ring_zero()
    two = ctx.ring((2,))
    rows = []
    for i in range(k0):
        alpha = [ctx.field_one() if c == i else fz for c in range(k0)]
        alpha += [rand_field(rng, ctx) for _ in range(r - k0)]
        beta = [rz] * (k1 + k2)
        beta += [two * rand_field(rng, ctx).lift()
                 for _ in range(s - k1 - k2)]
        rows.append(MixedWord(ctx, alpha, beta))
    for i in range(k1):
        alpha = [fz] * k0 + [rand_field(rng, ctx) for _ in range(r - k0)]
        beta = [ctx.ring_one() if c == i else rz for c in range(k1)]
        beta += [rand_ring(rng, ctx) for _ in range(s - k1)]
        rows.append(MixedWord(ctx, alpha, beta))
    for i in range(k2):
        beta = [rz] * k1 + [two if c == i else rz for c in range(k2)]
        beta += [two * rand_field(rng, ctx).lift()
                 for _ in range(s - k1 - k2)]
        rows.append(MixedWord(ctx, [fz] * r, beta))
    bin_perm = list(range(r))
    quat_perm = list(range(s))
    rng.shuffle(bin_perm)
    rng.shuffle(quat_perm)
    rows = [w.permute_columns(bin_perm, quat_perm) for w in rows]
    return mix_rows(rng, rows, 2 * len(rows))


def skew_code(rng, autom, r, s, a, b):
    """A skew cyclic product code with ``2^(m a) * 4^(m b)`` words.

    The binary block is generated by a divisor ``f`` of ``x^r - 1`` with
    ``deg h_f = a``, the quaternary block by a divisor ``g`` of
    ``x^s - 1`` with ``deg h_g = b``.  Returns ``(rows, templates)``:
    the spanning rows without the last binary shift (the last
    quaternary one when ``a < 2``), mixed, and the two template rows
    ``(f, 0)`` and ``(0, g)`` whose skew closure is the whole code.
    """
    f = divisor(rng, autom, r, r - a, ring=False)
    g = divisor(rng, autom, s, s - b, ring=True)
    gens = derive_cofactors(SkewGenerators(autom=autom, r=r, s=s, f=f, g=g))
    ss, _ = spanning_set(gens)
    held = ss.s1[-1] if a >= 2 else ss.s2[-1]
    rows = mix_rows(rng, [w for w in ss.rows if w is not held],
                    2 * len(ss.rows))
    ctx = autom.ctx
    templates = [ss.s1[0].scale(rand_unit(rng, ctx)),
                 ss.s2[0].scale(rand_unit(rng, ctx))]
    return rows, templates


# Generator files.

def reference_tuples(autom):
    """The bundled seven-seven (case ii) and four-four (case iii) tuples."""
    ctx = autom.ctx
    F, R = ctx.field, ctx.ring
    r7s7 = SkewGenerators(
        autom=autom, r=7, s=7,
        f=SkewPoly.from_ints(autom, [1, 1, 0, 1], False),
        l=SkewPoly.from_ints(autom, [1, 0, 1], False),
        g=SkewPoly.from_ints(autom, [1, 2, 3, 1, 1], True),
        a=SkewPoly.from_ints(autom, [3, 1], True))
    r4s4 = SkewGenerators(
        autom=autom, r=4, s=4,
        f=SkewPoly(autom, [F((0, 1)), F((1, 1)), F((1,))], False),
        l=SkewPoly.from_ints(autom, [1], False),
        l1=SkewPoly(autom, [F((0, 1)), F((0, 1))], False),
        g=SkewPoly.from_ints(autom, [1, 0, 1], True),
        a=SkewPoly(autom, [R((0, 1))], True),
        q=SkewPoly.from_ints(autom, [1, 0, 1], True))
    return [r7s7, r4s4]


def seeded_tuple(rng, autom, r, s, df, dg):
    """A case ii tuple: divisors ``f`` of ``x^r - 1``, ``g`` of ``x^s - 1``."""
    return SkewGenerators(autom=autom, r=r, s=s,
                          f=divisor(rng, autom, r, df, ring=False),
                          g=divisor(rng, autom, s, dg, ring=True))


def broken_tuple(rng, autom, r, s, df, dg):
    """A case ii tuple whose ``g`` does not right-divide ``x^s - 1``."""
    good = seeded_tuple(rng, autom, r, s, df, dg)
    target = SkewPoly.x_pow_minus_one(autom, s, True)
    ctx = autom.ctx
    while True:
        bump = SkewPoly(autom, [rand_ring(rng, ctx)], True)
        g = good.g + bump
        if g.degree == good.g.degree and not right_divides(g, target):
            return SkewGenerators(autom=autom, r=r, s=s, f=good.f, g=g)


# Workloads.

# ((m, t), r, s, deg f, deg g) of the seeded generator tuples.
GENS_TUPLES = [((2, 1), 4, 4, 2, 2), ((2, 1), 6, 6, 2, 4),
               ((2, 1), 6, 8, 4, 3), ((3, 1), 3, 6, 1, 3),
               ((3, 2), 6, 3, 3, 1)]
BROKEN_TUPLES = [((2, 1), 4, 6, 2, 2), ((3, 1), 6, 3, 3, 1)]
# (deg f, deg d, deg n): products f*d and right divisions n / d.
SKEW_DEGREES = [(3, 1, 6), (4, 2, 7), (5, 2, 8), (3, 3, 7)]


def algebra_round(rng, ctxs):
    a21 = ctxs[(2, 1)]
    jobs = [("gens", {"text": emit_gens(t), "valid": True})
            for t in reference_tuples(a21)]
    for key, r, s, df, dg in GENS_TUPLES:
        jobs.append(("gens", {"text": emit_gens(
            seeded_tuple(rng, ctxs[key], r, s, df, dg)), "valid": True}))
    for key, r, s, df, dg in BROKEN_TUPLES:
        jobs.append(("gens", {"text": emit_gens(
            broken_tuple(rng, ctxs[key], r, s, df, dg)), "valid": False}))
    for key in ((2, 1), (2, 2), (3, 1), (3, 2)):
        autom = ctxs[key]
        pairs = [(rand_poly(rng, autom, df, ring),
                  rand_poly(rng, autom, dd, ring, unit_lead=True),
                  rand_poly(rng, autom, dn, ring))
                 for ring in (True, False) for df, dd, dn in SKEW_DEGREES]
        jobs.append(("skew", {"pairs": pairs}))
    for key in ((2, 1), (3, 1)):
        autom = ctxs[key]
        ctx = autom.ctx
        elems = [(rand_ring(rng, ctx), rand_ring(rng, ctx),
                  rand_unit(rng, ctx)) for _ in range(120)]
        jobs.append(("elem", {"autom": autom, "elems": elems}))
    rng.shuffle(jobs)
    return jobs


# (m, t, r, s, a, b) of the skew cyclic codes in one enumerate round;
# a code has 2^(m(a + 2b)) words.  The last entry's words are
# m(r + 2s) = 72 bits wide, which sends it down the pure-Python span path.
ENUM_CODES = [
    (2, 1, 8, 8, 2, 3),     # 2^16
    (2, 1, 8, 8, 2, 3),
    (3, 1, 6, 6, 1, 2),     # 2^15
    (3, 2, 6, 6, 1, 2),
    (2, 1, 8, 8, 3, 2),     # 2^14
    (2, 1, 4, 4, 2, 2),     # 2^12
    (2, 1, 4, 16, 3, 1),    # 2^10, 72-bit words
]
# (m, t, r, s, a, b) of the budget job, a 2^22 code under a 2^16 budget.
# Its spanning rows are only scaled and shuffled, not mixed, so the span
# grows the same way for every seed: to exactly 2^16 after the four
# quaternary rows, then past the budget with the first binary row.
BUDGET_CODE = (2, 1, 8, 8, 3, 4)
BUDGET = 1 << 16


def enumerate_round(rng, ctxs):
    jobs = []
    for m, t, r, s, a, b in ENUM_CODES:
        autom = ctxs[(m, t)]
        rows, templates = skew_code(rng, autom, r, s, a, b)
        jobs.append(("span", {"autom": autom, "rows": rows,
                              "templates": templates,
                              "full": 1 << (m * (a + 2 * b))}))
    m, t, r, s, a, b = BUDGET_CODE
    autom = ctxs[(m, t)]
    f = divisor(rng, autom, r, r - a, ring=False)
    g = divisor(rng, autom, s, s - b, ring=True)
    _, mat = spanning_set(SkewGenerators(autom=autom, r=r, s=s, f=f, g=g))
    rows = [w.scale(rand_unit(rng, autom.ctx)) for w in mat]
    rng.shuffle(rows)
    jobs.append(("budget", {"rows": rows, "budget": BUDGET}))
    rng.shuffle(jobs)
    return jobs


# (m, r, s, k0, k1, k2) of the dual codes; the ambient space has
# 2^(m(r + 2s)) words and the code 2^(m(k0 + 2 k1 + k2)).
DUAL_CODES = [
    (2, 2, 3, 1, 1, 1),     # 2^16 ambient, 2^8 words
    (3, 2, 2, 1, 1, 0),     # 2^18 ambient, 2^9 words
    (2, 3, 3, 2, 1, 1),     # 2^18 ambient, 2^10 words
    (2, 3, 3, 2, 1, 1),
    (2, 1, 4, 1, 2, 1),     # 2^18 ambient, 2^12 words
]
# (m, t, s, deg g, case) of the classified quaternary codes, s <= 5.
CLASSIFY_CODES = [
    (2, 1, 4, 1, "ii"),     # 4096 words
    (2, 1, 4, 1, "i"),
    (2, 1, 4, 2, "iii"),
    (3, 1, 3, 1, "ii"),     # 4096 words
    (1, 1, 5, 1, "ii"),
]


def classify_code(rng, autom, s, deg, case):
    """Rows of a quaternary skew cyclic code of the given case, r = 0."""
    ctx = autom.ctx
    g = divisor(rng, autom, s, deg, ring=True)

    def row(p):
        return MixedWord(ctx, [], [p.coeff(i) for i in range(s)])
    if case == "ii":
        return [row(g)]
    if case == "i":
        return [row(2 * g)]
    for _ in range(100):
        q = divisor(rng, autom, s, 1, ring=True)
        if right_divides(q.mod2(), g.mod2()):
            return [row(g), row(2 * q)]
    raise ValueError(f"no linear q with q | g (mod 2) for g = {g}")


def dual_round(rng, ctxs):
    jobs = []
    for m, r, s, k0, k1, k2 in DUAL_CODES:
        ctx = ctxs[(m, 1)].ctx
        rows = random_code(rng, ctx, r, s, k0, k1, k2)
        code = span_closure(rows)
        jobs.append(("dual", {"rows": rows, "code": code}))
    for m, t, s, deg, case in CLASSIFY_CODES:
        autom = ctxs[(m, t)]
        rows = classify_code(rng, autom, s, deg, case)
        code = span_closure(rows, autom=autom, skew=True)
        jobs.append(("classify", {"autom": autom, "code": code}))
    rng.shuffle(jobs)
    return jobs


def _in_process(argv):
    """Exit code and standard output of the command run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = artifact_cli.main(argv)
    return code, out.getvalue()


def cli_round(rng, ctxs, workdir, env):
    """One call of each subcommand, with seeded files under ``workdir``.

    ``env`` is the environment the child processes run in.
    """
    def write(name, text):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    m = rng.choice((2, 3))
    autom = ctxs[(m, rng.choice((1, 2)))]
    ctx = autom.ctx
    ring = rng.random() < 0.5
    f = rand_poly(rng, autom, 3, ring)
    g = rand_poly(rng, autom, 3, ring)
    mat = MixedMatrix.from_rows(random_code(rng, ctx, 4, 5, 2, 2, 1))
    small = MixedMatrix.from_rows(
        random_code(rng, ctxs[(2, 1)].ctx, 2, 3, 1, 2, 1))
    gens = seeded_tuple(rng, ctxs[(2, 1)], 6, 6, 2, 4)
    mat_path = write("matrix.txt", emit_matrix(mat))
    small_path = write("small.txt", emit_matrix(small))
    gens_path = write("code.gens", emit_gens(gens))
    calls = [
        ("ctx-info", ["ctx-info", "--m", str(m)], 0),
        ("skew-mul", ["skew-mul", "--m", str(m), "--t", str(autom.t),
                      str(f), str(g)] + ([] if ring else ["--field"]), 0),
        ("std-form", ["std-form", mat_path], len(mat)),
        ("dual", ["dual", mat_path], len(mat)),
        ("validate-gens", ["validate-gens", gens_path], 0),
        ("cofactors", ["cofactors", gens_path], 0),
        ("span", ["span", gens_path], 0),
        ("enumerate", ["enumerate", small_path], len(small)),
        ("verify-paper", ["verify-paper"], 0),
    ]
    jobs = []
    for name, argv, rows_in in calls:
        code, out = _in_process(argv)
        jobs.append(("cli", {"command": name, "argv": argv, "env": env,
                             "out": os.path.join(workdir, "child.out"),
                             "exit": code, "stdout": out,
                             "words": rows_in + _output_words(out)}))
    rng.shuffle(jobs)
    return jobs


def _output_words(text):
    """Matrix rows in a command's output, or its enumerated word count."""
    words = 0
    in_rows = False
    for line in text.splitlines():
        if line.startswith("count: "):
            words += int(line.split()[1])
        elif line == "rows:":
            in_rows = True
        elif in_rows and "|" in line:
            words += 1
        else:
            in_rows = False
    return words


def generate(workload, seed, ctxs, workdir, env):
    """The round of jobs for one workload, from one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        return cli_round(rng, ctxs, workdir, env)
    make = {"algebra": algebra_round, "enumerate": enumerate_round,
            "dual": dual_round}[workload]
    return make(rng, ctxs)
