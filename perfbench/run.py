"""Benchmark of the ``artifact`` library and its ``z24codes`` command.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 25 --trace 0

Load model: a closed loop with one client.  This process calls the
library (for ``cli``, starts one ``z24codes`` child) and sends the next
job only when the previous one has returned; no extra threads.  Inputs
come from ``--seed`` and are generated before timing starts.  One round
is warmed up untimed, then whole rounds run until ``--seconds`` of job
time have passed.  Every result is checked by an independent witness
outside the timed region.

With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics from spans recorded around each call
into a layer.  The lines before it give the machine facts and each
metric by name with its unit.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("algebra", "enumerate", "dual", "cli")
SETUP_REPEATS = 4
SETUP_GAP_S = 2.0
PROBE_REPEATS = 5
CLI_COMMANDS = ("ctx-info", "skew-mul", "std-form", "dual", "validate-gens",
                "cofactors", "span", "enumerate", "verify-paper")

# Timed in a fresh interpreter: import the package and build the contexts.
_SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import artifact
for m, h, t in json.loads(sys.argv[1]):
    artifact.AutomorphismSpec(artifact.RingContext(m, h), t)
print(time.perf_counter() - t0)
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(args, env):
    """Wall seconds and stdout of one child interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True)
    return time.perf_counter() - t0, proc.stdout


def measure_setup(specs, moduli, env, repeats):
    """Times to import ``artifact`` and build the contexts, in fresh children."""
    arg = json.dumps([[m, list(moduli[m]), t] for m, t in specs])
    return [float(run_child(["-c", _SETUP_CODE, arg], env)[1])
            for _ in range(repeats)]


def machine_facts(numpy_version):
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "artifact"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": git_commit(), "src_sha256": digest.hexdigest()[:16]}


def git_commit():
    """The checked-out commit, or ``unknown`` outside a git work tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="utf-8") as fh:
                ref = fh.read().strip()
        return ref
    except OSError:
        return "unknown"


class Loop:
    """The closed loop: repeats one round of jobs, one job at a time.

    Latencies are kept per slot, the position of a job in the round, so
    that each job can be taken at its typical latency.  A result equal to
    one that its slot's witness already accepted is not checked again;
    any other result is.
    """

    def __init__(self, jobs_mod, tracer, round_):
        self.jobs = jobs_mod
        self.tracer = tracer
        self.round = round_
        self.slot_latencies = [[] for _ in round_]
        self.slot_words = [0] * len(round_)
        self.verified = {}
        self.rounds = 0
        self.failed = 0
        self.problems = []
        self.child_rss_kib = 0

    def run_round(self, check=True):
        for slot, (kind, payload) in enumerate(self.round):
            t0 = time.perf_counter()
            try:
                with self.tracer.span("job"):
                    result = self.jobs.RUN[kind](payload, self.tracer)
                error = None
            except Exception as exc:  # a failed job must not stop the run
                result, error = None, exc
            self.slot_latencies[slot].append(time.perf_counter() - t0)
            if not check:
                continue
            if error is not None:
                problems = [f"raised {type(error).__name__}: {error}"]
            elif slot in self.verified and self.verified[slot] == result:
                problems = []
            else:
                problems = self.jobs.CHECK[kind](payload, result)
                if not problems:
                    self.verified[slot] = result
                self.slot_words[slot] = self.jobs.WORDS[kind](payload, result)
            if kind == "cli" and error is None:
                self.child_rss_kib = max(self.child_rss_kib,
                                         result["rss_kib"])
            if problems:
                self.failed += 1
                self.problems.append(f"{kind}: {'; '.join(problems)}")
        self.rounds += 1

    def run_for(self, seconds):
        """Whole rounds until ``seconds`` of job time have passed."""
        while not self.rounds or self.busy < seconds:
            self.run_round()

    @property
    def latencies(self):
        return [x for lat in self.slot_latencies for x in lat]

    @property
    def busy(self):
        return sum(map(sum, self.slot_latencies))


def typical(latencies):
    """A job's latency in the run: the upper quartile of its repeats.

    On a shared 2-vCPU Xeon virtual machine the same work ran at two
    speeds about 1.4 times apart, switching every few seconds, and the
    share of fast time changed from run to run.  The fastest repeat and
    the median followed that share and moved 8 to 26 percent between
    runs of six seeds; the upper quartile stays on the slower speed
    unless three quarters of a run is fast, and moved 6 to 8 percent.
    """
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=4, method="inclusive")[2]


def round_time(loop):
    """The round's time with each job at its typical latency."""
    return sum(typical(x) for x in loop.slot_latencies)


def end_to_end(loop, setup_s, workload):
    """End-to-end metrics, each job taken at its typical latency."""
    costs = [typical(x) for x in loop.slot_latencies]
    round_s = round_time(loop)
    if workload == "cli":
        rss_kib = loop.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(costs) / round_s, "1/s"),
        "job_p50_ms": (1000 * statistics.median(costs), "ms"),
        "job_tail_ms": (1000 * max(costs), "ms"),
        "words_per_s": (sum(loop.slot_words) / round_s, "1/s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    notes = {"job_tail_ms": f"p100 of {len(costs)} jobs, each at the upper "
                            f"quartile of its {loop.rounds} repeats; "
                            f"n={len(loop.latencies)} samples"}
    return metrics, notes


def per_layer(tracer, workload, traced_s, plain_s, env):
    calls, busy = tracer.self_times()
    counts = tracer.counts
    validated = counts["skewcyclic.validated"]
    metrics = {
        "galois.context.calls": (calls["galois.context"], "count"),
        "galois.context.busy_s": (busy["galois.context"], "s"),
        "galois.elem.ops": (counts["galois.elem.ops"], "count"),
        "galois.elem.busy_s": (busy["galois.elem"], "s"),
        "skewpoly.mul.calls": (calls["skewpoly.mul"], "count"),
        "skewpoly.mul.busy_s": (busy["skewpoly.mul"], "s"),
        "skewpoly.divmod.calls": (calls["skewpoly.divmod"], "count"),
        "skewpoly.divmod.busy_s": (busy["skewpoly.divmod"], "s"),
        "skewcyclic.validate.busy_s": (busy["skewcyclic.validate"], "s"),
        "skewcyclic.cofactors.busy_s": (busy["skewcyclic.cofactors"], "s"),
        "skewcyclic.spanning_set.busy_s":
            (busy["skewcyclic.spanning_set"], "s"),
        "skewcyclic.valid_ratio":
            (counts["skewcyclic.valid"] / validated if validated else 0.0,
             "ratio"),
        "mixedcode.standard_form.calls":
            (calls["mixedcode.standard_form"], "count"),
        "mixedcode.standard_form.busy_s":
            (busy["mixedcode.standard_form"], "s"),
        "mixedcode.parity_check.busy_s":
            (busy["mixedcode.parity_check"], "s"),
        "textio.parse.busy_s": (busy["textio.parse"], "s"),
        "textio.emit.busy_s": (busy["textio.emit"], "s"),
        "textio.bytes": (counts["textio.bytes"], "bytes"),
        "oracle.span.calls": (calls["oracle.span"], "count"),
        "oracle.span.busy_s": (busy["oracle.span"], "s"),
        "oracle.span.words": (counts["oracle.span.words"], "count"),
        "oracle.budget_stop.calls": (calls["oracle.budget_stop"], "count"),
        "oracle.budget_stop.busy_s": (busy["oracle.budget_stop"], "s"),
        "oracle.skew_check.busy_s": (busy["oracle.skew_check"], "s"),
        "oracle.min_distance.busy_s": (busy["oracle.min_distance"], "s"),
        "oracle.dual.busy_s": (busy["oracle.dual"], "s"),
        "oracle.dual.ambient_words":
            (counts["oracle.dual.ambient_words"], "count"),
        "oracle.dual.code_words": (counts["oracle.dual.code_words"], "count"),
        "oracle.classify.busy_s": (busy["oracle.classify"], "s"),
        "oracle.classify.words": (counts["oracle.classify.words"], "count"),
    }
    interp_ms = import_ms = 0.0
    if workload == "cli":
        interp_ms = 1000 * statistics.median(
            run_child(["-c", "pass"], env)[0] for _ in range(PROBE_REPEATS))
        import_ms = 1000 * statistics.median(
            run_child(["-c", "import artifact.cli"], env)[0]
            for _ in range(PROBE_REPEATS))
    metrics["cli.interpreter_ms"] = (interp_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.command.busy_s"] = (
        sum(busy[f"cli.command.{c}"] for c in CLI_COMMANDS), "s")
    for c in CLI_COMMANDS:
        metrics[f"cli.command.{c}.busy_s"] = (busy[f"cli.command.{c}"], "s")
    metrics["bench.self_s"] = (busy["job"], "s")
    metrics["bench.trace_overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    return metrics


def report(facts, metrics, notes, loop):
    for key, value in facts.items():
        print(f"# {key}: {value}")
    attempted = len(loop.latencies)
    print(f"# jobs: {attempted} attempted, {loop.failed} failed, "
          f"failed_frac {loop.failed / attempted:.6g}")
    for problem in loop.problems[:20]:
        print(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:34s} {value:.6g} {unit}{note}")
    doc = {"correct": loop.failed == 0, "attempted": attempted,
           "failed": loop.failed,
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in metrics.items()}}
    print(json.dumps(doc))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "artifact", "__init__.py")):
        print(f"no artifact sources under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    env = child_env()

    import numpy
    import inputs
    import jobs
    from spans import Tracer

    specs = inputs.CONTEXT_SPECS[args.workload]
    tracer = Tracer(bool(args.trace))
    ctxs = {}
    for spec in specs:
        with tracer.span("galois.context"):
            ctxs.update(inputs.build_contexts([spec]))
    round_ = inputs.generate(args.workload, args.seed, ctxs, WORK, env)
    facts = machine_facts(numpy.__version__)
    facts.update(workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace,
                 load="closed loop, 1 client")

    Loop(jobs, Tracer(False), round_).run_round(check=False)
    loop = Loop(jobs, tracer, round_)
    if not args.trace:
        # Set-up is timed before the loop and then once every SETUP_GAP_S
        # of job time, between rounds, so that its median spans the run.
        setup_times = measure_setup(specs, inputs.MODULI, env, SETUP_REPEATS)
        next_setup = 0.0
        while not loop.rounds or loop.busy < args.seconds:
            loop.run_round()
            if loop.busy >= next_setup:
                setup_times += measure_setup(specs, inputs.MODULI, env, 1)
                next_setup = loop.busy + SETUP_GAP_S
        metrics, notes = end_to_end(loop, statistics.median(setup_times),
                                    args.workload)
    else:
        loop.run_for(args.seconds / 2)
        plain = Loop(jobs, Tracer(False), round_)
        for _ in range(loop.rounds):
            plain.run_round(check=False)
        metrics = per_layer(tracer, args.workload, round_time(loop),
                            round_time(plain), env)
        notes = {}
        tracer.write(os.path.join(
            WORK, f"trace-{args.workload}-{args.seed}.json"), facts)
    report(facts, metrics, notes, loop)
    return 0


if __name__ == "__main__":
    sys.exit(main())
