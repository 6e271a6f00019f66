"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import inputs
import jobs
import run
from spans import Tracer

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"),
                      encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to one small round."""
    monkeypatch.setattr(inputs, "ENUM_CODES", [(2, 1, 4, 4, 2, 2),
                                               (2, 1, 4, 16, 3, 1)])
    monkeypatch.setattr(inputs, "BUDGET_CODE", (2, 1, 4, 4, 1, 3))
    monkeypatch.setattr(inputs, "BUDGET", 1 << 8)
    monkeypatch.setattr(inputs, "DUAL_CODES", [(2, 2, 3, 1, 1, 1)])
    monkeypatch.setattr(inputs, "CLASSIFY_CODES", [(1, 1, 5, 1, "ii"),
                                                   (2, 1, 2, 1, "i")])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "PROBE_REPEATS", 1)


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "7",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    doc = last_json(out)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert "failed_frac 0" in out
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert f"{m['name']} " in out
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_same_seed_gives_same_inputs(tiny):
    ctxs = inputs.build_contexts(inputs.CONTEXT_SPECS["algebra"])
    texts = [[p.get("text") for _, p in
              inputs.generate("algebra", 3, ctxs, run.WORK, {})]
             for _ in range(2)]
    assert texts[0] == texts[1]


def one_round(workload):
    ctxs = inputs.build_contexts(inputs.CONTEXT_SPECS[workload])
    return inputs.generate(workload, 1, ctxs, run.WORK, run.child_env())


def test_injected_wrong_result_is_a_failure(tiny, monkeypatch):
    real = jobs.RUN["span"]

    def off_by_one(payload, tracer):
        result = real(payload, tracer)
        result["distance"] += 1
        return result
    monkeypatch.setitem(jobs.RUN, "span", off_by_one)
    round_ = one_round("enumerate")
    loop = run.Loop(jobs, Tracer(False), round_)
    loop.run_round()
    spans = sum(kind == "span" for kind, _ in round_)
    assert spans and loop.failed == spans
    assert all("distance" in p for p in loop.problems)


def test_budget_job_that_returns_is_a_failure(tiny):
    payload = next(p for kind, p in one_round("enumerate")
                   if kind == "budget")
    loop = run.Loop(jobs, Tracer(False),
                    [("budget", dict(payload, budget=1 << 30)),
                     ("budget", payload)])
    loop.run_round()
    assert loop.failed == 1
    assert "instead of raising BudgetExceeded" in loop.problems[0]


def test_unexpected_exception_is_a_failure(monkeypatch):
    def boom(payload, tracer):
        raise ValueError("boom")
    monkeypatch.setitem(jobs.RUN, "elem", boom)
    loop = run.Loop(jobs, Tracer(False), [("elem", {})])
    loop.run_round()
    assert loop.failed == 1 and "ValueError" in loop.problems[0]


def test_typical_latency_is_the_upper_quartile():
    assert run.typical([0.3]) == 0.3
    assert run.typical([4.0, 1.0, 3.0, 2.0, 5.0]) == pytest.approx(4.0)
    loop = run.Loop(jobs, Tracer(False), [("elem", {}), ("elem", {})])
    loop.slot_latencies = [[1.0, 1.0, 1.0, 9.0], [2.0, 3.0, 3.0, 3.0]]
    assert run.round_time(loop) == pytest.approx(3.0 + 3.0)


def test_self_time_subtracts_children():
    tracer = Tracer(True)
    tracer.spans = [(0, "job", 0.0, 10.0, None, 0),
                    (1, "a", 1.0, 4.0, 0, 0),
                    (2, "b", 3.0, 6.0, 0, 0)]
    calls, busy = tracer.self_times()
    assert busy["job"] == pytest.approx(5.0)
    assert busy["a"] == pytest.approx(3.0) and calls["b"] == 1


def test_witness_arithmetic_matches_definitions():
    import witness
    ctx = inputs.build_contexts([(3, 1)])[(3, 1)].ctx
    autom = inputs.build_contexts([(3, 2)])[(3, 2)]
    for i in range(0, 64, 5):
        a = ctx.ring_from_index(i)
        for j in range(0, 64, 7):
            b = ctx.ring_from_index(j)
            assert witness.gr_mul(ctx.h, 4, a.coeffs, b.coeffs) == \
                (a * b).coeffs
        assert witness.frobenius(ctx.h, 4, a.coeffs, autom.t) == \
            autom.apply(a).coeffs


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
