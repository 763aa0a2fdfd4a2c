"""Tests of the benchmark itself; run with `python3 -m pytest perfbench`."""

import contextlib
import io
import json
import time
from pathlib import Path

import pytest

import harness
import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def test_wrong_answer_is_counted_as_a_failure():
    items = workloads.word_sweep(5, harness.NullTracer(), smoke=True)
    honest = items[3].run
    items[3].run = lambda tr: not honest(tr)
    latencies, failures = harness.measure(items, harness.NullTracer())
    assert failures == [(items[3].name, "answer disagrees with the reference")]
    rounds = [{"items": len(items), "latencies_s": latencies, "failures": failures,
               "setup_s": 0.1, "peak_rss_mb": 20.0}]
    _, notes = run.end_to_end(rounds)
    assert f"fail_ratio = 1/{len(items)}" in " ".join(notes)


def test_overrun_and_errors_are_failures():
    def slow(tr):
        time.sleep(1)

    def broken(tr):
        raise ValueError("boom")

    items = [workloads.Item("slow", slow, lambda a, tr: True, "slow"),
             workloads.Item("broken", broken, lambda a, tr: True, "broken")]
    _, failures = harness.measure(items, harness.NullTracer(), budget_s=0.05)
    assert failures[0] == ("slow", "over the 0.05 s budget")
    assert failures[1] == ("broken", "raised ValueError: boom")


def test_workload_names_agree():
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed(name):
    build = workloads.WORKLOADS[name]
    first = harness.digest(build(3, harness.NullTracer(), smoke=True))
    assert harness.digest(build(3, harness.NullTracer(), smoke=True)) == first
    assert harness.digest(build(4, harness.NullTracer(), smoke=True)) != first


def test_reference_rank_closed_forms():
    assert workloads.reference_rank(workloads.cyclic_table(1), [0]) == 0
    assert workloads.reference_rank(workloads.cyclic_table(6), range(6)) == 1
    for k in (2, 3, 4):
        table = workloads.elementary_abelian(k)
        assert workloads.reference_rank(table, table.elements()) == k
    d4 = workloads.dihedral_table(4)
    assert workloads.reference_rank(d4, d4.elements()) == 2


def test_preflight_passes():
    assert workloads.preflight(harness.NullTracer()) == []


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(name):
    code, _, result = _run("--workload", name, "--seed", "1", "--smoke", "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_smoke_run_prints_every_per_layer_metric():
    code, lines, result = _run("--workload", "long_words", "--seed", "1", "--smoke",
                               "--trace", "1")
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == harness.PER_LAYER
    assert result["metrics"]["words.reduce.pinches"]["value"] > 0
