"""gogroups benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload word_sweep --seed 1 --seconds 10 --trace 0

Run it from the repository root.  It repeats rounds of the workload, each
in a fresh interpreter and one after another (a closed loop with one
client), until `--seconds` have passed, checks every answer against its
reference and prints the metrics.  The last line of stdout is one JSON
object: with `--trace 0` the end-to-end metrics, with `--trace 1` the
per-layer metrics of traced rounds (untraced rounds alternate with them to
give the tracing overhead).  `--smoke` runs one tiny round.  The exit code
is non-zero, with no JSON line, when the library or a round cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every run, rounds included, ends well within the 180 s a run may take.
RUN_DEADLINE_S = 170
WORKLOADS = ("word_sweep", "long_words", "rank_sweep", "graph_pipeline")


def tail_percentile(items_per_round: int) -> float:
    """The highest percentile, to 0.1, with at least ten of one round's
    samples beyond it; the pooled samples of a run then have more."""
    return math.floor(1000 * max(0.0, 1 - 10 / items_per_round)) / 10


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q / 100 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gogroups").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def spawn_round(args, traced: bool, probe: bool, timeout: float) -> dict:
    """One round in a fresh interpreter; set-up time runs from the spawn to
    the moment the round's items are built."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "1" if traced else "0"]
    if args.smoke:
        cmd.append("--smoke")
    if probe:
        cmd.append("--probe")
    spawned_at = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"round exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - spawned_at
    result["traced"] = traced
    return result


def child(args) -> int:
    import workloads

    builders = workloads.PROBES if args.probe else workloads.WORKLOADS
    result = harness.run_round(workloads.preflight, builders[args.workload], args.seed,
                               bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


def best_times(rounds) -> list:
    """Each item's best latency over the rounds, in seconds."""
    return [min(r["latencies_s"][i] for r in rounds) for i in range(rounds[0]["items"])]


def end_to_end(rounds) -> tuple[dict, list]:
    """Latency metrics come from each item's best time over the run's rounds.
    Every round repeats the same inputs from a cold start, so the best time
    is the item's cost with the slowdowns other tenants of a shared machine
    add (they only ever add time) filtered out."""
    items = rounds[0]["items"]
    best = sorted(s * 1000 for s in best_times(rounds))
    failed_items = {name for r in rounds for name, _ in r["failures"]}
    q = tail_percentile(items)
    metrics = {
        "throughput_ops_s": ((items - len(failed_items)) / (sum(best) / 1000), "1/s"),
        "latency_p50_ms": (statistics.median(best), "ms"),
        "latency_tail_ms": (percentile(best, q), "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    attempted = sum(r["items"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    notes = [
        f"latency_tail_ms is p{q:g} of {items} per-item best times over {len(rounds)} rounds "
        f"({items - math.ceil(q / 100 * items)} beyond it)",
        f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6f} ratio",
    ]
    return metrics, notes


def per_layer(rounds, probes) -> tuple[dict, bool, list]:
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    units = dict(harness.PER_LAYER)
    metrics, repeatable, notes = {}, True, []
    for name, unit in harness.PER_LAYER:
        values = [r["layers"][name] for r in traced]
        if unit in harness.EXACT_UNITS and len(set(values)) > 1:
            repeatable = False
            notes.append(f"{name} differs between traced rounds: {values}")
        metrics[name] = statistics.median(values)
    metrics["bench.trace_overhead_s"] = sum(best_times(traced)) - sum(best_times(untraced))
    over = [name for p in probes for name, reason in p["failures"] if "budget" in reason]
    metrics["groups.group_rank.over_budget"] = len(over)
    metrics["groups.group_rank.probe_s"] = sum(p["passed_s"] for p in probes)
    for p in probes:
        notes += [f"probe {name}: {reason}" for name, reason in p["failures"]]
    wrong = [f for p in probes for f in p["failures"] if "budget" not in f[1]]
    return {k: (v, units[k]) for k, v in metrics.items()}, repeatable and not wrong, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="one tiny round")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gogroups" / "__init__.py").is_file():
        print(f"gogroups sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        return child(args)

    start = time.monotonic()

    def remaining():
        return RUN_DEADLINE_S - (time.monotonic() - start)

    rounds, durations = [], []
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 0
            began = time.monotonic()
            rounds.append(spawn_round(args, traced, False, remaining()))
            durations.append(time.monotonic() - began)
            enough = len(rounds) >= (2 if args.trace else 1)
            # stop where the run ends nearest to --seconds: another round
            # is started only if at least half of it fits
            left = args.seconds - (time.monotonic() - start)
            if enough and (args.smoke or left < statistics.median(durations) / 2):
                break
        probes = []
        if args.trace and args.workload == "rank_sweep":
            probes.append(spawn_round(args, True, True, remaining()))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark round failed: {exc}", file=sys.stderr)
        return 1

    digests = {r["digest"] for r in rounds}
    attempted = sum(r["items"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"items/round={rounds[0]['items']} input digest={','.join(sorted(digests))}")
    print(f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"source sha256={source_digest()}")
    for name, reason in failures[:20]:
        print(f"FAILED {name}: {reason}")
    correct = not failures and len(digests) == 1
    if args.trace:
        metrics, repeatable, notes = per_layer(rounds, probes)
        correct = correct and repeatable
    else:
        metrics, notes = end_to_end(rounds)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
