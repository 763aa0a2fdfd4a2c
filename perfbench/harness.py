"""One benchmark round: build the seeded items, run each under the per-item
budget, check its answer, and summarise latencies and trace spans.

A round runs in a fresh interpreter (see run.py), so the library's
module-level and per-graph caches start empty in every round, as they do
for every `gog` invocation.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import signal
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

# Every item must finish within this many seconds.  The slowest item that
# passes at the defining commit, group_rank on (Z/2)^5 (a traced probe of
# rank_sweep), takes about 0.6 s;
# the fastest known over-budget one, product_rank_family(4, Z/4), about
# 24 s.  4 s is at least 5x away from both.
ITEM_BUDGET_S = 4.0

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("words.expand.calls", "count"),
    ("words.expand.s", "s"),
    ("words.expand.edges_out", "count"),
    ("words.expand.len_slope", "ratio"),
    ("words.reduce.calls", "count"),
    ("words.reduce.s", "s"),
    ("words.reduce.edges_in", "count"),
    ("words.reduce.pinches", "count"),
    ("words.reduce.s_free", "s"),
    ("words.reduce.s_free_abelian", "s"),
    ("words.reduce.s_finite", "s"),
    ("words.reduce.len_slope", "ratio"),
    ("quotients.coset_enumeration.calls", "count"),
    ("quotients.coset_enumeration.s", "s"),
    ("quotients.coset_enumeration.cosets_defined", "count"),
    ("quotients.coset_enumeration.useful_ratio", "ratio"),
    ("quotients.abelianization.calls", "count"),
    ("quotients.abelianization.s", "s"),
    ("quotients.action.calls", "count"),
    ("quotients.action.s", "s"),
    ("groups.group_rank.calls", "count"),
    ("groups.group_rank.s", "s"),
    ("groups.group_rank.over_budget", "count"),
    ("groups.group_rank.probe_s", "s"),
    ("groups.subgroup_table.s", "s"),
    ("groups.hom_build.s", "s"),
    ("gog.pi1_presentation.calls", "count"),
    ("gog.pi1_presentation.s", "s"),
    ("gog.pi1_presentation.relators", "count"),
    ("gog.classify.s", "s"),
    ("gogfile.parse.s", "s"),
    ("gogfile.parse.bytes", "bytes"),
    ("gogfile.serialize.s", "s"),
    ("gogfile.serialize.bytes", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("moves.collapse_tree.s", "s"),
    ("moves.convert_diagram.s", "s"),
    ("moves.convert_diagram.cap_exceeded", "count"),
    ("analysis.recognize_abelian.s", "s"),
    ("analysis.product_rank_family.s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead_s", "s"),
]
# Metrics whose value must repeat exactly between traced rounds of one seed.
EXACT_UNITS = ("count", "bytes")


class Tracer:
    """Spans around the benchmark's calls into library layers, kept in memory.

    A span records its layer, the item it served (None during set-up),
    start and end, plus optional tags (`group`, `kind`, `size`) that the
    summary uses for per-class times and length slopes.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.item = None

    @contextmanager
    def span(self, layer, **tags):
        rec = dict(tags, layer=layer, item=self.item, start=perf_counter())
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self.spans.append(rec)

    def count(self, name, n=1):
        self.counts[name] += n


class NullTracer:
    """The untraced run's tracer: spans and counts cost one call each."""

    item = None

    def span(self, layer, **tags):
        return nullcontext({})

    def count(self, name, n=1):
        pass


class BudgetExceeded(Exception):
    pass


def _over_budget(signum, frame):
    raise BudgetExceeded


def measure(items, tr, budget_s=ITEM_BUDGET_S):
    """Run every item once, in order.  Returns (latencies in seconds,
    failures as (item name, reason)).  Only `item.run` is timed; an item
    fails when its check rejects the answer, when it raises, or when it
    overruns the budget."""
    previous = signal.signal(signal.SIGALRM, _over_budget)
    latencies, failures = [], []
    try:
        for index, item in enumerate(items):
            tr.item = index
            reason = stop = None
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            start = perf_counter()
            try:
                try:
                    answer = item.run(tr)
                finally:
                    stop = perf_counter()
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except BudgetExceeded:
                reason = f"over the {budget_s:g} s budget"
            except Exception as exc:  # any error escaping the library is a failure
                reason = f"raised {type(exc).__name__}: {exc}"
            # stop is unset only if the alarm fired inside the finally clause
            latencies.append((stop or perf_counter()) - start)
            if reason is None:
                try:
                    if not item.check(answer, tr):
                        reason = "answer disagrees with the reference"
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append((item.name, reason))
    finally:
        signal.signal(signal.SIGALRM, previous)
        tr.item = None
    return latencies, failures


def digest(items) -> str:
    return hashlib.sha256("\n".join(item.digest for item in items).encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _slope(spans):
    """Log-log slope of span time against `size`, pooled within each `group`
    (one intercept per graph), over spans with size > 0."""
    by_group = defaultdict(list)
    for rec in spans:
        if rec.get("size", 0) > 0 and rec["end"] > rec["start"]:
            by_group[rec["group"]].append((math.log(rec["size"]), math.log(rec["end"] - rec["start"])))
    num = den = 0.0
    for points in by_group.values():
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        num += sum((x - mx) * (y - my) for x, y in points)
        den += sum((x - mx) ** 2 for x, _ in points)
    return num / den if den > 0 else 0.0


def layer_metrics(tr: Tracer, traced_wall_s: float) -> dict:
    """Per-layer values of one traced round (trace_overhead_s, over_budget
    and probe_s are filled in by the caller)."""
    by_layer = defaultdict(list)
    for rec in tr.spans:
        by_layer[rec["layer"]].append(rec)

    def busy(spans):
        return sum(rec["end"] - rec["start"] for rec in spans)

    values = {}
    for name, _unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        spans = by_layer.get(layer, [])
        if stat == "calls":
            values[name] = len(spans)
        elif stat == "s":
            values[name] = busy(spans)
        elif stat.startswith("s_"):
            values[name] = busy(rec for rec in spans if rec.get("kind") == stat[2:])
        elif stat == "len_slope":
            values[name] = _slope(spans)
        else:
            values[name] = tr.counts.get(name, 0)
    cosets = tr.counts.get("quotients.coset_enumeration.cosets_defined", 0)
    order = tr.counts.get("quotients.coset_enumeration.order", 0)
    values["quotients.coset_enumeration.useful_ratio"] = order / cosets if cosets else 0.0
    values["bench.unattributed_s"] = traced_wall_s - busy(tr.spans)
    return values


def run_round(preflight, build, seed, traced, smoke) -> dict:
    """Check every layer once, build the items, then measure them."""
    tr = Tracer() if traced else NullTracer()
    wall_start = perf_counter()
    broken = preflight(tr)
    items = build(seed, tr, smoke)
    # The items hold every input of the round; keep them out of the
    # collector's scans so they do not slow the library's own collections.
    gc.collect()
    gc.freeze()
    ready_at = time.time()
    latencies, failures = measure(items, tr)
    failed = {name for name, _ in failures}
    result = {
        "ready_at": ready_at,
        "digest": digest(items),
        "items": len(items),
        "latencies_s": latencies,
        "passed_s": sum(s for item, s in zip(items, latencies) if item.name not in failed),
        "failures": [(f"preflight: {name}", "check failed") for name in broken] + failures,
        "peak_rss_mb": peak_rss_mb(),
    }
    if traced:
        result["layers"] = layer_metrics(tr, perf_counter() - wall_start)
    return result
