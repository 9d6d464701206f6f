"""One run of one workload: set-up, rounds, and the metrics made from them.

``--trace 0`` is the timed pass: every wrapper off, rounds repeated for
``--seconds``, end-to-end metrics only.  ``--trace 1`` runs six rounds in
one process — plain, plain, traced (wrappers installed), obs
(``obs.enable()`` + a flight recorder), plain, plain — and derives the
per-layer metrics from the traced round, with the four plain rounds as the
reference for the overhead ratios and the source of the wall-clock numbers.
End-to-end numbers never come from a traced round.

Every latency metric is the median across rounds of the per-round statistic;
the p95 alone is taken over the pooled samples so that at least ten lie
beyond it.  The *gated* end-to-end latencies are multiples of the numpy floor
of the same queries timed in the same round (``*_x``, ``floor_ratio``): on
this shared two-core machine raw milliseconds move 25-40 % with what the
neighbours are doing, and the ratio to a reference measured in the same
moment moves a third of that.  The same numbers in milliseconds are reported
beside them (``*_ms``, ``queries_per_s``), unbounded.
"""

from __future__ import annotations

import gc
import json
import os
import resource
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

import adapters
import tracing
from workloads import SCALES, WORKLOADS, Round, Workload

ROOT = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = 3


def benchmark_spec() -> dict:
    """``BENCHMARK.json`` (two directories up): names, units, bounds."""
    with open(os.path.join(ROOT, "..", "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


class Run:
    """Everything one invocation measured; ``run.py`` prints it."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.metrics: Dict[str, float] = {}
        #: reported beside the contract's metrics: sample counts, the
        #: issue's workload-specific end-to-end numbers, the time breakdown.
        self.extra: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.log: Optional[tracing.SpanLog] = None
        self.traced_round: Optional[Round] = None

    def absorb(self, rounds: List[Round]) -> None:
        for one in rounds:
            self.attempted += one.attempted
            self.failed += one.failed
            self.errors.extend(one.errors)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def result(self, units: Dict[str, str]) -> dict:
        """The contract's last line."""
        return {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in self.metrics.items()
            },
        }


def _guarded_round(workload: Workload, run: Run, log=None) -> Optional[Round]:
    """A round; an exception that escapes one (the write path lost step with
    its shadow) ends the run as failed rather than crashing it."""
    gc.collect()
    try:
        return workload.round(log)
    except Exception as error:
        run.attempted += 1
        run.failed += 1
        run.errors.append(f"round aborted: {type(error).__name__}: {error}")
        return None


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    trace_out: Optional[str] = None,
) -> Run:
    run = Run(name, seed, seconds)
    workload = WORKLOADS[name](seed, SCALES[scale])
    try:
        if trace:
            _traced_pass(workload, run, trace_out)
        else:
            _timed_pass(workload, run)
    finally:
        workload.close()
    return run


# ------------------------------------------------------------- timed pass


def _timed_pass(workload: Workload, run: Run) -> None:
    setups = []
    for _ in range(workload.scale.setup_reps):
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    workload.prepare()

    rounds: List[Round] = []
    rss = [current_rss_mb()]
    fixed = workload.fixed_rounds(run.seconds)
    start = perf_counter()
    while True:
        one = _guarded_round(workload, run)
        if one is None:
            break
        rounds.append(one)
        rss.append(current_rss_mb())
        elapsed = perf_counter() - start
        if fixed is not None:
            if len(rounds) >= fixed:
                break
        elif len(rounds) >= MIN_ROUNDS and elapsed * (1 + 0.5 / len(rounds)) >= run.seconds:
            break  # less than half of another round would still fit
    run.absorb(rounds)
    if not rounds:
        return

    metrics = run.metrics
    metrics["setup_s"] = median(setups)
    metrics.update(floor_metrics(workload, rounds))
    metrics["peak_rss_mb"] = max(rss)
    stores = workload.stores()
    metrics["space_amp"] = ratio(
        sum(store.total_bytes() for store in stores), workload.user_bytes()
    )
    metrics["write_amp"] = ratio(
        sum(store.put_bytes for store in stores), workload.written_user_bytes()
    )

    stalls = [value for r in rounds for value in r.stalls]
    run.extra = {
        "rounds": len(rounds),
        "timed_pass_s": perf_counter() - start,
        "samples": {cls: sum(len(r.lat[cls]) for r in rounds) for cls in workload.classes},
        "fail_ratio": ratio(run.failed, run.attempted),
        "setup_samples_s": setups,
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # the same pass in wall-clock units: steadier as x-over-floor above,
        # easier to read here
        "raw": raw_metrics(workload, rounds),
    }
    if stalls:
        run.extra["commits"] = sum(len(r.commits) for r in rounds)
        run.extra["compactions"] = len(stalls)
        run.extra["compaction_stall_max_ms"] = max(stalls) * 1e3


def current_rss_mb() -> float:
    """Resident set right now (``ru_maxrss`` only ever rises, and on
    ``join_groupby`` the O(|L|x|R|) reference join, not the system, sets it)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * resource.getpagesize() / (1 << 20)
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def floor_metrics(workload: Workload, rounds: List[Round]) -> Dict[str, float]:
    """The gated latency metrics: every time as a multiple of the numpy
    floor of the same queries, measured in the same round."""
    out: Dict[str, float] = {}
    scaled_range: List[float] = []
    for cls in workload.classes:
        per_round = []
        for one in rounds:
            if not one.lat[cls] or not one.floor.get(cls):
                continue
            # mean floor seconds per op: of the op's own class, or of the
            # whole mix where a request mostly waits behind other classes
            unit = (
                ratio(one.floor_s, one.reads()) if workload.floor_unit == "mix"
                else one.floor[cls] / len(one.lat[cls])
            )
            per_round.append(percentile(one.lat[cls], 50) / unit)
            if cls == "range":
                scaled_range.extend(value / unit for value in one.lat[cls])
        out[f"{cls}_p50_x"] = median(per_round) if per_round else 0.0
    out["range_p95_x"] = percentile(scaled_range, 95) if scaled_range else 0.0
    out["floor_ratio"] = median(ratio(r.busy_s, r.floor_s) for r in rounds)
    return out


def over_floor(rounds: List[Round]) -> float:
    """Read seconds per numpy-floor second over the given rounds: the unit
    in which two passes of one process are compared (each round carries the
    floor timed beside it, so the host's mood cancels)."""
    return ratio(sum(r.read_seconds() for r in rounds), sum(r.floor_s for r in rounds))


def raw_metrics(workload: Workload, rounds: List[Round]) -> Dict[str, float]:
    """The issue's wall-clock end-to-end numbers (reported, not gated: on a
    shared two-core box they move 25-40 % with the host's mood)."""
    out: Dict[str, float] = {}
    pooled: List[float] = []
    for cls in workload.classes:
        per_round = [percentile(r.lat[cls], 50) for r in rounds if r.lat[cls]]
        out[f"{cls}_p50_ms"] = median(per_round) * 1e3 if per_round else 0.0
    for one in rounds:
        pooled.extend(one.lat["range"])
    out["range_p95_ms"] = percentile(pooled, 95) * 1e3 if pooled else 0.0
    out["queries_per_s"] = median(ratio(r.reads(), r.busy_s) for r in rounds)
    commits = [percentile(r.commits, 50) for r in rounds if r.commits]
    out["txn.commit_p50_ms"] = median(commits) * 1e3 if commits else 0.0
    return out


# ------------------------------------------------------------ traced pass


def _traced_pass(workload: Workload, run: Run, trace_out: Optional[str]) -> None:
    workload.setup()
    workload.prepare()
    n_partitions = sum(layout.n_partitions for layout in workload.layouts)
    build_s = workload.build_s

    log = tracing.SpanLog()
    stores = workload.stores()
    plain = [_guarded_round(workload, run), _guarded_round(workload, run)]
    pool_before = adapters.pool_counts(workload.layouts)
    with tracing.installed(adapters.TRACE_TARGETS, log):
        for store in stores:
            store.log = log
        try:
            traced = _guarded_round(workload, run, log)
        finally:
            for store in stores:
                store.log = None
    pool_after = adapters.pool_counts(workload.layouts)
    with adapters.observability():
        observed = _guarded_round(workload, run)
    plain += [_guarded_round(workload, run), _guarded_round(workload, run)]
    rounds = [one for one in (*plain, traced, observed) if one is not None]
    run.absorb(rounds)
    if len(rounds) < 6:
        return
    extras = workload.extras()
    run.log, run.traced_round = log, traced

    own = log.by_request()
    whole = log.by_request(inclusive=True)
    calls = log.calls_by_request()
    reads = [r for r in traced.requests if r[1] in workload.classes]
    commits = [r for r in traced.requests if r[1] == "commit"]
    folds = [r for r in traced.requests if r[1] == "compaction"]

    def per(requests, table, span: str) -> float:
        return mean(table[request].get(span, 0.0) for request, _, _ in requests)

    counts = traced.counts
    n_reads = max(1, len(reads))
    n_commits = len(commits)
    tickets = [t for r in plain for t in r.tickets]
    all_rounds = (*plain, traced, observed)
    pool = {key: pool_after[key] - pool_before[key] for key in pool_after}
    got = sum(sum(store.get_bytes_by_request.values()) for store in stores)

    ms = 1e3
    m = run.metrics
    m.update(raw_metrics(workload, plain))  # untraced rounds, wall-clock units
    m["sql.parse_us"] = per(reads, own, "sql.parse") * 1e6
    m["plan.plan_ms"] = per(reads, own, "plan.plan") * ms
    m["plan.partitions_read_per_query"] = counts["partitions_read"] / n_reads
    m["plan.partitions_pruned_per_query"] = counts["partitions_pruned"] / n_reads
    m["plan.cells_scanned_per_result_row"] = ratio(
        counts["cells_scanned"], counts["result_rows"]
    )
    m["plan.hash_join_ms"] = per(reads, own, "plan.hash_join") * ms
    m["plan.group_agg_ms"] = per(reads, own, "plan.group_agg") * ms
    m["plan.dag_self_ms"] = per(reads, own, "plan.dag") * ms
    m["plan.dag_tax_ratio"] = extras.get("plan.dag_tax_ratio", 0.0)
    m["plan.spill_join_ratio"] = extras.get("plan.spill_join_ratio", 0.0)
    m["plan.spill_chunks_per_query"] = extras.get("plan.spill_chunks_per_query", 0.0)
    m["storage.catalog_probe_ms"] = per(reads, own, "storage.catalog_probe") * ms
    m["storage.catalog_probes_per_query"] = per(reads, calls, "storage.catalog_probe")
    m["storage.load_ms"] = per(reads, whole, "storage.load") * ms
    m["storage.loads_per_query"] = per(reads, calls, "storage.load")
    m["storage.blob_get_ms"] = per(reads, own, "storage.blob_get") * ms
    m["storage.blob_get_bytes_per_query"] = sum(
        store.get_bytes_by_request.get(request, 0)
        for store in stores for request, _, _ in reads
    ) / n_reads if got else 0.0
    m["storage.decode_ms"] = per(reads, own, "storage.load") * ms
    m["storage.pool_hit_ratio"] = ratio(pool["hits"], pool["hits"] + pool["misses"])
    m["storage.pool_evictions_per_query"] = pool["evictions"] / n_reads
    m["storage.sim_bytes_read_per_query"] = counts["sim_bytes_read"] / n_reads
    m["storage.puts_per_commit"] = ratio(counts["puts"], n_commits)
    m["storage.put_bytes_per_commit"] = ratio(counts["put_bytes"], n_commits)
    m["storage.stored_bytes"] = sum(store.total_bytes() for store in stores)
    m["engine.self_ms"] = per(reads, own, "engine.execute") * ms
    m["engine.cells_gathered_per_query"] = counts["cells_gathered"] / n_reads
    m["engine.hash_inserts_per_query"] = counts["hash_inserts"] / n_reads
    m["txn.stage_ms"] = per(commits, own, "txn.stage") * ms
    m["txn.commit_ms"] = per(commits, whole, "txn.commit") * ms
    m["txn.wal_commit_ms"] = per(commits, whole, "txn.wal_commit") * ms
    m["txn.wal_bytes_per_commit"] = ratio(counts["wal_bytes"], n_commits)
    m["txn.merge_ms"] = per(reads, own, "txn.execute") * ms
    m["txn.delta_segments_at_read"] = counts["delta_segments"] / n_reads
    m["txn.tombstones_at_read"] = counts["tombstones"] / n_reads
    m["txn.clean_tax_ratio"] = extras.get("txn.clean_tax_ratio", 0.0)
    m["txn.compactions"] = sum(r.counts["compactions"] for r in all_rounds)
    m["txn.compaction_ms"] = per(folds, whole, "txn.compaction") * ms
    m["txn.compaction_bytes_rewritten"] = ratio(
        counts["bytes_rewritten"], counts["compactions"]
    )
    m["txn.compaction_stall_max_ms"] = max(
        (value for r in all_rounds for value in r.stalls), default=0.0
    ) * ms
    waits = [wait for wait, _ in tickets]
    m["serve.queue_wait_p50_ms"] = percentile(waits, 50) * ms if waits else 0.0
    m["serve.queue_wait_p95_ms"] = percentile(waits, 95) * ms if waits else 0.0
    m["serve.service_p50_ms"] = (
        percentile([total - wait for wait, total in tickets], 50) * ms
        if tickets else 0.0
    )
    m["serve.latency_p99_ms"] = (
        percentile([total for _, total in tickets], 99) * ms if tickets else 0.0
    )
    m["serve.tax_ratio"] = extras.get("serve.tax_ratio", 0.0)
    gauges = workload.gauges()
    m["serve.rejections"] = gauges.get("serve.rejections", 0.0)
    m["serve.partition_cache_hit_ratio"] = gauges.get(
        "serve.partition_cache_hit_ratio", 0.0
    )
    m["layouts.build_s"] = build_s
    m["layouts.n_partitions"] = n_partitions
    m["obs.enabled_overhead_ratio"] = ratio(over_floor([observed]), over_floor(plain))
    m["testing.floor_ms"] = ratio(
        sum(r.floor_s for r in plain), sum(r.reads() for r in plain)
    ) * ms
    m["trace.overhead_ratio"] = ratio(over_floor([traced]), over_floor(plain))

    run.extra = {
        "breakdown_ms": breakdown(own, traced, workload.classes),
        "spans": len(log.spans),
        "reads_traced": len(reads),
    }
    if trace_out:
        log.write_jsonl(trace_out, header={
            "workload": run.workload, "seed": run.seed,
            "clock": "time.perf_counter seconds",
        })


#: a span's *self* time is reported under the layer name it stands for.
SELF_NAMES = {
    "request": "harness+scheduler",
    "storage.load": "storage.decode",
    "engine.execute": "engine.self",
    "txn.execute": "txn.merge",
    "txn.commit": "txn.apply",
    "plan.dag": "plan.dag_self",
}


def breakdown(own, traced: Round, classes) -> Dict[str, Dict[str, float]]:
    """Per op class: mean self milliseconds of every span name (``own`` is
    ``SpanLog.by_request()``), plus the mean latency they sum to — where a
    request's time went."""
    out: Dict[str, Dict[str, float]] = {}
    kinds = list(classes) + ["commit", "compaction"]
    for kind in kinds:
        requests = [r for r in traced.requests if r[1] == kind]
        if not requests:
            continue
        names = sorted({name for request, _, _ in requests for name in own[request]})
        row = {
            SELF_NAMES.get(name, name):
                mean(own[request].get(name, 0.0) for request, _, _ in requests) * 1e3
            for name in names
        }
        row["latency"] = mean(seconds for _, _, seconds in requests) * 1e3
        out[kind] = row
    return out
