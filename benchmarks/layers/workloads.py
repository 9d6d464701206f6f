"""The five workloads of the layer benchmark.

Each workload exists to make one group of layers do almost all the work and
to leave another group idle, so that a change to one layer moves the numbers
of the workload that exercises it and moves nothing on the workload that
bypasses it.  The class docstrings record *why* each is here and what it
bypasses; ``BENCHMARK.json`` carries the one-line version.

``--seed`` is the only source of randomness: the table, the query bounds, the
op order and the write batches all come from ``numpy.random.default_rng`` over
it, and the program under test only ever receives the generated inputs.

Shared protocol (driven by ``harness.py``):

``__init__``  generate data and SQL from the seed (untimed)
``setup``     build through the public builders + one warm-up pass over every
              distinct query (timed: ``setup_s``; may be called repeatedly)
``prepare``   compute the oracle answers (untimed)
``round``     one pass over the workload's fixed, seeded op list

An *operation* is what a user sends: SQL text in, result out.  Its latency
covers ``parse`` plus the execute call of the path the workload names.  Each
op checks its row count inline; after every round the last result of every
distinct query is compared cell by cell with the oracle.  An exception, a
timeout, an exhausted admission retry or a mismatch is a failed op.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import adapters
from tracing import CURRENT, END, START, SpanLog

# ------------------------------------------------------------------- scales


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale.  ``full`` is what ``BENCHMARK.json``
    measures; ``tiny`` exists so the self-tests finish in seconds."""

    n_rows: int
    segment_bytes: int
    warm_pool_bytes: int
    cold_pool_bytes: int
    n_fact: int
    n_dim: int
    join_segment_bytes: int
    #: ops per distinct query per round (x8 distinct = ops per class).
    reps: int
    commits_per_fold: int
    max_insert_rows: int
    setup_reps: int
    #: fold periods of ``write_mixed`` per second of ``--seconds``, frozen
    #: from seed code (a period is ~2.1 s there); never fewer than
    #: ``min_periods``.
    periods_per_second: float
    min_periods: int
    #: serve_mixed times the oracle after the round, this often per query
    #: (one-client workloads time it once beside every op instead).
    floor_reps: int


SCALES = {
    "full": Scale(
        n_rows=60_000, segment_bytes=16 * 1024,
        warm_pool_bytes=256 << 20, cold_pool_bytes=1 << 20,
        n_fact=40_000, n_dim=4_000, join_segment_bytes=2_048,
        reps=5, commits_per_fold=20, max_insert_rows=120, setup_reps=3,
        periods_per_second=0.45, min_periods=6, floor_reps=21,
    ),
    "tiny": Scale(
        n_rows=3_000, segment_bytes=2_048,
        warm_pool_bytes=64 << 20, cold_pool_bytes=48 << 10,
        n_fact=2_000, n_dim=400, join_segment_bytes=1_024,
        reps=1, commits_per_fold=3, max_insert_rows=24, setup_reps=1,
        periods_per_second=0.0, min_periods=2, floor_reps=1,
    ),
}

N_DISTINCT = 8          # distinct queries per class
VALUE_RANGE = 100_000   # table T: int32 uniform in [0, VALUE_RANGE)
KEY_RANGE = 1_000       # join keys
N_KEY_WINDOWS = 8       # co-partitioning windows of the join catalog

_NAMES = tuple(f"a{i}" for i in range(1, 25))
_Q_WIDE = ("a2", "a3", "a4", "a5", "a6", "a7", "a9", "a10")
#: the quickstart's three training templates.
TEMPLATES = (
    (_Q_WIDE, {"a1": (0, 9_999)}),
    (_Q_WIDE, {"a8": (90_000, 99_999)}),
    (("a15", "a16", "a17", "a18"), {"a20": (40_000, 44_999)}),
)
_WIDE16 = tuple(n for n in _NAMES[:17] if n != "a12")


@dataclass(frozen=True)
class Spec:
    """One distinct query: its class, its SQL, and the single-table SQL of
    every input it reads (the numpy floor selects and gathers exactly those
    rows; for a single-table query that is the query itself)."""

    cls: str
    sql: str
    inputs: Tuple[Tuple[str, str], ...] = ()


def table_specs(rng: np.random.Generator) -> List[Spec]:
    """point / range / wide over table ``T`` (bounds from the seed).

    ``point``: 30-wide range on ``a1``, project 2 attributes (~18 rows);
    ``range``: the trained template shape, 10 % selectivity on ``a1``/``a8``,
    project 8; ``wide``: off-template, 1 % on ``a12``, project 16.
    """
    specs = []
    for index in range(N_DISTINCT):
        lo = int(rng.integers(1_000, VALUE_RANGE - 2_000))
        specs.append(Spec(
            "point", f"SELECT a2, a3 FROM T WHERE a1 BETWEEN {lo} AND {lo + 29}"
        ))
        attr = "a1" if index % 2 == 0 else "a8"
        lo = int(rng.integers(1_000, VALUE_RANGE - 11_000))
        specs.append(Spec(
            "range",
            f"SELECT {', '.join(_Q_WIDE)} FROM T "
            f"WHERE {attr} BETWEEN {lo} AND {lo + 9_999}",
        ))
        lo = int(rng.integers(1_000, VALUE_RANGE - 2_000))
        specs.append(Spec(
            "wide",
            f"SELECT {', '.join(_WIDE16)} FROM T "
            f"WHERE a12 BETWEEN {lo} AND {lo + 999}",
        ))
    return specs


def join_specs(rng: np.random.Generator) -> List[Spec]:
    """The relational classes, filed under the three class slots every
    workload reports: ``point`` = join rows over a 1 % key window, ``range``
    = the issue's ``join`` (equi-join + GROUP BY + SUM/COUNT over a 25 %
    window), ``wide`` = the issue's ``groupby`` (single-table GROUP BY over a
    25 % window through the DAG)."""
    specs = []
    quarter = KEY_RANGE // 4
    for _ in range(N_DISTINCT):
        lo = int(rng.integers(10, KEY_RANGE - 20))
        hi = lo + KEY_RANGE // 100 - 1
        specs.append(Spec(
            "point",
            "SELECT f_key, f_val, d_group FROM fact JOIN dim ON f_key = d_key "
            f"WHERE f_key BETWEEN {lo} AND {hi}",
            (("fact", f"SELECT f_key, f_val FROM fact WHERE f_key BETWEEN {lo} AND {hi}"),
             ("dim", f"SELECT d_key, d_group FROM dim WHERE d_key BETWEEN {lo} AND {hi}")),
        ))
        lo = int(rng.integers(10, KEY_RANGE - quarter - 10))
        hi = lo + quarter - 1
        # Both sides carry the window: a user who co-partitioned the tables
        # writes it, and it keeps the O(|L|x|R|) reference join affordable.
        specs.append(Spec(
            "range",
            "SELECT d_group, SUM(f_val), COUNT(*) FROM fact JOIN dim "
            f"ON f_key = d_key WHERE f_key BETWEEN {lo} AND {hi} "
            f"AND d_key BETWEEN {lo} AND {hi} GROUP BY d_group",
            (("fact", f"SELECT f_key, f_val FROM fact WHERE f_key BETWEEN {lo} AND {hi}"),
             ("dim", f"SELECT d_key, d_group FROM dim WHERE d_key BETWEEN {lo} AND {hi}")),
        ))
        lo = int(rng.integers(10, KEY_RANGE - quarter - 10))
        hi = lo + quarter - 1
        specs.append(Spec(
            "wide",
            "SELECT f_tag, SUM(f_val), COUNT(*) FROM fact "
            f"WHERE f_key BETWEEN {lo} AND {hi} GROUP BY f_tag",
            (("fact", f"SELECT f_tag, f_val FROM fact WHERE f_key BETWEEN {lo} AND {hi}"),),
        ))
    return specs


# -------------------------------------------------------------------- rounds


@dataclass
class Round:
    """What one pass over the op list observed."""

    lat: Dict[str, List[float]] = field(default_factory=dict)
    commits: List[float] = field(default_factory=list)
    stalls: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: seconds the client(s) spent inside the system.
    busy_s: float = 0.0
    #: per class, summed numpy-oracle seconds for the same read ops.
    floor: Dict[str, float] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    #: traced pass only: ``(request span id, kind, latency seconds)``.
    requests: List[Tuple[int, str, float]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: serve_mixed only: per-ticket ``(queue wait, total latency)`` seconds.
    tickets: List[Tuple[float, float]] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def reads(self) -> int:
        return sum(len(values) for values in self.lat.values())

    def read_seconds(self) -> float:
        return sum(sum(values) for values in self.lat.values())

    @property
    def floor_s(self) -> float:
        return sum(self.floor.values())


def read_op(path, sql: str, log: Optional[SpanLog], label: str):
    """One operation on a one-client path: ``(query, result, stats,
    latency seconds, request span id)``."""
    if log is None:
        start = perf_counter()
        query = path.parse(sql)
        result, stats = path.execute(query)
        return query, result, stats, perf_counter() - start, None
    with log.span("request", label) as request_id:
        with log.span("sql.parse"):
            query = path.parse(sql)
        result, stats = path.execute(query)
    span = log.spans[request_id]
    return query, result, stats, span[END] - span[START], request_id


def median_seconds(function: Callable[[], object], reps: int) -> float:
    samples = []
    for _ in range(reps):
        start = perf_counter()
        function()
        samples.append(perf_counter() - start)
    return median(samples)


def paired_ratio(
    numerator: Callable[[object], object],
    denominator: Callable[[object], object],
    items: Sequence,
    reps: int = 5,
) -> float:
    """Σ median(numerator(item)) ÷ Σ median(denominator(item)), the two
    sides alternating so machine drift cancels."""
    top = bottom = 0.0
    for item in items:
        a, b = [], []
        for _ in range(reps):
            start = perf_counter()
            numerator(item)
            middle = perf_counter()
            denominator(item)
            a.append(middle - start)
            b.append(perf_counter() - middle)
        top += median(a)
        bottom += median(b)
    return top / bottom if bottom else 0.0


# ---------------------------------------------------------------- workloads


class Workload:
    """Base: a one-client closed loop over a read-only path."""

    name = ""
    classes = ("point", "range", "wide")
    #: what a class latency is divided by to give ``*_x``: the numpy floor
    #: of its own class ("class") or of the round's whole mix ("mix").
    floor_unit = "class"

    def __init__(self, seed: int, scale: Scale):
        self.seed = seed
        self.scale = scale
        self.rng = np.random.default_rng(seed)
        self.specs: List[Spec] = []
        self.path = None
        self.layouts: List = []
        self.build_s = 0.0
        self.expected: List = []
        self.floors: List[List[Callable[[], object]]] = []
        self.ops: List[int] = []

    # ---- data

    def _table_columns(self) -> Dict[str, np.ndarray]:
        return {
            name: self.rng.integers(0, VALUE_RANGE, self.scale.n_rows).astype(np.int32)
            for name in _NAMES
        }

    def _fixed_ops(self) -> List[int]:
        """Every distinct query ``reps`` times, in one seeded order that
        every round replays."""
        ops = np.repeat(np.arange(len(self.specs)), self.scale.reps)
        self.rng.shuffle(ops)
        return [int(index) for index in ops]

    # ---- protocol

    def setup(self) -> None:
        self.close()
        start = perf_counter()
        self._build()
        self.build_s = perf_counter() - start
        self.warm_up()

    def _build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        for spec in self.specs:
            self.path.execute(self.path.parse(spec.sql))

    def prepare(self) -> None:
        self.expected = [
            self.path.oracle(self.path.parse(spec.sql)) for spec in self.specs
        ]
        self.floors = [self._floor(spec) for spec in self.specs]

    def _floor(self, spec: Spec) -> List[Callable[[], object]]:
        query = self.path.parse(spec.sql)
        return [lambda: self.path.oracle(query)]

    def fixed_rounds(self, seconds: float) -> Optional[int]:
        """None: rounds repeat until ``--seconds`` is used up (the state is
        stationary, so per-query counts do not depend on how many ran)."""
        return None

    def round(self, log: Optional[SpanLog] = None) -> Round:
        out = Round(lat={cls: [] for cls in self.classes})
        last: Dict[int, object] = {}
        floor_samples: Dict[int, List[float]] = {}
        for index in self.ops:
            spec = self.specs[index]
            out.attempted += 1
            try:
                _, result, stats, seconds, request = read_op(
                    self.path, spec.sql, log, spec.cls
                )
            except Exception as error:  # a failed op, not a failed benchmark
                out.fail(f"{spec.cls}: {type(error).__name__}: {error}")
                continue
            out.lat[spec.cls].append(seconds)
            out.counts.update(adapters.exec_counts(stats))
            if request is not None:
                out.requests.append((request, spec.cls, seconds))
            if adapters.n_rows(result) != adapters.n_rows(self.expected[index]):
                out.fail(f"{spec.cls}: row count differs from the oracle")
            last[index] = result
            # The numpy floor of the same query, timed in the same moment
            # (and the same machine state) as the op it is compared with.
            start = perf_counter()
            for floor in self.floors[index]:
                floor()
            floor_samples.setdefault(index, []).append(perf_counter() - start)
        out.busy_s = out.read_seconds()
        self._verify(out, last)
        out.floor = {cls: 0.0 for cls in self.classes}
        for index, samples in floor_samples.items():
            out.floor[self.specs[index].cls] += median(samples) * len(samples)
        return out

    def _verify(self, out: Round, last: Dict[int, object]) -> None:
        for index, result in last.items():
            if not adapters.same_result(result, self.expected[index]):
                out.fail(f"{self.specs[index].cls}: cells differ from the oracle "
                         f"({self.specs[index].sql})")

    def extras(self) -> Dict[str, float]:
        """Layer-tax ratios measured beside the traced pass."""
        return {}

    def gauges(self) -> Dict[str, float]:
        """Counters a layer keeps itself, read when the run ends."""
        return {}

    # ---- space and write accounting

    def user_bytes(self) -> int:
        """Live user bytes the system currently holds."""
        raise NotImplementedError

    def written_user_bytes(self) -> int:
        """User bytes handed to the system since it was empty."""
        return self.user_bytes()

    def stores(self):
        return adapters.stores(self.layouts)

    def close(self) -> None:
        self.path = None
        self.layouts = []


class IrregularWarm(Workload):
    """The paper's headline path: ``IrregularLayout`` + the
    partition-at-a-time engine through ``layout.execute``, buffer pool
    256 MiB >> 8.6 MB stored, so every partition is resident after warm-up.

    Why: the catalog probe (``partitions_with_missing_cells``) and engine CPU
    do almost all the work here; a tuple-level hash/interval index must show
    on ``range``/``wide``.  Bypasses: blob read, CRC and decode (pool hits
    only), the delta merge, the DAG and the scheduler.
    """

    name = "irregular_warm"

    def __init__(self, seed: int, scale: Scale):
        super().__init__(seed, scale)
        self.columns = self._table_columns()
        self.specs = table_specs(self.rng)
        self.ops = self._fixed_ops()

    def _build(self) -> None:
        table = adapters.make_table("T", self.columns)
        layout = adapters.build_irregular(
            table, TEMPLATES, self.scale.warm_pool_bytes, self.scale.segment_bytes
        )
        self.layouts = [layout]
        self.path = adapters.LayoutPath(layout, table)

    def user_bytes(self) -> int:
        return self.path.table.sizeof()


class ColumnCold(IrregularWarm):
    """The same queries on ``ColumnLayout`` + the scan engine with a 1 MiB
    buffer pool << 5.8 MB stored: the LRU thrashes, so most loads go to the
    blob store.  This is the larger-than-cache workload.

    Why: blob get + CRC + decode and the gather/``arange`` code do the work;
    fused select->project, verify-once checksums and pool changes show here.
    Bypasses: the catalog probe is never called (zero calls), so a
    catalog-index change must show *nothing* on this workload; also the
    delta merge, the DAG and the scheduler.
    """

    name = "column_cold"

    def _build(self) -> None:
        table = adapters.make_table("T", self.columns)
        layout = adapters.build_column(
            table, TEMPLATES, self.scale.cold_pool_bytes, self.scale.segment_bytes
        )
        self.layouts = [layout]
        self.path = adapters.LayoutPath(layout, table)


class JoinGroupby(Workload):
    """``DagExecutor`` over ``bench_join``'s fact x dim catalog (irregular
    layouts with zone maps, co-partitioned on 8 key windows), one client.

    Why: the only path that runs ``HashJoinOp`` / ``GroupAggOp`` / per-split
    join planning, and the path the facade will re-route; without it a join
    regression is silent.  Bypasses: the wide-table layers — the catalog
    probe, decode and the delta merge do little here.
    """

    name = "join_groupby"

    def __init__(self, seed: int, scale: Scale):
        super().__init__(seed, scale)
        rng = self.rng
        self.fact = {
            "f_key": rng.integers(0, KEY_RANGE, scale.n_fact).astype(np.int32),
            "f_val": rng.integers(0, 10_000, scale.n_fact).astype(np.int32),
            "f_tag": rng.integers(0, 8, scale.n_fact).astype(np.int32),
        }
        self.dim = {
            "d_key": rng.integers(0, KEY_RANGE, scale.n_dim).astype(np.int32),
            "d_group": rng.integers(0, 16, scale.n_dim).astype(np.int32),
        }
        self.specs = join_specs(rng)
        self.ops = self._fixed_ops()
        self.spill_path = None

    @staticmethod
    def _windows(columns: Dict[str, np.ndarray], key: str):
        """Disjoint key windows, every attribute projected: the training
        workload that co-partitions both tables on the join key."""
        width = KEY_RANGE // N_KEY_WINDOWS
        return [
            (tuple(columns), {key: (i * width, (i + 1) * width - 1)})
            for i in range(N_KEY_WINDOWS)
        ]

    def _build(self) -> None:
        tables = {
            "fact": adapters.make_table("fact", self.fact),
            "dim": adapters.make_table("dim", self.dim),
        }
        catalog = adapters.build_join_catalog(
            tables,
            {"fact": self._windows(self.fact, "f_key"),
             "dim": self._windows(self.dim, "d_key")},
            self.scale.join_segment_bytes,
        )
        self.layouts = [catalog["fact"], catalog["dim"]]
        self.path = adapters.DagPath(catalog, tables)
        self.spill_path = adapters.DagPath(catalog, tables, spill_budget_bytes=2_048)

    def _floor(self, spec: Spec) -> List[Callable[[], object]]:
        # The join oracle is a correctness reference (O(|L|x|R|)), not a
        # floor; the floor is numpy selecting and gathering the input rows.
        floors = []
        for table, sql in spec.inputs:
            leaf = self.path.leaf(table)
            floors.append(lambda leaf=leaf, query=leaf.parse(sql): leaf.oracle(query))
        return floors

    def extras(self) -> Dict[str, float]:
        fact = self.path.leaf("fact")
        dag_tax = paired_ratio(
            lambda sql: self.path.execute(self.path.parse(sql)),
            lambda sql: fact.execute(fact.parse(sql)),
            [spec.inputs[0][1] for spec in self.specs if spec.cls == "wide"],
        )
        joins = [spec.sql for spec in self.specs if spec.cls == "range"]
        chunks = 0
        for sql in joins:
            _, stats = self.spill_path.execute(self.spill_path.parse(sql))
            chunks += adapters.exec_counts(stats)["spill_chunks"]
        spill = paired_ratio(
            lambda sql: self.spill_path.execute(self.spill_path.parse(sql)),
            lambda sql: self.path.execute(self.path.parse(sql)),
            joins, reps=3,
        )
        return {
            "plan.dag_tax_ratio": dag_tax,
            "plan.spill_join_ratio": spill,
            "plan.spill_chunks_per_query": chunks / len(joins),
        }

    def user_bytes(self) -> int:
        return sum(table.sizeof() for table in self.path.tables.values())

    def close(self) -> None:
        super().close()
        self.spill_path = None


class ServeMixed(Workload):
    """``QueryScheduler(workers=2, queue_depth=16)`` over both engines —
    ``pat`` on the irregular layout, ``scan`` on the column layout, warm
    256 MiB pools, ``PartitionCache`` on.  Two client threads, each a closed
    loop keeping 2 requests in flight (4 outstanding on 2 workers: the queue
    is never empty and never rejects).  Equal ops per class; within a class
    Zipf(1.1) over the 8 distinct queries; 10 % high priority.  Each shape
    goes to the layout built for it — ``point``/``range`` (the trained
    templates) to ``pat``, ``wide`` (off-template) to ``scan`` — so both
    engines are busy at once and a class's latency has one mode, not two
    (a 50/50 engine draw put every class p50 on the boundary between a 27 ms
    and a 7 ms service time, and it moved 30 % from seed to seed).

    Why: the same engines used *concurrently* — queue wait, scheduler/ticket
    overhead, catalog-mutex and pool contention under the GIL.  A
    single-query speedup that adds a lock, or a scheduler simplification,
    shows here and nowhere else.  Bypasses: blob read/decode (warm pools),
    the delta merge and the DAG.
    """

    name = "serve_mixed"
    floor_unit = "mix"  # a request mostly waits behind the other classes
    ENGINE_OF = {"point": "pat", "range": "pat", "wide": "scan"}
    N_CLIENTS = 2
    IN_FLIGHT = 2
    WORKERS = 2
    QUEUE_DEPTH = 16
    ADMISSION_RETRIES = 50

    def __init__(self, seed: int, scale: Scale):
        super().__init__(seed, scale)
        self.columns = self._table_columns()
        self.specs = table_specs(self.rng)
        self.client_ops = [self._client_ops() for _ in range(self.N_CLIENTS)]
        self.ops = [op[0] for ops in self.client_ops for op in ops]

    def _client_ops(self) -> List[Tuple[int, str, bool]]:
        """``(spec index, engine, high priority)`` for one client and round."""
        rng = self.rng
        per_class = N_DISTINCT * self.scale.reps // self.N_CLIENTS
        weights = 1.0 / np.arange(1, N_DISTINCT + 1) ** 1.1
        weights /= weights.sum()
        ops = []
        for cls in self.classes:
            members = [i for i, spec in enumerate(self.specs) if spec.cls == cls]
            for rank in rng.choice(N_DISTINCT, size=max(1, per_class), p=weights):
                ops.append(
                    (members[int(rank)], self.ENGINE_OF[cls], bool(rng.random() < 0.10))
                )
        rng.shuffle(ops)
        return ops

    def _build(self) -> None:
        table = adapters.make_table("T", self.columns)
        pool, segment = self.scale.warm_pool_bytes, self.scale.segment_bytes
        irregular = adapters.build_irregular(table, TEMPLATES, pool, segment)
        column = adapters.build_column(table, TEMPLATES, pool, segment)
        self.layouts = [irregular, column]
        self.path = adapters.ServePath(
            irregular, column, table, self.WORKERS, self.QUEUE_DEPTH
        )

    def warm_up(self) -> None:
        for spec in self.specs:
            query = self.path.parse(spec.sql)
            for engine in self.path.ENGINES:
                self.path.submit(engine, query).wait(timeout=60)

    # ---- one client

    def _submit(self, engine: str, query, high: bool):
        for _ in range(self.ADMISSION_RETRIES):
            try:
                return self.path.submit(engine, query, high)
            except adapters.AdmissionRejected:
                time.sleep(0.001)
        raise adapters.AdmissionRejected("admission retries exhausted")

    def _client(self, ops, out: Round, last: Dict[int, object],
                log: Optional[SpanLog]) -> None:
        window: deque = deque()

        def start(op):
            index, engine, high = op
            out.attempted += 1
            begin = perf_counter()
            request = token = None
            try:
                if log is not None:
                    request = log.begin("request", begin, self.specs[index].cls)
                    token = CURRENT.set(request)
                    with log.span("sql.parse"):
                        query = self.path.parse(self.specs[index].sql)
                else:
                    query = self.path.parse(self.specs[index].sql)
                submitted = perf_counter()
                ticket = self._submit(engine, query, high)
            except Exception as error:
                out.fail(f"submit: {type(error).__name__}: {error}")
                if request is not None:
                    log.end(request)
                return
            finally:
                if token is not None:
                    CURRENT.reset(token)
            window.append((index, ticket, begin, submitted, perf_counter(), request))

        def finish(pending):
            index, ticket, begin, submitted, returned, request = pending
            spec = self.specs[index]
            try:
                result, stats = ticket.wait(timeout=60)
            except Exception as error:
                out.fail(f"{spec.cls}: {type(error).__name__}: {error}")
                if request is not None:
                    log.end(request)
                return
            seconds = (returned - begin) + ticket.latency_s
            out.lat[spec.cls].append(seconds)
            out.tickets.append((ticket.queue_wait_s, ticket.latency_s))
            out.counts.update(adapters.exec_counts(stats))
            if request is not None:
                token = CURRENT.set(request)
                log.record("serve.queue_wait", submitted,
                           submitted + ticket.queue_wait_s)
                CURRENT.reset(token)
                log.end(request, begin + seconds)
                out.requests.append((request, spec.cls, seconds))
            if adapters.n_rows(result) != adapters.n_rows(self.expected[index]):
                out.fail(f"{spec.cls}: row count differs from the oracle")
            last[index] = result

        for op in ops:
            if len(window) == self.IN_FLIGHT:
                finish(window.popleft())
            start(op)
        while window:
            finish(window.popleft())

    def round(self, log: Optional[SpanLog] = None) -> Round:
        outs = [Round(lat={cls: [] for cls in self.classes}) for _ in self.client_ops]
        lasts: List[Dict[int, object]] = [{} for _ in self.client_ops]
        threads = [
            threading.Thread(
                target=self._client, args=(ops, out, last, log),
                name=f"layers-client-{i}",
            )
            for i, (ops, out, last) in enumerate(zip(self.client_ops, outs, lasts))
        ]
        start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - start
        out = Round(lat={cls: [] for cls in self.classes})
        last: Dict[int, object] = {}
        for part, part_last in zip(outs, lasts):
            for cls, values in part.lat.items():
                out.lat[cls].extend(values)
            out.attempted += part.attempted
            out.failed += part.failed
            out.errors.extend(part.errors)
            out.counts.update(part.counts)
            out.requests.extend(part.requests)
            out.tickets.extend(part.tickets)
            last.update(part_last)
        out.busy_s = wall
        self._verify(out, last)
        # Timed on the main thread once the clients are done: an oracle run
        # beside them would queue for the same two cores.
        out.floor = self._time_floor()
        return out

    def _time_floor(self) -> Dict[str, float]:
        """Per class: numpy-oracle seconds for one round's ops, timed now."""
        out = {cls: 0.0 for cls in self.classes}
        for index, count in Counter(self.ops).items():
            out[self.specs[index].cls] += count * sum(
                median_seconds(floor, self.scale.floor_reps)
                for floor in self.floors[index]
            )
        return out

    def extras(self) -> Dict[str, float]:
        items = [
            (engine, self.path.parse(spec.sql))
            for spec in self.specs for engine in self.path.ENGINES
        ]
        return {"serve.tax_ratio": paired_ratio(
            lambda item: self.path.submit(*item).wait(timeout=60),
            lambda item: self.path.execute_direct(*item),
            items, reps=3,
        )}

    def gauges(self) -> Dict[str, float]:
        hits, misses = self.path.cache_counts()
        return {
            "serve.rejections": self.path.rejections(),
            "serve.partition_cache_hit_ratio": hits / max(1, hits + misses),
        }

    def user_bytes(self) -> int:
        return self.path.table.sizeof()

    def written_user_bytes(self) -> int:
        return self.user_bytes() * len(self.layouts)  # loaded once per layout

    def close(self) -> None:
        if self.path is not None:
            self.path.close()
        super().close()


class WriteMixed(Workload):
    """``TransactionalTable`` (WAL on) over the irregular layout of ``T``,
    one client.  A round is one fold period: ``commits_per_fold`` cycles of
    one commit (insert <= 120 rows + update 8 + delete 8, through
    ``txn.insert/update/delete/commit``) then one point, one range and one
    wide read at the current version, then an unbudgeted
    ``DeltaCompactor(txn).run()`` + ``prune_retired()``.  The dense shadow is
    updated outside the timed regions.

    Why: writes beside reads on the same engine — merge-on-read makes a dirty
    read dearer than a clean one, commits cost WAL + delta puts, every fold
    rewrites MBs and stalls the client.  Read cost, write cost and space are
    reported together so moving work between them is visible.  Bypasses: the
    DAG and the scheduler; blob reads are few (warm pool).

    The state evolves (every fold adds partitions), so the number of rounds
    is a fixed function of ``--seconds`` — the state trajectory, and with it
    every count, repeats exactly for a seed.
    """

    name = "write_mixed"

    def __init__(self, seed: int, scale: Scale):
        super().__init__(seed, scale)
        self.columns = self._table_columns()
        self.specs = table_specs(self.rng)
        self.by_class = {
            cls: [i for i, spec in enumerate(self.specs) if spec.cls == cls]
            for cls in self.classes
        }
        self.write_seed = int(self.rng.integers(1 << 31))
        self.write_rng = np.random.default_rng(self.write_seed)
        self.cycle = 0
        self.row_bytes = 4 * len(_NAMES)
        self.rows_written = 0

    def _build(self) -> None:
        table = adapters.make_table("T", self.columns)
        layout = adapters.build_irregular(
            table, TEMPLATES, self.scale.warm_pool_bytes, self.scale.segment_bytes
        )
        self.layouts = [layout]
        self.path = adapters.TxnPath(layout, table)
        self.write_rng = np.random.default_rng(self.write_seed)
        self.cycle = 0
        self.rows_written = 0

    def prepare(self) -> None:
        pass  # the oracle answer depends on the version: taken per op

    def fixed_rounds(self, seconds: float) -> Optional[int]:
        return max(
            self.scale.min_periods, round(seconds * self.scale.periods_per_second)
        )

    def _batch(self) -> dict:
        rng = self.write_rng
        n = int(rng.integers(self.scale.max_insert_rows // 2,
                             self.scale.max_insert_rows + 1))
        picked = rng.choice(self.path.visible_tids(), size=16, replace=False)
        return {
            "insert": {
                name: rng.integers(0, VALUE_RANGE, n).astype(np.int32)
                for name in _NAMES
            },
            "update": np.sort(picked[:8]),
            "assign": {
                _NAMES[int(rng.integers(len(_NAMES)))]: int(rng.integers(VALUE_RANGE))
            },
            "delete": picked[8:],
        }

    def commit_one(self, out: Round, log: Optional[SpanLog]) -> None:
        batch = self._batch()
        store = self.stores()[0]
        puts, put_bytes, wal = store.n_puts, store.put_bytes, self.path.wal_bytes()
        out.attempted += 1
        try:
            if log is None:
                start = perf_counter()
                self.path.stage(batch)
                version = self.path.commit()
                seconds = perf_counter() - start
            else:
                with log.span("request", "commit") as request:
                    with log.span("txn.stage"):
                        self.path.stage(batch)
                    version = self.path.commit()
                span = log.spans[request]
                seconds = span[END] - span[START]
                out.requests.append((request, "commit", seconds))
        except Exception as error:
            out.fail(f"commit: {type(error).__name__}: {error}")
            raise  # table and shadow can no longer agree
        out.commits.append(seconds)
        out.counts["puts"] += store.n_puts - puts
        out.counts["put_bytes"] += store.put_bytes - put_bytes
        out.counts["wal_bytes"] += self.path.wal_bytes() - wal
        self.rows_written += len(next(iter(batch["insert"].values()))) + len(batch["update"])
        self.path.mirror(batch, version)

    def read_one(self, cls: str, out: Round, last: Dict, log) -> None:
        members = self.by_class[cls]
        index = members[self.cycle % len(members)]
        spec = self.specs[index]
        out.attempted += 1
        segments, tombstones = self.path.delta_state()
        out.counts["delta_segments"] += segments
        out.counts["tombstones"] += tombstones
        try:
            query, result, stats, seconds, request = read_op(self.path, spec.sql, log, spec.cls)
        except Exception as error:
            out.fail(f"{cls}: {type(error).__name__}: {error}")
            return
        out.lat[cls].append(seconds)
        out.counts.update(adapters.exec_counts(stats))
        if request is not None:
            out.requests.append((request, cls, seconds))
        start = perf_counter()
        expected = self.path.oracle(query)
        out.floor[cls] = out.floor.get(cls, 0.0) + perf_counter() - start
        if adapters.n_rows(result) != adapters.n_rows(expected):
            out.fail(f"{cls}: row count differs from the shadow")
        last[index] = (result, expected)

    def fold_one(self, out: Round, log: Optional[SpanLog]) -> None:
        out.attempted += 1
        try:
            if log is None:
                start = perf_counter()
                rewritten = self.path.compact()
                seconds = perf_counter() - start
            else:
                with log.span("request", "compaction") as request:
                    rewritten = self.path.compact()
                span = log.spans[request]
                seconds = span[END] - span[START]
                out.requests.append((request, "compaction", seconds))
        except Exception as error:
            out.fail(f"compaction: {type(error).__name__}: {error}")
            raise
        out.stalls.append(seconds)
        out.counts["compactions"] += 1
        out.counts["bytes_rewritten"] += rewritten
        self.path.sync_shadow()

    def round(self, log: Optional[SpanLog] = None) -> Round:
        out = Round(lat={cls: [] for cls in self.classes})
        last: Dict[int, Tuple[object, object]] = {}
        for _ in range(self.scale.commits_per_fold):
            self.commit_one(out, log)
            for cls in self.classes:
                self.read_one(cls, out, last, log)
            self.cycle += 1
        self.fold_one(out, log)
        out.busy_s = out.read_seconds() + sum(out.commits) + sum(out.stalls)
        for index, (result, expected) in last.items():
            if not adapters.same_result(result, expected):
                out.fail(f"{self.specs[index].cls}: cells differ from the shadow")
        return out

    def extras(self) -> Dict[str, float]:
        """Measured on the clean delta state a fold leaves behind."""
        layout = adapters.LayoutPath(self.layouts[0], None)
        return {"txn.clean_tax_ratio": paired_ratio(
            lambda sql: self.path.execute(self.path.parse(sql)),
            lambda sql: layout.execute(layout.parse(sql)),
            [spec.sql for spec in self.specs], reps=3,
        )}

    def user_bytes(self) -> int:
        return self.path.live_rows() * self.row_bytes

    def written_user_bytes(self) -> int:
        return (self.scale.n_rows + self.rows_written) * self.row_bytes


WORKLOADS = {
    cls.name: cls
    for cls in (IrregularWarm, ColumnCold, ServeMixed, WriteMixed, JoinGroupby)
}
