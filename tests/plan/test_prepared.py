"""Prepared relational statements: a shape is planned and priced once.

The SQL statement memo attaches each relational shape's
:class:`~repro.plan.relational.PreparedPlan` to the queries it binds, and a
join is priced from arrays memoised on the pinned
:class:`~repro.storage.catalog.CatalogIndex`.  Both must answer exactly what
a cold build answers: the same plan, the same EXPLAIN text, and the same
:class:`~repro.plan.joins.JoinStrategy` down to the last bit of every float
— checked here against the per-partition walk the chooser used to make,
kept below as the reference.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sql
from repro.core import Query, TableSchema, Workload
from repro.core.cost import MemoryModel
from repro.errors import InvalidQueryError
from repro.layouts import BuildContext, IrregularLayout
from repro.engine import PartitionAtATimeExecutor
from repro.plan import Catalog, DagExecutor
from repro.plan.dag import explain_relational
from repro.plan.joins import JoinSplit, JoinStrategy, _merge_components, choose_join_strategy
from repro.plan.relational import PreparedPlan, ScanNode, build_relational_plan
from repro.sql import parse_relational_statement
from repro.storage import (
    BALOS_HDD,
    TID_CATALOG,
    ColumnTable,
    MemoryBlobStore,
    PartitionManager,
    PhysicalPartition,
    SegmentSpec,
    StorageDevice,
)
from repro.testing import ShadowTable
from repro.testing.join_oracle import build_join_catalog, random_join_tables, run_reference_join
from repro.txn import TransactionalTable

CTX = BuildContext(file_segment_bytes=2048, schism_sample_size=100)

#: The three ``join_groupby`` shapes on a fact x dim pair, and a
#: single-table shape, each with four literal slots (unused ones dropped).
SHAPES = (
    "SELECT f_key, f_b, d_a FROM fact JOIN dim ON f_key = d_key "
    "WHERE f_key BETWEEN {} AND {}",
    "SELECT d_a, SUM(f_a), COUNT(*) FROM fact JOIN dim ON f_key = d_key "
    "WHERE f_key BETWEEN {} AND {} AND d_key BETWEEN {} AND {} GROUP BY d_a",
    "SELECT f_b, SUM(f_a), COUNT(*) FROM fact WHERE f_key BETWEEN {} AND {} GROUP BY f_b",
    "SELECT f_a, f_b FROM fact WHERE f_a >= {} AND f_b <= {}",
)


def build(pruning: bool = True, seed: int = 11):
    fact, dim, fact_train, dim_train = random_join_tables(np.random.default_rng(seed))
    catalog = build_join_catalog(
        lambda: IrregularLayout(zone_maps=pruning, selection_enabled=False),
        fact, dim, fact_train, dim_train, CTX,
    )
    return catalog, {"fact": fact, "dim": dim}


class Binding:
    """A catalog entry over a hand-placed partition set."""

    def __init__(self, table: ColumnTable, specs, pruning: bool):
        self.table = table.meta
        self.manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD), MemoryBlobStore())
        self.manager.materialize_specs(specs, table, tid_storage=TID_CATALOG)
        self.executor = PartitionAtATimeExecutor(self.manager, table.meta, zone_maps=pruning)


def hand_placed(pruning: bool):
    """Both tables co-partitioned on the key in 50-wide windows, the key
    stored beside one column; each table's last column stored apart, in
    tid thirds, so a scan that needs it re-reads key-less partitions in
    every split."""
    rng = np.random.default_rng(11)
    catalog = Catalog()
    tables = (("fact", ["f_key", "f_a", "f_b"], 6000), ("dim", ["d_key", "d_a"], 1500))
    for name, columns, n in tables:
        table = ColumnTable.build(name, TableSchema.uniform(columns), {
            column: rng.integers(0, 400, n).astype(np.int32) for column in columns
        })
        keys = table.column(columns[0])
        specs = [
            [SegmentSpec(tuple(columns[:-1]) if len(columns) > 2 else (columns[0],),
                         np.flatnonzero((keys >= lo) & (keys < lo + 50)))]
            for lo in range(0, 400, 50)
        ] + [[SegmentSpec((columns[-1],), tids)] for tids in np.array_split(np.arange(n), 3)]
        catalog.bind(Binding(table, specs, pruning), name=name)
    return catalog


def co_partitioned(pruning: bool):
    """Irregular layouts trained on the same key windows, large enough that
    both sides split into several key zones: partition-wise joins win."""
    rng = np.random.default_rng(11)

    def table(name, columns, n):
        return ColumnTable.build(name, TableSchema.uniform(columns), {
            column: rng.integers(0, 400, n).astype(np.int32) for column in columns
        })

    def windows(meta, key):
        return Workload(meta, [
            Query.build(meta, list(meta.schema.attribute_names), {key: (lo, lo + 99)})
            for lo in range(0, 400, 100)
        ])

    fact, dim = table("fact", ["f_key", "f_a", "f_b"], 6000), table("dim", ["d_key", "d_a"], 1500)
    return build_join_catalog(
        lambda: IrregularLayout(zone_maps=pruning, selection_enabled=False),
        fact, dim, windows(fact.meta, "f_key"), windows(dim.meta, "d_key"), CTX,
    )


@pytest.fixture(scope="module")
def catalogs():
    """Keyed by (build, pruning); ``True`` is the hand-placed catalog with
    pruning on, the one the lifecycle tests read."""
    built = {
        (build, pruning): make(pruning)
        for build, make in (("hand", hand_placed), ("irregular", co_partitioned))
        for pruning in (True, False)
    }
    return {True: built["hand", True], **built}


def outcome(call):
    try:
        return call(), None
    except InvalidQueryError as exc:  # the error itself is the outcome
        return None, str(exc)


def cold(query):
    """The query with no prepared plan attached: planning prepares afresh."""
    return replace(query, prepared=None)


def assert_same_plan(bound, fresh) -> None:
    assert bound.output == fresh.output and bound.notes == fresh.notes
    assert type(bound.root) is type(fresh.root)
    assert list(bound.scans) == list(fresh.scans)
    for name, scan in bound.scans.items():
        other = fresh.scans[name]
        assert scan is not other  # nodes are mutable: never shared
        assert (scan.columns, scan.pushed, scan.propagated, scan.empty) == (
            other.columns, other.pushed, other.propagated, other.empty
        )
        assert list(scan.pushed) == list(other.pushed)


# ------------------------------------------------- the per-pid walk (reference)


def walk_side(binding, view, key, key_range, columns):
    """``(keyed, unkeyed)`` by visiting every partition of the view."""
    keyed, unkeyed = [], []
    lo, hi = key_range
    needed = set(columns) | {key}
    width = max(1, binding.table.schema.row_width())
    prunes = binding.executor.pruning
    for pid in sorted(view.pids):
        info = view.info(pid)
        if not set(info.attributes) & needed:
            continue
        zone = info.zone_map.get(key) if key in info.attributes else None
        if zone is None:
            unkeyed.append(info.n_bytes)
            continue
        zlo, zhi = zone
        if prunes and (zhi < lo or zlo > hi):
            continue
        keyed.append((zlo, zhi, info.n_bytes if prunes else 0, info.n_bytes / width))
        if not prunes:
            unkeyed.append(info.n_bytes)
    return keyed, unkeyed


def walk_strategy(left, right, left_key, right_key, key_range, left_columns,
                  right_columns, budget, memory, force, views) -> JoinStrategy:
    """The chooser as a per-partition walk with Python sums."""
    io = [b.manager.device.profile.io_model for b in (left, right)]
    sides = [
        walk_side(left, views[0], left_key, key_range, left_columns),
        walk_side(right, views[1], right_key, key_range, right_columns),
    ]

    def spill(model, n_bytes):
        return 0.0 if budget is None or budget <= 0 or n_bytes <= budget else (
            2.0 * model.io_time(n_bytes))

    def price(side, model, zone=None):
        keyed = [e for e in side[0] if zone is None or (e[0] <= zone[1] and zone[0] <= e[1])]
        sizes = [e[2] for e in keyed] + side[1]
        return sum(sizes), sum(e[3] for e in keyed), sum(model.io_time(s) for s in sizes)

    (lb, lr, lio), (rb, rr, rio) = price(sides[0], io[0]), price(sides[1], io[1])
    build_side = "left" if lb <= rb else "right"
    broadcast = lio + rio + memory.mem(lr if build_side == "left" else rr) + spill(
        io[0] if build_side == "left" else io[1], lb if build_side == "left" else rb)
    components = [
        (max(lo, key_range[0]), min(hi, key_range[1]))
        for lo, hi in _merge_components([e[:2] for e in sides[0][0] + sides[1][0]])
        if lo <= key_range[1] and key_range[0] <= hi
    ]
    splits, pw = [], 0.0
    for zone in components:
        (sl, sr, slio), (tb, tr, trio) = price(sides[0], io[0], zone), price(sides[1], io[1], zone)
        left_builds = sl <= tb
        splits.append(JoinSplit(
            zone[0], zone[1], sl, tb, sr, tr, "left" if left_builds else "right",
            f"build={'left' if left_builds else 'right'} ({min(sl, tb)}B vs {max(sl, tb)}B est)",
        ))
        pw += slio + trio + memory.mem(sr if left_builds else tr) + spill(
            io[0] if left_builds else io[1], sl if left_builds else tb)
    if force is not None:
        kind, reason = force, f"forced {force}"
    elif not splits:
        kind, reason = "broadcast", "no key-bearing partitions overlap the pushed key range"
    elif len(splits) < 2:
        kind, reason = "broadcast", (
            "key zones form a single connected range — sides are not "
            "co-partitioned on the join key")
    elif pw <= broadcast:
        kind, reason = "partition-wise", (
            f"{len(splits)} disjoint key splits; est {pw:.3g}s <= broadcast {broadcast:.3g}s")
    else:
        kind, reason = "broadcast", (
            f"{len(splits)} splits but replicated reads make partition-wise "
            f"est {pw:.3g}s > broadcast {broadcast:.3g}s")
    return JoinStrategy(
        kind, build_side, tuple(splits), reason,
        pw if kind == "partition-wise" else broadcast, pw, broadcast, lr, rr,
    )


# ------------------------------------------------------- prepared equals cold

literal = st.integers(-50, 450)


@given(
    shape=st.sampled_from(SHAPES),
    literals=st.lists(literal, min_size=4, max_size=4),
    build=st.sampled_from(["hand", "irregular"]),
    pruning=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_a_bound_statement_plans_and_prices_as_a_cold_build(
    catalogs, shape, literals, build, pruning
):
    catalog = catalogs[build, pruning]
    metas = catalog.metas()
    text = shape.format(*literals)
    parse_relational_statement(metas, shape.format(0, 399, 0, 399))  # the shape is kept
    bound, error = outcome(lambda: parse_relational_statement(metas, text).query)
    fresh, fresh_error = outcome(lambda: sql._parse_relational(metas, text)[0].query)
    assert error == fresh_error  # inverted bounds: the same error
    if bound is None:
        return
    assert bound.prepared is not None and bound.prepared.fits(bound, metas)
    executor = DagExecutor(catalog)
    plan, error = outcome(lambda: executor.plan(bound))
    cold_plan, cold_error = outcome(lambda: build_relational_plan(cold(fresh), metas))
    assert error == cold_error  # a one-sided bound past the table's: inverted
    if plan is None:
        return
    assert_same_plan(plan, cold_plan)
    again = executor.plan(bound).scans  # every bind builds its own nodes
    assert not {id(scan) for scan in again.values()} & {id(s) for s in plan.scans.values()}
    assert explain_relational(plan, executor) == explain_relational(cold_plan, executor)
    if plan.join_nodes:
        node = plan.join_nodes[0]
        assert isinstance(node.left, ScanNode)
        domain = node.right.meta.interval(node.right_key.column)
        key_range = node.right.pushed.get(node.right_key.column, (domain.lo, domain.hi))
        bindings = [catalog["fact"], catalog["dim"]]
        for force in (None, "partition-wise"):
            for budget in (None, 1024):
                args = (*bindings, "f_key", "d_key", key_range, node.left.columns,
                        node.right.columns)
                with executor._pinned(plan) as views:
                    views = [views["fact"], views["dim"]]
                    priced = choose_join_strategy(
                        *args, spill_budget_bytes=budget, memory_model=MemoryModel(),
                        force=force, views=views,
                    )
                    walked = walk_strategy(*args, budget, MemoryModel(), force, views)
                assert priced == walked and repr(priced) == repr(walked)


def test_contradictory_propagation_binds_an_empty_scan(catalogs):
    metas = catalogs[True].metas()
    shape = SHAPES[1]
    parse_relational_statement(metas, shape.format(0, 399, 0, 399))
    query = parse_relational_statement(metas, shape.format(10, 20, 200, 300)).query
    plan = DagExecutor(catalogs[True]).plan(query)
    assert all(scan.empty for scan in plan.scans.values())
    assert_same_plan(plan, build_relational_plan(cold(query), metas))


# ------------------------------------------------------------------ lifecycle


def fold(manager) -> None:
    """Rewrite every live partition under a fresh pid and prune."""
    moved = []
    for pid in manager.pids():
        partition, _delta = manager.load(pid)
        moved.append(PhysicalPartition(manager.next_pid(), partition.segments))
    manager.swap_partitions(moved, remove=list(manager.pids()))
    manager.prune_retired()


def run_exact(executor, tables, text):
    query = parse_relational_statement(executor.catalog.metas(), text).query
    result, _stats = executor.execute(query)
    assert result.equals(run_reference_join(tables, query))
    return query


def test_a_commit_a_fold_and_growth_each_miss_the_memos():
    catalog, tables = build(seed=21)
    fact = catalog["fact"]
    txn = TransactionalTable(fact, tables["fact"])
    shadow = ShadowTable(tables["fact"])
    executor = DagExecutor(catalog)
    text = SHAPES[1].format(40, 300, 0, 399)
    first = run_exact(executor, tables, text)
    index = fact.manager.catalog_index()
    assert run_exact(executor, tables, text).prepared is first.prepared  # a hit

    # A commit grows the table (a new meta) and adds partitions (an index
    # derived by with_added): both memos miss.
    rng = np.random.default_rng(4)
    columns = ("f_key", "f_a", "f_b")
    rows = {name: rng.integers(0, 400, 40).astype(np.int32) for name in columns}
    txn.insert(rows)
    shadow.insert(rows)
    txn.commit()
    tables = {**tables, "fact": ColumnTable(txn.meta, shadow.columns)}
    derived = fact.manager.catalog_index()
    assert derived is not index and derived.pids > index.pids
    assert not derived._key_zones  # pid lists are carried; the join memo is not
    grown = run_exact(executor, tables, text)
    assert grown.prepared is not first.prepared
    assert grown.prepared.fits(grown, catalog.metas())
    rebuilt = type(derived)(derived.infos())
    for attributes in derived._pids_for:
        assert derived.pids_for_attributes(attributes) == rebuilt.pids_for_attributes(attributes)
    for key, attributes in derived._key_zones:
        assert derived.key_zones(key, attributes) == rebuilt.key_zones(key, attributes)

    # A fold swaps every partition: a fresh index, the same meta.
    fold(catalog["dim"].manager)
    folded_index = catalog["dim"].manager.catalog_index()
    assert not folded_index._key_zones and not folded_index._pids_for
    folded = run_exact(executor, tables, text)
    assert folded.prepared is grown.prepared
    assert folded_index._key_zones and folded_index._pids_for


def test_the_statement_memo_is_bounded_and_drops_its_oldest_first(catalogs):
    metas = catalogs[True].metas()
    text = "SELECT f_a FROM fact JOIN dim ON f_key = d_key WHERE f_key = 5{}"
    for value in range(sql._STATEMENT_LIMIT + 5):
        parse_relational_statement(metas, text.format(" " * value))
    assert len(sql._statements) == sql._STATEMENT_LIMIT
    tails = [key[1][-1] for key in sql._statements]
    assert tails == [" " * value for value in range(5, sql._STATEMENT_LIMIT + 5)]


def test_a_failed_bind_does_not_poison_the_shape(catalogs):
    catalog = catalogs[True]
    metas = catalog.metas()
    shape = SHAPES[1]
    first = parse_relational_statement(metas, shape.format(0, 100, 0, 100)).query
    entries = dict(sql._statements)
    with pytest.raises(InvalidQueryError, match="inverted"):
        parse_relational_statement(metas, shape.format(100, 0, 0, 100))
    assert sql._statements == entries
    bound = parse_relational_statement(metas, shape.format(20, 80, 30, 90)).query
    assert bound.prepared is first.prepared
    # A bind that raises in the planner leaves the prepared plan as it was.
    executor = DagExecutor(catalog)
    (ref, _bounds), *rest = bound.where.items()
    inverted = replace(bound, where={ref: (80, 20), **dict(rest)})
    with pytest.raises(InvalidQueryError, match="inverted"):
        executor.plan(inverted)
    assert_same_plan(executor.plan(bound), build_relational_plan(cold(bound), metas))


def test_four_threads_execute_prepared_statements():
    catalog, tables = build(seed=31)
    executor = DagExecutor(catalog)
    metas = catalog.metas()
    rng = np.random.default_rng(8)
    texts = [
        shape.format(lo, lo + 120, lo + 10, lo + 150)
        for shape in SHAPES for lo in rng.integers(0, 250, 3).tolist()
    ]
    queries = [parse_relational_statement(metas, text).query for text in texts]
    expected = [run_reference_join(tables, query) for query in queries]
    fold(catalog["fact"].manager)  # a fresh index: its memos are built under the race
    failures = []

    def client(offset: int) -> None:
        for i in range(len(queries)):
            index = (i + offset) % len(queries)
            result, _stats = executor.execute(queries[index])
            if not result.equals(expected[index]):
                failures.append(texts[index])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the memo builds
    try:
        threads = [threading.Thread(target=client, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "a client did not finish"
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[:3]


def test_a_prepared_plan_is_only_used_for_its_shape_and_metas(catalogs):
    metas = catalogs[True].metas()
    query = parse_relational_statement(metas, SHAPES[0].format(10, 90)).query
    prepared = query.prepared
    assert isinstance(prepared, PreparedPlan)
    other = replace(query, select=query.select[:1])
    assert not prepared.fits(other, metas)
    grown = {**metas, "dim": replace(metas["dim"], n_tuples=metas["dim"].n_tuples + 1)}
    assert not prepared.fits(query, grown)
    assert build_relational_plan(other, metas).output == (query.select[0].qualified,)
