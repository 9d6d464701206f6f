"""The zone verdict equals the per-partition classification.

A plan's pruned pids are computed once, as set algebra over the catalog's
zone arrays (:meth:`LogicalPlan.verdict`); ``classify`` is the per-pid
definition the EXPLAIN reasons come from.  The two must agree on every pid
of every view: both policies, overlapping primaries, sketched partitions,
partitions storing an attribute with no cells (a ``(-inf, +inf)`` zone
row), indexes derived by ``with_added`` and by a fold, and a plan replayed
from the partition cache.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Query, TableSchema, Workload
from repro.core.ranges import Interval
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.layouts import BuildContext, IrregularLayout
from repro.plan.logical import (
    POLICY_PARTITION,
    POLICY_SCAN,
    LogicalPlan,
    Verdict,
)
from repro.serve import PartitionCache
from repro.storage import BALOS_HDD, ColumnTable, PartitionManager, StorageDevice
from repro.storage.physical import PhysicalPartition, PhysicalSegment
from repro.testing.oracle import random_query, random_table, random_workload
from repro.txn import DeltaCompactor, TransactionalTable

POLICIES = (POLICY_SCAN, POLICY_PARTITION)
N_TUPLES = 24
ATTRS = ("a1", "a2", "a3", "a4")
TABLE = ColumnTable.build(
    "T",
    TableSchema.uniform(list(ATTRS)),
    {
        name: np.arange(N_TUPLES, dtype=np.int32) * (i + 1) + 100 * i
        for i, name in enumerate(ATTRS)
    },
)


def assert_verdict_is_classify(verdict: Verdict, query: Query, policy, index):
    """Every pid of ``index``: pruned by the verdict iff ``classify`` says
    PRUNED, and sketched iff a sketch (not a zone) is the reason."""
    logical = LogicalPlan(query, policy=policy, pruning=True)
    for info in index.infos():
        decision = logical.classify(info)
        assert (info.pid in verdict.pruned) == decision.is_pruned, decision
        assert (info.pid in verdict.sketched) == (
            decision.is_pruned and "sketch" in decision.reason
        ), decision


def check_view(query: Query, view) -> int:
    """Both policies' verdicts over ``view``; returns the pids pruned."""
    pruned = 0
    for policy in POLICIES:
        verdict = LogicalPlan(query, policy=policy, pruning=True).verdict(view.index)
        assert_verdict_is_classify(verdict, query, policy, view.index)
        pruned += len(verdict.pruned)
    return pruned


# ------------------------------------------------------ hand-drawn catalogs


def physical(pid, segments) -> PhysicalPartition:
    """``segments``: ``(attributes, tids)``; tids may be empty (an
    attribute stored with no cells has no zone) and may repeat across
    partitions (overlapping primaries)."""
    built = []
    for attributes, tids in segments:
        attrs = tuple(a for a in ATTRS if a in attributes)
        tids = np.asarray(sorted(tids), dtype=np.int64)
        built.append(PhysicalSegment(
            attributes=attrs, tuple_ids=tids, columns=TABLE.gather(attrs, tids),
        ))
    return PhysicalPartition(pid=pid, segments=built)


segments = st.lists(
    st.tuples(
        st.sets(st.sampled_from(ATTRS), min_size=1),
        st.sets(st.integers(0, N_TUPLES - 1), max_size=8),
    ),
    min_size=1,
    max_size=3,
)
predicates = st.dictionaries(
    st.sampled_from(ATTRS),
    st.tuples(st.integers(-20, 420), st.integers(0, 120)),
    min_size=1,
    max_size=3,
)


@given(
    st.lists(segments, min_size=1, max_size=7),
    st.lists(predicates, min_size=1, max_size=3),
)
@settings(max_examples=120, deadline=None)
def test_hand_drawn_catalogs_through_add_only_swaps(drawn, wheres):
    """One partition is added at a time, so every index after the first is
    derived by ``with_added`` from one whose zone arrays the previous
    verdicts memoised; each is checked for every query and both policies."""
    manager = PartitionManager(TABLE.schema, StorageDevice(BALOS_HDD))
    queries = [  # unclipped: a range may miss the whole table
        Query(("a1",), {
            name: Interval(lo, lo + width) for name, (lo, width) in where.items()
        }, TABLE.meta)
        for where in wheres
    ]
    for pid, drawn_segments in enumerate(drawn):
        manager.add_partition(physical(pid, drawn_segments))
        with manager.pin_snapshot() as view:
            for query in queries:
                check_view(query, view)


# ---------------------------------------------------------------- layouts


def sketched_build(builder, table, train):
    return builder.build(table, train, BuildContext(
        file_segment_bytes=512, schism_sample_size=100, sketch_budget_bytes=4096,
    ))


@settings(
    max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(seed=st.integers(0, 2**31 - 1))
def test_irregular_builds_with_sketches(seed):
    """Random tables built irregular, with sketches: the planners' own
    verdicts (pat: partition policy, scan) and the standalone one, for the
    workload and off-workload queries."""
    rng = np.random.default_rng(seed)
    table = random_table(rng, n_attrs=5, n_tuples=int(rng.integers(300, 700)))
    train = random_workload(rng, table, n_queries=4)
    queries = list(train) + [random_query(rng, table) for _ in range(4)]
    builder = IrregularLayout(selection_enabled=False)
    manager = sketched_build(builder, table, train).manager
    pat = PartitionAtATimeExecutor(manager, table.meta, zone_maps=True)
    scan = ScanExecutor(manager, table.meta, zone_maps=True)
    with manager.pin_snapshot() as view:
        for query in queries:
            check_view(query, view)
            for policy, engine in ((POLICY_PARTITION, pat), (POLICY_SCAN, scan)):
                plan = engine.planner.plan(query, snapshot=view)
                assert_verdict_is_classify(plan.verdict, query, policy, view.index)


def interleaved_table() -> ColumnTable:
    """Every ``a1`` is even and ``a2`` tracks it, so zones prune neither an
    odd equality nor an off-diagonal rectangle and sketches refute both."""
    a1 = (np.arange(400, dtype=np.int32) * 2) % 100
    return ColumnTable.build(
        "T", TableSchema.uniform(["a1", "a2", "a3"]),
        {"a1": a1, "a2": a1.copy(), "a3": np.arange(400, dtype=np.int32)},
    )


def test_sketch_prunes_are_sketched_in_both_policies():
    table = interleaved_table()
    meta = table.meta
    train = Workload(meta, [
        Query.build(meta, ["a3"], {"a1": (3, 3)}),
        Query.build(meta, ["a3"], {"a1": (0, 40), "a2": (60, 98)}),
    ])
    layout = sketched_build(IrregularLayout(selection_enabled=False), table, train)
    sketched = 0
    with layout.manager.pin_snapshot() as view:
        assert any(info.sketches is not None for info in view.index.infos())
        for query in (*train, Query.build(meta, ["a3"], {"a1": (7, 7)})):
            for policy in POLICIES:
                verdict = LogicalPlan(query, policy, pruning=True).verdict(view.index)
                assert_verdict_is_classify(verdict, query, policy, view.index)
                sketched += len(verdict.sketched)
    assert sketched > 0


def test_views_after_commits_and_a_fold():
    """Commits add delta partitions (``with_added``), a budgeted fold
    rewrites some and defers others: the head and every ``AS OF``
    version."""
    rng = np.random.default_rng(3)
    table = random_table(rng, n_attrs=4, n_tuples=400)
    train = random_workload(rng, table, n_queries=3)
    layout = IrregularLayout(selection_enabled=False).build(
        table, train, BuildContext(file_segment_bytes=512, schism_sample_size=100)
    )
    txn = TransactionalTable(layout, table)
    names = list(table.schema.attribute_names)
    versions = [txn.current_version]
    for _ in range(4):
        txn.insert({name: rng.integers(0, 1_000, 30).astype(np.int32) for name in names})
        txn.delete(tids=rng.choice(txn.data.n_tuples, 10, replace=False))
        versions.append(txn.commit())
    report = DeltaCompactor(txn, bytes_budget=4 * 1024).run()
    assert report.n_new_partitions and report.n_partitions_deferred
    queries = [random_query(rng, table) for _ in range(6)]
    pruned = 0
    for version in [None] + versions:
        with txn.pin(version) as view:
            for query in queries:
                pruned += check_view(query, view)
    assert pruned > 0


# ------------------------------------------------------------ the cache


@pytest.mark.parametrize("engine", [PartitionAtATimeExecutor, ScanExecutor])
def test_a_cache_hit_replays_the_recorded_verdict(engine):
    rng = np.random.default_rng(5)
    table = random_table(rng, n_attrs=4, n_tuples=500)
    train = random_workload(rng, table, n_queries=3)
    layout = sketched_build(IrregularLayout(selection_enabled=False), table, train)
    manager = layout.manager
    cache = PartitionCache(manager)
    executor = engine(manager, table.meta, zone_maps=True, partition_cache=cache)
    for query in train:
        recorded = executor.planner.plan(query)
        other = Query.build(table.meta, list(table.schema.attribute_names[-1:]), {
            name: (iv.lo, iv.hi) for name, iv in query.where.items()
        })
        replayed = executor.planner.plan(other)
        # One immutable entry: the hit plan holds the recorded verdict.
        assert replayed.verdict.pruned is recorded.verdict.pruned
        assert replayed.verdict.cached == frozenset(
            recorded.selection_pids() + recorded.projection_pids()
        )
        with manager.pin_snapshot() as view:
            assert_verdict_is_classify(
                replayed.verdict, other, engine.policy, view.index
            )
        for access in replayed.selection:
            assert access.decision.reason.endswith(" [partition cache]")
    assert cache.stats.n_hits == len(train)
