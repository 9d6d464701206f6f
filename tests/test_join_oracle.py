"""Differential-oracle tests for the relational DAG.

Three layers of assurance:

* the seeded sweep (:func:`run_join_differential_oracle`) — every layout
  family x strategy x spill mode x fault injection x the threaded engine —
  and the benchmark shape, where partition-wise must beat naive by 1.5x
  in simulated time;
* hypothesis properties — random (tables, query) pairs must be
  oracle-exact under the default strategy, byte-identical between a tiny
  spill budget and no budget, and exact under injected storage faults;
* an adaptive-swap race — the join replays concurrently with an
  :class:`AdaptiveDaemon` migration and must stay oracle-exact before,
  during, and after the catalog swap;
* aggregate placement — every aggregate x group-key x strategy x spill
  shape is oracle-exact with equal dtypes, the partial fires exactly when
  the rule and the pricing say so, and the ordered path is bit-identical
  to the join -> canonical sort -> one ``GroupAggOp`` pipeline spelled out.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adaptive import AdaptiveConfig, AdaptiveDaemon, AdvisorConfig
from repro.core import AttributeSpec, Query, TableSchema, Workload
from repro.layouts import BuildContext, IrregularLayout
from repro.plan.dag import Catalog, DagExecutor
from repro.plan.relational import AggSpec, ColumnRef, JoinCondition, RelationalQuery
from repro.plan.relops import GroupAggOp, HashJoinOp, Relation
from repro.plan.stats import ExecutionStats
from repro.storage import ColumnTable
from repro.testing.join_oracle import (
    build_join_catalog,
    join_oracle_check,
    random_join_query,
    random_join_tables,
    run_join_differential_oracle,
    run_reference_join,
)
from repro.testing.oracle import inject_faults

CTX = BuildContext(file_segment_bytes=2048, schism_sample_size=100)
IRREGULAR = lambda: IrregularLayout(zone_maps=True, selection_enabled=False)


def _case(seed: int, co_partitioned: bool = True):
    rng = np.random.default_rng(seed)
    fact, dim, fwl, dwl = random_join_tables(rng, co_partitioned=co_partitioned)
    query = random_join_query(rng, fact, dim, label=f"seed{seed}")
    return {"fact": fact, "dim": dim}, (fact, dim, fwl, dwl), query


class TestSweep:
    def test_sweep_is_oracle_exact(self):
        report = run_join_differential_oracle(n_cases=4, seed=3)
        assert report.n_cases == 4
        assert report.ok, report.summary

    @pytest.mark.slow
    def test_full_sweep(self):
        report = run_join_differential_oracle(n_cases=24, seed=0)
        assert report.ok, report.summary

    def test_partition_wise_beats_naive_on_the_bench_shape(self):
        """20 000 x 4 000 rows co-partitioned on 8 key windows, a quarter of
        the key domain joined: every strategy is exact with spill on and
        off, the 2 KiB budget really spills, and partition-wise costs at
        most 1 / 1.5 of naive's simulated time (4.0x at this shape)."""
        catalog, tables = _bench_shape_catalog(n_fact=20_000)
        query = agg_query(BENCH_AGGS, (D_A,), {F_KEY: (750, 999)})
        expected = run_reference_join(tables, query)
        times, spill_chunks = {}, 0
        for force in (None, "partition-wise", "broadcast", "naive"):
            for budget in (None, 2048):
                result, stats = DagExecutor(
                    catalog, spill_budget_bytes=budget, force_strategy=force
                ).execute(query)
                assert_same_cells(result, expected)
                if budget is None:
                    times[force] = stats.simulated_time_s
                else:
                    spill_chunks += stats.n_spill_chunks
        assert spill_chunks > 0
        assert times["partition-wise"] <= times["naive"] / 1.5


class TestJoinProperties:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**31 - 1), co=st.booleans())
    def test_join_matches_reference(self, seed, co):
        tables, (fact, dim, fwl, dwl), query = _case(seed, co_partitioned=co)
        catalog = build_join_catalog(IRREGULAR, fact, dim, fwl, dwl, CTX)
        mismatch = join_oracle_check(DagExecutor(catalog), tables, query)
        assert mismatch is None, mismatch

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**31 - 1))
    def test_spill_is_byte_identical_to_unbounded(self, seed):
        tables, (fact, dim, fwl, dwl), query = _case(seed)
        catalog = build_join_catalog(IRREGULAR, fact, dim, fwl, dwl, CTX)
        unbounded, _ = DagExecutor(catalog).execute(query)
        # A budget this small forces every build side through the Grace
        # spill path; the output contract says nothing may change.
        tiny, stats = DagExecutor(catalog, spill_budget_bytes=256).execute(query)
        assert tiny.equals(unbounded)
        reference = run_reference_join(tables, query)
        assert tiny.equals(reference)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**31 - 1))
    def test_join_survives_storage_faults(self, seed):
        tables, (fact, dim, fwl, dwl), query = _case(seed)
        catalog = build_join_catalog(IRREGULAR, fact, dim, fwl, dwl, CTX)
        inject_faults(catalog["fact"], seed=seed)
        inject_faults(catalog["dim"], seed=seed + 1)
        mismatch = join_oracle_check(DagExecutor(catalog), tables, query)
        assert mismatch is None, mismatch


class TestAdaptiveSwap:
    def test_join_stays_exact_across_daemon_migration(self):
        tables, (fact, dim, fwl, dwl), _ = _case(7)
        query = random_join_query(
            np.random.default_rng(7), fact, dim, label="swap-join"
        )
        fact_layout = IRREGULAR().build(fact, fwl, CTX)
        dim_layout = IRREGULAR().build(dim, dwl, CTX)
        catalog = Catalog({"fact": fact_layout, "dim": dim_layout})
        executor = DagExecutor(catalog)
        expected = run_reference_join(tables, query)

        daemon = AdaptiveDaemon(
            fact_layout,
            AdaptiveConfig(
                window_size=16,
                advisor=AdvisorConfig(
                    drift_threshold=0.2,
                    drift_reset=0.1,
                    min_improvement=0.0,
                    cooldown_queries=2,
                ),
                bytes_budget_per_cycle=1 << 30,
                # In-flight DAG leaves may still hold pre-swap plans.
                auto_prune=False,
            ),
        )
        # Drive drift through the observed mainline: a projection/predicate
        # mix the key-trained layout was never built for.
        meta = fact.meta
        shifted = [
            Query.build(meta, ["f_b"], {"f_a": (0, 150)}, label="S1"),
            Query.build(meta, ["f_b"], {"f_a": (250, 399)}, label="S2"),
        ]
        for _ in range(12):
            for shifted_query in shifted:
                fact_layout.execute(shifted_query)
        # The replayer's join leaves plan through the fact planner too: stop
        # observing, so the window run_cycle scores is the drift above
        # whatever the threads' interleaving.
        daemon.detach()

        version_before = fact_layout.manager.catalog_version
        failures = []

        def replay():
            for _ in range(12):
                result, _ = executor.execute(query)
                if not result.equals(expected):
                    failures.append("mid-swap mismatch")

        replayer = threading.Thread(target=replay, name="join-replayer")
        replayer.start()
        cycle = daemon.run_cycle()
        replayer.join(120.0)
        assert not replayer.is_alive()
        assert not failures, failures
        # The migration must actually have fired for this to test anything.
        assert cycle.fired, cycle.reason
        assert fact_layout.manager.catalog_version > version_before
        # And the post-swap catalog still answers the join exactly.
        after, _ = executor.execute(query)
        assert after.equals(expected)


# ------------------------------------------------------ aggregate placement

F_KEY, F_A, F_B = (ColumnRef("fact", c) for c in ("f_key", "f_a", "f_b"))
D_KEY, D_A = ColumnRef("dim", "d_key"), ColumnRef("dim", "d_a")

#: group keys from the dim side, the fact side, both, the join key, none.
GROUP_KEYS = {
    "dim": (D_A,), "fact": (F_B,), "both": (F_B, D_A), "key": (F_KEY,), "scalar": (),
}
ALL_AGGS = (
    AggSpec("sum", F_A), AggSpec("count", F_A), AggSpec("count", None),
    AggSpec("min", F_A), AggSpec("max", F_A), AggSpec("mean", F_A),
)


def agg_query(aggs, group_by=(), where=None, label="agg") -> RelationalQuery:
    return RelationalQuery(
        tables=("fact", "dim"),
        joins=(JoinCondition(F_KEY, D_KEY),),
        where=dict(where or {}),
        select=tuple(group_by) + tuple(aggs),
        group_by=tuple(group_by),
        label=label,
    )


def assert_same_cells(result, expected):
    assert result.equals(expected)
    for name in expected.output:
        assert result.column(name).dtype == expected.column(name).dtype, name


def ordered_pipeline(catalog, executor, query):
    """The plan every aggregate took before placement, spelled out: scan
    both sides with tuple ids, one in-memory join, the canonical sort, one
    ``GroupAggOp`` over the sorted rows."""
    plan = executor.plan(query)
    (node,) = plan.join_nodes
    sides = [
        Relation.from_result(
            scan.table, catalog[scan.table].execute(scan.compile_query())[0]
        )
        for scan in (node.left, node.right)
    ]
    stats = ExecutionStats()
    joined = HashJoinOp().run(
        *sides, node.left_key.qualified, node.right_key.qualified, stats, True
    )
    op = GroupAggOp([k.qualified for k in plan.root.keys], plan.root.aggs)
    return op.run(joined.sorted_canonical(), stats)


def assert_bit_identical(result, relation):
    for name in result.output:
        assert result.column(name).tobytes() == relation.column(name).tobytes(), name


class TestAggregatePlacementProperties:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        co=st.booleans(),
        aggs=st.lists(st.sampled_from(ALL_AGGS), min_size=1, max_size=3, unique=True),
        keys=st.sampled_from(sorted(GROUP_KEYS)),
        force=st.sampled_from([None, "partition-wise", "broadcast", "naive"]),
        budget=st.sampled_from([None, 256]),
        window=st.booleans(),
        narrow=st.booleans(),
    )
    def test_every_placement_matches_reference(
        self, seed, co, aggs, keys, force, budget, window, narrow
    ):
        rng = np.random.default_rng(seed)
        fact, dim, fwl, dwl = random_join_tables(rng, co_partitioned=co)
        lo = int(rng.integers(0, 300))
        # A key window makes the fact side's partial pay; a narrow f_b range
        # keeps it paying when f_b is a group key too.
        where = {F_KEY: (lo, lo + 99)} if window else {}
        if narrow:
            where[F_B] = (0, 39)
        query = agg_query(aggs, GROUP_KEYS[keys], where)
        catalog = build_join_catalog(IRREGULAR, fact, dim, fwl, dwl, CTX)
        executor = DagExecutor(
            catalog, spill_budget_bytes=budget, force_strategy=force
        )
        result, _ = executor.execute(query)
        assert_same_cells(
            result, run_reference_join({"fact": fact, "dim": dim}, query)
        )


def _bench_shape_catalog(n_fact=40_000, n_dim=4_000, key_range=1_000, float_val=False):
    """The join benchmark shape: fact x dim co-partitioned on 8 key windows
    (``join_groupby`` in ``benchmarks/layers`` runs it at 40 000 fact rows)."""
    rng = np.random.default_rng(17)
    val = rng.integers(0, 10_000, n_fact)
    fact = ColumnTable.build(
        "fact",
        TableSchema([
            AttributeSpec("f_key"),
            AttributeSpec("f_a", 8, "float64", integer=False) if float_val
            else AttributeSpec("f_a"),
            AttributeSpec("f_b"),
        ]),
        {
            "f_key": rng.integers(0, key_range, n_fact).astype(np.int32),
            "f_a": val / 8.0 if float_val else val.astype(np.int32),
            "f_b": rng.integers(0, 8, n_fact).astype(np.int32),
        },
    )
    dim = ColumnTable.build(
        "dim",
        TableSchema.uniform(["d_key", "d_a"]),
        {
            "d_key": rng.integers(0, key_range, n_dim).astype(np.int32),
            "d_a": rng.integers(0, 16, n_dim).astype(np.int32),
        },
    )

    def windows(meta, key):
        width = key_range // 8
        return Workload(meta, [
            Query.build(meta, list(meta.schema.attribute_names),
                        {key: (i * width, (i + 1) * width - 1)}, label=f"w{i}")
            for i in range(8)
        ])

    catalog = build_join_catalog(
        IRREGULAR, fact, dim, windows(fact.meta, "f_key"),
        windows(dim.meta, "d_key"),
        BuildContext(file_segment_bytes=2048, schism_sample_size=200),
    )
    return catalog, {"fact": fact, "dim": dim}


@pytest.fixture(scope="module")
def bench_shape():
    return _bench_shape_catalog()


WINDOW = {F_KEY: (500, 749), D_KEY: (500, 749)}
BENCH_AGGS = (AggSpec("sum", F_A), AggSpec("count", None))


class TestPlacementDecision:
    def choice(self, catalog, query, **kwargs):
        executor = DagExecutor(catalog, **kwargs)
        return executor, executor.choose(executor.plan(query))

    def test_fires_for_the_benchmark_shape(self, bench_shape):
        catalog, tables = bench_shape
        query = agg_query(BENCH_AGGS, (D_A,), WINDOW)
        executor, choice = self.choice(catalog, query)
        assert choice.ordered == "" and choice.partial_side == "fact"
        assert choice.label.startswith("partial below join: fact by f_key, ≤250 groups")
        text = executor.explain(query, analyze=True)
        assert f"aggs=[sum(fact.f_a), count(*)] [{choice.label}]" in text
        assert_same_cells(executor.execute(query)[0], run_reference_join(tables, query))

    @pytest.mark.parametrize("keys", sorted(GROUP_KEYS))
    def test_partial_is_exact_for_every_group_key(self, bench_shape, keys):
        catalog, tables = bench_shape
        query = agg_query(ALL_AGGS, GROUP_KEYS[keys], WINDOW)
        expected = run_reference_join(tables, query)
        for force in (None, "partition-wise", "naive"):
            for budget in (None, 256):
                executor, choice = self.choice(
                    catalog, query, force_strategy=force, spill_budget_bytes=budget
                )
                assert choice.partial_side == "fact"
                assert_same_cells(executor.execute(query)[0], expected)

    def test_rows_reaching_the_root_are_bounded_by_the_other_side(
        self, bench_shape, monkeypatch
    ):
        catalog, tables = bench_shape
        query = agg_query(BENCH_AGGS, (D_A,), WINDOW)
        fact_keys = tables["fact"].column("f_key")
        dim_keys = tables["dim"].column("d_key")
        dim_rows = int(((dim_keys >= 500) & (dim_keys <= 749)).sum())
        join_rows = int(
            (np.bincount(fact_keys, minlength=1000) * np.bincount(dim_keys, minlength=1000))
            [500:750].sum()
        )
        seen = []
        run = GroupAggOp.run
        monkeypatch.setattr(
            GroupAggOp, "run",
            lambda op, relation, stats: seen.append(relation.n_rows) or run(op, relation, stats),
        )
        for force in (None, "partition-wise"):
            del seen[:]
            result, stats = DagExecutor(catalog, force_strategy=force).execute(query)
            # The last GroupAggOp call is the root combine.
            assert seen[-1] <= dim_rows < join_rows
            # Before placement the join alone materialised every joined row:
            # two tuple ids and the four int32 columns, 32 bytes each.
            assert stats.materialized_bytes < join_rows * 32
            assert result.n_rows == 16

    def test_partition_wise_join_is_one_flight_record(self, bench_shape):
        """One user request, one record: the split scans are its leaves (not
        records of their own) and their walls plus the residual are its
        latency."""
        from repro import obs

        catalog, _tables = bench_shape
        query = agg_query(BENCH_AGGS, (D_A,), {})  # every key: four splits
        executor = DagExecutor(catalog, force_strategy="partition-wise")
        n_splits = len(executor.choose(executor.plan(query)).strategy.splits)
        recorder = obs.install_flight_recorder(obs.FlightRecorder())
        try:
            _result, stats = executor.execute(query)
        finally:
            obs.uninstall_flight_recorder()
        (record,) = recorder.records()
        assert record.engine == "dag" and record.table == "fact,dim"
        assert record.bytes_read == stats.bytes_read
        assert record.n_result_tuples == stats.n_result_tuples > 0
        assert n_splits > 1 and len(record.leaves) == 2 * n_splits
        assert {leaf["engine"] for leaf in record.leaves} == {
            catalog["fact"].executor.name
        }
        total = 0.0
        for wall in [leaf["wall_s"] for leaf in record.leaves]:
            total += wall
        assert total + record.unattributed_s == record.wall_time_s
        assert record.latency_s == record.wall_time_s and record.unattributed_s > 0

    def test_float_sum_takes_the_ordered_pipeline_bit_for_bit(self):
        catalog, tables = _bench_shape_catalog(4_000, 400, 200, float_val=True)
        query = agg_query(
            (AggSpec("sum", F_A), AggSpec("mean", F_A)), (D_A,),
            {F_KEY: (40, 139)},
        )
        executor, choice = self.choice(catalog, query)
        assert choice.partial_side is None
        assert choice.label == "ordered: sum(fact.f_a) is not integer-exact"
        expected = ordered_pipeline(catalog, executor, query)
        for force in (None, "partition-wise", "broadcast", "naive"):
            for budget in (None, 256):
                result, _ = DagExecutor(
                    catalog, spill_budget_bytes=budget, force_strategy=force
                ).execute(query)
                assert_bit_identical(result, expected)

    def test_inputs_on_both_sides_do_not_fire(self, bench_shape):
        catalog, tables = bench_shape
        query = agg_query((AggSpec("sum", F_A), AggSpec("max", D_A)), (F_B,), WINDOW)
        executor, choice = self.choice(catalog, query)
        assert choice.ordered == "" and choice.partial_side is None
        assert choice.label == "order-insensitive"
        result, _ = executor.execute(query)
        assert_bit_identical(result, ordered_pipeline(catalog, executor, query))

    def test_no_reduction_does_not_fire(self):
        # Keys are nearly unique on the fact side: grouping it by the join
        # key removes nothing, so the pre-group's inserts are not paid.
        catalog, tables = _bench_shape_catalog(2_000, 4_000, 100_000)
        query = agg_query(BENCH_AGGS, (D_A,))
        executor, choice = self.choice(catalog, query)
        assert choice.ordered == "" and choice.partial_side is None
        assert choice.label.startswith("order-insensitive; no partial pays: fact has")
        result, _ = executor.execute(query)
        assert_bit_identical(result, ordered_pipeline(catalog, executor, query))
        assert_same_cells(result, run_reference_join(tables, query))

    def test_count_star_groups_the_side_that_saves_most(self, bench_shape):
        catalog, tables = bench_shape
        query = agg_query((AggSpec("count", None),), (), WINDOW)
        executor, choice = self.choice(catalog, query)
        assert choice.partial_side == "fact"  # 10x the rows over the same keys
        assert_same_cells(executor.execute(query)[0], run_reference_join(tables, query))


class TestPlacementEdgeCases:
    """SQL empty-input semantics survive every placement."""

    AGGS = ALL_AGGS

    def check(self, catalog, tables, query, **kwargs):
        executor = DagExecutor(catalog, **kwargs)
        result, _ = executor.execute(query)
        assert_same_cells(result, run_reference_join(tables, query))
        return result

    @pytest.mark.parametrize("force", [None, "partition-wise", "broadcast", "naive"])
    def test_window_matching_nothing(self, bench_shape, force):
        catalog, tables = bench_shape
        # Both windows are inside the key domain but disjoint on d_a.
        where = {F_KEY: (100, 199), D_A: (3, 3), F_B: (1, 1), F_A: (0, 0)}
        scalar = self.check(
            catalog, tables, agg_query(self.AGGS, (), where), force_strategy=force
        )
        assert scalar.n_rows == 1
        assert scalar.column("sum(fact.f_a)")[0] == 0.0
        assert scalar.column("count(*)")[0] == 0
        assert np.isnan(scalar.column("min(fact.f_a)")[0])
        assert np.isnan(scalar.column("mean(fact.f_a)")[0])
        grouped = self.check(
            catalog, tables, agg_query(self.AGGS, (D_A,), where), force_strategy=force
        )
        assert grouped.n_rows == 0

    def test_provably_empty_scan(self, bench_shape):
        catalog, tables = bench_shape
        where = {F_KEY: (100, 199), D_KEY: (300, 399)}
        executor = DagExecutor(catalog)
        plan = executor.plan(agg_query(self.AGGS, (), where))
        assert all(scan.empty for scan in plan.scans.values())
        scalar = self.check(catalog, tables, agg_query(self.AGGS, (), where))
        assert scalar.column("count(fact.f_a)")[0] == 0
        assert np.isnan(scalar.column("max(fact.f_a)")[0])
        assert self.check(catalog, tables, agg_query(self.AGGS, (F_B, D_A), where)).n_rows == 0

    def test_single_split_and_scalar_partition_wise(self, bench_shape):
        catalog, tables = bench_shape
        one_split = {F_KEY: (130, 140)}
        for group_by in ((), (D_A,)):
            query = agg_query(self.AGGS, group_by, one_split)
            self.check(catalog, tables, query, force_strategy="partition-wise")
            self.check(catalog, tables, query)
        # A scalar aggregate over many splits merges one partial row each.
        result = self.check(
            catalog, tables, agg_query(self.AGGS, (), WINDOW),
            force_strategy="partition-wise",
        )
        assert result.n_rows == 1 and result.column("count(*)")[0] > 0


class TestExecutionNotes:
    def test_plain_join_skips_the_sort_when_the_left_side_probes(self, bench_shape):
        catalog, tables = bench_shape
        query = RelationalQuery(
            tables=("fact", "dim"),
            joins=(JoinCondition(F_KEY, D_KEY),),
            where={F_KEY: (500, 509)},
            select=(F_KEY, F_A, D_A),
        )
        expected = run_reference_join(tables, query)
        executor = DagExecutor(catalog)
        text = executor.explain(query, analyze=True)
        assert "build=right mode=memory" in text
        assert "sort skipped (probe order is canonical)" in text
        assert_same_cells(executor.execute(query)[0], expected)
        # Partition-wise concatenates splits: not canonical, so it sorts.
        wide = RelationalQuery(
            tables=query.tables, joins=query.joins, where={F_KEY: (100, 400)},
            select=query.select,
        )
        forced = DagExecutor(catalog, force_strategy="partition-wise")
        assert "sort skipped" not in forced.explain(wide, analyze=True)
        assert_same_cells(forced.execute(wide)[0], run_reference_join(tables, wide))

    def test_concurrent_explains_name_only_their_own_tables(self):
        """Two different joins through one executor from two threads: each
        EXPLAIN ANALYZE shows its own notes, never the other request's."""
        rng = np.random.default_rng(5)
        bindings = {}
        for suffix in ("1", "2"):
            fact, dim, fwl, dwl = random_join_tables(rng)
            for table, workload in ((fact, fwl), (dim, dwl)):
                name = table.meta.name + suffix
                renamed = ColumnTable.build(
                    name, table.meta.schema,
                    {a: table.column(a) for a in table.meta.attribute_names},
                )
                queries = [
                    Query.build(renamed.meta, list(q.select),
                                {n: (iv.lo, iv.hi) for n, iv in q.where.items()})
                    for q in workload.queries
                ]
                bindings[name] = IRREGULAR().build(
                    renamed, Workload(renamed.meta, queries), CTX
                )
        executor = DagExecutor(Catalog(bindings))

        def join(suffix):
            fact, dim = f"fact{suffix}", f"dim{suffix}"
            return RelationalQuery(
                tables=(fact, dim),
                joins=(JoinCondition(ColumnRef(fact, "f_key"), ColumnRef(dim, "d_key")),),
                where={},
                select=(ColumnRef(fact, "f_a"), ColumnRef(dim, "d_a")),
            )

        leaks = []
        start = threading.Barrier(2)

        def explain(mine, other):
            start.wait(10.0)
            for _ in range(15):
                text = executor.explain(join(mine), analyze=True)
                notes = text.split("execution:")[1]
                if f"fact{other}" in notes or f"fact{mine}.f_key" not in notes:
                    leaks.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=explain, args=pair)
                for pair in (("1", "2"), ("2", "1"))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not leaks, leaks[0]
