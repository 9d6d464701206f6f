"""Property-based tests (hypothesis) for the semantic partition cache.

Three families of invariants:

* **signature normalization** — equal normalized conjunctions (reordered
  conjuncts, flipped bounds) map to equal signatures; different pruning
  policies never share one;
* **coherence** — a catalog-version bump makes every prior entry
  unreachable (and the invalidation hook reclaims it);
* **pruning identity** — on random tables and queries, a cache-wired
  executor prunes to exactly the partition-ID set a cache-free twin does,
  both on the recording (cold) pass and the replaying (warm) pass, and both
  reproduce the dense numpy reference.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import PartitionAtATimeExecutor
from repro.layouts import BuildContext, IrregularLayout
from repro.serve import PartitionCache, predicate_signature
from repro.storage import PhysicalPartition
from repro.testing.oracle import (
    random_query,
    random_table,
    random_workload,
    run_reference_query,
)

ATTRIBUTES = [f"a{i}" for i in range(1, 7)]

predicate_maps = st.dictionaries(
    st.sampled_from(ATTRIBUTES),
    st.tuples(st.integers(-1_000, 1_000), st.integers(-1_000, 1_000)),
    min_size=1,
    max_size=4,
)
policies = st.sampled_from(["scan", "partition"])


class TestSignatureNormalization:
    @given(preds=predicate_maps, policy=policies, pruning=st.booleans(),
           data=st.data())
    def test_conjunct_order_never_splits_entries(
        self, preds, policy, pruning, data
    ):
        shuffled = dict(data.draw(st.permutations(list(preds.items()))))
        assert predicate_signature(preds, policy, pruning) == (
            predicate_signature(shuffled, policy, pruning)
        )

    @given(preds=predicate_maps, policy=policies, pruning=st.booleans())
    def test_flipped_bounds_never_split_entries(self, preds, policy, pruning):
        flipped = {name: (hi, lo) for name, (lo, hi) in preds.items()}
        assert predicate_signature(preds, policy, pruning) == (
            predicate_signature(flipped, policy, pruning)
        )

    @given(preds=predicate_maps, pruning=st.booleans())
    def test_policies_never_share_an_entry(self, preds, pruning):
        # Scan (any-disjoint) and partition (all-disjoint) pruning reach
        # different verdicts for the same predicates; one key would be unsound.
        assert predicate_signature(preds, "scan", pruning) != (
            predicate_signature(preds, "partition", pruning)
        )

    @given(preds=predicate_maps, policy=policies)
    def test_pruning_flag_never_shares_an_entry(self, preds, policy):
        assert predicate_signature(preds, policy, True) != (
            predicate_signature(preds, policy, False)
        )

    @given(preds=predicate_maps, policy=policies, pruning=st.booleans())
    def test_signature_is_deterministic_and_hashable(
        self, preds, policy, pruning
    ):
        a = predicate_signature(preds, policy, pruning)
        b = predicate_signature(dict(preds), policy, pruning)
        assert a == b and hash(a) == hash(b)


class TestCoherence:
    def test_catalog_version_bump_makes_entries_miss(
        self, irregular_layout, serve_table
    ):
        manager = irregular_layout.manager
        cache = PartitionCache(manager)
        engine = PartitionAtATimeExecutor(
            manager, serve_table.meta, zone_maps=True, partition_cache=cache
        )
        query = random_query(
            np.random.default_rng(7), serve_table, label="q"
        )
        expected = run_reference_query(serve_table, query)

        result, _ = engine.execute(query)
        assert result.equals(expected)
        assert (cache.stats.n_misses, cache.stats.n_hits) == (1, 0)
        result, _ = engine.execute(query)
        assert result.equals(expected)
        assert cache.stats.n_hits == 1

        # An identity-preserving swap: move one partition's cells to a
        # fresh pid.  Data is unchanged, but the catalog version moved —
        # every cached verdict must become unreachable.
        pid = manager.pids()[0]
        partition, _ = manager.load(pid)
        version_before = manager.catalog_version
        manager.swap_partitions(
            [PhysicalPartition(manager.next_pid(), partition.segments)],
            remove=[pid],
        )
        assert manager.catalog_version != version_before
        assert len(cache) == 0  # the invalidation hook reclaimed the entry
        assert cache.stats.n_invalidated >= 1

        result, _ = engine.execute(query)
        assert result.equals(expected)
        assert cache.stats.n_misses == 2  # new version: a miss, not a replay

    def test_reordered_conjuncts_share_one_entry(
        self, irregular_layout, serve_table
    ):
        from repro.core import Query

        manager = irregular_layout.manager
        cache = PartitionCache(manager)
        engine = PartitionAtATimeExecutor(
            manager, serve_table.meta, zone_maps=True, partition_cache=cache
        )
        meta = serve_table.meta
        select = [meta.schema.attribute_names[0]]
        a, b = meta.schema.attribute_names[1:3]
        bounds_a, bounds_b = (10, 500), (200, 900)
        q1 = Query.build(meta, select, {a: bounds_a, b: bounds_b}, label="q1")
        q2 = Query.build(meta, select, {b: bounds_b, a: bounds_a}, label="q2")
        engine.execute(q1)
        engine.execute(q2)
        assert cache.stats.n_misses == 1
        assert cache.stats.n_hits == 1
        assert len(cache) == 1


def _surviving_pids(executor, query) -> tuple:
    plan = executor.plan(query)
    pids = {a.pid for a in plan.selection if not a.decision.is_pruned}
    pids.update(a.pid for a in plan.projection if not a.decision.is_pruned)
    return tuple(sorted(pids))


class TestPruningIdentity:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**31 - 1))
    def test_cache_on_prunes_exactly_like_cache_off(self, seed):
        rng = np.random.default_rng(seed)
        table = random_table(rng, n_attrs=4)
        workload = random_workload(rng, table, n_queries=4)
        layout = IrregularLayout(selection_enabled=False).build(
            table,
            workload,
            BuildContext(file_segment_bytes=2048, schism_sample_size=100),
        )
        manager = layout.manager
        cache = PartitionCache(manager)
        cached = PartitionAtATimeExecutor(
            manager, table.meta, zone_maps=True, partition_cache=cache
        )
        plain = PartitionAtATimeExecutor(manager, table.meta, zone_maps=True)
        for query in workload:
            reference = run_reference_query(table, query)
            # Pass 1 records the entry; pass 2 replays it.  Both must land
            # on the cache-off partition set and the reference rows.
            for _ in range(2):
                assert _surviving_pids(cached, query) == (
                    _surviving_pids(plain, query)
                )
                result, _ = cached.execute(query)
                assert result.equals(reference)
        assert cache.stats.n_hits > 0
