"""A pool-less query's private image against the pool's: one answer, one count.

Without a buffer pool the partition-at-a-time engine files what a query
loads and stacks it into a private image at its first evaluation, per
segment schema, in one batch (:meth:`SchemaImage.stack`); the projection's
loads stack as a second batch.  The pool's image admits partition by
partition, in layers (:meth:`SchemaImage.attach`).  Hypothesis draws
irregular layouts (multi-segment partitions over several segment schemas,
each schema's tids scattered over partitions) and queries, and on each the
pool-less engine must answer byte-equal, dtypes included, to:

* a cold 64 MiB pool, with every :class:`ExecutionStats` counter equal;
* a 4 KiB pool, whose slots die while the query runs so that it moves to a
  private image (``GroupSelectOp._private``, the same batch admission);
  every counter but the pool's own is equal;
* a private image forced to admit in layers, every counter equal;

at the head and ``AS OF`` a version whose partition a swap retired, with a
pool and without one.  Fixed layouts make sure the draws are not all easy
ones: hit-only and full plans, a projection batch stacked into a group the
selection stacked, the ``_private`` move.  And a private image handed two
segments of one schema that share a tuple (which partitions of one pinned
view never are) answers as the layered image does.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Query
from repro.engine import PartitionAtATimeExecutor
from repro.plan.operators import GroupSelectOp, ProjectFillOp
from repro.plan.predicates import Conjunction
from repro.storage import (
    BALOS_HDD,
    TID_EXPLICIT,
    BufferPool,
    PartitionManager,
    PhysicalSegment,
    StorageDevice,
)
from repro.storage.image import SchemaImage, StackedGroup, TupleStackedTwice
from repro.storage.physical import PhysicalPartition
from repro.testing.oracle import random_table, run_reference_query
from repro.testing.snapshot import stats_signature

ATTRS = ("a1", "a2", "a3", "a4")
#: the segment schemas a region of tuples is stored under: each splits the
#: attributes its own way, and every one is shared by several regions.
SCHEMAS = (
    (("a1", "a2"), ("a3",), ("a4",)),
    (("a1",), ("a2", "a3", "a4")),
    (("a1", "a2"), ("a3", "a4")),
    (ATTRS,),
)
POOLS = {"none": 0, "cold": 64 << 20, "evicting": 4 << 10}
#: the counters a run that hits the pool shares with one that does not.
EVENTS = (
    "n_partition_reads", "n_partitions_skipped", "n_partitions_pruned",
    "cells_scanned", "hash_inserts", "hash_updates", "n_result_tuples",
    "cpu_time_s",
)


def events(stats):
    return tuple(getattr(stats, name) for name in EVENTS)


def byte_equal(result, other):
    """Tuple IDs and every column equal byte for byte, dtypes included."""
    if list(result.columns) != list(other.columns):
        return False
    pairs = [(result.tuple_ids, other.tuple_ids)] + [
        (result.columns[name], other.columns[name]) for name in result.columns
    ]
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in pairs)


def region_specs(n_tuples, seed, regions):
    """Partitions as lists of ``(attributes, tids)`` segments: the tuples
    scattered over ``regions``, each ``(schema, cut)`` stored under
    ``SCHEMAS[schema]`` in one partition, or two split at segment ``cut``."""
    owner = np.random.default_rng(seed).integers(0, len(regions), n_tuples)
    specs = []
    for index, (schema, cut) in enumerate(regions):
        own = np.flatnonzero(owner == index).astype(np.int64)
        if not len(own):
            continue
        segments = [(attrs, own) for attrs in SCHEMAS[schema]]
        cut %= len(segments)
        specs += [segments[:cut], segments[cut:]] if cut else [segments]
    return specs


def manager_of(table, specs, pool_bytes):
    manager = PartitionManager(
        table.schema, StorageDevice(BALOS_HDD),
        buffer_pool=BufferPool(pool_bytes) if pool_bytes else None,
    )
    manager.materialize([
        PhysicalPartition(pid=pid, segments=[
            PhysicalSegment(
                attributes=attrs, tuple_ids=own,
                columns=table.gather(attrs, own), tid_storage=TID_EXPLICIT,
            )
            for attrs, own in segments
        ])
        for pid, segments in enumerate(specs)
    ])
    return manager


def retire_first(manager):
    """Pin a view, then rewrite the first partition under a fresh pid: the
    view reads the retired partition, the head its copy.  Returns the view."""
    view = manager.pin_snapshot()
    old = manager.pids()[0]
    partition = manager.load(old)[0]
    manager.swap_partitions([PhysicalPartition(manager.next_pid(), [
        PhysicalSegment(
            segment.attributes, np.array(segment.tuple_ids),
            {name: np.array(segment.columns[name]) for name in segment.attributes},
            tid_storage=TID_EXPLICIT,
        )
        for segment in partition.segments
    ])], remove=[old])
    return view


def layered_private():
    """Every pool-less query's private image admits in layers."""
    real = GroupSelectOp.__init__

    def init(self, *args):
        real(self, *args)
        self.layered = True
    return mock.patch.object(GroupSelectOp, "__init__", init)


def query_of(table, projected, where):
    """``where``'s bounds clamped into the table's values."""
    bounds = {}
    for name, (lo, hi) in where.items():
        interval = table.meta.interval(name)
        lo = min(max(lo, int(interval.lo)), int(interval.hi))
        bounds[name] = (lo, min(max(hi, lo), int(interval.hi)))
    return Query.build(table.meta, list(projected), bounds)


def check_layout(table, specs, queries, zone_maps=False):
    """Every query in every configuration, at the head and ``AS OF`` the
    retired version.  Returns the plans' ``visits_once`` flags."""
    managers = {name: manager_of(table, specs, size) for name, size in POOLS.items()}
    views = {name: retire_first(manager) for name, manager in managers.items()}
    engines = {
        name: PartitionAtATimeExecutor(manager, table.meta, zone_maps=zone_maps)
        for name, manager in managers.items()
    }
    visits_once = []
    try:
        for query in queries:
            expected = run_reference_query(table, query)
            visits_once.append(engines["none"].plan(query).visits_once)
            for snapshot in (None, "view"):
                runs = {}
                for name, engine in engines.items():
                    pool = managers[name].buffer_pool
                    if pool is not None:
                        pool.clear()
                    view = views[name] if snapshot else None
                    runs[name] = engine.execute(query, snapshot=view)
                    # A second read: the pool's image now holds the other
                    # version's rewrite too, a second layer of its schemas.
                    other = None if snapshot else views[name]
                    engine.execute(query, snapshot=other)
                    runs[name + "/again"] = engine.execute(query, snapshot=view)
                with layered_private():
                    runs["layered"] = engines["none"].execute(
                        query, snapshot=views["none"] if snapshot else None)
                result, stats = runs["none"]
                assert result.equals(expected)
                for name, (other, other_stats) in runs.items():
                    assert byte_equal(result, other), (name, snapshot)
                    assert events(stats) == events(other_stats), (name, snapshot)
                for name in ("none/again", "cold", "layered"):
                    assert stats_signature(runs[name][1]) == stats_signature(stats), name
    finally:
        for view in views.values():
            view.release()
    return visits_once


bounds = st.tuples(st.integers(0, 999), st.integers(0, 999)).map(sorted)
queries = st.tuples(
    st.lists(st.sampled_from(ATTRS), min_size=1, max_size=4, unique=True),
    st.dictionaries(st.sampled_from(ATTRS), bounds, min_size=1, max_size=2),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_tuples=st.integers(20, 300),
    seed=st.integers(0, 2 ** 16),
    regions=st.lists(
        st.tuples(st.integers(0, len(SCHEMAS) - 1), st.integers(0, 3)),
        min_size=1, max_size=6,
    ),
    drawn=st.lists(queries, min_size=1, max_size=3),
    zone_maps=st.booleans(),
)
def test_the_private_image_answers_as_the_pools(n_tuples, seed, regions, drawn, zone_maps):
    table = random_table(np.random.default_rng(seed), n_attrs=len(ATTRS), n_tuples=n_tuples)
    specs = region_specs(n_tuples, seed, regions)
    check_layout(table, specs, [query_of(table, *q) for q in drawn], zone_maps)


N = 400


@pytest.fixture(scope="module")
def table():
    return random_table(np.random.default_rng(7), n_attrs=len(ATTRS), n_tuples=N)


def spied(owner, name):
    """Patch ``owner.name`` (an instance method) to record, per call, the
    instance and its ``n_rows`` (None without one) before the call runs."""
    real, calls = getattr(owner, name), []

    def spy(self, *args):
        calls.append((self, getattr(self, "n_rows", None)))
        return real(self, *args)
    return mock.patch.object(owner, name, spy), calls


#: every partition storing a1 stores it in each of its segments, so a
#: selection on a1 alone is hit-only; the projection of a3 and a4 stacks a
#: second batch (schemas the selection did not read).
HIT_ONLY = [(2, 1), (0, 1), (3, 0)]
#: a1 and a2 apart in region 3's partitions: the full form.  Regions 0 and
#: 4 keep their (a1, a2) and (a3, a4) segments in one partition, region 1
#: splits them over two, so the projection of a3 stacks region 1's (a3, a4)
#: segment into the two-slot group the selection stacked.  (In a hit-only
#: plan every segment the selection stacked holds a predicate attribute, so
#: no later partition shares its schema.)
SECOND_BATCH = [(2, 0), (2, 1), (0, 0), (1, 1), (2, 0)]


@pytest.mark.parametrize("regions, where", [
    (HIT_ONLY, {"a1": (0, 699)}),
    (SECOND_BATCH, {"a1": (0, 699), "a2": (100, 899)}),
], ids=["hit-only", "full"])
def test_a_projection_stacks_a_second_batch(table, regions, where):
    specs = region_specs(N, 3, regions)
    query = query_of(table, ["a2", "a3", "a4"], where)
    images, batches = spied(SchemaImage, "stack")
    groups, stacked = spied(StackedGroup, "stack")
    with images, groups:
        visits_once = check_layout(table, specs, [query])
    assert visits_once == [regions is HIT_ONLY]
    # Some private image took a second batch ...
    per_image = Counter(id(image) for image, _ in batches)
    assert max(per_image.values()) >= 2
    # ... and in the full form, into a group whose first batch held rows.
    assert any(n_rows for _group, n_rows in stacked) == (regions is SECOND_BATCH)


def test_a_small_pool_moves_queries_to_a_stacked_private_image(table):
    specs = region_specs(N, 4, [(0, 1), (1, 1), (2, 0), (0, 2), (3, 0)])
    queries = [
        query_of(table, ATTRS, {"a1": (0, 999)}),
        query_of(table, ["a3", "a4"], {"a2": (100, 800), "a1": (0, 500)}),
    ]
    private, moved = spied(GroupSelectOp, "_private")
    stack, stacked = spied(StackedGroup, "stack")
    with private, stack:
        check_layout(table, specs, queries)
    assert moved and stacked


def fill_through(op, table, projected):
    """The op's grouped selection and fill: ``(result columns, counters)``."""
    inserts, stashed = op.select_groups()
    fill = ProjectFillOp(projected, op, table.schema)
    written = op.fill(fill, op.evaluated)
    return fill, (inserts, stashed, written)


def test_a_tuple_stacked_twice_is_answered_in_layers(table):
    """Pids 0 and 1 both hold tuple 7's (a1, a2) cells, which one pinned
    view's partitions never do: the stacked group finds it when the fill
    places its positions, and the query re-admits in layers."""
    projected = ("a1", "a2")
    query = query_of(table, projected, {"a1": (0, 999)})

    def partitions():
        return [
            PhysicalPartition(pid, [PhysicalSegment(
                projected, own, table.gather(projected, own), tid_storage=TID_EXPLICIT,
            )])
            for pid, own in enumerate([np.arange(0, 8), np.arange(7, 20)])
        ]

    def op(layered):
        select = GroupSelectOp(
            Conjunction.normalized(query), projected, N, None, True, frozenset(), None)
        select.layered = layered
        select.add_run([0, 1], partitions(), True)
        return select

    stacked, layered = op(False), op(True)
    real = GroupSelectOp._layered
    with mock.patch.object(
        GroupSelectOp, "_layered", autospec=True, side_effect=real
    ) as moved:
        fill, counters = fill_through(stacked, table, projected)
    assert moved.call_count == 1 and stacked.layered
    expected_fill, expected = fill_through(layered, table, projected)
    assert counters == expected
    assert np.array_equal(fill.valid, expected_fill.valid)
    for name in projected:
        assert fill.filled[name].all()
        assert np.array_equal(fill.columns[name], expected_fill.columns[name])
        assert np.array_equal(fill.columns[name], table.column(name)[fill.valid])
    # The layered image holds the schema in two layers.
    assert len(stacked.image.groups()) == 2
    with pytest.raises(TupleStackedTwice):
        group = StackedGroup(projected)
        group.stack([(p.pid, p.segments[0]) for p in partitions()])
        group.rows(np.arange(20))
