"""Unit tests for the relational operators and the join-strategy chooser."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Query, TableSchema, Workload
from repro.layouts import BuildContext, IrregularLayout
from repro.plan.joins import _merge_components, choose_join_strategy
from repro.plan.relational import AggSpec, ColumnRef
from repro.plan import relops
from repro.plan.relops import (
    GroupAggOp,
    HashJoinOp,
    Relation,
    SpillConfig,
    partial_aggs,
    tid_column,
)
from repro.plan.stats import ExecutionStats
from repro.errors import StorageError
from repro.storage import ColumnTable
from repro.storage.blob import MemoryBlobStore
from repro.testing.join_oracle import build_join_catalog, random_join_tables


def relation(table: str, **columns) -> Relation:
    arrays = {tid_column(table): np.arange(len(next(iter(columns.values()))))}
    for name, values in columns.items():
        arrays[f"{table}.{name}"] = np.asarray(values)
    return Relation(columns=arrays, tid_tables=(table,), ordered=True)


class FailingPutStore(MemoryBlobStore):
    """Raises on the ``fail_at``-th put (0-based), like a full store."""

    def __init__(self, fail_at: int):
        super().__init__()
        self.fail_at = fail_at
        self.n_puts = 0

    def put(self, key: str, data: bytes) -> None:
        self.n_puts += 1
        if self.n_puts - 1 == self.fail_at:
            raise StorageError(f"store full at put {self.fail_at}")
        super().put(key, data)


class TestMatchPairs:
    def test_duplicates_cross_product(self):
        build = np.array([1, 2, 2, 3])
        probe = np.array([2, 2, 4])
        b, p = HashJoinOp._match_pairs(build, probe)
        pairs = sorted(zip(b.tolist(), p.tolist()))
        # Two build 2s x two probe 2s = four pairs; 4 matches nothing.
        assert pairs == [(1, 0), (1, 1), (2, 0), (2, 1)]

    def test_no_matches(self):
        b, p = HashJoinOp._match_pairs(np.array([1, 2]), np.array([3, 4]))
        assert len(b) == 0 and len(p) == 0


class TestHashJoinOp:
    def setup_method(self):
        self.left = relation("l", k=[1, 2, 2, 5], v=[10, 20, 21, 50])
        self.right = relation("r", k=[2, 2, 5, 7], w=[200, 201, 500, 700])

    def run_join(self, spill=None, build_is_left=True) -> Relation:
        op = HashJoinOp(spill=spill)
        build, probe = (
            (self.left, self.right) if build_is_left else (self.right, self.left)
        )
        build_key = "l.k" if build_is_left else "r.k"
        probe_key = "r.k" if build_is_left else "l.k"
        stats = ExecutionStats()
        out = op.run(
            build, probe, build_key, probe_key, stats, build_is_left=build_is_left
        )
        return out.sorted_canonical(), stats, op

    def test_memory_join(self):
        out, stats, op = self.run_join()
        assert op.last_mode == "memory"
        # 2x2 on key 2 plus 1x1 on key 5 = five rows.
        assert out.n_rows == 5
        assert stats.hash_inserts == 4 and stats.hash_updates == 4
        assert stats.materialized_bytes > 0
        # tid order follows FROM order regardless of build choice.
        assert out.tid_tables == ("l", "r")

    def test_build_side_flip_is_invisible(self):
        a, _, _ = self.run_join(build_is_left=True)
        # Building the right side instead must not change the output: the
        # tid order follows the logical FROM order, not the build choice.
        b, _, _ = self.run_join(build_is_left=False)
        assert tuple(b.tid_tables) == ("l", "r")
        assert set(a.columns) == set(b.columns)
        for name in a.columns:
            np.testing.assert_array_equal(a.columns[name], b.columns[name])

    def test_spill_equals_memory(self):
        store = MemoryBlobStore()
        spill = SpillConfig(store=store, budget_bytes=32)
        spilled, stats, op = self.run_join(spill=spill)
        plain, _, _ = self.run_join()
        assert op.last_mode.startswith("spill(")
        assert stats.n_spill_chunks >= 2
        assert stats.spill_bytes_written == stats.spill_bytes_read > 0
        for name in plain.columns:
            np.testing.assert_array_equal(
                spilled.columns[name], plain.columns[name]
            )
        # Spill chunks are deleted after the join.
        assert list(store.keys()) == []

    def test_failed_spill_put_leaks_no_chunks(self):
        n_chunks = SpillConfig(MemoryBlobStore(), 32).n_chunks(self.left.nbytes)
        assert n_chunks >= 3
        for fail_at in range(n_chunks):
            store = FailingPutStore(fail_at + 1)
            store.put("resident/partition", b"x")  # put 0: the table's own blob
            before = sorted(store.keys())
            with pytest.raises(StorageError, match="store full"):
                self.run_join(spill=SpillConfig(store=store, budget_bytes=32))
            assert store.n_puts == fail_at + 2  # reached the failing chunk
            assert sorted(store.keys()) == before

    def test_probe_order_is_canonical_only_when_left_probes(self):
        # Rows leave in probe order, ties in build order: canonical exactly
        # when the FROM-first input probes an in-memory join.
        probing_left, _, _ = self.run_join(build_is_left=False)
        assert probing_left.ordered
        stats = ExecutionStats()
        raw = HashJoinOp().run(self.left, self.right, "l.k", "r.k", stats, True)
        assert not raw.ordered
        assert not np.array_equal(
            raw.column(tid_column("l")), raw.sorted_canonical().column(tid_column("l"))
        )
        spill = SpillConfig(store=MemoryBlobStore(), budget_bytes=32)
        spilled = HashJoinOp(spill).run(
            self.right, self.left, "r.k", "l.k", stats, build_is_left=False
        )
        assert not spilled.ordered


class TestSpillConfig:
    def test_thresholds(self):
        cfg = SpillConfig(store=MemoryBlobStore(), budget_bytes=100)
        assert not cfg.should_spill(100)
        assert cfg.should_spill(101)
        assert cfg.n_chunks(101) == 2
        assert cfg.n_chunks(950) == 10

    def test_zero_budget_never_spills(self):
        cfg = SpillConfig(store=MemoryBlobStore(), budget_bytes=0)
        assert not cfg.should_spill(10**9)


class TestGroupAggOp:
    def test_grouped_known_answer(self):
        rel = relation("t", g=[2, 1, 2, 1, 3], x=[10, 1, 30, 3, 7])
        op = GroupAggOp(
            keys=("t.g",),
            aggs=(
                AggSpec("sum", ColumnRef("t", "x")),
                AggSpec("mean", ColumnRef("t", "x")),
                AggSpec("count", None),
            ),
        )
        out = op.run(rel, ExecutionStats())
        np.testing.assert_array_equal(out.column("t.g"), [1, 2, 3])
        np.testing.assert_array_equal(out.column("sum(t.x)"), [4.0, 40.0, 7.0])
        np.testing.assert_array_equal(out.column("mean(t.x)"), [2.0, 20.0, 7.0])
        counts = out.column("count(*)")
        np.testing.assert_array_equal(counts, [2, 2, 1])
        assert counts.dtype == np.int64

    def test_scalar_empty_semantics(self):
        rel = relation("t", x=np.empty(0, dtype=np.int32))
        op = GroupAggOp(
            keys=(),
            aggs=(
                AggSpec("sum", ColumnRef("t", "x")),
                AggSpec("count", None),
                AggSpec("min", ColumnRef("t", "x")),
                AggSpec("mean", ColumnRef("t", "x")),
            ),
        )
        out = op.run(rel, ExecutionStats())
        assert out.n_rows == 1
        assert out.column("sum(t.x)")[0] == 0.0
        assert out.column("count(*)")[0] == 0
        assert np.isnan(out.column("min(t.x)")[0])
        assert np.isnan(out.column("mean(t.x)")[0])

    def test_grouped_empty_input_is_zero_rows(self):
        rel = relation("t", g=np.empty(0, dtype=np.int32), x=np.empty(0))
        op = GroupAggOp(
            keys=("t.g",), aggs=(AggSpec("sum", ColumnRef("t", "x")),)
        )
        out = op.run(rel, ExecutionStats())
        assert out.n_rows == 0
        assert tuple(out.columns) == ("t.g", "sum(t.x)")


    ALL_AGGS = (
        AggSpec("sum", ColumnRef("t", "x")),
        AggSpec("mean", ColumnRef("t", "x")),
        AggSpec("min", ColumnRef("t", "x")),
        AggSpec("max", ColumnRef("t", "x")),
        AggSpec("count", ColumnRef("t", "x")),
        AggSpec("count", None),
    )

    def test_partial_aggs_decompose_mean(self):
        names = [spec.name for spec in partial_aggs(self.ALL_AGGS)]
        assert names == [
            "sum(t.x)", "count(t.x)", "min(t.x)", "max(t.x)", "count(*)",
        ]

    @pytest.mark.parametrize("keys", [("t.g",), ()])
    def test_combining_partials_equals_one_pass(self, keys):
        rng = np.random.default_rng(3)
        rel = relation(
            "t",
            g=rng.integers(0, 5, 200),
            h=rng.integers(0, 7, 200),
            x=rng.integers(-50, 50, 200).astype(np.int32),
        )
        whole = GroupAggOp(keys, self.ALL_AGGS).run(rel, ExecutionStats())
        # Finer groups first (as below a join), in two chunks (as per split),
        # then merged once to partials and once more to the final form.
        mergeable = partial_aggs(self.ALL_AGGS)
        finer = GroupAggOp(keys + ("t.h",), mergeable)
        chunks = [
            finer.run(rel.take(np.arange(0, 120)), ExecutionStats()),
            finer.run(rel.take(np.arange(120, 200)), ExecutionStats()),
        ]
        merged = [
            GroupAggOp.combining(keys, mergeable).run(chunk, ExecutionStats())
            for chunk in chunks
        ]
        stats = ExecutionStats()
        final = GroupAggOp.combining(keys, self.ALL_AGGS).run(
            Relation.concat(merged), stats
        )
        assert stats.hash_inserts == sum(m.n_rows for m in merged)
        assert tuple(final.columns) == tuple(whole.columns)
        for name, values in whole.columns.items():
            assert final.column(name).dtype == values.dtype, name
            np.testing.assert_array_equal(final.column(name), values)

    def test_combining_nothing_keeps_empty_semantics(self):
        empty = GroupAggOp(("t.h",), partial_aggs(self.ALL_AGGS)).run(
            relation("t", h=np.empty(0, dtype=np.int32), x=np.empty(0, dtype=np.int32)),
            ExecutionStats(),
        )
        out = GroupAggOp.combining((), self.ALL_AGGS).run(empty, ExecutionStats())
        assert out.n_rows == 1
        assert out.column("sum(t.x)")[0] == 0.0 and out.column("count(*)")[0] == 0
        for name in ("mean(t.x)", "min(t.x)", "max(t.x)"):
            assert np.isnan(out.column(name)[0])


# ----------------------------------------------------- dense group codes

KEY_DTYPES = (np.int8, np.int32, np.int64, np.uint16, np.float64)
X = ColumnRef("t", "x")
AGGS = (
    AggSpec("sum", X), AggSpec("mean", X), AggSpec("min", X),
    AggSpec("max", X), AggSpec("count", X), AggSpec("count", None),
)


@st.composite
def key_columns(draw, n):
    """1-3 key columns of ``n`` rows: narrow spans (dense codes apply) or
    wide ones (past the density bound), ints from each dtype's extremes
    (int64 around +-2**62 included), and floats (never dense)."""
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        dtype = draw(st.sampled_from(KEY_DTYPES))
        if dtype is np.float64:
            elements = st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0])
        else:
            info = np.iinfo(dtype)
            base = draw(st.sampled_from(
                [info.min, 0, info.max - 3]
                + ([-(2**62), 2**62] if dtype is np.int64 else [])
            ))
            if draw(st.booleans()):
                elements = st.integers(base, base + 3)
            else:
                elements = st.sampled_from(
                    [info.min, info.max, base, int(info.max) // 2 + 1]
                )
        columns.append(np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype))
    return columns


def float_values(n):
    """Integers (exact sums), integers and NaNs, or halves (exact in any
    order, but not integers: their sums keep their order)."""
    integers = st.integers(-1000, 1000).map(float)
    elements = st.sampled_from([
        integers,
        st.one_of(integers, st.just(float("nan"))),
        st.integers(-1000, 1000).map(lambda v: v + 0.5),
    ])
    return elements.flatmap(
        lambda values: st.lists(values, min_size=n, max_size=n)
    ).map(lambda values: np.array(values, np.float64))


@st.composite
def agg_lists(draw):
    """Subsets of ``AGGS``, half of them without ``min`` / ``max``: those
    take the sorted form, counts and sums alone can take dense codes."""
    pool = AGGS if draw(st.booleans()) else [a for a in AGGS if a.func not in ("min", "max")]
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=1, unique=True)))


@st.composite
def raw_inputs(draw):
    n = draw(st.integers(0, 40))
    keys = draw(key_columns(n))
    if draw(st.booleans()):
        x = np.array(draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n)), np.int32)
    else:
        x = draw(float_values(n))
    return keys, x, draw(agg_lists())


@st.composite
def partial_inputs(draw):
    n = draw(st.integers(0, 40))
    keys = draw(key_columns(n))
    counts = st.lists(st.integers(1, 50), min_size=n, max_size=n)
    partials = {
        "sum(t.x)": draw(float_values(n)),
        "count(t.x)": np.array(draw(counts), np.int64),
        "min(t.x)": draw(float_values(n)),
        "max(t.x)": draw(float_values(n)),
        "count(*)": np.array(draw(counts), np.int64),
    }
    return keys, partials, draw(agg_lists())


def key_relation(keys, values):
    columns = {f"t.k{i}": column for i, column in enumerate(keys)}
    columns.update(values)
    return Relation(columns, ())


def grouped(keys):
    """Key tuple -> row indices in input order, keys ascending."""
    groups = {}
    for row, key in enumerate(zip(*[column.tolist() for column in keys])):
        groups.setdefault(key, []).append(row)
    return dict(sorted(groups.items()))


def fold(values):
    """A float64 sum/min/max that is NaN when any input is."""
    values = [float(v) for v in values]
    if any(np.isnan(values)):
        return float("nan"), float("nan"), float("nan")
    return float(sum(values)), min(values), max(values)


def expect(keys, aggs, references):
    """The reference output: one row per key tuple, ascending, and one
    column per aggregate of ``aggs`` from ``references[name](rows)``."""
    groups = grouped(keys)
    out = {
        f"t.k{i}": np.array([key[i] for key in groups], column.dtype)
        for i, column in enumerate(keys)
    }
    for spec in aggs:
        dtype = np.int64 if spec.func == "count" else np.float64
        out[spec.name] = np.array(
            [references[spec.name](rows) for rows in groups.values()], dtype
        )
    return out


def assert_same(out, want):
    assert tuple(out.columns) == tuple(want)
    for name, values in want.items():
        assert out.column(name).dtype == values.dtype, name
        np.testing.assert_array_equal(out.column(name), values, err_msg=name)


def run_both_paths(op, relation):
    """``op`` over ``relation`` as it runs, and with dense codes allowed at
    any row count (the tests' inputs are smaller than the dense floor)."""
    as_is = op.run(relation, ExecutionStats())
    with mock.patch.object(relops, "_DENSE_MIN_ROWS", 0):
        dense = op.run(relation, ExecutionStats())
    return as_is, dense


class TestDenseGroupCodes:
    @settings(max_examples=300, deadline=None)
    @given(raw_inputs())
    def test_raw_form_equals_dict_grouping(self, data):
        keys, x, aggs = data
        op = GroupAggOp([f"t.k{i}" for i in range(len(keys))], aggs)
        want = expect(keys, aggs, {
            "sum(t.x)": lambda rows: fold(x[rows])[0],
            "mean(t.x)": lambda rows: fold(x[rows])[0] / len(rows),
            "min(t.x)": lambda rows: fold(x[rows])[1],
            "max(t.x)": lambda rows: fold(x[rows])[2],
            "count(t.x)": len,
            "count(*)": len,
        })
        for out in run_both_paths(op, key_relation(keys, {"t.x": x})):
            assert_same(out, want)

    @settings(max_examples=300, deadline=None)
    @given(partial_inputs())
    def test_combining_form_equals_dict_grouping(self, data):
        keys, partials, aggs = data
        op = GroupAggOp.combining([f"t.k{i}" for i in range(len(keys))], aggs)

        def total(name):
            return lambda rows: fold(partials[name][rows])[0]

        want = expect(keys, aggs, {
            "sum(t.x)": total("sum(t.x)"),
            "mean(t.x)": lambda rows: total("sum(t.x)")(rows) / total("count(t.x)")(rows),
            "min(t.x)": lambda rows: fold(partials["min(t.x)"][rows])[1],
            "max(t.x)": lambda rows: fold(partials["max(t.x)"][rows])[2],
            "count(t.x)": total("count(t.x)"),
            "count(*)": total("count(*)"),
        })
        for out in run_both_paths(op, key_relation(keys, partials)):
            assert_same(out, want)

    @pytest.mark.parametrize("n", [2, 600])
    def test_int64_keys_at_2_62_sort_instead_of_overflowing(self, n):
        key = np.resize(np.array([2**62, -(2**62), 2**62 - 1], np.int64), n)
        x = np.arange(n, dtype=np.int32)
        assert relops._Groups.dense([key], n, [x]) is None
        with mock.patch.object(relops, "_DENSE_MIN_ROWS", 0):
            out = GroupAggOp(("t.k0",), (AggSpec("sum", X),)).run(
                key_relation([key], {"t.x": x}), ExecutionStats()
            )
        want = expect([key], (AggSpec("sum", X),), {
            "sum(t.x)": lambda rows: float(x[rows].sum()),
        })
        assert_same(out, want)

    def test_narrow_int64_keys_at_2_62_take_dense_codes(self):
        key = 2**62 + np.arange(600, dtype=np.int64) % 5
        groups = relops._Groups.dense([key], 600, [])
        assert groups is not None
        np.testing.assert_array_equal(groups.keys[0], 2**62 + np.arange(5))
        assert groups.keys[0].dtype == np.int64

    def test_min_and_max_keep_the_sorted_form(self):
        key = np.arange(2_000, dtype=np.int32) % 8
        op = GroupAggOp(("t.k0",), (AggSpec("sum", X), AggSpec("max", X)))
        assert op._summed(key_relation([key], {"t.x": key})) is None


class TestOrderSensitiveSums:
    """A float sum that is not integer-exact depends on its order of
    addition, so it must take the sorted form even where its keys would
    give dense codes — fig09-join compares its totals bit for bit."""

    @staticmethod
    def lexsort_sums(keys, values):
        order = np.lexsort(keys[::-1])
        runs = [column[order] for column in keys]
        changed = np.zeros(len(values), bool)
        changed[0] = True
        for column in runs:
            changed[1:] |= column[1:] != column[:-1]
        starts = np.flatnonzero(changed)
        sums = np.add.reduceat(values[order], starts)
        return sums, np.diff(np.append(starts, len(values)))

    @pytest.mark.parametrize("n_keys", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_raw_sum_and_mean_match_lexsort_reduceat_bytes(self, seed, n_keys):
        rng = np.random.default_rng(seed)
        n = 5_000
        keys = [rng.integers(0, 8, n).astype(np.int32) for _ in range(n_keys)]
        x = rng.random(n) * 1e4 - 5e3
        assert relops._Groups.dense(keys, n, []) is not None
        assert relops._Groups.dense(keys, n, [x]) is None
        sums, counts = self.lexsort_sums(keys, x)
        aggs = (AggSpec("sum", X), AggSpec("mean", X))
        op = GroupAggOp([f"t.k{i}" for i in range(n_keys)], aggs)
        out = op.run(key_relation(keys, {"t.x": x}), ExecutionStats())
        assert out.column("sum(t.x)").tobytes() == sums.tobytes()
        assert out.column("mean(t.x)").tobytes() == (sums / counts).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_combined_float_partials_match_lexsort_reduceat_bytes(self, seed):
        rng = np.random.default_rng(seed)
        n = 2_000
        key = rng.integers(-3, 13, n).astype(np.int64)
        partials = {"sum(t.x)": rng.random(n) * 1e6, "count(t.x)": np.ones(n, np.int64)}
        assert relops._Groups.dense([key], n, [partials["count(t.x)"]]) is not None
        sums, _ = self.lexsort_sums([key], partials["sum(t.x)"])
        op = GroupAggOp.combining(("t.k0",), (AggSpec("sum", X), AggSpec("count", X)))
        out = op.run(key_relation([key], partials), ExecutionStats())
        assert out.column("sum(t.x)").tobytes() == sums.tobytes()


class TestMergeComponents:
    def test_touching_integer_zones_stay_separate(self):
        assert _merge_components([(1, 100), (101, 200)]) == [(1, 100), (101, 200)]

    def test_shared_endpoint_merges(self):
        assert _merge_components([(1, 100), (100, 200)]) == [(1, 200)]

    def test_unsorted_nested_input(self):
        got = _merge_components([(50, 60), (0, 100), (150, 160), (155, 170)])
        assert got == [(0, 100), (150, 170)]

    def test_empty(self):
        assert _merge_components([]) == []


class TestChooseJoinStrategy:
    @pytest.fixture(scope="class")
    def co_partitioned(self):
        # Big enough that both sides split into several contiguous key
        # zones (a ~2 KB partition holds ~250 int32 rows per column).
        rng = np.random.default_rng(11)
        fact = ColumnTable.build(
            "fact",
            TableSchema.uniform(["f_key", "f_a"]),
            {
                "f_key": rng.integers(0, 400, 6000).astype(np.int32),
                "f_a": rng.integers(0, 400, 6000).astype(np.int32),
            },
        )
        dim = ColumnTable.build(
            "dim",
            TableSchema.uniform(["d_key", "d_a"]),
            {
                "d_key": rng.integers(0, 400, 1500).astype(np.int32),
                "d_a": rng.integers(0, 400, 1500).astype(np.int32),
            },
        )

        def windows(meta, key):
            queries = [
                Query.build(
                    meta,
                    list(meta.schema.attribute_names),
                    {key: (i * 100, i * 100 + 99)},
                    label=f"train{i}",
                )
                for i in range(4)
            ]
            return Workload(meta, queries)

        make = lambda: IrregularLayout(zone_maps=True, selection_enabled=False)
        return build_join_catalog(
            make, fact, dim, windows(fact.meta, "f_key"),
            windows(dim.meta, "d_key"),
            ctx=BuildContext(file_segment_bytes=2048, schism_sample_size=100),
        )

    def choose(self, catalog, **kwargs):
        return choose_join_strategy(
            catalog["fact"],
            catalog["dim"],
            "f_key",
            "d_key",
            kwargs.pop("key_range", (0, 399)),
            ("f_key", "f_a"),
            ("d_key", "d_a"),
            **kwargs,
        )

    def test_co_partitioned_picks_partition_wise(self, co_partitioned):
        strategy = self.choose(co_partitioned)
        assert len(strategy.splits) >= 2
        assert strategy.kind == "partition-wise"
        assert strategy.est_partition_wise_cost <= strategy.est_broadcast_cost
        for split in strategy.splits:
            assert split.build_side in ("left", "right")
            assert split.lo <= split.hi

    def test_narrow_key_range_prunes_splits(self, co_partitioned):
        wide = self.choose(co_partitioned)
        narrow = self.choose(co_partitioned, key_range=(0, 99))
        assert len(narrow.splits) < len(wide.splits)
        for split in narrow.splits:
            assert split.hi <= 99

    def test_force_overrides_pricing(self, co_partitioned):
        for kind in ("partition-wise", "broadcast", "naive"):
            strategy = self.choose(co_partitioned, force=kind)
            assert strategy.kind == kind
            assert "forced" in strategy.reason

    def test_unclustered_key_falls_back_to_broadcast(self):
        rng = np.random.default_rng(12)
        fact, dim, fwl, dwl = random_join_tables(rng, co_partitioned=False)
        make = lambda: IrregularLayout(zone_maps=True, selection_enabled=False)
        catalog = build_join_catalog(
            make, fact, dim, fwl, dwl,
            ctx=BuildContext(file_segment_bytes=2048, schism_sample_size=100),
        )
        strategy = self.choose(catalog)
        # Key zones are wide and overlapping: one connected component at
        # best, or replicated reads price partition-wise out.
        assert strategy.kind == "broadcast"

    def test_spill_budget_raises_broadcast_cost(self, co_partitioned):
        free = self.choose(co_partitioned)
        tight = self.choose(co_partitioned, spill_budget_bytes=64)
        assert tight.est_broadcast_cost >= free.est_broadcast_cost
