"""Unit tests for the in-memory arithmetic engines (Figure 10)."""

import numpy as np
import pytest

from repro.engine.arithmetic import (
    ArithmeticQuery,
    JigsawDiskEngine,
    JigsawMemEngine,
    MonetDBStyleEngine,
)
from repro.plan.predicates import RangePredicate
from repro.workloads.hap import make_hap_table


@pytest.fixture()
def hap_table():
    return make_hap_table(10_000, n_attrs=8, seed=3)


def expected_max(table, query):
    predicate = query.predicate
    mask = predicate.mask(table.column(predicate.attribute))
    if not mask.any():
        return float("-inf")
    total = np.zeros(int(mask.sum()), dtype=np.float64)
    for name in query.attributes:
        total += table.column(name)[mask]
    return float(total.max())


ENGINES = (MonetDBStyleEngine, JigsawMemEngine, JigsawDiskEngine)


class TestCorrectness:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_returns_exact_maximum(self, hap_table, engine_cls):
        attrs = hap_table.schema.attribute_names[:4]
        query = ArithmeticQuery(attrs, RangePredicate(attrs[0], 0, 500_000))
        engine = engine_cls(hap_table)
        value, stats = engine.execute(query)
        assert value == expected_max(hap_table, query)
        assert stats.n_result_tuples == int(
            (hap_table.column(attrs[0]) <= 500_000).sum()
        )

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_empty_selection(self, hap_table, engine_cls):
        attrs = hap_table.schema.attribute_names[:2]
        # match nothing: a single point that (almost surely) is absent
        query = ArithmeticQuery(attrs, RangePredicate(attrs[0], -5, -1))
        value, stats = engine_cls(hap_table).execute(query)
        assert value == float("-inf")
        assert stats.n_result_tuples == 0

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_single_attribute(self, hap_table, engine_cls):
        attrs = (hap_table.schema.attribute_names[0],)
        query = ArithmeticQuery(attrs, RangePredicate(attrs[0], 0, 999_999))
        value, _stats = engine_cls(hap_table).execute(query)
        assert value == float(hap_table.column(attrs[0]).max())

    def test_all_engines_agree(self, hap_table):
        attrs = hap_table.schema.attribute_names
        query = ArithmeticQuery(attrs, RangePredicate(attrs[3], 100_000, 700_000))
        values = {cls.__name__: cls(hap_table).execute(query)[0] for cls in ENGINES}
        assert len(set(values.values())) == 1, values


class TestQueryValidation:
    def test_predicate_must_be_summed(self, hap_table):
        attrs = hap_table.schema.attribute_names
        with pytest.raises(ValueError):
            ArithmeticQuery(attrs[:2], RangePredicate(attrs[5], 0, 10))

    def test_needs_attributes(self, hap_table):
        with pytest.raises(ValueError):
            ArithmeticQuery((), RangePredicate("a", 0, 1))


class TestCostShapes:
    """The Figure-10 orderings, at full selectivity and at 1%."""

    def run_all(self, hap_table, lo, hi, k=8):
        attrs = hap_table.schema.attribute_names[:k]
        query = ArithmeticQuery(attrs, RangePredicate(attrs[0], lo, hi))
        return {
            cls.__name__: cls(hap_table).execute(query)[1] for cls in ENGINES
        }

    def test_monetdb_slowest_at_full_selectivity(self, hap_table):
        stats = self.run_all(hap_table, 0, 999_999)
        assert (
            stats["MonetDBStyleEngine"].cpu_time_s
            > stats["JigsawDiskEngine"].cpu_time_s
            > stats["JigsawMemEngine"].cpu_time_s
        )

    def test_jigsaw_disk_pays_hash_costs_at_low_selectivity(self, hap_table):
        stats = self.run_all(hap_table, 0, 9_999)  # ~1%
        assert stats["JigsawDiskEngine"].cpu_time_s > stats["JigsawMemEngine"].cpu_time_s
        assert stats["JigsawDiskEngine"].hash_inserts > 0
        assert stats["JigsawMemEngine"].hash_inserts == 0

    def test_monetdb_materializes_per_operator(self, hap_table):
        stats = self.run_all(hap_table, 0, 999_999, k=5)
        n = hap_table.n_tuples
        # selection vector + first gather + 4 intermediates of 8B each
        expected = (n + 7) // 8 + 5 * n * 8
        assert stats["MonetDBStyleEngine"].materialized_bytes == expected
