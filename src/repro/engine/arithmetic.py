"""In-memory arithmetic evaluation (Section 6.3.2, Figure 10).

The paper compares three ways to evaluate

    SELECT max(a_i + ... + a_j + ... + a_k) FROM T WHERE C1 <= a_j <= C2

when the table fits in memory:

* **MonetDB style** (operator-at-a-time, columnar) — evaluates the arithmetic
  attribute by attribute, *materializing an intermediate column per
  operator*: computing ``a1 + a2 + a3`` first materializes ``a1 + a2``.  At
  high selectivity the materialization dominates.
* **Jigsaw-Mem** (columnar storage picked by Algorithm 2) — reconstructs the
  selected tuples into row blocks first, then evaluates the arithmetic
  row-wise without intermediates.
* **Jigsaw-Disk** (irregular partitioning) — like Jigsaw-Mem but tuples are
  reconstructed through the result hash table, paying a random memory write
  per cell; this is why it loses at very low selectivity.

All three compute the exact same maximum over the same numpy data — the tests
assert bit-equality — and differ only in the counted events, which the CPU /
memory models convert to simulated seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.cost import MemoryModel
from ..plan.predicates import RangePredicate
from ..plan.stats import CpuModel, ExecutionStats
from ..storage.table_data import ColumnTable

__all__ = [
    "ArithmeticQuery",
    "MonetDBStyleEngine",
    "JigsawMemEngine",
    "JigsawDiskEngine",
]

_FLOAT_BYTES = 8


@dataclass(frozen=True, slots=True)
class ArithmeticQuery:
    """``SELECT max(sum of attributes) WHERE predicate``."""

    attributes: Tuple[str, ...]
    predicate: RangePredicate

    def __post_init__(self) -> None:
        if len(self.attributes) < 1:
            raise ValueError("arithmetic query needs at least one attribute")
        if self.predicate.attribute not in self.attributes:
            raise ValueError(
                "the predicate attribute must be among the summed attributes "
                "(the HAP arithmetic query shape)"
            )


class _InMemoryEngine:
    """Shared plumbing: table access + event accounting."""

    def __init__(
        self,
        table: ColumnTable,
        cpu_model: CpuModel | None = None,
        memory_model: MemoryModel | None = None,
    ):
        self.table = table
        self.cpu_model = cpu_model or CpuModel()
        self.memory_model = memory_model or MemoryModel()

    def _select(self, query: ArithmeticQuery, stats: ExecutionStats) -> np.ndarray:
        column = self.table.column(query.predicate.attribute)
        mask = query.predicate.mask(column)
        stats.cells_scanned += len(column)
        stats.materialized_bytes += (len(column) + 7) // 8
        return mask

    def _finish(self, stats: ExecutionStats, started: float) -> None:
        stats.charge_cpu(self.cpu_model)
        stats.wall_time_s = time.perf_counter() - started


class MonetDBStyleEngine(_InMemoryEngine):
    """Operator-at-a-time: one arithmetic operator per attribute pair,
    each materializing its full intermediate result column."""

    name = "MonetDB"

    def execute(self, query: ArithmeticQuery) -> Tuple[float, ExecutionStats]:
        started = time.perf_counter()
        stats = ExecutionStats()
        mask = self._select(query, stats)
        selected = np.nonzero(mask)[0]
        stats.n_result_tuples = len(selected)
        if not len(selected):
            self._finish(stats, started)
            return float("-inf"), stats
        accumulator = self.table.column(query.attributes[0])[selected].astype(np.float64)
        stats.cells_gathered += len(selected)
        stats.materialized_bytes += len(selected) * _FLOAT_BYTES
        for name in query.attributes[1:]:
            operand = self.table.column(name)[selected]
            stats.cells_gathered += len(selected)
            accumulator = accumulator + operand  # materializes an intermediate
            stats.cells_scanned += len(selected)
            stats.materialized_bytes += len(selected) * _FLOAT_BYTES
        result = float(accumulator.max())
        stats.cells_scanned += len(selected)  # the max() pass
        self._finish(stats, started)
        return result, stats


class JigsawMemEngine(_InMemoryEngine):
    """Columnar storage, but selected tuples are reconstructed into row
    blocks before a single row-wise arithmetic pass (no intermediates)."""

    name = "Jigsaw-Mem"

    def __init__(self, table, cpu_model=None, memory_model=None, block_rows: int = 65_536):
        super().__init__(table, cpu_model, memory_model)
        self.block_rows = block_rows

    def execute(self, query: ArithmeticQuery) -> Tuple[float, ExecutionStats]:
        started = time.perf_counter()
        stats = ExecutionStats()
        mask = self._select(query, stats)
        selected = np.nonzero(mask)[0]
        stats.n_result_tuples = len(selected)
        if not len(selected):
            self._finish(stats, started)
            return float("-inf"), stats
        k = len(query.attributes)
        result = float("-inf")
        for start in range(0, len(selected), self.block_rows):
            block_tids = selected[start:start + self.block_rows]
            # Reconstruct rows: sequential gather of k cells per tuple.
            block = np.empty((len(block_tids), k), dtype=np.float64)
            for j, name in enumerate(query.attributes):
                block[:, j] = self.table.column(name)[block_tids]
            stats.cells_gathered += block.size
            # One row-wise pass: sum across the row, track the max.
            sums = block.sum(axis=1)
            stats.cells_scanned += block.size
            result = max(result, float(sums.max()))
        self._finish(stats, started)
        return result, stats


class JigsawDiskEngine(_InMemoryEngine):
    """Irregular-partitioning evaluation in memory: tuples pass through the
    result hash table, so every selected cell costs a random memory write."""

    name = "Jigsaw-Disk"

    def execute(self, query: ArithmeticQuery) -> Tuple[float, ExecutionStats]:
        started = time.perf_counter()
        stats = ExecutionStats()
        mask = self._select(query, stats)
        selected = np.nonzero(mask)[0]
        stats.n_result_tuples = len(selected)
        if not len(selected):
            self._finish(stats, started)
            return float("-inf"), stats
        k = len(query.attributes)
        # Hash-table reconstruction: one insert per surviving tuple, one
        # random update per additional cell (Formula 5's mem() accounting).
        stats.hash_inserts += len(selected)
        stats.hash_updates += len(selected) * (k - 1)
        table = np.empty((len(selected), k), dtype=np.float64)
        for j, name in enumerate(query.attributes):
            table[:, j] = self.table.column(name)[selected]
        sums = table.sum(axis=1)
        stats.cells_scanned += table.size
        result = float(sums.max())
        self._finish(stats, started)
        return result, stats
