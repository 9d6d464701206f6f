"""Write-workload generator and the dense numpy shadow oracle.

The shadow is the write path's ground truth: a plain dict of dense numpy
columns plus one boolean visibility mask *per committed version*, maintained
independently of the engine (values are recorded when the generator decides
them, never read back from the table under test).  After any sequence of
inserts / deletes / updates — including crash-replay and compaction — a
snapshot read ``AS OF`` version ``V`` must match the shadow's view at ``V``
exactly: same tids, same projected values, same dtypes.

:func:`apply_random_batch` mutates a :class:`~repro.txn.TransactionalTable`
and its :class:`ShadowTable` in lockstep from one seeded RNG;
:func:`verify_against_shadow` diffs every retained version under a handful
of random queries (plus the full scan, which exercises the snapshot
hidden-tid path that predicates never touch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.query import Query
from ..plan.result import ResultSet
from ..storage.table_data import ColumnTable

__all__ = [
    "ShadowTable",
    "WriteWorkloadConfig",
    "apply_random_batch",
    "random_rows",
    "verify_against_shadow",
]


@dataclass(slots=True)
class WriteWorkloadConfig:
    """Shape of one seeded write workload."""

    n_batches: int = 6
    min_ops: int = 1
    max_ops: int = 3
    min_insert_rows: int = 4
    max_insert_rows: int = 24
    max_delete_rows: int = 12
    max_update_rows: int = 8
    value_range: int = 1_000
    p_insert: float = 0.5
    p_delete: float = 0.25
    p_update: float = 0.25


class ShadowTable:
    """Dense, engine-independent mirror of a transactional table.

    Values are append-only (updates re-insert under fresh tids, mirroring
    the tid discipline of the real write path); visibility history is one
    frozen boolean mask per committed version.
    """

    def __init__(self, table: ColumnTable):
        self.schema = table.schema
        self.columns: Dict[str, np.ndarray] = {
            name: table.column(name).copy()
            for name in table.schema.attribute_names
        }
        self.visible = np.ones(table.n_tuples, dtype=bool)
        #: version -> visibility mask at that commit.
        self.history: Dict[int, np.ndarray] = {}

    @property
    def n_tuples(self) -> int:
        return len(self.visible)

    def snapshot(self, version: int) -> None:
        """Freeze the current visibility as the view at ``version``."""
        self.history[version] = self.visible.copy()

    # ------------------------------------------------------------- writes

    def insert(self, rows: Dict[str, np.ndarray]) -> np.ndarray:
        n = len(next(iter(rows.values())))
        tids = np.arange(self.n_tuples, self.n_tuples + n, dtype=np.int64)
        for name in self.schema.attribute_names:
            values = np.asarray(rows[name]).astype(
                self.columns[name].dtype, copy=False
            )
            self.columns[name] = np.concatenate([self.columns[name], values])
        self.visible = np.concatenate([self.visible, np.ones(n, dtype=bool)])
        return tids

    def delete(self, tids: np.ndarray) -> None:
        self.visible[np.asarray(tids, dtype=np.int64)] = False

    def delete_where(
        self,
        where: Dict[str, Tuple[float, float]],
        limit: Optional[int] = None,
    ) -> np.ndarray:
        """Predicate delete; ``limit`` restricts targets to tids below it
        (the committed watermark — matching the table's statement-level
        visibility, which never targets same-batch inserts)."""
        mask = self.visible.copy()
        if limit is not None:
            mask[limit:] = False
        for name, (lo, hi) in where.items():
            mask &= (self.columns[name] >= lo) & (self.columns[name] <= hi)
        doomed = np.nonzero(mask)[0].astype(np.int64)
        self.visible[doomed] = False
        return doomed

    def update(
        self, assignments: Dict[str, object], tids: np.ndarray
    ) -> np.ndarray:
        tids = np.asarray(tids, dtype=np.int64)
        rows = {
            name: self.columns[name][tids]
            for name in self.schema.attribute_names
        }
        for name, value in assignments.items():
            replacement = np.asarray(value)
            if replacement.ndim == 0:
                replacement = np.full(
                    len(tids), value, dtype=self.columns[name].dtype
                )
            rows[name] = replacement
        self.visible[tids] = False
        return self.insert(rows)

    # -------------------------------------------------------------- reads

    def mask_at(self, version: int) -> np.ndarray:
        """Visibility at ``version``, padded with False for later rows."""
        mask = self.history[version]
        if len(mask) < self.n_tuples:
            padded = np.zeros(self.n_tuples, dtype=bool)
            padded[:len(mask)] = mask
            return padded
        return mask

    def query(self, query: Query, version: int) -> ResultSet:
        mask = self.mask_at(version).copy()
        for name, interval in query.where.items():
            column = self.columns[name]
            mask &= (column >= interval.lo) & (column <= interval.hi)
        tids = np.nonzero(mask)[0].astype(np.int64)
        return ResultSet(
            tids, {name: self.columns[name][tids] for name in query.select}
        )


def random_rows(
    rng: np.random.Generator, shadow: ShadowTable, n: int, value_range: int
) -> Dict[str, np.ndarray]:
    return {
        name: rng.integers(0, value_range, n).astype(
            shadow.columns[name].dtype
        )
        for name in shadow.schema.attribute_names
    }


def apply_random_batch(
    txn,
    shadow: ShadowTable,
    rng: np.random.Generator,
    config: WriteWorkloadConfig,
) -> int:
    """One seeded uncommitted batch applied to table and shadow in lockstep.

    Returns the number of operations buffered; the caller commits (or
    crashes) and then calls ``shadow.snapshot(version)`` with the committed
    version.  The shadow is mutated eagerly, so on a simulated crash the
    caller must rebuild it — which is exactly what the crash tests do.
    """
    n_ops = int(rng.integers(config.min_ops, config.max_ops + 1))
    names = list(shadow.schema.attribute_names)
    committed_n = txn.n_tuples
    for _ in range(n_ops):
        # Delete/update targets resolve against the last committed state
        # (the table never targets same-batch inserts), so clamp candidates
        # to the committed watermark.
        visible = np.nonzero(shadow.visible[:committed_n])[0]
        roll = rng.random()
        if roll < config.p_insert or len(visible) == 0:
            n = int(rng.integers(
                config.min_insert_rows, config.max_insert_rows + 1
            ))
            rows = random_rows(rng, shadow, n, config.value_range)
            got = txn.insert(rows)
            expected = shadow.insert(rows)
            assert np.array_equal(got, expected), (got, expected)
        elif roll < config.p_insert + config.p_delete:
            if rng.random() < 0.5:
                # Predicate delete: exercises target resolution in the table.
                name = names[int(rng.integers(len(names)))]
                lo = int(rng.integers(0, config.value_range))
                hi = lo + int(rng.integers(0, config.value_range // 4))
                txn.delete(where={name: (lo, hi)})
                shadow.delete_where({name: (lo, hi)}, limit=committed_n)
            else:
                k = int(rng.integers(
                    1, min(config.max_delete_rows, len(visible)) + 1
                ))
                tids = rng.choice(visible, size=k, replace=False)
                txn.delete(tids=tids)
                shadow.delete(tids)
        else:
            k = int(rng.integers(
                1, min(config.max_update_rows, len(visible)) + 1
            ))
            tids = np.sort(rng.choice(visible, size=k, replace=False))
            assignments = {
                names[int(rng.integers(len(names)))]:
                    int(rng.integers(0, config.value_range))
            }
            got = txn.update(assignments, tids=tids)
            expected = shadow.update(assignments, tids)
            assert np.array_equal(got, expected), (got, expected)
    return n_ops


def _diff(result: ResultSet, expected: ResultSet, label: str) -> Optional[str]:
    if not np.array_equal(result.tuple_ids, expected.tuple_ids):
        return (
            f"{label}: tids differ ({result.n_tuples} vs "
            f"{expected.n_tuples} tuples)"
        )
    for name, values in expected.columns.items():
        got = result.columns[name]
        if got.dtype != values.dtype:
            return f"{label}: column {name} dtype {got.dtype} != {values.dtype}"
        if not np.array_equal(got, values):
            return f"{label}: column {name} values differ"
    return None


def verify_against_shadow(
    txn,
    shadow: ShadowTable,
    rng: np.random.Generator,
    n_queries: int = 2,
    value_range: int = 1_000,
    versions: Optional[Tuple[int, ...]] = None,
) -> List[str]:
    """Diff the table against the shadow at every recorded version.

    For each version: the full scan (no WHERE — the hidden-tid path) plus
    ``n_queries`` random range queries.  Returns human-readable mismatch
    strings; empty means oracle-exact.
    """
    mismatches: List[str] = []
    names = list(shadow.schema.attribute_names)
    check_versions = (
        versions if versions is not None else tuple(sorted(shadow.history))
    )
    floor = txn.manager.floor_version()
    for version in check_versions:
        if version < floor:
            continue  # pruned away; no longer pinnable
        meta = txn.meta
        queries = [Query.build(meta, names, {}, label=f"v{version}-full")]
        for i in range(n_queries):
            name = names[int(rng.integers(len(names)))]
            lo = int(rng.integers(0, value_range))
            hi = lo + int(rng.integers(0, value_range - lo + 1))
            interval = meta.interval(name)
            lo = max(lo, int(interval.lo))
            hi = min(max(hi, lo), int(interval.hi))
            if hi < lo:
                lo = hi = int(interval.lo)
            queries.append(Query.build(
                meta, names, {name: (lo, hi)}, label=f"v{version}-q{i}"
            ))
        for query in queries:
            result, _ = txn.execute(query, as_of=version)
            expected = shadow.query(query, version)
            problem = _diff(result, expected, f"{query.label}")
            if problem is not None:
                mismatches.append(problem)
    return mismatches
