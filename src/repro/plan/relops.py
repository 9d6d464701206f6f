"""Relational operators: in-memory relations, hash join, grouped aggregation.

The DAG executor (:mod:`repro.plan.dag`) runs each scan leaf through the
existing single-table engines and receives :class:`~repro.plan.result.ResultSet`
objects; this module turns them into :class:`Relation` chunks (qualified
columns plus hidden per-table tuple-id columns) and combines them:

* :class:`HashJoinOp` — vectorized equi-join.  The build side is hashed
  (modeled as ``hash_inserts``), the probe side streamed (``hash_updates``),
  and the produced rows charged as ``materialized_bytes`` so the existing
  :class:`~repro.plan.stats.CpuModel` prices joins with no new knobs.  When
  the build side exceeds the spill budget the operator degrades into a
  Grace/hybrid hash join: both sides are hash-partitioned on the key into
  budget-sized chunks, build chunks are written to the blob store, and the
  join proceeds one resident chunk at a time (``n_spill_chunks`` /
  ``spill_bytes_written`` / ``spill_bytes_read`` in :class:`ExecutionStats`,
  I/O priced by the device's fitted :class:`~repro.core.cost.IOModel`).
* :class:`GroupAggOp` — grouped aggregation over sum/min/max/mean/count
  and ``count(*)`` by dense key codes (``bincount``), with a sorted
  fallback (lexsort + ``reduceat``) for float, bool or wide keys, small
  inputs, ``min`` / ``max`` and sums whose order of addition matters — the
  one aggregation implementation in the repository, in two forms sharing
  one core: over raw rows, and *combining* partial aggregates
  (:func:`partial_aggs`) computed per split or below a join.

Join and aggregation outputs are deterministic: where row order is observed
every relation carries its tables' tuple-id columns and the executor sorts
the final output by them (FROM order) unless the join already emitted that
order, so partition-wise, broadcast, spilled and in-memory plans all produce
byte-identical results.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.cost import IOModel
from ..storage.blob import BlobStore
from .relational import _EXACT_FLOAT_INT, AggSpec
from .result import ResultSet
from .stats import ExecutionStats

__all__ = ["GroupAggOp", "HashJoinOp", "Relation", "SpillConfig", "partial_aggs"]

#: hidden column prefix carrying each base table's tuple ids through joins.
TID_PREFIX = "__tid."


def tid_column(table: str) -> str:
    return TID_PREFIX + table


@dataclass(slots=True)
class Relation:
    """One batch of rows flowing between relational operators.

    ``columns`` maps *qualified* names (``table.column``) to value arrays;
    rows are aligned across arrays.  Each base table contributing rows adds
    a hidden ``__tid.<table>`` column so downstream operators (and the final
    canonical sort) can trace every output row to its source tuples.
    ``tid_tables`` lists those tables in FROM order — empty when no
    consumer observes row order.  ``ordered`` records that the rows already
    are in canonical order (lexicographic by the tid columns).
    """

    columns: Dict[str, np.ndarray]
    tid_tables: Tuple[str, ...]
    ordered: bool = False

    @property
    def n_rows(self) -> int:
        for values in self.columns.values():
            return len(values)
        return 0

    @property
    def nbytes(self) -> int:
        return sum(int(values.nbytes) for values in self.columns.values())

    def column(self, qualified: str) -> np.ndarray:
        return self.columns[qualified]

    @classmethod
    def from_result(
        cls, table: str, result: ResultSet, tids: bool = True
    ) -> "Relation":
        """A scan's output (ascending tuple ids); ``tids`` carries them."""
        columns: Dict[str, np.ndarray] = {}
        if tids:
            columns[tid_column(table)] = np.asarray(result.tuple_ids)
        for name, values in result.columns.items():
            columns[f"{table}.{name}"] = np.asarray(values)
        return cls(columns, (table,) if tids else (), ordered=True)

    def take(self, indices: np.ndarray) -> "Relation":
        columns = {name: values[indices] for name, values in self.columns.items()}
        return Relation(columns, self.tid_tables)

    @classmethod
    def concat(cls, parts: Sequence["Relation"]) -> "Relation":
        if not parts:
            raise ValueError("Relation.concat needs at least one part")
        head = parts[0]
        if len(parts) == 1:
            return head
        columns = {
            name: np.concatenate([part.columns[name] for part in parts])
            for name in head.columns
        }
        return cls(columns=columns, tid_tables=head.tid_tables)

    def sorted_canonical(self) -> "Relation":
        """Rows sorted by the FROM-order tuple-id columns.

        ``np.lexsort`` treats its *last* key as primary, so the key list is
        the tid columns reversed: rows sort by the first table's tuple id,
        ties broken by later tables.  This is the invariant order every
        join strategy and spill mode must reproduce.
        """
        if self.ordered or self.n_rows <= 1:
            return self
        keys = [self.columns[tid_column(t)] for t in reversed(self.tid_tables)]
        out = self.take(np.lexsort(keys))
        out.ordered = True
        return out


# ------------------------------------------------------------------ spill


@dataclass(slots=True)
class SpillConfig:
    """Where and when the hash join spills its build side.

    ``budget_bytes`` is the resident budget for one build side — by default
    the owning table's :class:`~repro.storage.buffer_pool.BufferPool`
    capacity, so join scratch memory obeys the same envelope the read path
    pins partitions under.  ``store`` receives the spilled chunks (the build
    side's blob store); ``io_model`` prices the writes/reads in simulated
    seconds exactly like partition I/O.
    """

    store: BlobStore
    budget_bytes: int
    io_model: Optional[IOModel] = None
    key_prefix: str = "spill"

    def should_spill(self, build_bytes: int) -> bool:
        return self.budget_bytes > 0 and build_bytes > self.budget_bytes

    def n_chunks(self, build_bytes: int) -> int:
        return max(2, -(-build_bytes // max(1, self.budget_bytes)))


def _serialize_relation(relation: Relation) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **relation.columns)
    return buffer.getvalue()


def _deserialize_relation(data: bytes, tid_tables: Tuple[str, ...]) -> Relation:
    with np.load(io.BytesIO(data)) as archive:
        columns = {name: archive[name] for name in archive.files}
    return Relation(columns=columns, tid_tables=tid_tables)


# ------------------------------------------------------------------- join


class HashJoinOp:
    """Vectorized equi-join of two relations with optional build spilling.

    The physical layer decides which side builds; this operator only
    executes.  Matching is sort/searchsorted over the build keys — the
    simulated accounting still models a classic hash join (one insert per
    build row, one probe per probe row) because that is the algorithm whose
    cost we replicate; the vectorized implementation is just how Python gets
    there without an interpreter-bound loop.
    """

    def __init__(self, spill: Optional[SpillConfig] = None):
        self.spill = spill
        #: populated after run(): "memory" or "spill(<n>)" — for EXPLAIN.
        self.last_mode: str = "memory"

    # -- pair enumeration ------------------------------------------------

    @staticmethod
    def _match_pairs(
        build_keys: np.ndarray, probe_keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Index pairs (build_idx, probe_idx) of every equal-key row pair."""
        order = np.argsort(build_keys, kind="stable")
        sorted_keys = build_keys[order]
        lo = np.searchsorted(sorted_keys, probe_keys, side="left")
        hi = np.searchsorted(sorted_keys, probe_keys, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        probe_idx = np.repeat(np.arange(len(probe_keys)), counts)
        starts = np.repeat(lo, counts)
        offsets = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        build_idx = order[starts + offsets]
        return build_idx, probe_idx

    # -- execution -------------------------------------------------------

    def run(
        self,
        build: Relation,
        probe: Relation,
        build_key: str,
        probe_key: str,
        stats: ExecutionStats,
        build_is_left: bool,
    ) -> Relation:
        """Join ``build`` and ``probe`` on equal keys; charge ``stats``.

        ``build_is_left`` records which input is the logical left so the
        output's tid-table order follows FROM order, not build choice.
        Rows come out in probe order, ties in build order (``_match_pairs``
        sorts stably), so an in-memory join whose probe side is the logical
        left keeps canonically ordered inputs canonically ordered.
        """
        left, right = (build, probe) if build_is_left else (probe, build)
        tid_tables = left.tid_tables + right.tid_tables

        stats.hash_inserts += build.n_rows
        stats.hash_updates += probe.n_rows

        if self.spill is not None and self.spill.should_spill(build.nbytes):
            joined = self._run_spilled(
                build, probe, build_key, probe_key, stats
            )
        else:
            self.last_mode = "memory"
            joined = self._join_pair(build, probe, build_key, probe_key)

        out_columns: Dict[str, np.ndarray] = {}
        for part in joined:
            out_columns.update(part.columns)
        out = Relation(
            columns=out_columns,
            tid_tables=tid_tables,
            ordered=self.last_mode == "memory" and not build_is_left
            and build.ordered and probe.ordered,
        )
        stats.materialized_bytes += out.nbytes
        return out

    def _join_pair(
        self,
        build: Relation,
        probe: Relation,
        build_key: str,
        probe_key: str,
    ) -> Tuple[Relation, Relation]:
        build_idx, probe_idx = self._match_pairs(
            build.column(build_key), probe.column(probe_key)
        )
        return build.take(build_idx), probe.take(probe_idx)

    def _run_spilled(
        self,
        build: Relation,
        probe: Relation,
        build_key: str,
        probe_key: str,
        stats: ExecutionStats,
    ) -> Tuple[Relation, Relation]:
        """Grace hash join: chunk both sides by key hash, one chunk resident.

        Chunk assignment uses the key value itself (``|key| mod n``) so a
        build row and its matching probe rows always land in the same chunk
        — correctness does not depend on the chunk count or budget.
        """
        spill = self.spill
        assert spill is not None
        n_chunks = spill.n_chunks(build.nbytes)
        self.last_mode = f"spill({n_chunks})"

        build_assign = np.abs(
            build.column(build_key).astype(np.int64)
        ) % n_chunks
        probe_assign = np.abs(
            probe.column(probe_key).astype(np.int64)
        ) % n_chunks

        # Phase 1 writes every build chunk out, releasing the resident side;
        # phase 2 re-reads one chunk at a time and probes it.  Whatever was
        # written is deleted again, including after a failed put.
        keys: List[str] = []
        build_parts: List[Relation] = []
        probe_parts: List[Relation] = []
        try:
            written = 0
            for chunk in range(n_chunks):
                part = build.take(np.flatnonzero(build_assign == chunk))
                data = _serialize_relation(part)
                keys.append(f"{spill.key_prefix}/{build_key}/{id(self)}/{chunk}")
                spill.store.put(keys[-1], data)
                written += len(data)
            stats.n_spill_chunks += n_chunks
            stats.spill_bytes_written += written
            if spill.io_model is not None:
                stats.io_time_s += spill.io_model.io_time(written)

            for chunk, key in enumerate(keys):
                data = spill.store.get(key)
                stats.spill_bytes_read += len(data)
                if spill.io_model is not None:
                    stats.io_time_s += spill.io_model.io_time(len(data))
                resident = _deserialize_relation(data, build.tid_tables)
                probe_part = probe.take(np.flatnonzero(probe_assign == chunk))
                b, p = self._join_pair(
                    resident, probe_part, build_key, probe_key
                )
                build_parts.append(b)
                probe_parts.append(p)
        finally:
            for key in keys:
                try:
                    spill.store.delete(key)
                except Exception:  # pragma: no cover - best-effort cleanup
                    pass
        return Relation.concat(build_parts), Relation.concat(probe_parts)


# -------------------------------------------------------------- aggregate

_REDUCERS = {"sum": np.add, "min": np.minimum, "max": np.maximum}

#: dense key codes are used from this many input rows while the key space
#: has at most ``max(n, _DENSE_SLOTS)`` slots; fewer rows or wider keys sort.
#: Below it the dense form's fixed cost (key min/max, the exactness test of
#: each summed column, decoding) exceeds a lexsort of the rows.
_DENSE_MIN_ROWS = 1024
_DENSE_SLOTS = 4096


def partial_aggs(aggs: Sequence[AggSpec]) -> Tuple[AggSpec, ...]:
    """The mergeable aggregates ``aggs`` decompose into.

    ``sum``/``count``/``min``/``max`` merge with themselves (a count by
    summing); ``mean`` splits into the sum and the count it divides.
    """
    out: List[AggSpec] = []
    for spec in aggs:
        funcs = ("sum", "count") if spec.func == "mean" else (spec.func,)
        parts = [AggSpec(func, spec.column) for func in funcs]
        out.extend(part for part in parts if part not in out)
    return tuple(out)


def _sums_in_any_order(values: np.ndarray) -> bool:
    """Whether every order of a float64 sum over ``values`` gives the same bits.

    :func:`~repro.plan.relational.place_aggregate`'s rule: every value is an
    integer and ``n x max|value|`` stays below 2**53, so every partial sum is
    exact.  NaN and inf fail the bound.  A float64 ``-0.0`` is refused too
    (``trunc(v) + 0.0`` must give back ``v``'s bits): a group of them sums
    to ``-0.0`` in order but to ``+0.0`` from a zero start.
    """
    kind = values.dtype.kind
    if kind not in "biu" and values.dtype != np.float64:
        return False
    if kind == "f" and not float(values[0]).is_integer():
        return False  # most float data fails here, before a pass over it
    peak = max(abs(float(values.min())), abs(float(values.max())))
    if not len(values) * peak < _EXACT_FLOAT_INT:
        return False
    if kind != "f":
        return True
    whole = np.trunc(values) + 0.0
    return bool((whole.view(np.uint64) == values.view(np.uint64)).all())


class _Groups:
    """The groups of one :class:`GroupAggOp` input, in ascending key order.

    ``keys`` are the output key columns and ``sizes`` the rows per group.
    Built by :meth:`dense` where it applies, else by :meth:`sorted`:

    * *sorted* — the rows lexsorted by key (stably), groups as runs, every
      aggregate a ``reduceat`` over its runs;
    * *dense* — integer keys of a small key space, and only sums whose
      order of addition cannot change their bits.  A row's code is its
      mixed-radix offset from each key's minimum, first key most
      significant, so codes ascend in lexicographic key order;
      ``bincount`` finds the groups and a weighted ``bincount`` sums them.
    """

    __slots__ = ("keys", "sizes", "order", "starts", "codes", "size", "present")

    def __init__(self, keys: List[np.ndarray], sizes: np.ndarray):
        self.keys, self.sizes = keys, sizes
        #: sorted form only: the key-order permutation (``None``: already in
        #: key order) and each group's first position in it.
        self.order: Optional[np.ndarray] = None
        self.starts: Optional[np.ndarray] = None
        #: dense form only: each row's code, the code space and the codes of
        #: the groups, ascending.
        self.codes: Optional[np.ndarray] = None
        self.size = 0
        self.present: Optional[np.ndarray] = None

    @classmethod
    def sorted(cls, key_values: Sequence[np.ndarray], n: int) -> "_Groups":
        order: Optional[np.ndarray] = None
        starts = np.zeros(1, dtype=np.intp)
        if key_values:
            order = np.lexsort(key_values[::-1])
            key_values = [values[order] for values in key_values]
            changed = np.zeros(n, dtype=bool)
            changed[0] = True
            for values in key_values:
                changed[1:] |= values[1:] != values[:-1]
            starts = np.flatnonzero(changed)
        groups = cls(
            [values[starts] for values in key_values], np.diff(np.append(starts, n))
        )
        groups.order, groups.starts = order, starts
        return groups

    @classmethod
    def dense(
        cls, key_values: Sequence[np.ndarray], n: int, summed: Sequence[np.ndarray]
    ) -> Optional["_Groups"]:
        """The dense form, or ``None`` where it does not apply: no keys, a
        non-integer key, more than ``max(n, _DENSE_SLOTS)`` codes, or a
        column of ``summed`` whose sum depends on its order
        (:func:`_sums_in_any_order`).  Spans come from each key's run-time
        min/max (as Python ints, so int64 extremes cannot overflow)."""
        if not key_values or any(v.dtype.kind not in "iu" for v in key_values):
            return None
        if not all(_sums_in_any_order(values) for values in summed):
            return None
        limit = max(n, _DENSE_SLOTS)
        size = 1
        bases: List[Tuple[np.generic, int]] = []
        for values in key_values:
            low = values.min()
            span = int(values.max()) - int(low) + 1
            size *= span
            if size > limit:
                return None
            bases.append((low, span))
        codes: Optional[np.ndarray] = None
        for values, (low, span) in zip(key_values, bases):
            # Exact modulo 2**64 even for uint64, and the span is small.
            offsets = np.subtract(values, low, dtype=np.int64, casting="unsafe")
            codes = offsets if codes is None else codes * span + offsets
        assert codes is not None
        counts = np.bincount(codes, minlength=size)
        present = counts.nonzero()[0]
        # Decode from the least significant key; what remains is the first.
        digits: List[np.ndarray] = []
        rest = present
        for _, span in bases[:0:-1]:
            rest, digit = np.divmod(rest, span)
            digits.append(digit)
        digits.append(rest)
        keys = [
            np.add(digit, low, dtype=values.dtype, casting="unsafe")
            for digit, (low, _), values in zip(digits[::-1], bases, key_values)
        ]
        groups = cls(keys, counts[present])
        groups.codes, groups.size, groups.present = codes, size, present
        return groups

    def reduce(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        """``ufunc`` over each group's values.  Dense groups only add, and
        only the values :meth:`dense` was given to check."""
        if self.codes is None:
            if self.order is not None:
                values = values[self.order]
            return ufunc.reduceat(values, self.starts)
        assert ufunc is np.add
        sums = np.bincount(self.codes, weights=values, minlength=self.size)
        return sums[self.present]


class GroupAggOp:
    """Grouped aggregation over a :class:`Relation`.

    With at least 1 024 rows, integer group keys whose key space is small
    (at most ``max(n, 4096)`` combinations), and aggregates that are counts
    or sums whose order of addition cannot change their bits, the groups
    are dense key codes (:meth:`_Groups.dense`): one ``bincount`` pass, no
    sort of the rows.  Otherwise lexsort the key columns, find group
    boundaries, and evaluate each aggregate with ``reduceat``.  Either way
    output rows are sorted by the key tuple, so the result is deterministic.
    Without keys, produces exactly one row; empty input follows the
    established helper semantics (``sum``/``count`` -> 0,
    ``min``/``max``/``mean`` -> NaN).

    :meth:`combining` builds the second form: its input rows are *partial*
    groups — the output of a ``GroupAggOp(finer_keys, partial_aggs(aggs))``,
    possibly joined or concatenated since — and each aggregate merges the
    partial columns of that name (sums and counts add, ``mean`` divides
    them, ``min``/``max`` fold).  Partials of empty inputs must not be fed
    in: their NaN ``min``/``max`` would propagate.

    Accounting models a hash aggregation: one hash insert per input row and
    the output charged as materialized bytes.
    """

    def __init__(self, keys: Sequence[str], aggs: Sequence[AggSpec]):
        self.keys = tuple(keys)
        self.aggs = tuple(aggs)
        self._combining = False

    @classmethod
    def combining(cls, keys: Sequence[str], aggs: Sequence[AggSpec]) -> "GroupAggOp":
        op = cls(keys, aggs)
        op._combining = True
        return op

    def run(self, relation: Relation, stats: ExecutionStats) -> Relation:
        n = relation.n_rows
        stats.hash_inserts += n
        key_values = [relation.column(k) for k in self.keys]
        if n == 0:
            # Grouped: no rows.  Scalar: the one row of empty-input values.
            columns = dict(zip(self.keys, key_values))
            for spec in self.aggs:
                columns[spec.name] = np.full(
                    0 if self.keys else 1,
                    0 if spec.func in ("sum", "count") else np.nan,
                    dtype=np.int64 if spec.func == "count" else np.float64,
                )
        else:
            summed = self._summed(relation) if n >= _DENSE_MIN_ROWS else None
            groups = None if summed is None else _Groups.dense(key_values, n, summed)
            groups = groups or _Groups.sorted(key_values, n)
            columns = dict(zip(self.keys, groups.keys))
            for spec in self.aggs:
                columns[spec.name] = self._reduce(spec, relation, groups)
        out = Relation(columns=columns, tid_tables=())
        stats.materialized_bytes += out.nbytes
        return out

    def _summed(self, relation: Relation) -> Optional[List[np.ndarray]]:
        """The input columns the aggregates add up, or ``None`` when one of
        them is a ``min`` / ``max``, which dense groups do not evaluate."""
        if any(spec.func in ("min", "max") for spec in self.aggs):
            return None
        if self._combining:
            return [relation.column(part.name) for part in partial_aggs(self.aggs)]
        return [
            relation.column(spec.column.qualified)
            for spec in self.aggs
            if spec.func != "count" and spec.column is not None
        ]

    def _reduce(self, spec: AggSpec, relation: Relation, groups: _Groups) -> np.ndarray:
        """One output column of ``spec`` over ``groups``."""

        def values(func: str) -> np.ndarray:
            if self._combining:
                # A mean reads two partials; every other aggregate its own.
                partial = spec if func == spec.func else AggSpec(func, spec.column)
                return relation.column(partial.name)
            assert spec.column is not None
            return relation.column(spec.column.qualified).astype(np.float64, copy=False)

        if spec.func in ("count", "mean"):
            count = groups.sizes
            if self._combining:
                count = groups.reduce(np.add, values("count"))
            if spec.func == "count":
                return count.astype(np.int64)
            return groups.reduce(np.add, values("sum")) / count
        return groups.reduce(_REDUCERS[spec.func], values(spec.func))
