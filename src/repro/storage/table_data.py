"""In-memory table data: the source of truth that layouts materialize from.

A :class:`ColumnTable` holds one numpy array per attribute.  String-like
attributes (TPC-H comments, names) are dictionary-encoded to integers before
they reach this layer; their logical byte widths live in the schema so that
serialized files and the cost model still see the true sizes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

from ..core.ranges import RangeMap
from ..core.schema import TableMeta, TableSchema
from ..errors import SchemaError

__all__ = ["ColumnTable"]


class ColumnTable:
    """Column-oriented in-memory table tied to a :class:`TableMeta`."""

    __slots__ = ("meta", "_columns", "_buffers")

    def __init__(self, meta: TableMeta, columns: Mapping[str, np.ndarray]):
        missing = [a for a in meta.attribute_names if a not in columns]
        if missing:
            raise SchemaError(f"columns missing for attributes: {missing}")
        self._columns: Dict[str, np.ndarray] = {}
        for name in meta.attribute_names:
            column = np.asarray(columns[name])
            if column.ndim != 1:
                raise SchemaError(f"column {name!r} must be one-dimensional")
            if len(column) != meta.n_tuples:
                raise SchemaError(
                    f"column {name!r} has {len(column)} values, expected {meta.n_tuples}"
                )
            self._columns[name] = column
        #: per attribute, the array ``_columns`` holds a prefix view of;
        #: :meth:`append_rows` writes new rows into its spare tail.
        self._buffers: Dict[str, np.ndarray] = dict(self._columns)
        self.meta = meta

    @classmethod
    def build(
        cls, name: str, schema: TableSchema, columns: Mapping[str, np.ndarray]
    ) -> "ColumnTable":
        """Construct table + metadata, deriving value ranges from the data."""
        lengths = {len(np.asarray(columns[a])) for a in schema.attribute_names if a in columns}
        missing = [a for a in schema.attribute_names if a not in columns]
        if missing:
            raise SchemaError(f"columns missing for attributes: {missing}")
        if len(lengths) != 1:
            raise SchemaError(f"columns disagree on length: {sorted(lengths)}")
        n_tuples = lengths.pop()
        bounds = {}
        for spec in schema:
            column = np.asarray(columns[spec.name])
            if n_tuples:
                bounds[spec.name] = (float(column.min()), float(column.max()))
            else:
                bounds[spec.name] = (0.0, 0.0)
        meta = TableMeta(name, schema, n_tuples, RangeMap.from_bounds(bounds))
        return cls(meta, columns)

    # -------------------------------------------------------------- access

    @property
    def n_tuples(self) -> int:
        return self.meta.n_tuples

    @property
    def schema(self) -> TableSchema:
        return self.meta.schema

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def columns(self, names: Iterable[str]) -> Dict[str, np.ndarray]:
        return {name: self.column(name) for name in names}

    def gather(self, names: Sequence[str], tids: np.ndarray) -> Dict[str, np.ndarray]:
        """Extract the given tuples' cells for the given attributes."""
        return {name: self.column(name)[tids] for name in names}

    def append_rows(self, columns: Mapping[str, np.ndarray]) -> int:
        """Grow the table in place with full rows; returns the first new tid.

        The write path's one mutation: committed inserts extend every column
        and widen the metadata bounds (bounds only widen — existing zone maps
        stay sound).  ``self.meta`` is *replaced* with a grown
        :class:`TableMeta`; holders of the old meta keep a consistent view of
        the pre-append tuple count, which is exactly what snapshot reads of
        older versions want.

        Costs O(batch), not O(table): each column is a prefix view of a
        buffer whose spare tail takes the new rows, and a full buffer is
        copied once into one with ⅛ of the grown table spare.  A column
        handed out earlier never changes — rows are only ever appended past
        its end — and the bounds come from the new rows joined with the
        prior meta's.
        """
        missing = [a for a in self.schema.attribute_names if a not in columns]
        if missing:
            raise SchemaError(f"appended rows missing attributes: {missing}")
        lengths = {
            len(np.asarray(columns[a])) for a in self.schema.attribute_names
        }
        if len(lengths) != 1:
            raise SchemaError(
                f"appended columns disagree on length: {sorted(lengths)}"
            )
        n_new = lengths.pop()
        first_tid = self.n_tuples
        if not n_new:
            return first_tid
        n_total = first_tid + n_new
        bounds = {}
        for spec in self.schema:
            buffer = self._buffers[spec.name]
            new = np.asarray(columns[spec.name]).astype(buffer.dtype, copy=False)
            if len(buffer) < n_total:
                grown = np.empty(n_total + n_total // 8, dtype=buffer.dtype)
                grown[:first_tid] = buffer[:first_tid]
                self._buffers[spec.name] = buffer = grown
            buffer[first_tid:n_total] = new
            self._columns[spec.name] = buffer[:n_total]
            lo, hi = float(new.min()), float(new.max())
            if first_tid:
                prior = self.meta.ranges[spec.name]
                lo, hi = min(lo, float(prior.lo)), max(hi, float(prior.hi))
            bounds[spec.name] = (lo, hi)
        self.meta = TableMeta(
            self.meta.name, self.schema, n_total, RangeMap.from_bounds(bounds)
        )
        return first_tid

    def mask_for_box(self, box: RangeMap, tight: Iterable[str]) -> np.ndarray:
        """Boolean mask of tuples inside ``box``, testing only tight attributes.

        This is how a logical segment's tuple membership is resolved at
        materialization time: a tuple belongs to a segment when its values
        fall inside the segment's range box, and only attributes tightened by
        horizontal splits can exclude anything.
        """
        mask = np.ones(self.n_tuples, dtype=bool)
        for name in tight:
            interval = box[name]
            column = self._columns[name]
            mask &= (column >= interval.lo) & (column <= interval.hi)
        return mask

    def sizeof(self) -> int:
        """Logical data bytes (schema widths x tuples), excluding tuple IDs."""
        return self.meta.sizeof()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnTable({self.meta.name!r}, {self.n_tuples} tuples x "
            f"{len(self.schema)} attributes)"
        )
