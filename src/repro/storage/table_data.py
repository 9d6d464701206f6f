"""In-memory table data: the build input and the oracle's data.

A :class:`ColumnTable` holds one numpy array per attribute.  A layout
materializes its partitions from one, and the differential oracles read
their expected answers from one.  Once a layout is built, its stored
partitions are the only copy of the table: the engines, the write path and
every rewrite read those, never this.  String-like attributes (TPC-H
comments, names) are dictionary-encoded to integers before they reach this
layer; their logical byte widths live in the schema so that serialized
files and the cost model still see the true sizes.
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

    __slots__ = ("meta", "_columns")

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
