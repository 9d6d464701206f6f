"""Table schema and metadata.

The partitioner never touches tuple data: it works on table *metadata* only —
the attribute set ``T.A``, the tuple count ``T.t`` and the per-attribute value
ranges ``T.range`` (Section 4.1).  :class:`TableMeta` captures exactly that.

Attributes carry two widths:

* ``byte_width`` — the logical on-disk width used by the cost model
  (Formula 2) and by the serializer.  A TPC-H ``c_comment`` is 117 bytes even
  though we hold it in memory as a dictionary-encoded integer.
* ``np_dtype``  — the in-memory numpy dtype of the column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

import numpy as np

from ..errors import SchemaError
from .ranges import Interval, RangeMap

__all__ = ["AttributeSpec", "TableSchema", "TableMeta"]


@dataclass(frozen=True, slots=True)
class AttributeSpec:
    """One attribute: name, logical byte width, in-memory dtype.

    ``integer`` controls split semantics: integer attributes are split on
    integral boundaries so sibling segments never share a value.
    """

    name: str
    byte_width: int = 4
    np_dtype: str = "int32"
    integer: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.byte_width <= 0:
            raise SchemaError(f"attribute {self.name!r}: byte_width must be positive")
        try:
            dtype = np.dtype(self.np_dtype)
        except TypeError as exc:  # pragma: no cover - defensive
            raise SchemaError(f"attribute {self.name!r}: bad dtype {self.np_dtype!r}") from exc
        if self.byte_width < dtype.itemsize:
            raise SchemaError(
                f"attribute {self.name!r}: byte_width {self.byte_width} cannot hold "
                f"dtype {self.np_dtype!r} ({dtype.itemsize} bytes)"
            )

    @property
    def unit(self) -> float:
        """Integer attributes occupy whole values; continuous ones do not."""
        return 1.0 if self.integer else 0.0


class TableSchema:
    """An ordered, immutable collection of :class:`AttributeSpec`."""

    __slots__ = ("_attributes", "_by_name", "_positions", "_names", "_hash")

    def __init__(self, attributes: Sequence[AttributeSpec]):
        names = [spec.name for spec in attributes]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate attribute names: {duplicates}")
        if not attributes:
            raise SchemaError("a schema needs at least one attribute")
        self._attributes: Tuple[AttributeSpec, ...] = tuple(attributes)
        self._by_name: Dict[str, AttributeSpec] = {spec.name: spec for spec in attributes}
        self._positions: Dict[str, int] = {spec.name: i for i, spec in enumerate(attributes)}
        # Both are read on every partition decode (dtype-cache key, bitmap
        # decoding); the schema is immutable, so compute them once.
        self._names: Tuple[str, ...] = tuple(names)
        self._hash = hash(self._attributes)

    @classmethod
    def uniform(
        cls, names: Iterable[str], byte_width: int = 4, np_dtype: str = "int32"
    ) -> "TableSchema":
        """Build a schema where every attribute has the same shape (HAP-style)."""
        return cls([AttributeSpec(name, byte_width, np_dtype) for name in names])

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def attributes(self) -> Tuple[AttributeSpec, ...]:
        return self._attributes

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[AttributeSpec]:
        return iter(self._attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> AttributeSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def position(self, name: str) -> int:
        """Ordinal of an attribute; used for attribute bitmaps on disk."""
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def byte_width(self, name: str) -> int:
        return self[name].byte_width

    def row_width(self, names: Iterable[str] | None = None) -> int:
        """Total logical bytes of one tuple restricted to ``names``."""
        if names is None:
            return sum(spec.byte_width for spec in self._attributes)
        return sum(self[name].byte_width for name in names)

    def units(self) -> Dict[str, float]:
        """Per-attribute integer units for range-fraction arithmetic."""
        return {spec.name: spec.unit for spec in self._attributes}

    def validate_attributes(self, names: Iterable[str]) -> None:
        unknown = [name for name in names if name not in self._by_name]
        if unknown:
            raise SchemaError(f"unknown attributes: {sorted(unknown)}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableSchema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TableSchema({', '.join(self.attribute_names)})"


@dataclass(frozen=True, slots=True)
class TableMeta:
    """Table metadata: ``T.A``, ``T.t`` and ``T.range`` from Section 4.1."""

    name: str
    schema: TableSchema
    n_tuples: int
    ranges: RangeMap = field(repr=False)

    def __post_init__(self) -> None:
        if self.n_tuples < 0:
            raise SchemaError("n_tuples must be non-negative")
        missing = [a for a in self.schema.attribute_names if a not in self.ranges]
        if missing:
            raise SchemaError(f"ranges missing for attributes: {missing}")

    @classmethod
    def from_bounds(
        cls,
        name: str,
        schema: TableSchema,
        n_tuples: int,
        bounds: Mapping[str, Tuple[float, float]],
    ) -> "TableMeta":
        return cls(name, schema, n_tuples, RangeMap.from_bounds(bounds))

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return self.schema.attribute_names

    def interval(self, attribute: str) -> Interval:
        return self.ranges[attribute]

    def full_range(self) -> RangeMap:
        """The whole-table box — the starting segment of Algorithm 2."""
        return self.ranges

    def sizeof(self) -> int:
        """Raw data size of the table (no tuple IDs), in bytes."""
        return self.n_tuples * self.schema.row_width()
