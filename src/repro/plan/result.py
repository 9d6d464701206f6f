"""Query results.

Algorithm 5 returns a hash table of projected cells keyed by tuple ID.  The
vectorized engines build the same thing as result-sized columns;
:class:`ResultSet` is the normalized final form — sorted tuple IDs plus one aligned column per
projected attribute — so results from every engine and layout can be compared
bit-for-bit in tests.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from ..errors import JigsawError

__all__ = ["ResultSet"]


class ResultSet:
    """Projected cells of the qualifying tuples, ordered by tuple ID."""

    __slots__ = ("tuple_ids", "columns")

    def __init__(self, tuple_ids: np.ndarray, columns: Mapping[str, np.ndarray]):
        tuple_ids = np.asarray(tuple_ids, dtype=np.int64)
        # Every engine hands over ascending tids; only unordered producers
        # (relational ops) pay for the stable permutation.
        order = None
        if len(tuple_ids) > 1 and np.any(tuple_ids[1:] < tuple_ids[:-1]):
            order = np.argsort(tuple_ids, kind="stable")
            tuple_ids = tuple_ids[order]
        self.tuple_ids: np.ndarray = tuple_ids
        self.columns: Dict[str, np.ndarray] = {}
        for name, values in columns.items():
            values = np.asarray(values)
            if len(values) != len(tuple_ids):
                raise JigsawError(
                    f"result column {name!r} has {len(values)} values for "
                    f"{len(tuple_ids)} tuples"
                )
            self.columns[name] = values if order is None else values[order]

    @property
    def n_tuples(self) -> int:
        return len(self.tuple_ids)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise JigsawError(f"result has no column {name!r}") from None

    def equals(self, other: "ResultSet") -> bool:
        """Bitwise equality of tuples and cells (column order ignored)."""
        if set(self.columns) != set(other.columns):
            return False
        if not np.array_equal(self.tuple_ids, other.tuple_ids):
            return False
        return all(
            np.array_equal(values, other.columns[name])
            for name, values in self.columns.items()
        )

    def __len__(self) -> int:
        return len(self.tuple_ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultSet({self.n_tuples} tuples x {len(self.columns)} columns)"
