"""Layout strategies: the six rectangular baselines and Jigsaw's irregular
layout."""

from .base import BuildContext, LayoutBuilder, MaterializedLayout
from .irregular import IrregularLayout
from .natural import ColumnLayout, RowLayout
from .workload_driven import ColumnHLayout, HierarchicalLayout, RowHLayout, RowVLayout

#: All baselines of Section 6.1.2 plus Jigsaw, in the paper's order.
ALL_LAYOUTS = (
    RowLayout,
    RowHLayout,
    RowVLayout,
    ColumnLayout,
    ColumnHLayout,
    HierarchicalLayout,
    IrregularLayout,
)

__all__ = [
    "ALL_LAYOUTS",
    "BuildContext",
    "ColumnHLayout",
    "ColumnLayout",
    "HierarchicalLayout",
    "IrregularLayout",
    "LayoutBuilder",
    "MaterializedLayout",
    "RowHLayout",
    "RowLayout",
    "RowVLayout",
]
