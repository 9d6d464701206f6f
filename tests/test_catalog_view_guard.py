"""Source guard: a request decides *once*, at its root, whether it was
handed a catalog view; everything below reads the view it is given.

So below the roots nothing may ask "is there a snapshot?" (the fork this
guard keeps from growing back: ``snapshot if snapshot is not None else
manager``), and neither the degraded-read planner nor the join planner and
DAG executor may reach for the live catalog at all.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "repro"
GUARDED = [
    *sorted((SRC / "plan").glob("*.py")),
    *sorted((SRC / "engine").glob("*.py")),
    SRC / "serve" / "cache.py",
]
#: where ``snapshot is None`` (or ``views is None``) is the decision itself:
#: the two request roots, and the pins for a plan-only caller — the
#: planner's, the DAG's and the join chooser's.
ROOTS = {
    ("engine/base.py", "QueryEngine._run"),
    ("engine/parallel.py", "ThreadedPartitionEngine.execute"),
    ("plan/physical.py", "QueryPlanner.plan"),
    ("plan/dag.py", "DagExecutor.choose"),
    ("plan/joins.py", "choose_join_strategy"),
}
#: what a :class:`PartitionManager` answers from its live catalog.
LIVE_CATALOG_READS = {
    "pids", "info", "catalog_index", "catalog_version", "retired_pids",
    "partitions_with_missing_cells",
}


def _names_snapshot(node: ast.expr) -> bool:
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return name is not None and name.endswith(("snapshot", "views"))


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _snapshot_none_tests(tree: ast.Module):
    """``(qualified function name, line)`` of every comparison of a
    ``snapshot`` name with ``None``."""

    def walk(node: ast.AST, scope: tuple):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_names_snapshot, operands)) and any(map(_is_none, operands)):
                yield ".".join(scope), node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)

    yield from walk(tree, ())


def test_only_the_request_roots_ask_whether_a_view_was_handed_in():
    found = set()
    for path in GUARDED:
        relative = path.relative_to(SRC).as_posix()
        for function, _line in _snapshot_none_tests(ast.parse(path.read_text())):
            found.add((relative, function))
    assert found - ROOTS == set(), "a live-vs-pinned fork grew back"
    assert ROOTS - found == set(), "a request root stopped pinning its view"


def test_degraded_reads_never_consult_the_live_catalog():
    tree = ast.parse((SRC / "plan" / "degrade.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert all(a.name != "PartitionManager" for a in node.names)
        # Substitutes come from the plan's own CatalogIndex; nothing in the
        # module is, or is reached through, a manager.
        assert getattr(node, "id", None) != "manager"
        assert getattr(node, "attr", None) != "manager"
        assert getattr(node, "arg", None) != "manager"


def test_joins_and_the_dag_never_read_the_live_catalog():
    """A join is priced from the views its leaf scans read: nothing in the
    chooser or the DAG executor asks a manager for its current catalog."""
    for relative in ("plan/joins.py", "plan/dag.py"):
        tree = ast.parse((SRC / relative).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in LIVE_CATALOG_READS:
                owner = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
                assert owner != "manager", (
                    f"{relative}:{node.lineno} reads the live catalog "
                    f"(manager.{node.attr})"
                )
