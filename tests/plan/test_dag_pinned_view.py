"""A join prices the catalog version it reads.

The DAG executor pins one catalog view per table before planning: the join
chooser prices partition-wise vs broadcast from it, and every leaf scan of
that table reads it — so a fold committed between the plan and the scans
changes neither what was priced nor what is read.
"""

from __future__ import annotations

import numpy as np

import repro.plan.dag as dag
from repro.layouts import BuildContext, IrregularLayout
from repro.plan import DagExecutor
from repro.storage import PhysicalPartition
from repro.testing import no_leaked_pins
from repro.testing.join_oracle import (
    build_join_catalog,
    join_oracle_check,
    random_join_query,
    random_join_tables,
)

CTX = BuildContext(file_segment_bytes=2048, schism_sample_size=100)


def fold(manager) -> None:
    """Rewrite every live partition under a fresh pid and prune, as a
    compaction's fold does."""
    moved = []
    for pid in manager.pids():
        partition, _delta = manager.load(pid)
        moved.append(PhysicalPartition(manager.next_pid(), partition.segments))
    manager.swap_partitions(moved, remove=list(manager.pids()))
    manager.prune_retired()


def test_a_fold_between_the_plan_and_the_leaf_scans(monkeypatch):
    rng = np.random.default_rng(3)
    fact, dim, fact_workload, dim_workload = random_join_tables(rng)
    catalog = build_join_catalog(
        lambda: IrregularLayout(zone_maps=True, selection_enabled=False),
        fact, dim, fact_workload, dim_workload, CTX,
    )
    query = random_join_query(rng, fact, dim)
    manager = catalog["fact"].manager
    priced, read = [], []
    choose = dag.choose_join_strategy

    def choose_then_fold(*args, **kwargs):
        strategy = choose(*args, **kwargs)
        priced.append(manager.catalog_version)
        fold(manager)
        return strategy

    monkeypatch.setattr(dag, "choose_join_strategy", choose_then_fold)
    catalog["fact"].executor.planner.observer = (
        lambda _query, plan: read.append(plan.snapshot.version)
    )
    with no_leaked_pins():
        mismatch = join_oracle_check(
            DagExecutor(catalog), {"fact": fact, "dim": dim}, query
        )
    assert mismatch is None
    assert priced and read, "the join was not priced, or no fact scan ran"
    # Every fact scan read the version the join was priced on; the fold
    # committed under it is the next version.
    assert set(read) == set(priced)
    assert manager.catalog_version > priced[0]
