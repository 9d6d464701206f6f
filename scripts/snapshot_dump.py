"""Dump the stats snapshot (and an irregular pass) as JSON, to diff two trees.

One entry per case of ``repro.testing.snapshot.iter_snapshot_cases()``, in
its deterministic order: ``[label, stats_signature, sha1 of the result,
sha1 of the EXPLAIN text, buffer-pool counters]``, the last two taken after
the execution (the pool counters are the case manager's lifetime
``n_hits``, ``n_misses``, ``n_evictions`` and ``hit_bytes``).  The 768
cases run twice: as the snapshot builds them (no buffer pool: the counters
are None), then labelled ``pool/...`` under a 4 KiB pool, where hits,
misses and evictions all occur.

The snapshot tables lay out their ``irregular`` and ``replicated`` cases as
one partition holding one segment, so a third pass, labelled
``irregular/...``, pins what they cannot: a seeded 3 000 x 24 table trained
on the quickstart's three templates, built as ``IrregularLayout`` (46
partitions) and as ``ReplicatedIrregularLayout`` (a primary and a replica
segment in many partitions), each answering 12 seeded queries through the
partition-at-a-time engine (pruning off and on), the scan engine and the
replicated executor under one 16 KiB pool per build.

Beyond those two functions the script uses only public constructors
(``BuildContext``, the layouts, the engines, ``Query``, ``ColumnTable``),
``executor.explain(query).render()`` and ``executor.manager.buffer_pool``,
so it runs unchanged against an older tree — the parent of a change, or a
merge base::

    PYTHONPATH=/path/to/base/src python scripts/snapshot_dump.py base.json
    PYTHONPATH=src               python scripts/snapshot_dump.py head.json
    python scripts/snapshot_dump.py --diff base.json head.json

``--diff`` prints each differing entry and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys


def result_sha1(result) -> str:
    """SHA-1 over the result's tuple IDs and every column (name, dtype,
    bytes), columns in name order."""
    digest = hashlib.sha1(result.tuple_ids.tobytes())
    for name in sorted(result.columns):
        column = result.columns[name]
        digest.update(f"{name}:{column.dtype.str}:".encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def pool_counters(manager):
    pool = manager.buffer_pool
    if pool is None:
        return None
    stats = pool.stats
    return [stats.n_hits, stats.n_misses, stats.n_evictions, stats.hit_bytes]


def entry(label: str, executor, query) -> list:
    from repro.testing.snapshot import stats_signature

    result, stats = executor.execute(query)
    explain = executor.explain(query).render()
    return [
        label,
        list(stats_signature(stats)),
        result_sha1(result),
        hashlib.sha1(explain.encode()).hexdigest(),
        pool_counters(executor.manager),
    ]


def irregular_pass() -> list:
    """Several partitions per projection, multi-segment partitions and
    replica segments, which the snapshot tables do not produce."""
    import numpy as np

    from repro import Query, TableSchema, Workload
    from repro.core.replication import ReplicationConfig
    from repro.engine import (
        PartitionAtATimeExecutor,
        ReplicatedExecutor,
        ScanExecutor,
    )
    from repro.layouts import (
        BuildContext,
        IrregularLayout,
        ReplicatedIrregularLayout,
    )
    from repro.storage import ColumnTable, DeviceProfile

    rng = np.random.default_rng(0)
    names = [f"a{i}" for i in range(1, 25)]
    table = ColumnTable.build("T", TableSchema.uniform(names), {
        name: rng.integers(0, 100_000, 3_000).astype(np.int32) for name in names
    })
    meta = table.meta
    wide = ["a2", "a3", "a4", "a5", "a6", "a7", "a9", "a10"]
    train = Workload(meta, [
        Query.build(meta, wide, {"a1": (0, 9_999)}),
        Query.build(meta, wide, {"a8": (90_000, 99_999)}),
        Query.build(meta, ["a15", "a16", "a17", "a18"], {"a20": (40_000, 44_999)}),
    ])
    queries = []
    for _ in range(12):
        where = {}
        for name in rng.choice(names, int(rng.integers(1, 3)), replace=False):
            lo = int(rng.integers(0, 90_000))
            where[str(name)] = (lo, lo + int(rng.integers(1_000, 30_000)))
        select = rng.choice(names, int(rng.integers(2, 11)), replace=False)
        queries.append(Query.build(meta, [str(n) for n in select], where))
    builders = (
        ("irregular", IrregularLayout()),
        ("replicated", ReplicatedIrregularLayout(
            replication=ReplicationConfig(
                budget_fraction=1.0, local_cost_safety=1.0
            ),
            selection_enabled=False,
        )),
    )
    entries = []
    for layout_name, builder in builders:
        layout = builder.build(table, train, BuildContext(
            device_profile=DeviceProfile.from_throughput("hdd", 75.0, 0.000001),
            file_segment_bytes=2048, buffer_pool_bytes=16 * 1024,
        ))
        manager = layout.manager
        if layout_name == "replicated":
            infos = [manager.info(pid) for pid in manager.pids()]
            assert any(any(info.segment_replicas) for info in infos), (
                "the replicated build carries no replica segment"
            )
        engines = (
            ("pat", PartitionAtATimeExecutor(manager, meta)),
            ("pat-pruned", PartitionAtATimeExecutor(manager, meta, zone_maps=True)),
            ("scan", ScanExecutor(manager, meta)),
            ("replicated", ReplicatedExecutor(manager, meta)),
        )
        for engine_name, executor in engines:
            for index, query in enumerate(queries):
                entries.append(entry(
                    f"irregular/{layout_name}/{engine_name}/q{index}",
                    executor, query,
                ))
    return entries


def dump() -> list:
    import repro
    from repro.layouts import BuildContext
    from repro.testing.snapshot import iter_snapshot_cases

    print(f"dumping the snapshot of {repro.__file__}", file=sys.stderr)
    pooled = BuildContext(
        file_segment_bytes=2048, schism_sample_size=100, buffer_pool_bytes=4096
    )
    entries = []
    for prefix, ctx in (("", None), ("pool/", pooled)):
        for case in iter_snapshot_cases(ctx=ctx):
            entries.append(entry(prefix + case.label, case.executor, case.query))
    return entries + irregular_pass()


def diff(base_path: str, head_path: str) -> int:
    with open(base_path) as f:
        base = json.load(f)
    with open(head_path) as f:
        head = json.load(f)
    differing = [(b, h) for b, h in zip(base, head) if b != h]
    for b, h in differing:
        print(f"base {b}\nhead {h}")
    if len(base) != len(head):
        print(f"entry count differs: base {len(base)}, head {len(head)}")
        return 1
    print(f"{len(base)} entries, {len(differing)} differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="OUT, or BASE HEAD with --diff")
    parser.add_argument("--diff", action="store_true")
    args = parser.parse_args(argv)
    if args.diff:
        if len(args.paths) != 2:
            parser.error("--diff takes BASE HEAD")
        return diff(*args.paths)
    if len(args.paths) != 1:
        parser.error("give one output path")
    with open(args.paths[0], "w") as f:
        json.dump(dump(), f, indent=0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
