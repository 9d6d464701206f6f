"""Dump the stats snapshot (and an irregular pass) as JSON, to diff two trees.

One entry per case of ``repro.testing.snapshot.iter_snapshot_cases()`` on
the oracle layouts named in :data:`LAYOUTS` (the script fails if one of
them yields no case), in its deterministic order: ``[label,
stats_signature, sha1 of the result, sha1 of the EXPLAIN text, buffer-pool
counters]``, the last two taken after the execution (the pool counters are
the case manager's lifetime ``n_hits``, ``n_misses``, ``n_evictions`` and
``hit_bytes``).  The 576 cases run twice: as the snapshot builds them (no
buffer pool: the counters are None), then labelled ``pool/...`` under a
4 KiB pool, where hits, misses and evictions all occur.

The snapshot tables lay out their ``irregular`` cases as one partition
holding one segment, so a third pass, labelled ``irregular/...``, pins what
they cannot: a seeded 3 000 x 24 table trained on the quickstart's three
templates, built as ``IrregularLayout`` (46 partitions), answering 12
seeded queries through the partition-at-a-time engine (pruning off and on)
and the scan engine under one 16 KiB pool.  A fourth pass, labelled
``sql/...``, puts the SQL front end under the same invariant: each of those
12 queries is rendered by ``to_sql``, parsed twice through
``parse_statement`` (the first parse builds the statement's template, the
second binds into it) and executed on the irregular build.  A ``txn/...``
pass puts the write path under it too (:func:`txn_pass`): commits and a
budgeted fold under a ``TransactionalTable``, read at the head and ``AS OF``
every earlier version.  A last pass, labelled ``threaded/...``
(:func:`threaded_pass`), runs the 12 queries through Jigsaw-L and Jigsaw-S
on a second irregular build: at one thread with the full signature, at
three with the partition reads only, as under the 16 KiB pool which loads
hit depends on how the threads interleave.

Beyond those two functions the script uses only public constructors
(``BuildContext``, the layouts, the engines, ``Query``, ``ColumnTable``,
``TransactionalTable``, ``DeltaCompactor``, ``ThreadedPartitionEngine``),
``to_sql`` /
``parse_statement``, ``executor.explain(query).render()`` and
``executor.manager.buffer_pool``,
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

#: the oracle layouts the snapshot passes dump.
LAYOUTS = ("natural", "workload-driven", "irregular")


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


def seeded_table():
    """The seeded 3 000 x 24 table, the quickstart's three templates it is
    trained on, and 12 seeded queries, as ``(select, where)`` pairs."""
    import numpy as np

    from repro import Query, TableSchema, Workload
    from repro.storage import ColumnTable

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
    specs = []
    for _ in range(12):
        where = {}
        for name in rng.choice(names, int(rng.integers(1, 3)), replace=False):
            lo = int(rng.integers(0, 90_000))
            where[str(name)] = (lo, lo + int(rng.integers(1_000, 30_000)))
        select = rng.choice(names, int(rng.integers(2, 11)), replace=False)
        specs.append(([str(n) for n in select], where))
    return table, train, specs


def build_context():
    from repro.layouts import BuildContext
    from repro.storage import DeviceProfile

    return BuildContext(
        device_profile=DeviceProfile.from_throughput("hdd", 75.0, 0.000001),
        file_segment_bytes=2048, buffer_pool_bytes=16 * 1024,
    )


def irregular_pass() -> list:
    """Several partitions per projection and multi-segment partitions,
    which the snapshot tables do not produce."""
    from repro import Query
    from repro.engine import PartitionAtATimeExecutor, ScanExecutor
    from repro.layouts import IrregularLayout

    table, train, specs = seeded_table()
    meta = table.meta
    queries = [Query.build(meta, select, where) for select, where in specs]
    manager = IrregularLayout().build(table, train, build_context()).manager
    engines = (
        ("pat", PartitionAtATimeExecutor(manager, meta)),
        ("pat-pruned", PartitionAtATimeExecutor(manager, meta, zone_maps=True)),
        ("scan", ScanExecutor(manager, meta)),
    )
    entries = []
    for engine_name, executor in engines:
        for index, query in enumerate(queries):
            entries.append(entry(
                f"irregular/irregular/{engine_name}/q{index}", executor, query,
            ))
    return entries + sql_pass(PartitionAtATimeExecutor(manager, meta), queries)


def txn_pass() -> list:
    """The write path: the seeded table built as ``IrregularLayout`` and as
    ``ColumnLayout`` under a ``TransactionalTable``; six commits of inserts,
    updates and deletes, then one budgeted fold (the script asserts it
    deferred a partition); then the 12 queries at the head and ``AS OF``
    each earlier version through pat (pruning off and on) and scan.  Each
    entry is ``[label, stats_signature, sha1 of the result, buffer-pool
    counters]``."""
    import numpy as np

    from repro import Query
    from repro.engine import PartitionAtATimeExecutor, ScanExecutor
    from repro.layouts import ColumnLayout, IrregularLayout
    from repro.testing.snapshot import stats_signature
    from repro.txn import DeltaCompactor, TransactionalTable

    entries = []
    for layout_name, builder in (
        ("irregular", IrregularLayout()), ("column", ColumnLayout()),
    ):
        table, train, specs = seeded_table()
        txn = TransactionalTable(builder.build(table, train, build_context()), table)
        names = list(table.schema.attribute_names)
        rng = np.random.default_rng(1)
        versions = [txn.current_version]
        for _ in range(6):
            txn.insert({
                name: rng.integers(0, 100_000, 40).astype(np.int32) for name in names
            })
            committed = txn.data.n_tuples
            txn.update(
                {str(rng.choice(names)): int(rng.integers(0, 100_000))},
                tids=rng.choice(committed, 10, replace=False),
            )
            txn.delete(tids=rng.choice(committed, 15, replace=False))
            lo = int(rng.integers(0, 99_000))
            txn.delete(where={str(rng.choice(names)): (lo, lo + 500)})
            versions.append(txn.commit())
        report = DeltaCompactor(txn, bytes_budget=8 * 1024).run()
        assert report.n_partitions_deferred, "the fold deferred no partition"
        for engine_name, engine in (
            ("pat", lambda m, meta: PartitionAtATimeExecutor(m, meta)),
            ("pat-pruned",
             lambda m, meta: PartitionAtATimeExecutor(m, meta, zone_maps=True)),
            ("scan", lambda m, meta: ScanExecutor(m, meta)),
        ):
            meta = txn.data.meta
            txn.layout.executor = engine(txn.manager, meta)
            for at, version in [("head", None)] + [
                (f"v{version}", version) for version in versions
            ]:
                for index, (select, where) in enumerate(specs):
                    query = Query.build(meta, select, where)
                    result, stats = txn.execute(query, as_of=version)
                    entries.append([
                        f"txn/{layout_name}/{engine_name}/{at}/q{index}",
                        list(stats_signature(stats)),
                        result_sha1(result),
                        pool_counters(txn.manager),
                    ])
    return entries


def threaded_pass() -> list:
    """The 12 queries through both threaded strategies on a fresh irregular
    build: ``[label, stats_signature, sha1 of the result]`` at one thread,
    ``[label, n_partition_reads, sha1 of the result]`` at three."""
    from repro import Query
    from repro.engine.parallel import ThreadedPartitionEngine
    from repro.layouts import IrregularLayout
    from repro.testing.snapshot import stats_signature

    table, train, specs = seeded_table()
    meta = table.meta
    manager = IrregularLayout().build(table, train, build_context()).manager
    entries = []
    for strategy in ("locking", "shared"):
        for n_threads in (1, 3):
            executor = ThreadedPartitionEngine(
                manager, meta, strategy=strategy, n_threads=n_threads
            )
            for index, (select, where) in enumerate(specs):
                result, stats = executor.execute(Query.build(meta, select, where))
                signature = (
                    list(stats_signature(stats)) if n_threads == 1
                    else stats.n_partition_reads
                )
                entries.append([
                    f"threaded/{strategy}/{n_threads}/q{index}",
                    signature,
                    result_sha1(result),
                ])
    return entries


def sql_pass(executor, queries) -> list:
    """Each query through the SQL front end: rendered, parsed once to build
    its template and again to bind into it, then executed."""
    from repro.sql import parse_statement, to_sql

    meta = executor.table
    entries = []
    for index, query in enumerate(queries):
        sql = to_sql(query, meta.name)
        parse_statement(meta, sql)
        bound = parse_statement(meta, sql).query
        entries.append(entry(f"sql/q{index}", executor, bound))
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
        seen = set()
        for case in iter_snapshot_cases(ctx=ctx):
            if case.layout in LAYOUTS:
                seen.add(case.layout)
                entries.append(entry(prefix + case.label, case.executor, case.query))
        missing = [name for name in LAYOUTS if name not in seen]
        if missing:
            raise SystemExit(f"no snapshot case on layout(s) {missing}")
    return entries + irregular_pass() + txn_pass() + threaded_pass()


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
