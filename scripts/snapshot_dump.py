"""Dump the 768-entry stats snapshot as JSON, to diff two trees.

One entry per case of ``repro.testing.snapshot.iter_snapshot_cases()``, in
its deterministic order: ``[label, stats_signature, sha1 of the result,
sha1 of the EXPLAIN text, buffer-pool counters]``, the last two taken after
the execution (the pool counters are the case manager's lifetime
``n_hits``, ``n_misses``, ``n_evictions`` and ``hit_bytes``).  The 768
cases run twice: as the snapshot builds them (no buffer pool: the counters
are None), then labelled ``pool/...`` under a 4 KiB pool, where hits,
misses and evictions all occur.  Beyond those two functions the script
uses only ``BuildContext``, ``executor.explain(query).render()`` and
``executor.manager.buffer_pool``, so it runs unchanged against an older
tree — the parent of a change, or a merge base::

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


def dump() -> list:
    import repro
    from repro.layouts import BuildContext
    from repro.testing.snapshot import iter_snapshot_cases, stats_signature

    print(f"dumping the snapshot of {repro.__file__}", file=sys.stderr)
    pooled = BuildContext(
        file_segment_bytes=2048, schism_sample_size=100, buffer_pool_bytes=4096
    )
    entries = []
    for prefix, ctx in (("", None), ("pool/", pooled)):
        for case in iter_snapshot_cases(ctx=ctx):
            executor = case.executor
            result, stats = executor.execute(case.query)
            explain = executor.explain(case.query).render()
            entries.append([
                prefix + case.label,
                list(stats_signature(stats)),
                result_sha1(result),
                hashlib.sha1(explain.encode()).hexdigest(),
                pool_counters(executor.manager),
            ])
    return entries


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
