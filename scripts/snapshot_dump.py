"""Dump the 768-entry stats snapshot as JSON, to diff two trees.

One entry per case of ``repro.testing.snapshot.iter_snapshot_cases()``, in
its deterministic order: ``[label, stats_signature, sha1 of the result]``.
The script touches nothing of ``repro`` but those two functions, so it runs
unchanged against an older tree — the parent of a change, or a merge base::

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


def dump() -> list:
    import repro
    from repro.testing.snapshot import iter_snapshot_cases, stats_signature

    print(f"dumping the snapshot of {repro.__file__}", file=sys.stderr)
    entries = []
    for case in iter_snapshot_cases():
        result, stats = case.executor.execute(case.query)
        entries.append(
            [case.label, list(stats_signature(stats)), result_sha1(result)]
        )
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
