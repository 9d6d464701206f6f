"""Known issue 1: a *budgeted* fold breaks the irregular layout.

Found while sizing the layer benchmark; not fixed here.  On the 24-attribute
irregular layout a tuple's cells live in several partitions.
``DeltaCompactor(txn, bytes_budget=1 << 20).run()`` rewrites only *some* of
the partitions that hold a tombstoned tuple, yet drops the tuple's tombstone.
A later read then either

* raises ``StorageError: projection could not find attribute ... the
  partitioning does not cover the table`` (the predicate's partition still
  has the row, a projected attribute's partition no longer does), or
* returns the deleted row again — a **wrong answer** against the shadow
  oracle (every partition the query touches still has it).

Unbudgeted folds rewrite every dirty partition and are fine, which is why
``write_mixed`` uses them.

    python3 benchmarks/layers/repro_budgeted_fold.py [--seed N] [--budget BYTES]

Exits 0 when either symptom reproduces (the issue is still there) and 1 when
every read after the budgeted fold matches the shadow (it has been fixed:
drop the README entry and let ``write_mixed`` fold under a budget).
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(HERE, "..", "..", "src"))

import adapters  # noqa: E402
from workloads import SCALES, Round, WriteMixed  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=1 << 20)
    args = parser.parse_args()

    workload = WriteMixed(args.seed, SCALES["full"])
    workload.setup()
    out = Round(lat={cls: [] for cls in workload.classes})
    for _ in range(workload.scale.commits_per_fold):
        workload.commit_one(out, None)
    rewritten = workload.path.compact(bytes_budget=args.budget)
    workload.path.sync_shadow()
    segments, tombstones = workload.path.delta_state()
    print(f"budgeted fold rewrote {rewritten:,} bytes; left {segments} delta "
          f"segments and {tombstones} tombstones")

    errors = wrong = 0
    for spec in workload.specs:
        query = workload.path.parse(spec.sql)
        try:
            result, _ = workload.path.execute(query)
        except Exception as error:
            errors += 1
            print(f"ERROR on {spec.cls}: {type(error).__name__}: {str(error)[:160]}")
            continue
        expected = workload.path.oracle(query)
        if not adapters.same_result(result, expected):
            wrong += 1
            print(f"WRONG ANSWER on {spec.cls}: {adapters.n_rows(result)} rows, "
                  f"the shadow has {adapters.n_rows(expected)} ({spec.sql})")
    if errors or wrong:
        print(f"REPRODUCED: {errors} reads raised, {wrong} returned deleted rows, "
              f"of {len(workload.specs)}")
        return 0
    print("not reproduced: every read after the budgeted fold matched the shadow")
    return 1


if __name__ == "__main__":
    sys.exit(main())
