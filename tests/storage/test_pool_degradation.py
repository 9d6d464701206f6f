"""Buffer-pool degradation: a deterministic sweep of pool sizes.

Seven pool budgets spanning 100x — from the largest partition (the smallest
pool that admits every partition) up — each on a fresh build of the same
table, layout and query sequence, on the irregular layout (partition-at-a-
time engine, so the schema-group image rides along) and the column layout
(scan engine).  As the pool grows:

* simulated bytes read and pool evictions never rise (an LRU pool whose
  entries all fit holds the longest recent prefix of its references that
  fits, so a larger pool holds a superset);
* every query's result is byte-equal at every size;
* any counter falling by more than 3x between adjacent sizes is a cliff,
  and the cliffs are listed: the sweep pins them down rather than hiding
  them.  Both layouts show LRU's cyclic-scan cliff — every query reads its
  partitions in pid order, so a pool that cannot hold them all hits almost
  never, and one that can hits always.
"""

import numpy as np
import pytest

from repro.layouts import BuildContext, ColumnLayout, IrregularLayout
from repro.testing.oracle import random_query, random_table, random_workload

N_SIZES = 7
SPAN = 100
#: ``(layout, counter, smaller size index)`` of every > 3x fall between
#: adjacent sizes (see the module docstring).
CLIFFS = {
    "irregular": [("bytes_read", 5), ("evictions", 5)],
    "column": [("bytes_read", 2), ("evictions", 2)],
}
LAYOUTS = {
    "irregular": lambda: IrregularLayout(selection_enabled=False),
    "column": ColumnLayout,
}


def sweep(name):
    rng = np.random.default_rng(0)
    table = random_table(rng, n_attrs=8, n_tuples=4_000)
    workload = random_workload(rng, table, 4)
    queries = list(workload) + [
        random_query(rng, table, label=f"x{i}") for i in range(8)
    ]

    def build(pool_bytes=0):
        return LAYOUTS[name]().build(table, workload, BuildContext(
            file_segment_bytes=512, schism_sample_size=100,
            buffer_pool_bytes=pool_bytes,
        ))

    manager = build().manager
    smallest = max(manager.info(pid).n_bytes for pid in manager.pids())
    points = []
    for k in range(N_SIZES):
        layout = build(int(smallest * SPAN ** (k / (N_SIZES - 1))))
        bytes_read, results = 0, []
        for _round in range(2):
            for query in queries:
                result, stats = layout.execute(query)
                bytes_read += stats.bytes_read
                results.append(result)
        pool = layout.manager.buffer_pool
        points.append({
            "bytes_read": bytes_read,
            "evictions": pool.stats.n_evictions,
            "results": results,
        })
    return points


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_a_larger_pool_never_reads_more(name):
    points = sweep(name)
    cliffs = []
    for counter in ("bytes_read", "evictions"):
        values = [point[counter] for point in points]
        assert values == sorted(values, reverse=True), (counter, values)
        cliffs += [
            (counter, k) for k in range(N_SIZES - 1)
            if values[k] > 3 * max(values[k + 1], 1)
        ]
    assert cliffs == CLIFFS[name]
    first = points[0]["results"]
    for point in points[1:]:
        for result, expected in zip(point["results"], first):
            assert np.array_equal(result.tuple_ids, expected.tuple_ids)
            for column in expected.columns:
                assert result.column(column).tobytes() == expected.column(column).tobytes()
