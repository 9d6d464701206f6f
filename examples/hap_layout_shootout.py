"""Layout shootout on the HAP benchmark (the paper's microbenchmark).

Builds all seven layouts — Row, Row-H, Row-V, Column, Column-H, Hierarchical
and Jigsaw's Irregular — for one HAP workload and compares simulated query
time and bytes read on the three evaluation servers of Table 3, at 16 and
at 4 projected attributes.

Beside the simulated (cold) columns it reports what a query costs in real
time once its partitions are resident: the median warm wall-clock
milliseconds per query under a buffer pool that holds the whole layout, the
numpy floor of the same queries (a dense mask and gather over the
in-memory table) and the partitions each query reads.

Run:  python examples/hap_layout_shootout.py
"""

import time

import numpy as np

from repro.bench.environments import MACHINES, scaled_context
from repro.bench.reporting import format_bytes, format_seconds
from repro.bench.runner import build_layouts, run_workload
from repro.storage import BufferPool
from repro.testing import run_reference_query
from repro.workloads.hap import hap_workload, make_hap_table

SELECTIVITY = 0.1
PROJECTIVITIES = (16, 4)
N_TEMPLATES = 2
#: timed repetitions of each evaluation query (the median is reported).
WALL_REPS = 9


def median_ms(function, reps: int = WALL_REPS) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return 1e3 * float(np.median(times))


def warm_wall(layout, queries):
    """``(ms per query, partitions read per query)`` with every partition
    resident: a pool over the whole layout, warmed by one pass."""
    layout.manager.buffer_pool = BufferPool(1 << 30)
    reads = [layout.execute(query)[1].n_partition_reads for query in queries]
    ms = [median_ms(lambda query=query: layout.execute(query)) for query in queries]
    return float(np.mean(ms)), float(np.mean(reads))


def main() -> None:
    table = make_hap_table(n_tuples=24_000, n_attrs=160, seed=42)
    print(f"HAP wide table: {table} ({format_bytes(table.sizeof())})")
    for projectivity in PROJECTIVITIES:
        shootout(table, projectivity)


def shootout(table, projectivity: int) -> None:
    train, templates = hap_workload(
        table.meta, SELECTIVITY, projectivity, N_TEMPLATES, n_queries=80, seed=1
    )
    eval_wl, _templates = hap_workload(
        table.meta, SELECTIVITY, projectivity, N_TEMPLATES, n_queries=3,
        seed=2, templates=templates,
    )
    print(
        f"workload: {len(train)} training / {len(eval_wl)} evaluation queries, "
        f"selectivity {SELECTIVITY:.0%}, {projectivity}/160 attributes projected"
    )
    floor = np.mean([
        median_ms(lambda query=query: run_reference_query(table, query))
        for query in eval_wl
    ])
    print(f"numpy floor: {floor:.2f} ms/query (warm columns: wall ms/query, "
          f"partitions read/query)\n")

    for machine_name in ("balos", "c5.9xlarge"):
        machine = MACHINES[machine_name]
        ctx, scale = scaled_context(machine, table.sizeof(), seed=3)
        print(f"--- {machine.name}: {machine.device.description} ---")
        layouts = build_layouts(table, train, ctx)
        rows = []
        for name, layout in layouts.items():
            run = run_workload(layout, eval_wl)
            wall_ms, reads = warm_wall(layout, eval_wl)
            rows.append((run.mean_time_s, name, run.mean_bytes,
                         layout.n_partitions, wall_ms, reads))
        rows.sort()
        best = rows[0][0]
        for mean_time, name, mean_bytes, n_partitions, wall_ms, reads in rows:
            print(
                f"  {name:<13} {format_seconds(mean_time):>10}/query "
                f"{format_bytes(mean_bytes):>10} read  {n_partitions:>5} partitions "
                f"| warm {wall_ms:6.2f} ms ({wall_ms / floor:4.1f}x floor) "
                f"{reads:6.1f} read "
                f"{'<- fastest' if mean_time == best else ''}"
            )
        print()


if __name__ == "__main__":
    main()
