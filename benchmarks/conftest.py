"""Benchmark harness configuration.

Each ``bench_figXX`` module regenerates one figure of the paper's evaluation
section at reduced scale and reports the reproduced series; pytest-benchmark
times the regeneration.  Full-scale runs with readable tables are available
through the CLI: ``jigsaw-bench fig06`` etc.
"""


def emit(result) -> None:
    """Print a reproduced table (shown with ``pytest -s`` or on failure)."""
    print()
    print(result.to_text())
