"""Testing utilities: the cross-engine differential oracle.

Everything here is deterministic given a seed, dependency-free beyond numpy,
and importable from production code and tests alike (the CLI exposes it as a
self-check; the test suite drives it through hypothesis as well).
"""

from .oracle import (
    OracleCase,
    OracleReport,
    inject_faults,
    no_leaked_pins,
    oracle_check,
    pruning_check,
    pruning_executors,
    random_query,
    random_table,
    random_workload,
    run_differential_oracle,
    run_reference_query,
)
from .writes import (
    ShadowTable,
    WriteWorkloadConfig,
    apply_random_batch,
    random_rows,
    verify_against_shadow,
)

__all__ = [
    "OracleCase",
    "OracleReport",
    "inject_faults",
    "no_leaked_pins",
    "oracle_check",
    "pruning_check",
    "pruning_executors",
    "random_query",
    "random_table",
    "random_workload",
    "run_differential_oracle",
    "run_reference_query",
    "ShadowTable",
    "WriteWorkloadConfig",
    "apply_random_batch",
    "random_rows",
    "verify_against_shadow",
]
