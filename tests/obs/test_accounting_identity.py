"""Observability must not perturb the simulated accounting, at all.

Two regressions:

* the full 576-entry stats-snapshot sweep collected with observability off
  equals, entry for entry and field for field, the sweep collected with
  tracing **and** metrics fully enabled;
* the differential oracle (engine-vs-reference result identity) passes
  identically traced and untraced.
"""

from __future__ import annotations

from repro import obs
from repro.testing.oracle import run_differential_oracle
from repro.testing.snapshot import (
    SNAPSHOT_N_ENTRIES,
    STATS_SIGNATURE_FIELDS,
    collect_stats_snapshot,
)


def test_snapshot_byte_identical_traced_vs_untraced():
    baseline = collect_stats_snapshot()
    assert len(baseline) == SNAPSHOT_N_ENTRIES
    obs.enable(trace=True, metrics=True)
    try:
        traced = collect_stats_snapshot()
    finally:
        obs.disable()
    assert len(traced) == len(baseline)
    for before, after in zip(baseline, traced):
        assert before.label == after.label
        if before.signature != after.signature:
            diffs = [
                (name, a, b)
                for name, a, b in zip(
                    STATS_SIGNATURE_FIELDS, before.signature, after.signature
                )
                if a != b
            ]
            raise AssertionError(
                f"tracing perturbed accounting at {before.label}: {diffs}"
            )


def test_differential_oracle_traced_vs_untraced():
    untraced = run_differential_oracle(n_cases=6, seed=11)
    assert untraced.ok, untraced.summary()
    obs.enable(trace=True, metrics=True)
    try:
        traced = run_differential_oracle(n_cases=6, seed=11)
    finally:
        obs.disable()
    assert traced.ok, traced.summary()
    assert traced.n_cases == untraced.n_cases
    assert traced.n_checks == untraced.n_checks
    assert traced.summary() == untraced.summary()
