"""Figure 9 join variant: lineitem JOIN orders through the operator DAG."""

from repro.bench.experiments import fig09_join

from conftest import emit


def test_fig09_join(benchmark):
    cfg = fig09_join.Fig09JoinConfig(
        scale_factor=0.002, n_train_windows=6, schism_sample=400
    )
    result = benchmark.pedantic(fig09_join.run, args=(cfg,), rounds=1, iterations=1)
    emit(result)
    rows = {r["strategy"]: r for r in result.rows}
    for row in result.rows:
        # The DAG join must reproduce the denormalized single-table totals
        # bit for bit (each lineitem joins exactly one order).
        assert row["denorm_max_abs_err"] == 0.0, row
        assert row["denorm_count_mismatches"] == 0, row
        assert row["groups"] == 3, row
    # The post-filter baseline cannot prune on the pushed order-key range.
    assert rows["naive"]["mb_read"] > rows["partition-wise"]["mb_read"]
    assert rows["naive"]["sim_time_s"] >= rows["default"]["sim_time_s"]
