"""Ablation bench: resize window, merge, selection, zone maps, histograms,
template drift."""

from repro.bench.experiments import ablations

from conftest import emit


def test_ablations(benchmark):
    cfg = ablations.AblationConfig(n_tuples=12_000, n_attrs=48, n_train=40, n_eval=2)
    result = benchmark.pedantic(ablations.run, args=(cfg,), rounds=1, iterations=1)
    emit(result)
    rows = {(r["ablation"], r["variant"]): r for r in result.rows}
    # The selection fallback must win at 100% selectivity.
    assert (
        rows[("selection@100%", "on")]["time_s"]
        <= rows[("selection@100%", "off")]["time_s"]
    )
    # Zone maps reduce I/O for selective queries.
    assert rows[("zone-maps", "on")]["mb_read"] <= rows[("zone-maps", "off")]["mb_read"]
