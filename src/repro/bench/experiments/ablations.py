"""Ablations: the design choices DESIGN.md calls out, measured.

Six studies, each isolating one mechanism:

* ``resize-window``  — sweep Jigsaw's [MIN_SIZE, MAX_SIZE] window; too small
  fragments I/O (per-request overhead), too large reads redundant bytes.
* ``merge``          — disable the merge phase: small same-access-pattern
  segments stay separate files and per-request overhead balloons (the
  paper's motivation for merging).
* ``selection``      — disable the final irregular-vs-columnar choice at
  100% selectivity, where the fallback is what saves Jigsaw.
* ``zone-maps``      — the catalog-metadata predicate short-circuit for the
  partition-at-a-time engine (extension; paper future work "indexing").
* ``histograms``     — equi-width histograms for the tuner's segment-size
  estimates on a Zipf-skewed table.
* ``drift``          — evaluate queries from templates NOT in the training
  workload: MAX_SIZE's robustness bound in action.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...engine.partition_at_a_time import PartitionAtATimeExecutor
from ...layouts import ColumnLayout, IrregularLayout
from ...workloads.hap import hap_templates, hap_workload, make_hap_table
from ..environments import BALOS, scaled_context
from ..reporting import ExperimentResult
from ..runner import run_workload

__all__ = ["AblationConfig", "run"]


@dataclass(slots=True)
class AblationConfig:
    """Shared scale knobs for the ablation studies."""

    n_tuples: int = 24_000
    n_attrs: int = 64
    selectivity: float = 0.05
    projectivity: int = 8
    n_train: int = 60
    n_eval: int = 3
    seed: int = 41


def _setup(cfg: AblationConfig, selectivity: float | None = None):
    table = make_hap_table(cfg.n_tuples, cfg.n_attrs, seed=cfg.seed)
    sel = cfg.selectivity if selectivity is None else selectivity
    train, templates = hap_workload(
        table.meta, sel, cfg.projectivity, 2, cfg.n_train, seed=cfg.seed + 1,
    )
    eval_wl, _t = hap_workload(
        table.meta, sel, cfg.projectivity, 2, cfg.n_eval,
        seed=cfg.seed + 2, templates=templates,
    )
    ctx, _scale = scaled_context(BALOS, table.sizeof(), seed=cfg.seed)
    return table, train, eval_wl, ctx


def _record(result, ablation, variant, layout, eval_wl, **extra):
    run = run_workload(layout, eval_wl)
    result.add_row(
        ablation=ablation,
        variant=variant,
        time_s=round(run.mean_time_s, 5),
        mb_read=round(run.mean_bytes / 1e6, 3),
        partitions=layout.n_partitions,
        **extra,
    )
    return run


def run(cfg: AblationConfig | None = None) -> ExperimentResult:
    cfg = cfg or AblationConfig()
    result = ExperimentResult(
        experiment="ablations",
        title="Design-choice ablations (resize window, merge, selection, "
        "zone maps, template drift)",
        parameters={"n_tuples": cfg.n_tuples, "n_attrs": cfg.n_attrs},
    )

    # ---------------------------------------------------- 1. resize window
    table, train, eval_wl, ctx = _setup(cfg)
    base_segment = ctx.file_segment_bytes
    for factor in (0.25, 1.0, 4.0, 16.0):
        ctx.jigsaw_min_size = max(1024, int(base_segment * factor))
        ctx.jigsaw_max_size = 8 * ctx.jigsaw_min_size
        layout = IrregularLayout(selection_enabled=False).build(table, train, ctx)
        _record(result, "resize-window", f"{factor}x", layout, eval_wl)
    ctx.jigsaw_min_size = None
    ctx.jigsaw_max_size = None

    # ------------------------------------------------------------ 2. merge
    for merge in (True, False):
        layout = IrregularLayout(selection_enabled=False, merge_enabled=merge).build(
            table, train, ctx
        )
        # Without similarity merging, undersized partitions stay separate
        # files, paying the per-request beta the merge phase amortizes.
        _record(result, "merge", "on" if merge else "off", layout, eval_wl)

    # -------------------------------------------------------- 3. selection
    full_table, full_train, full_eval, full_ctx = _setup(cfg, selectivity=1.0)
    for selection in (True, False):
        layout = IrregularLayout(selection_enabled=selection).build(
            full_table, full_train, full_ctx
        )
        _record(
            result, "selection@100%", "on" if selection else "off", layout, full_eval,
            picked="Column" if layout.build_info.get("fallback") else "Irregular",
        )

    # -------------------------------------------------------- 4. zone maps
    narrow_table, narrow_train, narrow_eval, narrow_ctx = _setup(cfg, selectivity=0.02)
    base = IrregularLayout(selection_enabled=False).build(
        narrow_table, narrow_train, narrow_ctx
    )
    for maps in (False, True):
        base.executor = PartitionAtATimeExecutor(
            base.manager, narrow_table.meta, cpu_model=narrow_ctx.cpu_model,
            zone_maps=maps,
        )
        _record(result, "zone-maps", "on" if maps else "off", base, narrow_eval)

    # ----------------------------------------------------- 5. histograms
    skew_table = make_hap_table(
        cfg.n_tuples, cfg.n_attrs, seed=cfg.seed, distribution="zipf"
    )
    skew_train, skew_templates = hap_workload(
        skew_table.meta, cfg.selectivity, cfg.projectivity, 2, cfg.n_train,
        seed=cfg.seed + 5,
    )
    skew_eval, _t = hap_workload(
        skew_table.meta, cfg.selectivity, cfg.projectivity, 2, cfg.n_eval,
        seed=cfg.seed + 6, templates=skew_templates,
    )
    skew_ctx, _sc = scaled_context(BALOS, skew_table.sizeof(), seed=cfg.seed)
    import statistics as stdlib_stats

    for flag in (False, True):
        layout = IrregularLayout(selection_enabled=False, use_histograms=flag).build(
            skew_table, skew_train, skew_ctx
        )
        estimated = {p.pid: sum(s.n_tuples for s in p.segments) for p in layout.plan}
        actual = {
            pid: sum(len(t) for t in layout.manager.info(pid).segment_tids)
            for pid in layout.manager.pids()
        }
        median_error = stdlib_stats.median(
            abs(estimated[pid] - actual[pid]) / max(actual[pid], 1)
            for pid in actual
            if actual[pid] > 50
        )
        _record(
            result, "histograms@zipf", "on" if flag else "off", layout, skew_eval,
            size_est_err=f"{median_error:.0%}",
        )

    # ------------------------------------------------------------ 6. drift
    drift_table, drift_train, _e, drift_ctx = _setup(cfg)
    import numpy as np

    unseen_templates = hap_templates(
        drift_table.meta, cfg.projectivity, 2, np.random.default_rng(cfg.seed + 99)
    )
    unseen_eval, _t = hap_workload(
        drift_table.meta, cfg.selectivity, cfg.projectivity, 2, cfg.n_eval,
        seed=cfg.seed + 100, templates=unseen_templates,
    )
    irregular = IrregularLayout(selection_enabled=False).build(
        drift_table, drift_train, drift_ctx
    )
    column = ColumnLayout().build(drift_table, drift_train, drift_ctx)
    _record(result, "template-drift", "Irregular/unseen", irregular, unseen_eval)
    _record(result, "template-drift", "Column/unseen", column, unseen_eval)
    result.notes.append(
        "drift: MAX_SIZE bounds how much an unseen query can over-read; "
        "Column is template-agnostic by construction"
    )
    return result
