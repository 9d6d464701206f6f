"""Command-line entry point: run any experiment and print its table.

Usage::

    jigsaw-bench fig06                # quick defaults
    jigsaw-bench fig09 --set scale_factor=0.05 --set n_train=200
    jigsaw-bench all
    python -m repro.cli fig12

``--set key=value`` overrides any field of the experiment's config dataclass
(values are parsed as Python literals, falling back to strings).

The ``explain`` command plans a SQL statement against a small seeded demo
table and prints the planner's decisions (partition pruning, pushdown column
sets, fault policy, cost estimates)::

    jigsaw-bench explain "SELECT a1, a2 FROM oracle WHERE a1 BETWEEN 100 AND 400"
    jigsaw-bench explain --layout workload-driven --run "SELECT a1 FROM oracle"
    jigsaw-bench explain --engine jigsaw-s "EXPLAIN SELECT a1 FROM oracle WHERE a2 < 50"
    jigsaw-bench explain --analyze "SELECT a1 FROM oracle WHERE a1 < 300"

(the ``EXPLAIN`` keyword inside the statement is accepted and redundant
here; ``--run`` also executes the plan and appends actual counters;
``--analyze`` — or ``EXPLAIN ANALYZE`` inside the statement — runs the
query traced and appends the per-operator breakdown).

The ``profile`` command runs a small seeded workload across every engine
under tracing, writes the spans as JSONL, and prints the top-N hotspots::

    jigsaw-bench profile --trace-out trace.jsonl --top 10
    jigsaw-bench profile --metrics      # also print the Prometheus text

The ``serve`` command starts the query-serving tier over a seeded demo
layout and replays a many-client workload through it, verifying every
result against the dense numpy reference and reporting QPS, latency
percentiles and partition-cache effectiveness::

    jigsaw-bench serve --clients 8 --requests 25
    jigsaw-bench serve --serve-workers 8 --queue-depth 32 --partition-cache off
    jigsaw-bench serve --layout workload-driven --metrics

``serve`` always runs under the query flight recorder; add
``--telemetry-port`` to expose the live HTTP endpoint (``/metrics``,
``/healthz``, ``/queries``, ``/hotspots``) while the replay runs,
``--slow-query-ms`` to tune the slow-query EXPLAIN ANALYZE threshold and
``--flight-out`` to dump the per-query records as JSONL::

    jigsaw-bench serve --telemetry-port 9464 --slow-query-ms 50
    jigsaw-bench serve --flight-out flight.jsonl

The ``health`` command evaluates the declarative health rules — either
against a running telemetry endpoint or over a local seeded workload —
and exits 0/1/2 for ok/warn/crit::

    jigsaw-bench health
    jigsaw-bench health --telemetry-url http://127.0.0.1:9464
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import sys
from typing import Any, List

from .bench.experiments import EXPERIMENTS

__all__ = ["main"]


def _parse_value(raw: str) -> Any:
    try:
        return ast.literal_eval(raw)
    except (SyntaxError, ValueError):
        return raw


def _config_for(module, overrides: List[str]):
    config_cls = next(
        (
            getattr(module, name)
            for name in dir(module)
            if name.endswith("Config") and isinstance(getattr(module, name), type)
        ),
        None,
    )
    if config_cls is None:
        return None
    config = config_cls()
    for override in overrides:
        key, _sep, raw = override.partition("=")
        if not _sep:
            raise SystemExit(f"--set expects key=value, got {override!r}")
        field_names = {field.name for field in dataclasses.fields(config)}
        if key not in field_names:
            raise SystemExit(
                f"{config_cls.__name__} has no field {key!r}; "
                f"fields: {sorted(field_names)}"
            )
        setattr(config, key, _parse_value(raw))
    return config


def _demo_layout(args, layout_name: str):
    """The seeded demo table, workload and one built layout (shared by the
    explain and profile commands)."""
    import numpy as np

    from .layouts import BuildContext
    from .testing.oracle import ORACLE_LAYOUTS, random_table, random_workload

    rng = np.random.default_rng(args.seed)
    table = random_table(rng, n_attrs=args.n_attrs, n_tuples=args.n_tuples)
    workload = random_workload(rng, table, n_queries=5)
    builders = dict(ORACLE_LAYOUTS)
    if layout_name not in builders:
        raise SystemExit(
            f"unknown layout {layout_name!r}; choices: {sorted(builders)}"
        )
    ctx = BuildContext(
        file_segment_bytes=2048,
        schism_sample_size=100,
        sketch_budget_bytes=args.sketch_budget,
    )
    layout = builders[layout_name]().build(table, workload, ctx)
    return table, workload, layout


def _run_explain(args) -> int:
    """Build a seeded demo layout, plan the statement, print the report."""
    from .engine.parallel import ThreadedPartitionEngine
    from .sql import parse_statement

    table, _workload, layout = _demo_layout(args, args.layout)
    statement = parse_statement(table.meta, args.sql)

    if args.engine in ("jigsaw-l", "jigsaw-s"):
        strategy = "locking" if args.engine == "jigsaw-l" else "shared"
        executor: Any = ThreadedPartitionEngine(
            layout.manager, table.meta, strategy=strategy
        )
    else:
        executor = layout.executor
    if args.analyze or statement.analyze:
        from .obs import explain_analyze

        _result, _stats, report = explain_analyze(
            executor, statement.query, engine=args.engine or ""
        )
    else:
        report = executor.explain(statement.query)
        if args.run:
            _result, stats = executor.execute(statement.query)
            report.record_actuals(stats)
    print(
        f"-- demo table {table.meta.name!r}: "
        f"{table.n_tuples} tuples x {len(table.schema)} attributes "
        f"({', '.join(table.schema.attribute_names)}), "
        f"layout {args.layout!r} with {layout.n_partitions} partitions"
    )
    print(report.render())
    return 0


def _run_profile(args) -> int:
    """Run the seeded demo workload across every engine traced; emit a
    JSONL trace file, the top-N hotspot table and (optionally) metrics."""
    from . import obs
    from .engine.parallel import ThreadedPartitionEngine
    from .testing.oracle import ORACLE_LAYOUTS

    collector = obs.TraceCollector(capacity=65536)
    n_queries = 0
    with obs.scoped_trace(collector=collector):
        was_metrics = obs.metrics_enabled()
        obs.enable(trace=False, metrics=True)
        try:
            table = None
            for layout_name, _factory in ORACLE_LAYOUTS:
                table, workload, layout = _demo_layout(args, layout_name)
                executors = [layout.executor]
                if layout_name == "irregular":
                    executors += [
                        ThreadedPartitionEngine(
                            layout.manager, table.meta, strategy=strategy
                        )
                        for strategy in ("locking", "shared")
                    ]
                for executor in executors:
                    for query in workload.queries:
                        executor.execute(query)
                        n_queries += 1
                obs.publish("pool", layout.manager.buffer_pool, pool=layout_name)
        finally:
            if not was_metrics:
                obs.disable()
    n_spans = obs.dump_jsonl(collector, args.trace_out)
    print(
        f"profiled {n_queries} queries across "
        f"{len(ORACLE_LAYOUTS) + 2} engine configurations; "
        f"wrote {n_spans} spans to {args.trace_out}"
        + (f" ({collector.n_dropped} dropped)" if collector.n_dropped else "")
    )
    print()
    print(obs.hotspot_summary(collector, n=args.top))
    if args.metrics:
        print()
        print(obs.get_registry().render_prometheus())
    return 0


def _serve_engines(layout, cache):
    """The layout's engine — every option it was built with kept — with
    pruning on and ``cache`` wired, keyed by engine name, plus, for an
    engine planned under the partition policy, both threaded protocols
    (the scheduler caps those at one in-flight query each)."""
    from .engine.parallel import ThreadedPartitionEngine
    from .plan.logical import POLICY_PARTITION

    served = layout.executor.clone(zone_maps=True, partition_cache=cache)
    engines = {served.name: served}
    if served.policy == POLICY_PARTITION:
        for strategy in ("locking", "shared"):
            threaded = ThreadedPartitionEngine(
                served.manager, served.table, strategy=strategy,
                partition_cache=cache,
            )
            engines[threaded.name] = threaded
    return engines


def _scrape_telemetry(telemetry) -> None:
    """Self-scrape the live endpoint: prove /metrics parses, report health."""
    import json
    from urllib.error import HTTPError
    from urllib.request import urlopen

    from .testing.promparse import parse_exposition

    base = telemetry.url
    with urlopen(base + "/metrics", timeout=10) as resp:
        families = parse_exposition(resp.read().decode("utf-8"))
    try:
        with urlopen(base + "/healthz", timeout=10) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
    except HTTPError as err:  # /healthz answers 503 when any rule is crit
        payload = json.loads(err.read().decode("utf-8"))
    print(
        f"-- telemetry self-scrape: {len(families)} metric families, "
        f"health {payload['status']}"
    )


def _run_serve(args) -> int:
    """Serve a seeded demo layout to N replay clients; verify every result."""
    import numpy as np

    from . import obs
    from .serve import (
        PartitionCache,
        QueryScheduler,
        build_client_mix,
        run_replay,
    )
    from .testing.oracle import run_reference_query

    table, workload, layout = _demo_layout(args, args.layout)
    cache = (
        PartitionCache(layout.manager)
        if args.partition_cache == "on"
        else None
    )
    engines = _serve_engines(layout, cache)
    if args.metrics or args.telemetry_port is not None:
        obs.enable(trace=False, metrics=True)
    recorder = obs.FlightRecorder(
        capacity=4096,
        slow_query_s=(
            args.slow_query_ms / 1000.0 if args.slow_query_ms > 0 else None
        ),
    )
    obs.install_flight_recorder(recorder)
    rng = np.random.default_rng(args.seed + 1)
    mix = build_client_mix(
        rng,
        tuple(engines),
        list(workload.queries),
        n_clients=args.clients,
        requests_per_client=args.requests,
    )

    def verify(engine, query, result, _stats):
        if result.equals(run_reference_query(table, query)):
            return None
        return f"{engine}: {query.label!r} diverged from the reference"

    scheduler = QueryScheduler(
        engines,
        workers=args.serve_workers,
        queue_depth=args.queue_depth,
    )
    try:
        with scheduler:
            if args.telemetry_port is not None:
                telemetry = scheduler.start_telemetry(
                    port=args.telemetry_port, host=args.telemetry_host
                )
                print(f"-- telemetry endpoint: {telemetry.url}")
            report = run_replay(scheduler, mix, verify=verify)
            if args.telemetry_port is not None:
                _scrape_telemetry(telemetry)
    finally:
        obs.uninstall_flight_recorder(close=False)
    flight = recorder.summary()
    print(
        f"-- flight recorder: {flight['n_recorded']} queries recorded "
        f"({flight['n_slow']} slow, {flight['n_errors']} errors, "
        f"{flight['n_rejections']} rejected); latency p50/p95/p99 = "
        f"{flight['latency_p50_s']*1e3:.1f}/{flight['latency_p95_s']*1e3:.1f}/"
        f"{flight['latency_p99_s']*1e3:.1f} ms"
    )
    if args.flight_out:
        n_written = obs.write_jsonl(
            obs.record_rows(recorder.records()), args.flight_out
        )
        print(f"-- wrote {n_written} flight records to {args.flight_out}")
    recorder.close()
    print(
        f"-- demo table {table.meta.name!r}: {table.n_tuples} tuples x "
        f"{len(table.schema)} attributes, layout {args.layout!r} with "
        f"{layout.n_partitions} partitions; engines: {', '.join(engines)}"
    )
    print(
        f"-- scheduler: {args.serve_workers} workers, "
        f"queue depth {args.queue_depth}, partition cache "
        f"{args.partition_cache}"
    )
    print(report.summary())
    if cache is not None:
        obs.publish("partition_cache", cache, cache="main")
        stats = cache.stats
        print(
            f"partition cache: {stats.n_hits} hits / {stats.n_misses} misses "
            f"({stats.hit_rate:.0%}), {len(cache)} entries resident, "
            f"{stats.n_invalidated} invalidated, {stats.n_evicted} evicted"
        )
    if args.metrics:
        print()
        print(obs.get_registry().render_prometheus())
    for failure in report.failures:
        print(f"FAILURE: {failure}", file=sys.stderr)
    return 0 if report.ok else 1


def _run_write(args) -> int:
    """Drive the write path on a seeded demo layout: batched writes through
    the WAL, shadow-oracle verification at every version, optional crash
    replay and budgeted compaction, and an ``AS OF`` time-travel read."""
    import numpy as np

    from . import obs
    from .sql import parse_statement
    from .testing import (
        ShadowTable,
        WriteWorkloadConfig,
        apply_random_batch,
        verify_against_shadow,
    )
    from .txn import DeltaCompactor, TransactionalTable

    table, _workload, layout = _demo_layout(args, args.layout)
    if args.metrics:
        obs.enable(trace=False, metrics=True)
    wal_enabled = args.wal == "on"
    txn = TransactionalTable(layout, table, wal_enabled=wal_enabled)
    shadow = ShadowTable(table)
    shadow.snapshot(txn.current_version)
    base_version = txn.current_version
    base_n = table.n_tuples

    rng = np.random.default_rng(args.seed + 2)
    config = WriteWorkloadConfig(n_batches=args.write_batches)
    for _batch in range(config.n_batches):
        apply_random_batch(txn, shadow, rng, config)
        shadow.snapshot(txn.commit())
    state = txn.delta_state()
    print(
        f"-- demo table {table.meta.name!r}: {base_n} -> "
        f"{txn.data.n_tuples} tuples across {config.n_batches} commits "
        f"(v{base_version} -> v{txn.current_version}), layout "
        f"{args.layout!r}, WAL {args.wal}"
    )
    print(
        f"-- head delta state: {len(state.segments)} unfolded commit "
        f"partitions, "
        f"{len(state.tombstones)} tombstones"
        + (
            f"; WAL: {txn.wal.stats.n_commits} group commits, "
            f"{txn.wal.stats.bytes_written} bytes"
            if wal_enabled else ""
        )
    )

    report = DeltaCompactor(
        txn, bytes_budget=args.compaction_budget or None, verify=True
    ).run()
    if not report.is_empty:
        shadow.snapshot(report.version)
        print(
            f"-- compaction v{report.version}: folded "
            f"{report.n_segments_folded} segments, dropped "
            f"{report.n_tuples_dropped} dead rows across "
            f"{len(report.scope_pids)} partitions, rewrote "
            f"{report.bytes_rewritten} bytes"
            + (" (WAL truncated)" if report.wal_truncated else "")
        )

    mismatches = verify_against_shadow(txn, shadow, rng)
    versions = tuple(sorted(shadow.history))
    print(
        f"-- verified {len(versions)} versions "
        f"({versions[0]}..{versions[-1]}) against the dense shadow: "
        + ("oracle-exact" if not mismatches else "MISMATCH")
    )
    for problem in mismatches:
        print(f"FAILURE: {problem}", file=sys.stderr)

    as_of = args.as_of
    if args.sql is not None:
        statement = parse_statement(txn.data.meta, args.sql)
        if statement.as_of is not None:
            as_of = statement.as_of
        query = statement.query
    else:
        names = list(table.schema.attribute_names)
        from .core.query import Query

        query = Query.build(txn.data.meta, names, {}, label="write-demo")
    if as_of is None:
        as_of = versions[len(versions) // 2]
    result, stats = txn.execute(query, as_of=as_of)
    print(
        f"-- AS OF {as_of}: {result.n_tuples} tuples "
        f"({stats.n_partition_reads} partition reads, "
        f"{stats.bytes_read} simulated bytes)"
    )
    if args.metrics:
        print()
        print(obs.get_registry().render_prometheus())
    return 1 if mismatches else 0


def _run_health(args) -> int:
    """Evaluate the health rules; exit code 0/1/2 = ok/warn/crit.

    With ``--telemetry-url`` the verdict comes from a running endpoint's
    ``/healthz``; otherwise a small seeded write workload is driven locally
    (commits, compaction until clean) and the rules are evaluated over the
    resulting metrics registry.
    """
    import json

    from .obs import format_health

    if args.telemetry_url:
        from urllib.error import HTTPError, URLError
        from urllib.request import urlopen

        url = args.telemetry_url.rstrip("/") + "/healthz"
        try:
            try:
                with urlopen(url, timeout=10) as resp:
                    payload = json.loads(resp.read().decode("utf-8"))
            except HTTPError as err:  # 503 still carries the report body
                payload = json.loads(err.read().decode("utf-8"))
        except (URLError, OSError) as exc:
            print(f"health: cannot reach {url}: {exc}", file=sys.stderr)
            return 2
        print(format_health(payload, title=f"health ({url})"))
        return {"ok": 0, "warn": 1, "crit": 2}.get(payload["status"], 2)

    import numpy as np

    from . import obs
    from .testing import ShadowTable, WriteWorkloadConfig, apply_random_batch
    from .txn import DeltaCompactor, TransactionalTable

    obs.enable(trace=False, metrics=True)
    table, _workload, layout = _demo_layout(args, args.layout)
    txn = TransactionalTable(layout, table, wal_enabled=True)
    shadow = ShadowTable(table)
    shadow.snapshot(txn.current_version)
    rng = np.random.default_rng(args.seed + 2)
    config = WriteWorkloadConfig(n_batches=3)
    for _batch in range(config.n_batches):
        apply_random_batch(txn, shadow, rng, config)
        shadow.snapshot(txn.commit())
    DeltaCompactor(txn, verify=True).run_until_clean()
    report = obs.HealthMonitor().evaluate()
    print(format_health(report.as_dict()))
    return report.exit_code


def _run_experiments(args) -> int:
    """Run each named experiment and print its table."""
    try:
        for name in args.names:
            module = EXPERIMENTS[name]
            result = module.run(_config_for(module, args.overrides))
            print(result.to_text())
            print()
    except BrokenPipeError:  # e.g. piped into `head`
        return 0
    return 0


def _parser() -> argparse.ArgumentParser:
    """One sub-parser per command: a flag the command never reads is a
    usage error, not silently ignored."""
    parser = argparse.ArgumentParser(
        prog="jigsaw-bench",
        description="Reproduce the Jigsaw (SIGMOD'21) evaluation figures.",
    )
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="command"
    )
    for name in sorted(EXPERIMENTS):
        summary = (EXPERIMENTS[name].__doc__ or "").split("\n\n")[0]
        figure = commands.add_parser(name, help=" ".join(summary.split()))
        figure.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config field (repeatable)",
        )
        figure.set_defaults(handler=_run_experiments, names=[name])
    commands.add_parser(
        "all", help="run every experiment with its default config"
    ).set_defaults(handler=_run_experiments, names=sorted(EXPERIMENTS), overrides=[])

    # The seeded demo table every non-figure command builds.
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--seed", type=int, default=0, help="demo table seed")
    table.add_argument(
        "--n-tuples", type=int, default=400, help="demo table rows"
    )
    table.add_argument(
        "--n-attrs", type=int, default=4, help="demo table columns"
    )
    table.add_argument(
        "--sketch-budget",
        type=int,
        default=0,
        metavar="BYTES",
        help="per-partition byte budget for data-skipping sketches "
        "(0 = zone maps only)",
    )

    explain = commands.add_parser(
        "explain",
        parents=[table],
        help="plan a SQL statement against the demo table",
    )
    explain.add_argument("sql", help="the SQL statement to plan")
    explain.add_argument(
        "--engine",
        default=None,
        choices=["jigsaw-l", "jigsaw-s"],
        help="plan for a threaded protocol instead of the layout's own "
        "executor",
    )
    explain.add_argument(
        "--run",
        action="store_true",
        help="also execute the plan and report actual counters",
    )
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="run the query traced and append the per-operator breakdown "
        "(same as writing EXPLAIN ANALYZE in the statement)",
    )
    explain.set_defaults(handler=_run_explain)

    profile = commands.add_parser(
        "profile",
        parents=[table],
        help="trace the demo workload across every engine",
    )
    profile.add_argument(
        "--trace-out",
        default="jigsaw-trace.jsonl",
        help="path for the JSONL span dump",
    )
    profile.add_argument(
        "--top", type=int, default=10, help="number of hotspot rows to print"
    )
    profile.set_defaults(handler=_run_profile)

    serve = commands.add_parser(
        "serve",
        parents=[table],
        help="replay a many-client workload through the serving tier",
    )
    serve.add_argument(
        "--serve-workers",
        type=int,
        default=4,
        help="scheduler worker threads",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        metavar="N",
        help="admission-control bound on pending requests (beyond it "
        "submits are rejected and clients back off)",
    )
    serve.add_argument(
        "--partition-cache",
        choices=["on", "off"],
        default="on",
        help="semantic partition cache replaying pruning verdicts across "
        "overlapping queries",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=8,
        help="concurrent replay client threads",
    )
    serve.add_argument(
        "--requests",
        type=int,
        default=25,
        help="requests each client replays",
    )
    serve.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        metavar="PORT",
        help="start the live telemetry HTTP endpoint on this port (0 picks "
        "an ephemeral port); serves /metrics, /healthz, /queries and "
        "/hotspots while the replay runs",
    )
    serve.add_argument(
        "--telemetry-host",
        default="127.0.0.1",
        metavar="HOST",
        help="bind address for the telemetry endpoint",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=250.0,
        metavar="MS",
        help="flight-recorder slow-query threshold; queries above it keep "
        "their full EXPLAIN ANALYZE tree (0 disables the slow log)",
    )
    serve.add_argument(
        "--flight-out",
        default=None,
        metavar="PATH",
        help="dump the per-query flight records as JSONL",
    )
    serve.set_defaults(handler=_run_serve)

    write = commands.add_parser(
        "write",
        parents=[table],
        help="drive the WAL/MVCC write path with shadow-oracle verification "
        "and an AS OF read",
    )
    write.add_argument(
        "sql",
        nargs="?",
        default=None,
        help="statement for the time-travel read (default: every column)",
    )
    write.add_argument(
        "--wal",
        choices=["on", "off"],
        default="on",
        help="group-commit batches through the write-ahead log (off skips "
        "durability, e.g. for read-path A/B runs)",
    )
    write.add_argument(
        "--as-of",
        type=int,
        default=None,
        metavar="VERSION",
        help="catalog version for the time-travel read (also settable "
        "inside the statement: SELECT ... FROM t AS OF <v>)",
    )
    write.add_argument(
        "--compaction-budget",
        type=int,
        default=0,
        metavar="BYTES",
        help="bytes-rewritten budget for the compaction pass (0 = unbounded)",
    )
    write.add_argument(
        "--write-batches",
        type=int,
        default=6,
        help="number of group-committed write batches",
    )
    write.set_defaults(handler=_run_write)

    health = commands.add_parser(
        "health",
        parents=[table],
        help="evaluate the declarative health rules; exit 0/1/2 for "
        "ok/warn/crit",
    )
    health.add_argument(
        "--telemetry-url",
        default=None,
        metavar="URL",
        help="scrape a running telemetry endpoint's /healthz instead of "
        "evaluating a local demo workload",
    )
    health.set_defaults(handler=_run_health)

    # Every command but profile (which walks every layout) builds one.
    for command in (explain, serve, write, health):
        command.add_argument(
            "--layout",
            default="irregular",
            help="layout family of the demo table "
            "(natural, workload-driven, irregular)",
        )
    for command in (profile, serve, write):
        command.add_argument(
            "--metrics",
            action="store_true",
            help="also print the Prometheus text exposition",
        )
    return parser


def main(argv: List[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
