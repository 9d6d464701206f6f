"""Self-tests of the layer benchmark, at ``--scale tiny`` (a few seconds).

Outside tier-1 ``testpaths``; run them with::

    python -m pytest benchmarks/layers/test_layers.py -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as cli  # noqa: E402  (puts src/ on sys.path)
import adapters  # noqa: E402
import harness  # noqa: E402
from tracing import END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = harness.benchmark_spec()
with open(os.path.join(HERE, "catalogue.json"), encoding="utf-8") as _handle:
    CATALOGUE = json.load(_handle)
NAMES = [workload["name"] for workload in SPEC["workloads"]]
ONE_CLIENT = CATALOGUE["one_client_workloads"]
COUNTS = [
    name for name, entry in CATALOGUE["per_layer"].items() if entry["kind"] == "count"
]
SECONDS = 0.2


def tiny(name: str, trace: bool, seed: int = 1) -> harness.Run:
    return harness.run_workload(name, seed, SECONDS, trace, scale="tiny")


@pytest.fixture(scope="module")
def timed():
    return {name: tiny(name, False) for name in NAMES}


@pytest.fixture(scope="module")
def traced():
    return {name: tiny(name, True) for name in NAMES}


def test_catalogue_matches_benchmark_json():
    assert set(WORKLOADS) == set(NAMES)
    assert list(CATALOGUE["end_to_end"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(CATALOGUE["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
    for entry in CATALOGUE["per_layer"].values():
        assert set(entry["workloads"]) <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_every_name_is_emitted_and_nothing_else(name, timed, traced):
    for run, kind in ((timed[name], "end_to_end"), (traced[name], "per_layer")):
        assert run.correct, run.errors
        units = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
        result = run.result(units)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == set(units)
        for metric, entry in result["metrics"].items():
            assert entry["unit"] == units[metric]
            assert isinstance(entry["value"], (int, float))
    # a contract end-to-end metric may never read 0
    assert all(value > 0 for value in timed[name].metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_layer_metrics_are_zero_where_the_layer_is_bypassed(name, traced):
    for metric, entry in CATALOGUE["per_layer"].items():
        if name not in entry["workloads"]:
            assert traced[name].metrics[metric] == 0, metric
    if name == "column_cold":
        assert traced[name].metrics["storage.catalog_probes_per_query"] == 0
        assert traced[name].metrics["storage.blob_get_bytes_per_query"] > 0
    if name == "irregular_warm":
        assert traced[name].metrics["storage.catalog_probes_per_query"] > 0


@pytest.mark.parametrize("name", ONE_CLIENT)
def test_counts_repeat_for_a_seed_and_differ_across_seeds(name, traced):
    first, again, other = traced[name], tiny(name, True), tiny(name, True, seed=2)
    same = {metric: first.metrics[metric] for metric in COUNTS}
    assert same == {metric: again.metrics[metric] for metric in COUNTS}
    assert same != {metric: other.metrics[metric] for metric in COUNTS}


@pytest.mark.parametrize("name", NAMES)
def test_span_self_times_sum_to_the_request_latency(name, traced):
    run = traced[name]
    log, requests = run.log, run.traced_round.requests
    assert requests
    assert all(span[END] is not None for span in log.spans), "unfinished span"
    assert min(log.self_times()) >= 0
    own = log.by_request()
    for request, _kind, seconds in requests:
        assert sum(own[request].values()) == pytest.approx(seconds, rel=0.01)


def test_a_wrong_row_fails_the_op_and_the_command(monkeypatch, capsys):
    real = adapters.LayoutPath.execute

    def short_by_one(self, query):
        result, stats = real(self, query)
        result.tuple_ids = result.tuple_ids[:-1]
        return result, stats

    monkeypatch.setattr(adapters.LayoutPath, "execute", short_by_one)
    code = cli.main([
        "--workload", "irregular_warm", "--seed", "1", "--seconds", str(SECONDS),
        "--trace", "0", "--scale", "tiny",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert json.loads(lines[-2])["extra"]["fail_ratio"] > 0
