"""Fixtures for the serving-tier suite: a seeded table, a query pool with
deliberate predicate overlap, and an irregular layout to serve it from."""

from __future__ import annotations

import numpy as np
import pytest

from repro.layouts import BuildContext, IrregularLayout
from repro.testing.oracle import no_leaked_pins, random_table, random_workload


@pytest.fixture(autouse=True)
def pin_census():
    """Whatever path a served query left by, its catalog view was released."""
    with no_leaked_pins():
        yield


@pytest.fixture()
def serve_ctx() -> BuildContext:
    return BuildContext(file_segment_bytes=2048, schism_sample_size=100)


@pytest.fixture()
def serve_table():
    return random_table(np.random.default_rng(31), n_attrs=5, n_tuples=600)


@pytest.fixture()
def serve_workload(serve_table):
    return random_workload(
        np.random.default_rng(32), serve_table, n_queries=6
    )


@pytest.fixture()
def irregular_layout(serve_table, serve_workload, serve_ctx):
    return IrregularLayout(selection_enabled=False).build(
        serve_table, serve_workload, serve_ctx
    )
