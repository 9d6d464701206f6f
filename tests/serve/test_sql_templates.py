"""SQL templates under the serving tier's concurrency.

Two client threads parse statements of four shapes, with fresh literals on
every request (and, every other request, a shape made new by trailing
blanks, so the bounded memo keeps evicting), and run them through one
:class:`QueryScheduler`.  Every answer must be the dense reference's, every
parse a fresh full parse's, and the memo may never hold more than its
bound — while the suite's thread-leak and pin-leak fixtures watch.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro import sql
from repro.engine import ScanExecutor
from repro.serve import QueryScheduler
from repro.testing.oracle import run_reference_query

N_REQUESTS = 60


def shapes(meta, rng):
    """Four statement shapes, each with fresh literals in its columns'
    ranges (a strict window may come out empty: both parses refuse it)."""
    a, b, c, d, e = meta.attribute_names
    t = meta.name

    def draw(name):
        return int(rng.integers(meta.interval(name).lo, meta.interval(name).hi + 1))

    return (
        (f"SELECT {b}, {c} FROM {t} WHERE {a} BETWEEN {{}} AND {{}}",
         sorted([draw(a), draw(a)])),
        (f"SELECT {d} FROM {t} WHERE {b} >= {{}} AND {e} <= {{}}", [draw(b), draw(e)]),
        (f"SELECT * FROM {t} WHERE {c} > {{}} AND {c} < {{}}", sorted([draw(c), draw(c)])),
        (f"EXPLAIN SELECT {e}, {a} FROM {t} WHERE {d} <= {{}} AND {d} >= {{}}",
         sorted([draw(d), draw(d)], reverse=True)),
    )


def outcome(parse):
    try:
        return parse(), None
    except Exception as exc:  # the error itself is the outcome
        return None, (type(exc), str(exc))


def test_two_clients_bind_fresh_literals(serve_table, irregular_layout):
    meta = serve_table.meta
    engines = {
        "pat": irregular_layout.executor,
        "scan": ScanExecutor(irregular_layout.manager, meta),
    }
    failures, peak = [], [0]

    def client(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for index in range(N_REQUESTS):
            text, literals = shapes(meta, rng)[(seed + index) % 4]
            blanks = " " * int(index % 2 * rng.integers(0, 400))
            statement = text.format(*literals) + blanks
            try:
                parsed, error = outcome(lambda: sql.parse_statement(meta, statement))
                peak[0] = max(peak[0], len(sql._statements))
                full, full_error = outcome(
                    lambda: sql._parse_single({meta.name: meta}, statement)[0]
                )
                assert error == full_error
                if parsed is None:
                    continue
                query = parsed.query
                assert parsed.explain == full.explain
                assert query.select == full.query.select and query.where == full.query.where
                result, _stats = scheduler.execute(("pat", "scan")[index % 2], query)
                assert result.equals(run_reference_query(serve_table, query))
            except Exception as exc:  # reported from the main thread
                failures.append(f"{statement!r}: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the clients' memo updates
    try:
        with QueryScheduler(engines, workers=2, queue_depth=8) as scheduler:
            clients = [threading.Thread(target=client, args=(seed,)) for seed in (1, 2)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120)
                assert not thread.is_alive(), "a client did not finish"
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[:3]
    assert 0 < peak[0] <= sql._STATEMENT_LIMIT
    assert len(sql._statements) <= sql._STATEMENT_LIMIT
