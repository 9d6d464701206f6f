"""Run the benchmark twice on the same tree and check it agrees with itself.

    python3 benchmarks/layers/repeat.py [--seed N] [--out-dir DIR]

Runs the full command (every workload, both passes) as run A and run B, then
asserts, per workload, that every end-to-end metric of B is within its own
bound of A, and that every *count* metric of the one-client workloads is
exactly equal.  Both reports and the traced pass's time breakdown are saved
under ``--out-dir`` — ``baseline/`` (the default) holds the ones taken on seed
code; ``--compare-only`` re-checks reports that are already there.  Exits
non-zero on any disagreement or failed operation.

``setup_s`` is the one gated metric in raw seconds, and one pair of runs
cannot resolve it on a shared machine (its spread over ten runs is 0.1-0.3,
wider than its bound): a difference beyond the bound is printed as
UNRESOLVED and does not fail the check.  The driver compares medians of ten.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(HERE, "..", "..", "src"))

import harness  # noqa: E402
import report  # noqa: E402


#: gated metrics one pair of runs cannot resolve (see the module docstring).
UNRESOLVABLE = ("setup_s",)


def one_run(seed: int, out: str, compare_only: bool) -> dict:
    if compare_only:
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", str(seed), "--out", out],
        capture_output=True, text=True,
    )
    if done.returncode:
        raise SystemExit(f"benchmark run failed:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--compare-only", action="store_true")
    args = parser.parse_args()

    out_dir = args.out_dir or os.path.join(HERE, "baseline")
    os.makedirs(out_dir, exist_ok=True)
    spec = harness.benchmark_spec()
    with open(os.path.join(HERE, "catalogue.json"), encoding="utf-8") as handle:
        catalogue = json.load(handle)
    counts = [n for n, e in catalogue["per_layer"].items() if e["kind"] == "count"]

    runs = {
        label: one_run(
            args.seed, os.path.join(out_dir, f"run_{label}.seed{args.seed}.json"),
            args.compare_only,
        )
        for label in ("a", "b")
    }
    problems, unresolved = [], []
    for name, first in runs["a"]["workloads"].items():
        second = runs["b"]["workloads"][name]
        for problem in report.compare(
            spec, first["end_to_end"]["metrics"], second["end_to_end"]["metrics"]
        ):
            noisy = problem.startswith(UNRESOLVABLE)
            (unresolved if noisy else problems).append(f"{name}: {problem}")
        if name in catalogue["one_client_workloads"]:
            for metric in counts:
                a = first["per_layer"]["metrics"][metric]["value"]
                b = second["per_layer"]["metrics"][metric]["value"]
                if a != b:
                    problems.append(f"{name}: count {metric} differs: {a} vs {b}")

    summary = {
        "environment": runs["a"]["environment"],
        "seed": args.seed,
        "breakdown_ms": {
            name: entry["per_layer"]["extra"].get("breakdown_ms", {})
            for name, entry in runs["a"]["workloads"].items()
        },
        "disagreements": problems,
        "unresolved": unresolved,
    }
    with open(os.path.join(out_dir, f"trace_summary.seed{args.seed}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
        handle.write("\n")

    for problem in unresolved:
        print(f"UNRESOLVED {problem}")
    for problem in problems:
        print(f"DISAGREE {problem}")
    print(f"{'FAILED' if problems else 'ok'}: run B vs run A on seed {args.seed}, "
          f"{len(problems)} disagreements; reports in {out_dir}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
