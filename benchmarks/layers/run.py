"""The layer benchmark's one command.

Driver form (one workload, one pass, result as the last line of stdout)::

    python3 benchmarks/layers/run.py --workload W --seed N --seconds S --trace 0|1

Full form (every workload, both passes, every metric printed by name with its
unit; each pass runs in a fresh subprocess so ``peak_rss_mb`` is per
workload)::

    python3 benchmarks/layers/run.py [--workload W] [--seed N] [--out F] [--trace-out F]

Exits non-zero when any operation failed.  ``src/`` is put on ``sys.path``
from this file's location, so ``PYTHONPATH=src`` is optional.
"""

from __future__ import annotations

import os

# One compute thread per process, set before numpy loads: the serve workload
# brings its own threads and a BLAS pool beside them only adds noise.
for _variable in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import argparse
import json
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(HERE, "..", "..", "src"))

import harness  # noqa: E402
import report  # noqa: E402
from workloads import SCALES, WORKLOADS  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--out", help="write the full report as JSON")
    parser.add_argument("--trace-out", help="write the traced pass's spans as JSONL")
    return parser.parse_args(argv)


def one_pass(args, spec: dict) -> int:
    """Driver form: run in this process, print the contract's last line."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    run = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        scale=args.scale, trace_out=args.trace_out,
    )
    if run.correct and set(run.metrics) != set(units):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(run.metrics))}"
        )
    for error in run.errors[:10]:
        print(f"failed op: {error}")
    print(json.dumps({"extra": run.extra}))
    print(json.dumps(run.result(units)))
    return 0 if run.correct else 1


def child(args, workload: str, trace: int) -> dict:
    """One pass in a fresh subprocess; returns its result and extra lines."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale", args.scale,
    ]
    if trace and args.trace_out:
        command += ["--trace-out", report.per_workload_path(args.trace_out, workload)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise SystemExit(
            f"{workload} --trace {trace} printed no result "
            f"(exit {done.returncode}):\n{done.stdout}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    result["extra"] = json.loads(lines[-2])["extra"]
    result["errors"] = [line for line in lines[:-2] if line.startswith("failed op")]
    result["exit_code"] = done.returncode
    return result


def full(args, spec: dict) -> int:
    """Full form: both passes of every workload, printed and optionally saved."""
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    document = {
        "environment": report.environment(),
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "workloads": {},
    }
    failed = 0
    for name in names:
        timed = child(args, name, 0)
        traced = child(args, name, 1)
        document["workloads"][name] = {"end_to_end": timed, "per_layer": traced}
        failed += timed["failed"] + traced["failed"]
        failed += timed["exit_code"] != 0 or traced["exit_code"] != 0
        report.print_workload(name, timed, traced, spec)
    document["failed"] = failed
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(f"\n{'FAILED' if failed else 'ok'}: {failed} failed operations")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = harness.benchmark_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.trace is not None:
        if not args.workload:
            raise SystemExit("--trace needs --workload")
        return one_pass(args, spec)
    return full(args, spec)


if __name__ == "__main__":
    sys.exit(main())
