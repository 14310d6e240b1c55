"""Command line of the served-stack benchmark.

The driver's contract (``BENCHMARK.json``) is the bare form::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

one workload, one run, every metric printed by name with its unit, and
one JSON object on the last line.  For people there are four
subcommands on the same entry point:

* ``run [--seed S] [--reps N] [--workload W] [--json OUT] [--smoke]`` —
  the end-to-end metrics of every workload (or the named ones);
* ``trace`` — the same options, the per-layer metrics instead, and
  ``--spans-out DIR`` to keep the raw spans;
* ``compare A.json B.json`` — two ``--json`` outputs of ``run``
  against the bounds in ``BENCHMARK.json``;
* ``workloads`` — the workload table of the README, from the
  generators' docstrings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

from repro.workloads.sentences import EXECUTE, QUERY

from benchmarks.e2e import layers, served
from benchmarks.e2e.workloads import WORKLOADS, generate


def contract() -> dict:
    """``BENCHMARK.json``: metric names, directions, bounds and the
    run length."""
    path = os.path.join(served.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


SMOKE_SHARE = 0.01


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    spans_out: "str | None" = None,
) -> dict:
    """One run of one workload: the contract's result object plus what
    the human-readable report prints beside it."""
    if trace:
        metrics, run, workload = layers.trace(name, seed, seconds, spans_out)
    else:
        workload = generate(name, seed, seconds)
        run = served.serve(workload, served.oracle(workload))
        metrics = served.end_to_end(workload, run)
    return {
        "workload": name,
        "seed": seed,
        "stream_sha256": workload.stream_sha256,
        "samples": {
            kind: len(served.latencies_ms(workload, run, kind))
            for kind in (QUERY, EXECUTE)
        },
        "violations": run.violations,
        "correct": not run.violations,
        "attempted": run.attempted,
        "failed": len(run.violations),
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in metrics.items()
        },
    }


def report(result: dict) -> None:
    """Every metric by name with its unit, for people."""
    samples = result["samples"]
    print(
        f"{result['workload']}  seed={result['seed']}  "
        f"stream_sha256={result['stream_sha256']}"
    )
    print(
        f"  attempted {result['attempted']}  failed {result['failed']}  "
        f"failed_share {result['failed'] / result['attempted']:.6f}  "
        f"latency samples: {samples[QUERY]} reads, "
        f"{samples[EXECUTE]} writes"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}")
    for violation in result["violations"][:10]:
        print(f"  VIOLATION {violation}")


# -- the driver's form -------------------------------------------------------------


def _driver(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    print(json.dumps({
        key: result[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if result["correct"] else 1


# -- run / trace -------------------------------------------------------------------


def _suite(argv: "list[str]", trace: bool) -> int:
    parser = argparse.ArgumentParser(
        prog=f"benchmarks/e2e/run.py {'trace' if trace else 'run'}"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="repeatable; default: all four",
    )
    parser.add_argument("--json", help="write the summary here")
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"{SMOKE_SHARE:.0%} of the request counts",
    )
    if trace:
        parser.add_argument(
            "--spans-out", help="directory for the raw spans, one file "
            "per workload",
        )
    args = parser.parse_args(argv)
    seconds = contract()["run_seconds"] * (SMOKE_SHARE if args.smoke else 1)
    spans_dir = getattr(args, "spans_out", None)
    if spans_dir is not None:
        os.makedirs(spans_dir, exist_ok=True)
    runs = []
    for name in args.workload or WORKLOADS:
        for rep in range(args.reps):
            spans_out = spans_dir and os.path.join(
                spans_dir, f"{name}.{rep}.spans.jsonl"
            )
            result = measure(name, args.seed, seconds, trace, spans_out)
            report(result)
            runs.append(dict(result, rep=rep))
    summary = {
        "benchmark": "benchmarks/e2e",
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seed": args.seed,
        "seconds": seconds,
        "trace": trace,
        "runs": runs,
        "claim": None,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump(summary, out, indent=1)
            out.write("\n")
    return 0 if all(run["correct"] for run in runs) else 1


# -- compare -----------------------------------------------------------------------


def _values(summary: dict) -> "dict[tuple[str, str], list[float]]":
    values: "dict[tuple[str, str], list[float]]" = {}
    for run in summary["runs"]:
        for metric, entry in run["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(
                entry["value"]
            )
    return values


def _quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(
    before: "list[float]", after: "list[float]", better: str, bound: float
) -> str:
    """``same`` / ``worse`` / ``better`` by the medians and the bound;
    ``unresolved`` when either side's own spread is wider than the
    bound."""
    quartiles = [_quartiles(before), _quartiles(after)]
    if any(q3 - q1 > bound * median for q1, median, q3 in quartiles):
        return "unresolved"
    change = (quartiles[1][1] - quartiles[0][1]) / quartiles[0][1]
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    return "better" if change > bound else "same"


def _compare(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py compare")
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    sides = []
    for path in (args.before, args.after):
        with open(path, encoding="utf-8") as handle:
            sides.append(json.load(handle))
    before, after = map(_values, sides)
    for label, side in zip(("before", "after"), sides):
        digests = sorted({
            f"{run['workload']}:{run['stream_sha256'][:12]}"
            for run in side["runs"]
        })
        print(f"{label}: seed {side['seed']}  {' '.join(digests)}")
    failed = sum(run["failed"] for side in sides for run in side["runs"])
    print(f"failed requests and checks, both sides: {failed}")
    print(
        f"{'workload':<18}{'metric':<26}{'before q1/median/q3':<32}"
        f"{'after q1/median/q3':<32}verdict"
    )
    worse = failed > 0
    for metric in contract()["end_to_end"]:
        for workload in WORKLOADS:
            key = (workload, metric["name"])
            if key not in before or key not in after:
                continue
            outcome = verdict(
                before[key], after[key], metric["better"], metric["bound"]
            )
            worse |= outcome == "worse"
            cells = [
                "/".join(f"{value:.4g}" for value in _quartiles(side[key]))
                for side in (before, after)
            ]
            print(
                f"{workload:<18}{metric['name']:<26}{cells[0]:<32}"
                f"{cells[1]:<32}{outcome}"
            )
    return 1 if worse else 0


def _workloads(argv: "list[str]") -> int:
    print("| workload | requests/connection/s | why chosen |")
    print("|---|---|---|")
    for name, (generator, rate) in WORKLOADS.items():
        why = " ".join(generator.__doc__.split())
        print(f"| `{name}` | {rate} | {why} |")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    commands = {
        "run": lambda rest: _suite(rest, trace=False),
        "trace": lambda rest: _suite(rest, trace=True),
        "compare": _compare,
        "workloads": _workloads,
    }
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return _driver(argv)
