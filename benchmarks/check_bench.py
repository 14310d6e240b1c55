#!/usr/bin/env python3
"""Compare fresh ``BENCH_<name>.json`` sidecars against the committed
baseline and fail on an optimizer-path regression.

Usage:
    python -m benchmarks.check_bench BASELINE_DIR FRESH_DIR [names...]
    python -m benchmarks.check_bench . fresh e2 e4 e13 e16 --tolerance 0.2

With no names, every ``BENCH_<name>.json`` in BASELINE_DIR is checked.

For every measurement of kind ``speedup`` the fresh value must be

* at least ``(1 - tolerance)`` of the committed baseline value
  (default tolerance 20%), **and**
* at least the measurement's absolute ``floor`` when one is recorded
  (the repeated-query measurements commit to the >=5x acceptance bar).

A measurement of kind ``ratio`` is a cost that must stay flat (deep
history over shallow, last checkpoint over first): lower is better and
the fresh value must not exceed its recorded ``ceiling``.

Kinds ``count`` and ``latency_ms`` are recorded for the trajectory and
not compared.  Any other kind in a committed sidecar, or a ``ratio``
without a ``ceiling``, is itself a failure: a typo must not turn a gate
off silently.

Ratios rather than absolute latencies are compared so the check is
stable across machines: both sides of each speedup are timed in the
same process on the same host.
"""

from __future__ import annotations

import glob
import json
import os
import sys

DEFAULT_TOLERANCE = 0.20
GATED_KINDS = ("speedup", "ratio")
RECORDED_KINDS = ("count", "latency_ms")


def committed_names(directory: str) -> list[str]:
    """The name of every ``BENCH_<name>.json`` sidecar in ``directory``."""
    return sorted(
        os.path.basename(path)[len("BENCH_"):-len(".json")]
        for path in glob.glob(os.path.join(directory, "BENCH_*.json"))
    )


def _load(directory: str, name: str) -> dict:
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check(
    baseline_dir: str,
    fresh_dir: str,
    names: list[str],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Return a list of failure messages (empty = pass)."""
    failures: list[str] = []
    for name in names:
        baseline = _load(baseline_dir, name)["measurements"]
        fresh = _load(fresh_dir, name)["measurements"]
        for key, committed in baseline.items():
            kind = committed.get("kind")
            if kind in RECORDED_KINDS:
                continue
            if kind not in GATED_KINDS:
                known = ", ".join(GATED_KINDS + RECORDED_KINDS)
                failures.append(
                    f"{name}.{key}: unknown kind {kind!r} in the committed "
                    f"sidecar (known: {known})"
                )
                continue
            if kind == "ratio" and "ceiling" not in committed:
                failures.append(
                    f"{name}.{key}: committed ratio has no ceiling"
                )
                continue
            if key not in fresh:
                failures.append(
                    f"{name}.{key}: measurement missing from fresh run"
                )
                continue
            value = fresh[key]["value"]
            if kind == "ratio":
                ceiling = committed["ceiling"]
                print(
                    f"  {name}.{key}: committed {committed['value']:.2f}, "
                    f"fresh {value:.2f} (required <= {ceiling:.2f})"
                )
                if value > ceiling:
                    failures.append(
                        f"{name}.{key}: {value:.2f} is above the "
                        f"{ceiling:.2f} ceiling"
                    )
                continue
            required = committed["value"] * (1.0 - tolerance)
            floor = committed.get("floor")
            print(
                f"  {name}.{key}: committed {committed['value']:.2f}x, "
                f"fresh {value:.2f}x "
                f"(required >= {required:.2f}x"
                + (f", floor {floor:.1f}x)" if floor else ")")
            )
            if value < required:
                failures.append(
                    f"{name}.{key}: {value:.2f}x regressed more than "
                    f"{tolerance:.0%} from committed "
                    f"{committed['value']:.2f}x"
                )
            if floor is not None and value < floor:
                failures.append(
                    f"{name}.{key}: {value:.2f}x is below the "
                    f"{floor:.1f}x acceptance floor"
                )
    return failures


def main(argv: list[str]) -> int:
    args = list(argv)
    tolerance = DEFAULT_TOLERANCE
    if "--tolerance" in args:
        index = args.index("--tolerance")
        try:
            tolerance = float(args[index + 1])
        except (IndexError, ValueError):
            print("--tolerance requires a numeric argument")
            return 2
        del args[index : index + 2]
    if len(args) < 2:
        print(__doc__)
        return 2
    baseline_dir, fresh_dir = args[0], args[1]
    names = [name.lower() for name in args[2:]] or committed_names(
        baseline_dir
    )
    failures = check(baseline_dir, fresh_dir, names, tolerance)
    if failures:
        print("\nBENCH REGRESSION:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nall {len(names)} bench sidecars within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
