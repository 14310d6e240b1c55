"""Entry point: ``python3 benchmarks/e2e/run.py …`` from the root of a
checkout (``BENCHMARK.json`` names this file), or
``python3 -m benchmarks.e2e …``.  Puts the checkout and its ``src/``
on the path so neither needs installing, then hands over to
:mod:`benchmarks.e2e.cli`."""

import os
import sys

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
