"""The served-stack benchmark: four seeded workloads driven over real
sockets against ``python -m repro serve`` run as a subprocess, with an
outside-in per-layer trace.  See ``README.md`` in this directory; the
entry point is ``run.py`` (``BENCHMARK.json`` names it)."""
