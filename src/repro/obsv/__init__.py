"""Observability for the versioned-database stack.

The paper's Section 5 correctness criterion — a physical implementation
is correct iff it is observation-equivalent to the simple denotational
semantics — is only checkable at scale when the physical layer's
behaviour is *visible*.  This package makes it visible:

* :mod:`repro.obsv.registry` — a process-local metrics registry
  (counters, gauges, histograms with monotonic-clock timers), off by
  default behind a module-level switch and near-zero-cost when off.
  Every layer records the same way — ``if _obsv.enabled():
  _obsv.get().counter(name).inc()`` — except the two core evaluation
  modules, which do not import this package and read the registry
  from their ``_METRICS`` slot instead;
* :mod:`repro.obsv.instrumented` — :class:`InstrumentedBackend`, a
  transparent wrapper observing any ``StorageBackend`` without
  modification;
* :mod:`repro.obsv.trace` — EXPLAIN-style per-command traces of the
  operator tree with per-node timings.

Typical use::

    from repro.obsv import registry

    reg = registry.enable()
    ...                       # run the workload
    print(reg.to_json())      # or reg.snapshot()
    registry.disable()

``InstrumentedBackend`` and the trace helpers are imported lazily: the
concrete backends import ``repro.obsv.registry`` for their internal
hooks, and an eager import here would close a cycle through
``repro.storage.backend``.
"""

from repro.obsv.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable,
    enable,
    enabled,
    get,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "disable",
    "enable",
    "enabled",
    "get",
    "registry",
    "InstrumentedBackend",
    "ExpressionTrace",
    "CommandTrace",
    "trace_evaluate",
    "trace_command",
    "format_trace",
]

_LAZY = {
    "InstrumentedBackend": ("repro.obsv.instrumented", "InstrumentedBackend"),
    "ExpressionTrace": ("repro.obsv.trace", "ExpressionTrace"),
    "CommandTrace": ("repro.obsv.trace", "CommandTrace"),
    "trace_evaluate": ("repro.obsv.trace", "trace_evaluate"),
    "trace_command": ("repro.obsv.trace", "trace_command"),
    "format_trace": ("repro.obsv.trace", "format_trace"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
