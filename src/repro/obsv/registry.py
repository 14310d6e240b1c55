"""The process-local metrics registry.

Observability exists to make the paper's Section 5 correctness claim
*checkable at scale*: a physical implementation is correct iff it is
observation-equivalent to the simple semantics, and equivalence arguments
are only trustworthy when we can see what the physical layer actually did
— how many deltas were replayed, how often validation aborted, how many
expression nodes were evaluated.

Design constraints:

* **Near-zero cost when disabled.**  Metrics are off by default.  The
  module-level switch swaps a :class:`NullRegistry` (every operation a
  no-op) for a real :class:`MetricsRegistry`; instrumented call sites
  guard with :func:`enabled` — one module-global read and a branch —
  and then record through :func:`get`::

      if _obsv.enabled():
          _obsv.get().counter("wal.fsyncs").inc()

  :mod:`repro.core.expressions` and :mod:`repro.core.compile` never
  import this package, so :func:`enable` also sets their ``_METRICS``
  slot to the registry (``None`` while disabled).
* **Instruments are created on first use.**  A name nothing has
  recorded under is absent from :meth:`MetricsRegistry.snapshot`;
  readers treat an absent counter as 0.
* **Process-local and dependency-free.**  Plain dictionaries of plain
  objects; :meth:`MetricsRegistry.snapshot` and
  :meth:`MetricsRegistry.to_json` export everything for benchmark
  sidecars and tests.

Three instrument kinds cover the stack:

* :class:`Counter` — monotonically increasing event counts
  (``storage.forward-delta.state_at_calls``).
* :class:`Gauge` — last-written point-in-time values
  (``storage.forward-delta.stored_atoms``).
* :class:`Histogram` — distributions (replay lengths, latencies), with
  :meth:`Histogram.time` providing a monotonic-clock timing context.

Metric names are dotted strings, ``<layer>.<component>.<event>``; the
full catalogue lives in ``docs/architecture.md``.
"""

from __future__ import annotations

import json
import math
import time
from typing import Iterator, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "enable",
    "disable",
    "enabled",
    "get",
]


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value; :meth:`set` overwrites."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class _TimerContext:
    """``with histogram.time(): ...`` — observes elapsed seconds on the
    monotonic clock (``time.perf_counter``)."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class Histogram:
    """Streaming summary of a distribution: count, sum, min, max, mean,
    plus a small fixed-size reservoir of the most recent observations so
    snapshots can report a rough median without unbounded memory."""

    __slots__ = ("count", "total", "min", "max", "_recent", "_cursor")

    RESERVOIR_SIZE = 256

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._recent: list[float] = []
        self._cursor = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._recent) < self.RESERVOIR_SIZE:
            self._recent.append(value)
        else:
            self._recent[self._cursor] = value
            self._cursor = (self._cursor + 1) % self.RESERVOIR_SIZE

    def time(self) -> _TimerContext:
        """A context manager observing elapsed monotonic seconds."""
        return _TimerContext(self)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def median(self) -> float:
        """Approximate median over the recent-observation reservoir."""
        if not self._recent:
            return 0.0
        ordered = sorted(self._recent)
        return ordered[len(ordered) // 2]

    def summary(self) -> dict:
        if not self.count:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "median": self.median,
        }


class MetricsRegistry:
    """Named counters, gauges and histograms, created on first use."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instruments ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    def timer(self, name: str) -> _TimerContext:
        """Shorthand: a timing context over ``histogram(name)``."""
        return self.histogram(name).time()

    # -- inspection ----------------------------------------------------------

    def names(self) -> Iterator[str]:
        yield from self._counters
        yield from self._gauges
        yield from self._histograms

    def snapshot(self) -> dict:
        """All instruments as plain data, suitable for JSON export."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def reset(self) -> None:
        """Zero every instrument *in place* (used between benchmark
        phases).  Instrument object identity survives, so a reference
        held across the reset keeps recording into the registry."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0
        for histogram in self._histograms.values():
            histogram.__init__()


class _NullInstrument:
    """Absorbs every instrument operation; doubles as a timer context."""

    __slots__ = ()

    value = 0
    count = 0
    total = 0.0
    mean = 0.0
    median = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self) -> "_NullInstrument":
        return self

    def summary(self) -> dict:
        return {"count": 0, "sum": 0.0}

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled registry: every instrument is a shared no-op."""

    __slots__ = ()

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def timer(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def names(self) -> Iterator[str]:
        return iter(())

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def reset(self) -> None:
        pass


# ---------------------------------------------------------------------------
# the module-level switch
# ---------------------------------------------------------------------------

_NULL_REGISTRY = NullRegistry()
_registry: "MetricsRegistry | NullRegistry" = _NULL_REGISTRY
_enabled = False


def enabled() -> bool:
    """True iff metrics collection is on.  Instrumented call sites guard
    with this so the disabled cost is one call and a branch."""
    return _enabled


def get() -> "MetricsRegistry | NullRegistry":
    """The active registry (the shared :class:`NullRegistry` when
    disabled, so unconditional use is always safe)."""
    return _registry


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Switch metrics on, installing ``registry`` (or a fresh one) as the
    process-wide sink and in the ``_METRICS`` slots of
    :mod:`repro.core.expressions` and :mod:`repro.core.compile`.  Returns
    the active registry.  Idempotent when already enabled with no
    argument."""
    global _registry, _enabled
    if registry is None:
        registry = (
            _registry
            if isinstance(_registry, MetricsRegistry)
            else MetricsRegistry()
        )
    _registry = registry
    _enabled = True
    from repro.core import compile as engine, expressions

    expressions._METRICS = engine._METRICS = registry
    return registry


def disable() -> None:
    """Switch metrics off: restore the no-op registry and clear the core
    modules' ``_METRICS`` slots."""
    global _registry, _enabled
    _enabled = False
    _registry = _NULL_REGISTRY
    from repro.core import compile as engine, expressions

    expressions._METRICS = engine._METRICS = None
