"""The metrics registry: instruments, switch, export."""

from __future__ import annotations

import json

import pytest

from repro.obsv import registry as obsv_registry
from repro.obsv.registry import (
    Histogram,
    MetricsRegistry,
    NullRegistry,
)


class TestInstruments:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(4)
        assert registry.counter("a.b").value == 5

    def test_counter_identity_per_name(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.counter("x") is not registry.counter("y")

    def test_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(3)
        registry.gauge("g").set(7.5)
        assert registry.gauge("g").value == 7.5

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == 2.5
        assert summary["median"] == 3.0

    def test_empty_histogram_summary(self):
        assert Histogram().summary() == {"count": 0, "sum": 0.0}

    def test_histogram_reservoir_is_bounded(self):
        histogram = Histogram()
        for value in range(10_000):
            histogram.observe(float(value))
        assert histogram.count == 10_000
        assert len(histogram._recent) == Histogram.RESERVOIR_SIZE

    def test_timer_observes_monotonic_seconds(self):
        registry = MetricsRegistry()
        with registry.timer("t"):
            pass
        histogram = registry.histogram("t")
        assert histogram.count == 1
        assert histogram.total >= 0.0


class TestSnapshot:
    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(3.0)
        parsed = json.loads(registry.to_json())
        assert parsed["counters"] == {"c": 2}
        assert parsed["gauges"] == {"g": 1.5}
        assert parsed["histograms"]["h"]["count"] == 1

    def test_reset_zeroes_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(9)
        histogram = registry.histogram("h")
        histogram.observe(1.0)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 0}
        assert snapshot["histograms"]["h"] == {"count": 0, "sum": 0.0}
        # identity survives: cached references keep recording
        assert registry.counter("c") is counter
        counter.inc()
        assert registry.snapshot()["counters"]["c"] == 1

    def test_names_lists_all_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c")
        registry.gauge("g")
        registry.histogram("h")
        assert sorted(registry.names()) == ["c", "g", "h"]


class TestSwitch:
    def test_disabled_by_default(self):
        assert not obsv_registry.enabled()
        assert isinstance(obsv_registry.get(), NullRegistry)

    def test_null_registry_absorbs_everything(self):
        null = NullRegistry()
        null.counter("c").inc(5)
        null.gauge("g").set(2)
        null.histogram("h").observe(1.0)
        with null.timer("t"):
            pass
        assert null.counter("c").value == 0
        assert null.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_enable_disable_cycle(self):
        registry = obsv_registry.enable()
        try:
            assert obsv_registry.enabled()
            assert obsv_registry.get() is registry
            registry.counter("c").inc()
            assert registry.counter("c").value == 1
        finally:
            obsv_registry.disable()
        assert not obsv_registry.enabled()
        assert isinstance(obsv_registry.get(), NullRegistry)

    def test_enable_installs_expression_observer(self):
        from repro.core import compile as engine, expressions

        assert expressions._METRICS is None and engine._METRICS is None
        registry = obsv_registry.enable()
        try:
            assert expressions._METRICS is registry
            assert engine._METRICS is registry
        finally:
            obsv_registry.disable()
        assert expressions._METRICS is None and engine._METRICS is None

    def test_enable_with_explicit_registry(self):
        mine = MetricsRegistry()
        try:
            assert obsv_registry.enable(mine) is mine
            assert obsv_registry.get() is mine
        finally:
            obsv_registry.disable()

    def test_enable_is_idempotent(self):
        first = obsv_registry.enable()
        try:
            first.counter("kept").inc()
            second = obsv_registry.enable()
            assert second is first
            assert second.counter("kept").value == 1
        finally:
            obsv_registry.disable()


@pytest.mark.parametrize("kind", ["counter", "gauge", "histogram"])
def test_snapshot_is_sorted_by_name(kind):
    registry = MetricsRegistry()
    instrument = getattr(registry, kind)
    instrument("z.last")
    instrument("a.first")
    section = {
        "counter": "counters",
        "gauge": "gauges",
        "histogram": "histograms",
    }[kind]
    assert list(registry.snapshot()[section]) == ["a.first", "z.last"]
