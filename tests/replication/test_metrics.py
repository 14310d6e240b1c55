"""repl.* metrics flow through the metrics registry — and stay
completely absent while metrics are disabled."""

from repro.durability import DurableDatabase, MemoryStore
from repro.durability.faults import FaultPlan
from repro.obsv import registry as obsv_registry
from repro.obsv.registry import MetricsRegistry
from repro.replication import (
    FaultyStream,
    PrimaryStream,
    Replica,
    RetryPolicy,
)

from tests.durability.conftest import scripted_workload


def _run_replicated_workload():
    workload = scripted_workload(length=60, seed=21)
    primary = DurableDatabase(
        MemoryStore(), fsync="always", checkpoint_every=0
    )
    plan = FaultPlan(
        seed=13,
        stream_drop_rate=0.2,
        stream_duplicate_rate=0.2,
        stream_error_rate=0.2,
    )
    replica = Replica(
        FaultyStream(PrimaryStream(primary), plan),
        retry=RetryPolicy(max_attempts=100, base_delay=0.0, max_delay=0.0),
        batch_records=4,
    )
    for command in workload[:30]:
        primary.execute(command)
    replica.catch_up()
    replica.evaluate  # read surface exercised elsewhere
    for command in workload[30:]:
        primary.execute(command)
    replica.catch_up()
    old = replica.promote()
    assert old.database == primary.database
    return replica


def test_repl_metrics_flow_through_hooks():
    registry = obsv_registry.enable(MetricsRegistry())
    try:
        _run_replicated_workload()
    finally:
        obsv_registry.disable()
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    assert counters["repl.records_applied"] == 60
    assert counters["repl.batches_fetched"] > 0
    assert counters["repl.transient_errors"] > 0
    assert counters["repl.retries"] > 0
    assert counters["repl.promotions"] == 1
    assert counters.get("repl.divergences_detected", 0) == 0
    histograms = snapshot["histograms"]
    assert "repl.batch_records" in histograms
    assert "repl.apply_seconds" in histograms
    assert "repl.catchup_seconds" in histograms


def test_no_observer_means_no_overhead_path():
    assert not obsv_registry.enabled()
    _run_replicated_workload()
    assert obsv_registry.get().snapshot()["counters"] == {}
