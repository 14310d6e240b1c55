"""Replica behavior: catch-up, idempotence, gaps, re-snapshot,
divergence condemnation, bounded staleness, promotion."""

import pytest

from repro.errors import (
    DivergenceError,
    ReplicationError,
    RetryExhaustedError,
    StaleReadError,
)
from repro.core.expressions import Rollback
from repro.core.txn import NOW
from repro.durability import DurableDatabase, MemoryStore
from repro.durability.codec import decode_record, encode_record
from repro.persistence.json_codec import database_to_dict
from repro.replication import PrimaryStream, Replica, RetryPolicy

from tests.replication.conftest import make_replica

IDENTIFIERS = ("r", "s", "h", "t")


def feed(primary, workload, n, start=0):
    for command in workload[start:n]:
        primary.execute(command)


class TestCatchUp:
    def test_caught_up_replica_equals_primary(
        self, primary, stream, workload, oracle
    ):
        feed(primary, workload, 60)
        replica = make_replica(stream)
        applied = replica.catch_up()
        assert applied == 60
        assert replica.applied_lsn == primary.wal.last_lsn
        assert replica.lag() == 0
        assert replica.database == oracle[60]
        assert database_to_dict(replica.database) == database_to_dict(
            primary.database
        )

    def test_incremental_tailing(self, primary, stream, workload, oracle):
        replica = make_replica(stream)
        for n in (10, 25, 60):
            feed(primary, workload, n, start=primary.wal.last_lsn)
            replica.catch_up()
            assert replica.database == oracle[n]

    def test_poll_applies_one_bounded_round(
        self, primary, stream, workload
    ):
        feed(primary, workload, 30)
        replica = make_replica(stream, batch_records=10)
        assert replica.poll() == 10
        assert replica.applied_lsn == 10
        assert replica.poll() == 10
        replica.catch_up()
        assert replica.poll() == 0  # caught up: a no-op

    def test_historical_reads_match_primary_at_every_txn(
        self, primary, stream, workload
    ):
        # the acceptance read: rho(R, N) for any N ≤ applied is the
        # primary's answer exactly
        feed(primary, workload, 80)
        replica = make_replica(stream)
        replica.catch_up()
        for identifier in ("r", "t"):  # the kinds that keep history
            for txn in range(0, 81, 4):
                expression = Rollback(identifier, txn)
                assert replica.evaluate(expression) == primary.evaluate(
                    expression
                ), (identifier, txn)
        for identifier in IDENTIFIERS:
            for txn in (0, 1, 40, 80):
                assert replica.state_at(
                    identifier, txn
                ) == primary.state_at(identifier, txn)


class TestDeliveryFaults:
    def test_duplicates_are_skipped_idempotently(
        self, primary, workload, oracle
    ):
        feed(primary, workload, 20)

        class DuplicatingStream(PrimaryStream):
            def fetch(self, after_lsn, limit=256):
                batch = super().fetch(after_lsn, limit)
                return [r for record in batch for r in (record, record)]

        replica = make_replica(DuplicatingStream(primary))
        replica.catch_up()
        assert replica.database == oracle[20]

    def test_in_batch_gap_refetches_not_applies(
        self, primary, workload, oracle, fast_retry
    ):
        feed(primary, workload, 20)
        dropped = {5, 11}

        class LossyOnceStream(PrimaryStream):
            def __init__(self, inner):
                super().__init__(inner)
                self.lost = set(dropped)

            def fetch(self, after_lsn, limit=256):
                batch = super().fetch(after_lsn, limit)
                kept = [
                    (lsn, p) for lsn, p in batch if lsn not in self.lost
                ]
                self.lost -= {lsn for lsn, _ in batch}
                return kept

        replica = make_replica(LossyOnceStream(primary), retry=fast_retry)
        replica.catch_up()
        assert replica.database == oracle[20]
        assert replica.applied_lsn == 20

    def test_permanent_loss_exhausts_the_budget(self, primary, workload):
        feed(primary, workload, 10)

        class BlackholeStream(PrimaryStream):
            def fetch(self, after_lsn, limit=256):
                return []

        replica = make_replica(
            BlackholeStream(primary),
            retry=RetryPolicy(
                max_attempts=3, base_delay=0.0, max_delay=0.0
            ),
        )
        with pytest.raises(RetryExhaustedError) as info:
            replica.catch_up()
        assert info.value.attempts == 3

    def test_undecodable_record_is_transport_not_divergence(
        self, primary, workload
    ):
        feed(primary, workload, 5)

        class CorruptingStream(PrimaryStream):
            def fetch(self, after_lsn, limit=256):
                return [
                    (lsn, b"\x00garbage")
                    for lsn, _ in super().fetch(after_lsn, limit)
                ]

        replica = make_replica(CorruptingStream(primary))
        with pytest.raises(RetryExhaustedError) as info:
            replica.catch_up()
        assert not isinstance(info.value.__cause__, DivergenceError)
        assert not replica.diverged  # transport damage never condemns


class TestResnapshot:
    def _compacting_primary(self, workload, n):
        primary = DurableDatabase(
            MemoryStore(),
            fsync="always",
            checkpoint_every=0,
            keep_checkpoints=1,
            segment_bytes=256,
        )
        feed(primary, workload, n)
        return primary

    def test_fallen_off_the_log_rebuilds_from_checkpoint(
        self, workload, oracle
    ):
        primary = self._compacting_primary(workload, 5)
        stream = PrimaryStream(primary)
        replica = make_replica(stream)
        replica.catch_up()
        feed(primary, workload, 60, start=5)
        primary.checkpoint()
        assert primary.wal.first_lsn > replica.applied_lsn + 1
        replica.catch_up()
        assert replica.database == oracle[60]
        assert replica.applied_lsn == 60

    def test_bootstrap_against_compacted_primary(self, workload, oracle):
        primary = self._compacting_primary(workload, 50)
        primary.checkpoint()
        assert primary.wal.first_lsn > 1
        replica = make_replica(PrimaryStream(primary))
        replica.catch_up()
        assert replica.database == oracle[50]


class TestDivergence:
    def _forging_stream(self, primary):
        class ForgingStream(PrimaryStream):
            def fetch(self, after_lsn, limit=256):
                batch = super().fetch(after_lsn, limit)
                forged = []
                for lsn, payload in batch:
                    command, txn = decode_record(payload)
                    forged.append(
                        (lsn, encode_record(command, txn + 1))
                    )
                return forged

        return ForgingStream(primary)

    def test_txn_mismatch_condemns_the_replica(self, primary, workload):
        feed(primary, workload, 10)
        replica = make_replica(self._forging_stream(primary))
        with pytest.raises(DivergenceError):
            replica.catch_up()
        assert replica.diverged
        with pytest.raises(DivergenceError):
            replica.catch_up()  # stays condemned
        with pytest.raises(DivergenceError):
            replica.evaluate(Rollback("r", NOW))  # and refuses reads

    def test_divergence_is_never_retried(self, primary, workload):
        feed(primary, workload, 10)
        fetches = []

        class CountingForger(PrimaryStream):
            def fetch(self, after_lsn, limit=256):
                fetches.append(after_lsn)
                batch = super().fetch(after_lsn, limit)
                return [
                    (lsn, encode_record(*decode_record(p)[:1], 999))
                    for lsn, p in batch
                ]

        replica = make_replica(
            CountingForger(primary),
            retry=RetryPolicy(
                max_attempts=50, base_delay=0.0, max_delay=0.0
            ),
        )
        with pytest.raises(DivergenceError):
            replica.catch_up()
        assert len(fetches) == 1

    def test_diverged_replica_refuses_promotion(self, primary, workload):
        feed(primary, workload, 10)
        replica = make_replica(self._forging_stream(primary))
        with pytest.raises(DivergenceError):
            replica.catch_up()
        with pytest.raises(DivergenceError):
            replica.promote()


class TestBoundedStaleness:
    def test_reject_over_max_lag(self, primary, stream, workload):
        feed(primary, workload, 10)
        replica = make_replica(stream, max_lag=3)
        replica.catch_up()
        feed(primary, workload, 13, start=10)
        assert replica.evaluate(Rollback("r", NOW)) is not None
        feed(primary, workload, 20, start=13)
        with pytest.raises(StaleReadError) as info:
            replica.evaluate(Rollback("r", NOW))
        assert info.value.lag == 10
        assert info.value.max_lag == 3
        replica.catch_up()
        assert replica.evaluate(Rollback("r", NOW)) == primary.evaluate(
            Rollback("r", NOW)
        )

    def test_serve_stale_when_configured(self, primary, stream, workload):
        feed(primary, workload, 10)
        replica = make_replica(stream, max_lag=0, on_stale="serve")
        replica.catch_up()
        feed(primary, workload, 15, start=10)
        # knowingly stale, but served: the pre-advance answer
        before = replica.evaluate(Rollback("s", NOW))
        assert before == Rollback("s", NOW).evaluate(replica.database)

    def test_configuration_validated(self, stream):
        with pytest.raises(ReplicationError):
            Replica(stream, max_lag=-1)
        with pytest.raises(ReplicationError):
            Replica(stream, on_stale="panic")
        with pytest.raises(ReplicationError):
            Replica(stream, batch_records=0)


class TestCrashRestart:
    def test_replica_resumes_from_its_durable_prefix(
        self, primary, stream, workload, oracle
    ):
        feed(primary, workload, 40)
        store = MemoryStore()
        replica = make_replica(stream, store=store, fsync="always")
        replica.catch_up()
        store.crash()  # lose the volatile page cache, keep durable bytes
        resumed = make_replica(stream, store=store, fsync="always")
        assert resumed.applied_lsn == 40
        feed(primary, workload, 55, start=40)
        resumed.catch_up()
        assert resumed.database == oracle[55]

    def test_lazy_fsync_replica_refetches_lost_tail(
        self, primary, stream, workload, oracle
    ):
        feed(primary, workload, 40)
        store = MemoryStore()
        replica = make_replica(
            stream, store=store, fsync="batch(1000, 60000)"
        )
        replica.catch_up()
        store.crash()  # the un-fsynced tail evaporates
        resumed = make_replica(stream, store=store)
        assert resumed.applied_lsn <= 40
        resumed.catch_up()  # ... and is simply re-fetched
        assert resumed.database == oracle[40]


class TestPromotion:
    def test_promoted_replica_extends_without_lsn_reuse(
        self, primary, stream, workload, oracle
    ):
        feed(primary, workload, 30)
        replica = make_replica(stream)
        replica.catch_up()
        promoted = replica.promote()
        assert replica.promoted
        assert promoted.wal.last_lsn == 30
        promoted.execute(workload[30])
        assert promoted.wal.last_lsn == 31  # applied_lsn + 1: no reuse
        assert promoted.database == oracle[31]

    def test_promotion_survives_restart(self, primary, stream, workload):
        feed(primary, workload, 20)
        store = MemoryStore()
        replica = make_replica(stream, store=store, fsync="never")
        replica.catch_up()
        promoted = replica.promote()  # checkpoints at the promotion LSN
        promoted.execute(workload[20])
        promoted.close()
        reopened = DurableDatabase(store)
        assert reopened.wal.last_lsn >= 20

    def test_promoted_replica_refuses_stream_applies(
        self, primary, stream, workload
    ):
        feed(primary, workload, 10)
        replica = make_replica(stream)
        replica.catch_up()
        replica.promote()
        with pytest.raises(ReplicationError):
            replica.catch_up()
        with pytest.raises(ReplicationError):
            replica.promote()  # and cannot promote twice

    def test_promoted_reads_skip_staleness(
        self, primary, stream, workload
    ):
        feed(primary, workload, 10)
        replica = make_replica(stream, max_lag=0)
        replica.catch_up()
        replica.promote()
        feed(primary, workload, 20, start=10)  # old primary races ahead
        # the promoted replica is its own authority now: no StaleReadError
        assert replica.evaluate(Rollback("r", NOW)) == Rollback(
            "r", NOW
        ).evaluate(replica.database)
