"""The differential shard oracle suite (ISSUE 5's acceptance bar).

Randomized command sentences — ≥200 commands, every routing shape — run
through a :class:`ShardedDatabase` and the unsharded in-memory oracle;
``assert_differential`` then demands byte-identical ``ρ(I, N)`` for
every identifier at every historical transaction number, across shard
counts {1, 2, 5}, with and without a ``rebalance()`` mid-sentence.  The
same sentence also runs through a :class:`VersionedDatabase` over each
of the five storage backends, reached directly as a second reference:
the sharded ``FINDSTATE`` must agree with every physical design at
every transaction number.  Seeds derive from the run seed
(``tests/conftest.py``), so any failure reproduces from the printed
header.
"""

from __future__ import annotations

import pytest

from repro.core.relation import EMPTY_STATE
from repro.sharding import (
    HashPartitioner,
    RangePartitioner,
    ShardedDatabase,
)
from repro.storage import (
    CheckpointDeltaBackend,
    DeltaBackend,
    FullCopyBackend,
    ReverseDeltaBackend,
    TupleTimestampBackend,
    VersionedDatabase,
)

from tests.sharding.conftest import (
    assert_differential,
    canonical,
    oracle_history,
    sharded_workload,
)

#: All five physical backends, each a second reference for the sentence.
BACKENDS = {
    "full_copy": FullCopyBackend,
    "delta": DeltaBackend,
    "reverse_delta": ReverseDeltaBackend,
    "checkpoint_delta": lambda: CheckpointDeltaBackend(4),
    "tuple_timestamp": TupleTimestampBackend,
}

SHARD_COUNTS = (1, 2, 5)

#: ≥200 commands per combination (the ISSUE's floor).
SENTENCE_LENGTH = 210


def assert_matches_backend(sharded, backend_name, commands, oracle) -> None:
    """Replay ``commands`` into ``backend_name`` and demand the sharded
    ``state_at`` equal the backend's for every identifier at every
    transaction number (a backend's None is ``FINDSTATE``'s ∅)."""
    versioned = VersionedDatabase(BACKENDS[backend_name]())
    versioned.execute_all(commands)
    assert versioned.transaction_number == sharded.transaction_number
    for identifier in oracle.state.identifiers:
        for txn in range(sharded.transaction_number + 1):
            stored = versioned.state_at(identifier, txn)
            assert canonical(sharded.state_at(identifier, txn)) == (
                canonical(EMPTY_STATE if stored is None else stored)
            ), f"{backend_name}: state_at({identifier!r}, {txn})"


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_matches_oracle(shards, backend_name, test_seed):
    commands = sharded_workload(
        length=SENTENCE_LENGTH, seed=test_seed % (1 << 20)
    )
    oracle = oracle_history(commands)
    with ShardedDatabase(
        shards,
        partitioner=HashPartitioner(salt=test_seed % 97),
    ) as sharded:
        for index, command in enumerate(commands, start=1):
            sharded.execute(command)
            # cheap drift tripwire at every prefix; the full (expensive)
            # comparison runs once at the end
            assert (
                sharded.transaction_number
                == oracle[index].transaction_number
            ), f"drift after command {index}"
        assert_differential(sharded, oracle[-1])
        assert_matches_backend(sharded, backend_name, commands, oracle[-1])


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_matches_oracle_across_rebalance(
    shards, backend_name, test_seed
):
    """The same contract with two ``rebalance()`` calls mid-sentence —
    identifiers move between shards while the sentence is still being
    executed, and history must survive the moves bit-for-bit."""
    commands = sharded_workload(
        length=SENTENCE_LENGTH, seed=(test_seed ^ 0x5EED) % (1 << 20)
    )
    oracle = oracle_history(commands)
    with ShardedDatabase(
        shards,
        partitioner=HashPartitioner(salt=1),
    ) as sharded:
        third = len(commands) // 3
        for index, command in enumerate(commands, start=1):
            sharded.execute(command)
            if index == third:
                sharded.rebalance(HashPartitioner(salt=2))
            elif index == 2 * third:
                sharded.rebalance(HashPartitioner(salt=5))
        assert_differential(sharded, oracle[-1])
        assert_matches_backend(sharded, backend_name, commands, oracle[-1])


def test_sharded_matches_oracle_under_range_partitioning(test_seed):
    """Range partitioning must obey the same contract — boundaries
    split the identifier space unevenly, so some shards stay empty."""
    commands = sharded_workload(
        length=SENTENCE_LENGTH, seed=(test_seed ^ 0xA11CE) % (1 << 20)
    )
    oracle = oracle_history(commands)
    with ShardedDatabase(
        3, partitioner=RangePartitioner(["m", "s"])
    ) as sharded:
        for command in commands:
            sharded.execute(command)
        assert_differential(sharded, oracle[-1])


def test_rebalance_to_added_shard_preserves_history(test_seed):
    """Scale-out mid-sentence: add a shard, spread onto it, keep going."""
    commands = sharded_workload(
        length=SENTENCE_LENGTH, seed=(test_seed ^ 0xBEEF) % (1 << 20)
    )
    oracle = oracle_history(commands)
    with ShardedDatabase(2, partitioner=HashPartitioner()) as sharded:
        half = len(commands) // 2
        for command in commands[:half]:
            sharded.execute(command)
        assert sharded.shard_count == 2
        sharded.add_shard()
        report = sharded.rebalance(HashPartitioner(salt=7))
        assert sharded.shard_count == 3
        assert report.moved == report.wal_replayed + report.state_copied
        for command in commands[half:]:
            sharded.execute(command)
        assert_differential(sharded, oracle[-1])
