"""Property tests for the coordinator's numeral-localization metadata.

``_mods`` (per-identifier global transaction numbers, aligned 1:1 with
the owner shard's state sequence) and ``localize_numeral`` (the
``bisect_right`` translation from global to shard-local numbering) are
the two structures every historical read rides on.  Topology changes —
``add_shard()`` growing the denominator mid-sentence, ``rebalance()``
moving an identifier (and with ISSUE 8's repair path, moving it *back*
onto a stale leftover copy) — must never desynchronize them.

Hypothesis drives randomized interleavings of commands, ``add_shard``,
and ``rebalance`` and asserts after every step:

* ``_mods`` is strictly increasing and bounded by the global counter;
* ``as_database()`` never trips its metadata invariant (the explicit
  ``len(mods) != history_length`` guard) and equals the oracle prefix;
* ``localize_numeral`` agrees with the oracle's FINDSTATE at every
  global transaction number, for every identifier.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expressions import Rollback
from repro.errors import ShardingError
from repro.sharding import HashPartitioner, ShardedDatabase

from tests.sharding.conftest import (
    canonical,
    oracle_history,
    sharded_workload,
)

#: one schedule step: run the next workload command, grow the shard
#: set, or rebalance (occasionally with a reseeded hash partitioner,
#: which forces moves — including move-backs onto stale copies)
STEP = st.sampled_from(
    ["cmd"] * 7 + ["add_shard", "rebalance", "rebalance_reseed"]
)

SCHEDULES = st.lists(STEP, min_size=12, max_size=36)


def _assert_metadata(sharded, oracle_prefix):
    """The per-step invariant bundle."""
    for identifier, mods in sharded._mods.items():
        assert all(a < b for a, b in zip(mods, mods[1:])), (
            f"_mods[{identifier!r}] not strictly increasing: {mods}"
        )
        assert not mods or mods[-1] <= sharded.transaction_number
    try:
        rebuilt = sharded.as_database()
    except ShardingError as error:  # the metadata invariant tripped
        raise AssertionError(
            f"as_database() invariant tripped: {error}"
        ) from error
    assert rebuilt == oracle_prefix


def _assert_localization(sharded, oracle_prefix):
    """``localize_numeral`` + ``state_at`` agree with the oracle at
    every global transaction number, and ρ through the router agrees
    for history-keeping relations."""
    for identifier in oracle_prefix.state.identifiers:
        relation = oracle_prefix.require(identifier)
        for txn in range(oracle_prefix.transaction_number + 1):
            assert canonical(sharded.state_at(identifier, txn)) == (
                canonical(relation.find_state(txn))
            ), f"state_at({identifier!r}, {txn})"
        if relation.rtype.keeps_history:
            probe = oracle_prefix.transaction_number
            expression = Rollback(identifier, probe)
            assert canonical(sharded.evaluate(expression)) == (
                canonical(expression.evaluate(oracle_prefix))
            )


class TestLocalizationProperties:
    @given(schedule=SCHEDULES, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_mods_survive_interleaved_topology_changes(
        self, schedule, seed
    ):
        rng = random.Random(seed)
        commands = sharded_workload(
            length=sum(1 for s in schedule if s == "cmd") + 5,
            seed=seed,
        )
        oracle = oracle_history(commands)
        position = 0
        with ShardedDatabase(2) as sharded:
            for step in schedule:
                if step == "cmd":
                    sharded.execute(commands[position])
                    position += 1
                elif step == "add_shard":
                    sharded.add_shard()
                elif step == "rebalance":
                    sharded.rebalance()
                else:  # rebalance under a different placement: moves
                    sharded.rebalance(
                        HashPartitioner(salt=rng.randrange(1 << 16))
                    )
                _assert_metadata(sharded, oracle[position])
            _assert_localization(sharded, oracle[position])

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_move_back_schedules_converge(self, seed):
        """The ISSUE 8 livelock shape as a property: ping-pong the
        placement A→B→A between command bursts; localization and the
        metadata invariant must hold at every bounce, and the final
        rebalance under the original placement must move nothing."""
        rng = random.Random(seed)
        commands = sharded_workload(length=30, seed=seed)
        oracle = oracle_history(commands)
        first = HashPartitioner(salt=rng.randrange(1 << 16))
        second = HashPartitioner(salt=rng.randrange(1 << 16))
        with ShardedDatabase(3, partitioner=first) as sharded:
            for position, command in enumerate(commands, start=1):
                sharded.execute(command)
                if position % 7 == 0:
                    placement = second if (position // 7) % 2 else first
                    sharded.rebalance(placement)
                    _assert_metadata(sharded, oracle[position])
            sharded.rebalance(first)
            report = sharded.rebalance(first)
            assert report.moved == 0 and report.stale_repaired == 0
            _assert_metadata(sharded, oracle[len(commands)])
            _assert_localization(sharded, oracle[len(commands)])
