"""The coordinator keeps its global value (C6 for the kept value).

``ShardedDatabase.as_database`` keeps the last global value and folds in
only the relations whose shard relation or modify count moved.  A kept
value is right iff it equals the value assembled from scratch, so after
every step of a random stream — defines, modifies that keep or change a
scheme, appends, cross-shard writes, ``rebalance``, ``add_shard``,
checkpoints and a close-and-reopen — the two must be equal, and a
catalog token handed on must name an equal catalog.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.relation import Relation
from repro.durability import MemoryStore
from repro.errors import ReproError
from repro.lang.parser import parse_command
from repro.sharding import HashPartitioner, ShardedDatabase

from tests.conftest import calls_to
from tests.sharding.conftest import check_kept_value, coordinator_steps

OPERATIONS = ("rebalance", "add_shard", "checkpoint", "reopen")


class TestKeptValue:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(coordinator_steps(*OPERATIONS), min_size=1, max_size=16))
    def test_kept_value_equals_a_fresh_assembly_after_every_step(
        self, steps
    ):
        stores = [MemoryStore(), MemoryStore()]
        meta = MemoryStore()
        db = ShardedDatabase(stores=stores, meta_store=meta)
        previous = check_kept_value(db, None)
        try:
            for salt, step in enumerate(steps):
                if step == "rebalance":
                    db.rebalance(HashPartitioner(salt=salt))
                elif step == "add_shard":
                    stores.append(MemoryStore())
                    db.add_shard(stores[-1])
                elif step == "checkpoint":
                    db.checkpoint()
                elif step == "reopen":
                    db.close()
                    db = ShardedDatabase.reopen(
                        meta_store=meta, stores=stores
                    )
                    previous = None
                else:
                    try:
                        db.execute(parse_command(step))
                    except ReproError:
                        pass
                previous = check_kept_value(db, previous)
        finally:
            db.close()

    def test_an_append_extends_the_kept_relation(self):
        db = ShardedDatabase(2)
        db.execute(parse_command("define_relation(r, rollback)"))
        for key in range(51):
            kept = db.database
            db.execute(
                parse_command(
                    f"modify_state(r, state (k: integer) {{ ({key}) }})"
                )
            )
        with calls_to(Relation, "__init__") as built:
            extended = db.database
        assert built == []
        assert extended.require("r").history_length == 51
        assert extended.catalog_token is kept.catalog_token
        # a move hands the relation to new objects on another shard: it
        # is assembled again, once, by the validating constructor
        source = db.shard_of("r")
        salt = next(
            salt
            for salt in range(64)
            if HashPartitioner(salt=salt).shard_for("r", 2) != source
        )
        assert db.rebalance(HashPartitioner(salt=salt)).moved == 1
        with calls_to(Relation, "__init__") as built:
            moved = db.database
        assert len(built) == 1
        assert moved == extended
        assert moved.catalog_token is kept.catalog_token

