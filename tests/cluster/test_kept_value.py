"""A cluster's coordinator keeps its global value across topology moves.

The sharding suite's kept-value stream, with the cluster's own moves:
after every define, modify, ``rebalance``, ``add_shard``, ``failover``
(whose promoted replica replaces the shard's relations with equal but
distinct objects), checkpoint and kill-and-reopen, ``cluster.database``
must equal the value assembled from scratch, and a catalog token handed
on must name an equal catalog.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.errors import ReproError
from repro.lang.parser import parse_command
from repro.sharding import HashPartitioner

from tests.cluster.conftest import fast_retry
from tests.sharding.conftest import check_kept_value, coordinator_steps

OPERATIONS = ("rebalance", "add_shard", "failover", "checkpoint", "reopen")


def config(directory: str, reopen: bool = False) -> ClusterConfig:
    return ClusterConfig(
        shards=2,
        replicas_per_shard=1,
        retry=fast_retry(),
        directory=directory,
        reopen=reopen,
    )


@settings(max_examples=20, deadline=None)
@given(st.lists(coordinator_steps(*OPERATIONS), min_size=1, max_size=14))
def test_kept_value_equals_a_fresh_assembly_after_every_step(steps):
    with tempfile.TemporaryDirectory(prefix="repro-kept-") as directory:
        cluster = Cluster(config(directory))
        previous = check_kept_value(cluster, None)
        try:
            for salt, step in enumerate(steps):
                if step == "rebalance":
                    cluster.rebalance(HashPartitioner(salt=salt))
                elif step == "add_shard":
                    cluster.add_shard()
                elif step == "failover":
                    shard = salt % cluster.shard_count
                    cluster.failover(shard)
                    cluster.add_replica(shard)
                elif step == "checkpoint":
                    cluster.checkpoint()
                elif step == "reopen":
                    cluster.kill()
                    cluster = Cluster(config(directory, reopen=True))
                    previous = None
                else:
                    try:
                        cluster.execute(parse_command(step))
                    except ReproError:
                        pass
                previous = check_kept_value(cluster, previous)
        finally:
            cluster.close()
