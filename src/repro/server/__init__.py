"""``repro.server`` — the wire-protocol database server.

The network front-end over everything below it: the same length-
prefixed, CRC-framed codec discipline as the durability WAL
(:mod:`repro.server.protocol`), admission control with watermark
queues, per-connection budgets, deadlines and load-shedding
(:mod:`repro.server.admission`), one shared backing database in any of
the four Session modes with per-connection read views
(:mod:`repro.server.store`), the asyncio server itself
(:mod:`repro.server.server`), blocking and asyncio clients
(:mod:`repro.server.client`), and the multi-process load driver with
its in-process differential oracle (:mod:`repro.server.loadgen`).

Quick start::

    from repro.server import ServerConfig, serve_in_thread, ReproClient

    with serve_in_thread(ServerConfig(port=0)) as handle:
        with ReproClient(handle.host, handle.port) as client:
            client.execute("define_relation(r, rollback)")
            client.execute('modify_state(r, state (k: integer) {(1)})')
            print(client.query("rollback(r, now)"))
"""

from repro.server.admission import AdmissionController, percentile
from repro.server.client import (
    RETRYABLE_ERRORS,
    AsyncReproClient,
    ReproClient,
    RetryingClient,
)
from repro.server.dedup import DedupTable
from repro.server.loadgen import (
    DriverConfig,
    DriverReport,
    drive_clients,
    run_driver,
)
from repro.server.protocol import (
    FrameDecoder,
    decode_message,
    encode_message,
)
from repro.server.server import (
    ReproServer,
    ServerConfig,
    ThreadedServer,
    serve_in_thread,
)
from repro.server.store import ServerStore, SessionView

__all__ = [
    "AdmissionController",
    "AsyncReproClient",
    "DedupTable",
    "DriverConfig",
    "DriverReport",
    "FrameDecoder",
    "RETRYABLE_ERRORS",
    "ReproClient",
    "ReproServer",
    "RetryingClient",
    "ServerConfig",
    "ServerStore",
    "SessionView",
    "ThreadedServer",
    "decode_message",
    "drive_clients",
    "encode_message",
    "percentile",
    "run_driver",
    "serve_in_thread",
]
