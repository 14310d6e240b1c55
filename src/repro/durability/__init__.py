"""Durability: write-ahead command log, checkpoints and crash recovery.

The paper defines a database as the cumulative result of a *sentence* —
a sequence of commands replayed from the empty database (Section 3.5) —
so the durable representation of a database is exactly its committed
command log.  This package makes that literal:

* :mod:`repro.durability.codec` — canonical serialization of commands
  (`define_relation` / `modify_state` with full expression trees, via
  the language printer/parser);
* :mod:`repro.durability.wal` — a segmented append-only log with
  CRC-framed records, configurable fsync policy (``always`` /
  ``batch(N, ms)`` / ``never``) and segment rotation;
* :mod:`repro.durability.checkpoint` — periodic checkpoints as a chain
  of CRC-validated segments, each sealing only the states appended
  since the previous one, named by a small manifest;
* :mod:`repro.durability.recovery` — fold the newest valid chain,
  replay the tail through :func:`repro.core.commands.execute`;
* :mod:`repro.durability.files` / :mod:`repro.durability.faults` — the
  narrow file layer plus a fault-injecting simulated disk (crashes,
  torn writes, bit flips, lying fsyncs) for the crash-recovery suite;
* :mod:`repro.durability.durable` — :class:`DurableDatabase`, the
  user-facing wrapper (also reachable as ``Session(durable_dir=...)``).
"""

from repro.durability.codec import (
    command_from_dict,
    command_to_dict,
    decode_command,
    decode_record,
    encode_command,
    encode_record,
)
from repro.durability.checkpoint import (
    latest_checkpoint,
    list_checkpoints,
    read_checkpoint,
    write_checkpoint,
)
from repro.durability.durable import DurableDatabase
from repro.durability.faults import CrashPoint, FaultPlan, MemoryStore
from repro.durability.files import DirectoryStore, FileStore
from repro.durability.recovery import RecoveryResult, recover
from repro.durability.wal import FsyncPolicy, WriteAheadLog

__all__ = [
    "CrashPoint",
    "DirectoryStore",
    "DurableDatabase",
    "FaultPlan",
    "FileStore",
    "FsyncPolicy",
    "MemoryStore",
    "RecoveryResult",
    "WriteAheadLog",
    "command_from_dict",
    "command_to_dict",
    "decode_command",
    "decode_record",
    "encode_command",
    "encode_record",
    "latest_checkpoint",
    "list_checkpoints",
    "read_checkpoint",
    "recover",
    "write_checkpoint",
]
