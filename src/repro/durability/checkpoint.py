"""Checkpoints: periodic full-database snapshots that bound replay.

A checkpoint file ``checkpoint-<lsn>.json`` publishes the semantic
DATABASE value (via :mod:`repro.persistence.json_codec`) as it stood
after applying the WAL record with that LSN.  Recovery loads the newest
*valid* checkpoint and replays only the WAL tail past it; compaction
then drops fully-covered segments.

Checkpoints are written with :meth:`FileStore.replace` — atomic and
durable regardless of the WAL's fsync policy — and carry a CRC over the
embedded database dump, so a checkpoint damaged by media corruption is
*detected and skipped* (recovery falls back to the previous one, which
is why the durable layer retains more than one).
"""

from __future__ import annotations

import json
import zlib
from typing import Optional

from repro.errors import CheckpointError, StorageError
from repro.core.database import Database
from repro.durability.files import FileStore
from repro.obsv import hooks as _hooks
from repro.persistence.json_codec import (
    FORMAT_VERSION,
    database_from_dict,
    database_to_dict,
    state_to_dict,
)

__all__ = [
    "CHECKPOINT_PREFIX",
    "CHECKPOINT_SUFFIX",
    "checkpoint_name",
    "checkpoint_lsn",
    "list_checkpoints",
    "write_checkpoint",
    "CheckpointEncoder",
    "read_checkpoint",
    "latest_checkpoint",
    "drop_old_checkpoints",
]

CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".json"
CHECKPOINT_FORMAT = "repro-wal-checkpoint"
CHECKPOINT_VERSION = 1


def checkpoint_name(lsn: int) -> str:
    return f"{CHECKPOINT_PREFIX}{lsn:012d}{CHECKPOINT_SUFFIX}"


def checkpoint_lsn(name: str) -> int:
    return int(name[len(CHECKPOINT_PREFIX):-len(CHECKPOINT_SUFFIX)])


def _is_checkpoint(name: str) -> bool:
    return (
        name.startswith(CHECKPOINT_PREFIX)
        and name.endswith(CHECKPOINT_SUFFIX)
        and name[len(CHECKPOINT_PREFIX):-len(CHECKPOINT_SUFFIX)].isdigit()
    )


def list_checkpoints(store: FileStore) -> tuple[str, ...]:
    """Checkpoint file names, oldest first."""
    return tuple(
        sorted(
            (n for n in store.list() if _is_checkpoint(n)),
            key=checkpoint_lsn,
        )
    )


def _dumps(value) -> str:
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def _publish(store: FileStore, inner: str, lsn: int) -> str:
    """Wrap the database text ``inner`` in the CRC envelope and
    atomically replace the checkpoint file for ``lsn``."""
    envelope = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "lsn": lsn,
        "crc": zlib.crc32(inner.encode("utf-8")) & 0xFFFFFFFF,
        "database": inner,
    }
    name = checkpoint_name(lsn)
    store.replace(name, json.dumps(envelope).encode("utf-8"))
    observer = _hooks.wal_observer()
    if observer is not None:
        observer.checkpointed()
    return name


def write_checkpoint(
    store: FileStore, database: Database, lsn: int
) -> str:
    """Atomically publish ``database`` as the checkpoint covering every
    WAL record with LSN ≤ ``lsn``.  Returns the file name.

    Encodes the whole value from scratch: the one-shot form (a replica's
    re-snapshot) and the reference :class:`CheckpointEncoder` is tested
    against, byte for byte."""
    return _publish(store, _dumps(database_to_dict(database)), lsn)


class CheckpointEncoder:
    """Checkpoints of one evolving database, encoding each state once.

    Transaction time is append-only, so between two checkpoints a
    rollback or temporal relation only gains elements.  Per identifier
    the encoder keeps the JSON text of the state-sequence prefix it
    last wrote, and the last ``(state, txn)`` pair of that prefix: when
    the relation still holds that very pair at that position the prefix
    is reused and only the later states are encoded.  Anything else — a
    replaced snapshot/historical state, a new relation, the first
    checkpoint after recovery — misses and is encoded whole.  The text
    is exactly :func:`write_checkpoint`'s.
    """

    def __init__(self) -> None:
        #: identifier → (prefix length, its last pair, its JSON text)
        self._prefixes: dict[str, tuple[int, tuple, str]] = {}

    def _states_text(self, identifier: str, states: tuple) -> str:
        count, last, text = self._prefixes.get(identifier, (0, None, ""))
        if not (0 < count <= len(states) and states[count - 1] is last):
            count, text = 0, ""
        fresh = ",".join(
            _dumps({"state": state_to_dict(state), "txn": txn})
            for state, txn in states[count:]
        )
        return f"{text},{fresh}" if text and fresh else text or fresh

    def encode(self, database: Database) -> str:
        """The text ``json.dumps(database_to_dict(database))`` yields
        under the checkpoint's key-sorted compact settings."""
        prefixes = {}
        relations = []
        for identifier in sorted(database.state):
            relation = database.require(identifier)
            states = relation.rstate
            text = self._states_text(identifier, states)
            if states:
                prefixes[identifier] = (len(states), states[-1], text)
            relations.append(
                f'{_dumps(identifier)}:{{"states":[{text}],'
                f'"type":{_dumps(relation.rtype.value)}}}'
            )
        self._prefixes = prefixes
        return (
            '{"format":"repro-database","relations":{'
            + ",".join(relations)
            + f'}},"transaction_number":{database.transaction_number},'
            f'"version":{FORMAT_VERSION}}}'
        )

    def write(self, store: FileStore, database: Database, lsn: int) -> str:
        """:func:`write_checkpoint`, incrementally."""
        return _publish(store, self.encode(database), lsn)


def read_checkpoint(
    store: FileStore, name: str
) -> tuple[int, Database]:
    """Load and validate one checkpoint; raises :class:`CheckpointError`
    on any damage (bad JSON, wrong format, CRC mismatch)."""
    try:
        envelope = json.loads(store.read(name).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise CheckpointError(
            f"checkpoint {name!r} is unreadable: {error}"
        ) from error
    if (
        not isinstance(envelope, dict)
        or envelope.get("format") != CHECKPOINT_FORMAT
    ):
        raise CheckpointError(f"{name!r} is not a repro checkpoint")
    if envelope.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {name!r} has unsupported version "
            f"{envelope.get('version')!r}"
        )
    inner = envelope.get("database")
    if not isinstance(inner, str):
        raise CheckpointError(f"checkpoint {name!r} has no database body")
    if zlib.crc32(inner.encode("utf-8")) & 0xFFFFFFFF != envelope.get(
        "crc"
    ):
        raise CheckpointError(
            f"checkpoint {name!r} failed its CRC check"
        )
    lsn = envelope.get("lsn")
    if not isinstance(lsn, int) or lsn < 0:
        raise CheckpointError(
            f"checkpoint {name!r} has a bad LSN {lsn!r}"
        )
    return lsn, database_from_dict(json.loads(inner))


def latest_checkpoint(
    store: FileStore,
) -> Optional[tuple[int, Database]]:
    """The newest checkpoint that validates, or None.  Invalid
    checkpoints are skipped (and counted), not fatal."""
    for name in reversed(list_checkpoints(store)):
        try:
            return read_checkpoint(store, name)
        except StorageError:
            observer = _hooks.wal_observer()
            if observer is not None:
                observer.invalid_checkpoint()
    return None


def drop_old_checkpoints(
    store: FileStore, keep: int = 2
) -> tuple[int, ...]:
    """Delete all but the newest ``keep`` checkpoints; returns the LSNs
    of the retained ones (oldest first)."""
    if keep < 1:
        raise CheckpointError(f"must keep at least one checkpoint, got {keep}")
    names = list_checkpoints(store)
    for name in names[:-keep] if len(names) > keep else ():
        store.delete(name)
    return tuple(checkpoint_lsn(n) for n in names[-keep:])
