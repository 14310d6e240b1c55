"""Checkpoints: the database's history on disk as a chain of sealed segments.

Transaction time is append-only (Section 3.5): ``modify_state`` on a
rollback or temporal relation appends one ``(state, txn)`` pair, and a
recorded pair never changes.  So a checkpoint writes only the pairs
recorded since the previous one, plus a small manifest naming every
earlier write it still needs:

* A **segment** ``segment-<lsn>-<crc>.seg`` is a header line
  ``repro-segment 2 <crc>`` and a JSON body, the CRC over the body.  The
  body holds an entry for each identifier the chain did not already
  hold as it is: ``{"from": k, "runs": [...], "type": ...}`` keeps the
  first ``k`` states the earlier segments give that identifier (0 for a
  *reset*) and appends the states of each run.  A run has one schema; a
  row table in which every row the run touches appears once, ordered by
  its encoded text (values keep their JSON type, so ``1``, ``true``,
  ``1.0`` and ``"1"`` stay distinct); and each state as
  ``[txn, added row indices, removed row indices]`` relative to the
  state before it — or to ∅ when there is none, or it has another
  schema.
* A **manifest** ``checkpoint-<lsn>.json`` (version 2) is a CRC envelope
  around the transaction number, each relation's type, state count and
  live entry bytes, the chain's segment names (oldest first) and its
  dead entry bytes.  It covers every WAL record with LSN ≤ ``lsn``.

A checkpoint writes its segment first and its manifest second, both
through :meth:`FileStore.replace` — atomic and durable whatever the
WAL's fsync policy.  A crash between the two leaves a segment no
manifest names; :func:`drop_old_checkpoints` deletes it with every other
unreferenced segment.

A chain holds at most :data:`CHAIN_SEGMENTS` segments: the checkpoint
that would add one more writes a fresh one-segment chain instead, as it
does when dead bytes outweigh live ones.  So a manifest names a bounded
number of files, and :func:`drop_old_checkpoints` can keep the newest
manifest of each of the newest ``keep`` chains — manifests that share
no file, so one damaged file (a manifest, or any segment, the oldest
one every manifest of its chain names included) invalidates at most one
of them.  Recovery loads the newest manifest whose envelope and every
segment validate; a damaged one is *detected and skipped* (it falls
back to the previous chain's manifest, then to ∅).  Version-1
checkpoints — one envelope around a full
:mod:`repro.persistence.json_codec` dump — stay readable.
"""

from __future__ import annotations

import json
import zlib
from typing import NamedTuple, Optional

from repro.errors import CheckpointError, StorageError
from repro.core.database import Database, DatabaseState
from repro.core.relation import Relation, RelationType
from repro.durability.files import FileStore
from repro.historical.state import HistoricalState
from repro.historical.tuples import HistoricalTuple
from repro.obsv import registry as _obsv
from repro.persistence.json_codec import (
    _periods_from_list,
    _periods_to_list,
    _schema_to_dict,
    _shared_rows,
    database_from_dict,
)
from repro.snapshot.attributes import (
    BOOLEAN,
    INTEGER,
    STRING,
    USER_DEFINED_TIME,
)
from repro.snapshot.state import SnapshotState

__all__ = [
    "CHECKPOINT_PREFIX",
    "CHECKPOINT_SUFFIX",
    "CHAIN_SEGMENTS",
    "DEAD_FACTOR",
    "Checkpoint",
    "CheckpointWriter",
    "checkpoint_name",
    "checkpoint_lsn",
    "list_checkpoints",
    "write_checkpoint",
    "read_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "drop_old_checkpoints",
]

CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".json"
CHECKPOINT_FORMAT = "repro-wal-checkpoint"
CHECKPOINT_VERSION = 2
SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".seg"
SEGMENT_MAGIC = b"repro-segment"

#: A checkpoint writes a fresh one-segment chain instead of a delta
#: when the chain's dead entry bytes (superseded by resets or dropped
#: identifiers) would exceed this factor times its live ones.
DEAD_FACTOR = 1.0

#: The most segments a chain holds; the checkpoint that would add one
#: more writes a fresh one-segment chain, and the old chain's newest
#: manifest becomes the fallback that shares no file with the new one.
CHAIN_SEGMENTS = 8

#: Domains whose equal values always have the same type, so a plain set
#: difference of two states is exact.  Elsewhere ``1``, ``True`` and
#: ``1.0`` compare equal and the difference is taken on typed keys.
_EXACT_DOMAINS = (BOOLEAN, INTEGER, STRING, USER_DEFINED_TIME)

_dumps = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False
).encode


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


def _is_segment(name: str) -> bool:
    return name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)


def list_checkpoints(store: FileStore) -> tuple[str, ...]:
    """Checkpoint (manifest) file names, oldest first."""
    return tuple(
        sorted(
            (n for n in store.list() if _is_checkpoint(n)),
            key=checkpoint_lsn,
        )
    )


# -- writing -----------------------------------------------------------------


def _typed(row) -> tuple:
    """``row``'s values with their types (and its valid time)."""
    if isinstance(row, HistoricalTuple):
        values = row.value.values
        return values, tuple(map(type, values)), row.valid_time
    values = row.values
    return values, tuple(map(type, values))


def _delta(before, after, exact: bool) -> tuple:
    """``(added, removed)``: the rows of ``after`` that ``before`` lacks
    and the rows of ``before`` that ``after`` lacks.  ``exact`` says the
    schema's domains make equal values the same type."""
    old, new = before.tuples, after.tuples
    if exact:
        return new - old, old - new
    old_keys = {_typed(t): t for t in old}
    new_keys = {_typed(t): t for t in new}
    return (
        [new_keys[k] for k in new_keys.keys() - old_keys.keys()],
        [old_keys[k] for k in old_keys.keys() - new_keys.keys()],
    )


def _row_text(row, historical: bool) -> str:
    if historical:
        return _dumps((row.value.values, _periods_to_list(row.valid_time)))
    return _dumps(row.values)


def _run_text(schema, historical: bool, states: list) -> str:
    """One run; ``states`` holds ``(txn, added rows, removed rows)``."""
    # a row removed in this run was usually added in it too: encode each
    # row object once (the states keep every row alive, so ids are stable)
    rows: dict = {}
    for _, added, removed in states:
        rows.update(zip(map(id, added), added))
        rows.update(zip(map(id, removed), removed))
    texts = {key: _row_text(row, historical) for key, row in rows.items()}
    table = sorted(set(texts.values()))
    index = {text: position for position, text in enumerate(table)}
    position = {key: index[text] for key, text in texts.items()}
    specs = [
        [
            txn,
            sorted([position[id(row)] for row in added]),
            sorted([position[id(row)] for row in removed]),
        ]
        for txn, added, removed in states
    ]
    return (
        f'{{"rows":[{",".join(table)}],'
        f'"schema":{_dumps(_schema_to_dict(schema))},'
        f'"states":{_dumps(specs)}}}'
    )


def _entry(identifier: str, relation: Relation, keep: int) -> bytes:
    """The segment entry keeping ``keep`` sealed states of
    ``identifier`` and appending the rest of ``relation``'s."""
    states = relation.rstate
    runs: list = []  # (schema, [(txn, added, removed)])
    before = states[keep - 1][0] if keep else None
    for state, txn in states[keep:]:
        # schemas compare as encoded: attribute and domain names
        delta = before is not None and before.schema == state.schema
        if not delta or not runs:
            runs.append((state.schema, []))
            exact = all(
                any(a.domain is d for d in _EXACT_DOMAINS)
                for a in state.schema.attributes
            )
        if delta:
            added, removed = _delta(before, state, exact)
        else:
            added, removed = state.tuples, ()
        runs[-1][1].append((txn, added, removed))
        before = state
    historical = relation.rtype.stores_valid_time
    body = ",".join(
        _run_text(schema, historical, run) for schema, run in runs
    )
    return (
        f'{_dumps(identifier)}:{{"from":{keep},"runs":[{body}],'
        f'"type":{_dumps(relation.rtype.value)}}}'
    ).encode("utf-8")


def _write_segment(
    store: FileStore, entries: list, lsn: int
) -> tuple[str, int]:
    body = b'{"relations":{' + b",".join(entries) + b"}}"
    crc = zlib.crc32(body) & 0xFFFFFFFF
    name = f"{SEGMENT_PREFIX}{lsn:012d}-{crc:08x}{SEGMENT_SUFFIX}"
    data = b"%s %d %08x\n" % (SEGMENT_MAGIC, CHECKPOINT_VERSION, crc) + body
    store.replace(name, data)
    return name, len(data)


class CheckpointWriter:
    """Checkpoints of one evolving database, writing each state once.

    Per identifier the writer keeps what the chain holds: the relation
    type, how many states are sealed, the last sealed ``(state, txn)``
    pair, and the bytes of its live entries.  A relation that still
    holds that very pair at that position (compared by identity) is
    *extended*: only its later states are written, as deltas.  Anything
    else — a replaced snapshot or historical state, a redefinition, a
    value unrelated to the last one — is *reset*: written against ∅,
    and its earlier entries count as dead bytes.  When dead bytes would
    exceed :data:`DEAD_FACTOR` times the live ones, or the chain would
    grow past :data:`CHAIN_SEGMENTS`, the checkpoint writes a fresh
    one-segment chain instead.
    """

    def __init__(
        self,
        segments: tuple[str, ...] = (),
        sealed: Optional[dict] = None,
        dead: int = 0,
    ) -> None:
        #: the chain's segment names, oldest first
        self._segments = tuple(segments)
        #: identifier → (type, sealed count, last sealed pair, live bytes)
        self._sealed: dict[str, tuple] = dict(sealed or {})
        self._dead = dead

    def _seal(self, database: Database) -> tuple[list, dict, int]:
        """The entries a new segment needs for ``database``, and the
        chain's seal and dead bytes once it is written."""
        entries, sealed, dead = [], {}, self._dead
        previous = dict(self._sealed)
        for identifier in sorted(database.state):
            relation = database.require(identifier)
            states = relation.rstate
            keep = size = 0
            old = previous.pop(identifier, None)
            if old is not None:
                rtype, count, last, live = old
                if (
                    rtype is relation.rtype
                    and count <= len(states)
                    and (count == 0 or states[count - 1] is last)
                ):
                    if count == len(states):
                        sealed[identifier] = old
                        continue
                    keep, size = count, live
                else:
                    dead += live
            entry = _entry(identifier, relation, keep)
            entries.append(entry)
            sealed[identifier] = (
                relation.rtype,
                len(states),
                states[-1] if states else None,
                size + len(entry),
            )
        # identifiers no longer bound
        dead += sum(live for *_, live in previous.values())
        return entries, sealed, dead

    def write(self, store: FileStore, database: Database, lsn: int) -> str:
        """Publish ``database`` as the checkpoint covering every WAL
        record with LSN ≤ ``lsn``: a segment with what changed since the
        last write (none if nothing did), then the manifest.  Returns
        the manifest's file name."""
        entries, sealed, dead = self._seal(database)
        segments = self._segments
        if len(segments) + bool(entries) > CHAIN_SEGMENTS or (
            dead > DEAD_FACTOR * sum(seal[3] for seal in sealed.values())
        ):
            entries, sealed, dead = CheckpointWriter()._seal(database)
            segments = ()
        written = 0
        if entries:
            segment, written = _write_segment(store, entries, lsn)
            segments += (segment,)
        inner = _dumps(
            {
                "dead_bytes": dead,
                "relations": {
                    identifier: [rtype.value, count, live]
                    for identifier, (rtype, count, _, live) in sealed.items()
                },
                "segments": list(segments),
                "transaction_number": database.transaction_number,
            }
        )
        data = _dumps(
            {
                "crc": zlib.crc32(inner.encode("utf-8")) & 0xFFFFFFFF,
                "format": CHECKPOINT_FORMAT,
                "lsn": lsn,
                "manifest": inner,
                "version": CHECKPOINT_VERSION,
            }
        ).encode("utf-8")
        name = checkpoint_name(lsn)
        store.replace(name, data)
        self._segments, self._sealed, self._dead = segments, sealed, dead
        if _obsv.enabled():
            registry = _obsv.get()
            registry.counter("wal.checkpoints_written").inc()
            registry.counter("wal.checkpoint_bytes").inc(written + len(data))
        return name


def write_checkpoint(
    store: FileStore, database: Database, lsn: int
) -> str:
    """Atomically publish ``database`` as a one-segment chain covering
    every WAL record with LSN ≤ ``lsn`` (a replica's re-snapshot).
    Returns the manifest's file name."""
    return CheckpointWriter().write(store, database, lsn)


# -- reading -----------------------------------------------------------------


class Checkpoint(NamedTuple):
    """A loaded checkpoint: the LSN it covers, its value, and a writer
    whose next checkpoint extends its chain."""

    lsn: int
    database: Database
    writer: CheckpointWriter


def _read_manifest(store: FileStore, name: str) -> tuple[int, int, object]:
    """``(version, lsn, body)`` of one validated checkpoint envelope;
    raises :class:`CheckpointError` on any damage (bad JSON, wrong
    format or version, CRC mismatch, bad LSN)."""
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
    version = envelope.get("version")
    key = {1: "database", 2: "manifest"}.get(version)
    if key is None:
        raise CheckpointError(
            f"checkpoint {name!r} has unsupported version {version!r}"
        )
    inner = envelope.get(key)
    if not isinstance(inner, str):
        raise CheckpointError(f"checkpoint {name!r} has no {key} body")
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
    return version, lsn, json.loads(inner)


def _read_segment(store: FileStore, name: str) -> dict:
    """A validated segment's entries, identifier → entry."""
    header, _, body = store.read(name).partition(b"\n")
    fields = header.split(b" ")
    try:
        valid = (
            len(fields) == 3
            and fields[0] == SEGMENT_MAGIC
            and int(fields[1]) == CHECKPOINT_VERSION
            and int(fields[2], 16) == zlib.crc32(body) & 0xFFFFFFFF
        )
    except ValueError:
        valid = False
    if not valid:
        raise CheckpointError(f"segment {name!r} failed its CRC check")
    return json.loads(body.decode("utf-8"))["relations"]


def _fold_run(fold: list, run: dict, historical: bool, tables: dict) -> None:
    """Append ``run``'s states to ``fold``, building each of its rows
    once (and each distinct row of the relation once, via ``tables``)."""
    schema, row = _shared_rows(run["schema"], tables)
    if historical:
        built = [
            HistoricalTuple(row(values), _periods_from_list(periods))
            for values, periods in run["rows"]
        ]
        make = HistoricalState._from_coalesced
    else:
        built = [row(values) for values in run["rows"]]
        make = SnapshotState.from_tuples
    before = fold[-1][0] if fold else None
    current = (
        before.tuples
        if before is not None and before.schema is schema
        else frozenset()
    )
    for txn, added, removed in run["states"]:
        if removed:
            current = current.difference([built[i] for i in removed])
        if added:
            current = current.union([built[i] for i in added])
        fold.append((make(schema, current), txn))


def _decode_chain(store: FileStore, lsn: int, body: dict) -> Checkpoint:
    folds: dict[str, list] = {}  # identifier → its (state, txn) pairs
    types: dict[str, str] = {}
    tables: dict[str, dict] = {}
    for name in body["segments"]:
        for identifier, entry in _read_segment(store, name).items():
            fold = folds.setdefault(identifier, [])
            keep = entry["from"]
            if not 0 <= keep <= len(fold):
                raise CheckpointError(
                    f"segment {name!r} keeps {keep} states of "
                    f"{identifier!r}; the chain before it holds {len(fold)}"
                )
            del fold[keep:]
            types[identifier] = entry["type"]
            rtype = RelationType.from_name(entry["type"])
            for run in entry["runs"]:
                _fold_run(
                    fold,
                    run,
                    rtype.stores_valid_time,
                    tables.setdefault(identifier, {}),
                )
    bindings, sealed = {}, {}
    for identifier, (type_name, count, live) in body["relations"].items():
        fold = folds.get(identifier, [])
        if len(fold) != count or types.get(identifier, type_name) != type_name:
            raise CheckpointError(
                f"the chain holds {len(fold)} {types.get(identifier)} "
                f"states of {identifier!r}; its manifest says {count} "
                f"{type_name}"
            )
        rtype = RelationType.from_name(type_name)
        relation = bindings[identifier] = Relation(rtype, fold)
        sealed[identifier] = (
            rtype, count, relation.rstate[-1] if count else None, live
        )
    database = Database(DatabaseState(bindings), body["transaction_number"])
    return Checkpoint(
        lsn,
        database,
        CheckpointWriter(body["segments"], sealed, body["dead_bytes"]),
    )


def _load(store: FileStore, name: str) -> Checkpoint:
    version, lsn, body = _read_manifest(store, name)
    try:
        if version == 1:
            database = database_from_dict(body)
            return Checkpoint(lsn, database, CheckpointWriter())
        return _decode_chain(store, lsn, body)
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"checkpoint {name!r} is malformed: {error!r}"
        ) from error


def read_checkpoint(
    store: FileStore, name: str
) -> tuple[int, Database]:
    """Load and validate one checkpoint (its manifest and every segment
    it names); raises :class:`CheckpointError` on any damage."""
    checkpoint = _load(store, name)
    return checkpoint.lsn, checkpoint.database


def load_checkpoint(store: FileStore) -> Optional[Checkpoint]:
    """The newest checkpoint that validates, or None.  Invalid
    checkpoints are skipped (and counted), not fatal."""
    for name in reversed(list_checkpoints(store)):
        try:
            return _load(store, name)
        except StorageError:
            if _obsv.enabled():
                _obsv.get().counter("wal.checkpoints_invalid_skipped").inc()
    return None


def latest_checkpoint(
    store: FileStore,
) -> Optional[tuple[int, Database]]:
    """``(lsn, database)`` of :func:`load_checkpoint`, or None."""
    found = load_checkpoint(store)
    return None if found is None else (found.lsn, found.database)


def drop_old_checkpoints(
    store: FileStore, keep: int = 2
) -> tuple[int, ...]:
    """Keep the newest manifest of each of the newest ``keep`` chains,
    delete every other manifest, then every segment no kept manifest
    names (orphans of a crash mid-checkpoint included); returns the
    LSNs of the kept manifests (oldest first).

    A chain is named by its first segment; a version-1 checkpoint, or a
    manifest of an empty database, is a chain of its own.  Kept
    manifests therefore share no file.  A manifest that fails
    validation names nothing recovery can use: it is deleted and does
    not count."""
    if keep < 1:
        raise CheckpointError(f"must keep at least one checkpoint, got {keep}")
    kept: list[int] = []
    chains: set[str] = set()
    referenced: set[str] = set()
    for name in reversed(list_checkpoints(store)):
        try:
            version, _, body = _read_manifest(store, name)
        except CheckpointError:
            store.delete(name)
            continue
        segments = body["segments"] if version == CHECKPOINT_VERSION else ()
        chain = segments[0] if segments else name
        if chain in chains or len(chains) == keep:
            store.delete(name)
            continue
        chains.add(chain)
        kept.append(checkpoint_lsn(name))
        referenced.update(segments)
    for name in store.list():
        if _is_segment(name) and name not in referenced:
            store.delete(name)
    return tuple(reversed(kept))
