"""JSON encoding/decoding of the semantic DATABASE value."""

from __future__ import annotations

import json
from typing import Any, IO

from repro.errors import StorageError
from repro.core.database import Database, DatabaseState
from repro.core.relation import Relation, RelationType
from repro.historical.chronons import FOREVER
from repro.historical.periods import PeriodSet
from repro.historical.state import HistoricalState
from repro.historical.tuples import HistoricalTuple
from repro.snapshot.attributes import (
    ANY,
    BOOLEAN,
    INTEGER,
    NUMBER,
    STRING,
    USER_DEFINED_TIME,
    Attribute,
    Domain,
)
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState
from repro.snapshot.tuples import SnapshotTuple

__all__ = [
    "FORMAT_VERSION",
    "database_to_dict",
    "database_from_dict",
    "state_to_dict",
    "state_from_dict",
    "dumps",
    "loads",
    "dump",
    "load",
]

FORMAT_VERSION = 1

_BUILTIN_DOMAINS: dict[str, Domain] = {
    d.name: d
    for d in (ANY, BOOLEAN, INTEGER, NUMBER, STRING, USER_DEFINED_TIME)
}


# -- schemas -----------------------------------------------------------------


def _schema_to_dict(schema: Schema) -> list[dict[str, str]]:
    return [
        {"name": a.name, "domain": a.domain.name}
        for a in schema.attributes
    ]


def _schema_from_dict(payload: list[dict[str, str]]) -> Schema:
    attributes = []
    for entry in payload:
        domain = _BUILTIN_DOMAINS.get(entry["domain"], ANY)
        attributes.append(Attribute(entry["name"], domain))
    return Schema(attributes)


# -- states -------------------------------------------------------------------


def _periods_to_list(periods: PeriodSet) -> list[list[Any]]:
    return [
        [i.start, None if i.is_unbounded else i.end]
        for i in periods.intervals
    ]


def _periods_from_list(payload: list[list[Any]]) -> PeriodSet:
    return PeriodSet(
        [
            (start, FOREVER if end is None else end)
            for start, end in payload
        ]
    )


def state_to_dict(state) -> dict[str, Any]:
    """A snapshot or historical state as a JSON-ready dictionary — the
    per-state slice of :func:`database_to_dict`, public because other
    layers (the archive store) serialize bare states."""
    if isinstance(state, HistoricalState):
        return {
            "kind": "historical",
            "schema": _schema_to_dict(state.schema),
            "rows": sorted(
                (
                    [list(t.value.values), _periods_to_list(t.valid_time)]
                    for t in state.tuples
                ),
                key=repr,
            ),
        }
    if isinstance(state, SnapshotState):
        return {
            "kind": "snapshot",
            "schema": _schema_to_dict(state.schema),
            "rows": sorted(
                (list(t.values) for t in state.tuples), key=repr
            ),
        }
    raise StorageError(f"cannot serialize state {type(state).__name__}")


def state_from_dict(payload: dict[str, Any]):
    """Rebuild a state from :func:`state_to_dict` output."""
    return _decode_state(payload, {})


def _shared_rows(schema_payload: list, tables: dict):
    """``(schema, row)`` for the encoded schema ``schema_payload``,
    sharing ``tables`` (one Schema and one row table per distinct
    schema) with the other states of a relation, so each distinct row is
    validated and built once: ``row(values)`` returns that one tuple.
    The row key carries every value's type: ``1``, ``True`` and ``1.0``
    hash equal."""
    schema_key = tuple((a["name"], a["domain"]) for a in schema_payload)
    if schema_key not in tables:
        tables[schema_key] = (_schema_from_dict(schema_payload), {})
    schema, rows = tables[schema_key]

    def row(values: list) -> SnapshotTuple:
        key = (*values, *map(type, values))
        try:
            return rows[key]
        except KeyError:
            rows[key] = built = SnapshotTuple(schema, values)
            return built
        except TypeError:  # an unhashable value: validation rejects it
            return SnapshotTuple(schema, values)

    return schema, row


def _decode_state(payload: dict[str, Any], tables: dict):
    """:func:`state_from_dict` sharing ``tables`` with the other states
    of a relation (see :func:`_shared_rows`)."""
    schema, row = _shared_rows(payload["schema"], tables)
    if payload["kind"] == "historical":
        tuples = [
            HistoricalTuple(row(values), _periods_from_list(periods))
            for values, periods in payload["rows"]
        ]
        return HistoricalState(schema, tuples)
    if payload["kind"] == "snapshot":
        return SnapshotState.from_tuples(
            schema, frozenset(map(row, payload["rows"]))
        )
    raise StorageError(f"unknown state kind {payload['kind']!r}")


# Backwards-compatible aliases for the former private spellings.
_state_to_dict = state_to_dict
_state_from_dict = state_from_dict


# -- relations and databases ------------------------------------------------------


def _relation_to_dict(relation: Relation) -> dict[str, Any]:
    return {
        "type": relation.rtype.value,
        "states": [
            {"txn": txn, "state": state_to_dict(state)}
            for state, txn in relation.rstate
        ],
    }


def _relation_from_dict(payload: dict[str, Any]) -> Relation:
    rtype = RelationType.from_name(payload["type"])
    tables: dict = {}
    states = [
        (_decode_state(entry["state"], tables), entry["txn"])
        for entry in payload["states"]
    ]
    return Relation(rtype, states)


def database_to_dict(database: Database) -> dict[str, Any]:
    """The semantic DATABASE value as a JSON-ready dictionary."""
    return {
        "format": "repro-database",
        "version": FORMAT_VERSION,
        "transaction_number": database.transaction_number,
        "relations": {
            identifier: _relation_to_dict(database.require(identifier))
            for identifier in database.state
        },
    }


def database_from_dict(payload: dict[str, Any]) -> Database:
    """Rebuild a Database from :func:`database_to_dict` output.

    The format version is gated *before* any decoding: a payload written
    by a newer library is rejected with a clear :class:`StorageError` up
    front, not a confusing failure halfway through decode.
    """
    if not isinstance(payload, dict):
        raise StorageError(
            "payload is not a repro database dump (expected a JSON "
            f"object, got {type(payload).__name__})"
        )
    if payload.get("format") != "repro-database":
        raise StorageError(
            "payload is not a repro database dump "
            f"(format={payload.get('format')!r})"
        )
    version = payload.get("version")
    if not isinstance(version, int):
        raise StorageError(
            f"dump has no integer format version (got {version!r}); "
            "the payload is damaged or not a repro dump"
        )
    if version > FORMAT_VERSION:
        raise StorageError(
            f"dump was written by a newer library (format version "
            f"{version}); this library reads up to version "
            f"{FORMAT_VERSION} — upgrade to load it"
        )
    if version != FORMAT_VERSION:
        raise StorageError(
            f"unsupported dump version {version!r}; "
            f"this library reads version {FORMAT_VERSION}"
        )
    bindings = {
        identifier: _relation_from_dict(entry)
        for identifier, entry in payload["relations"].items()
    }
    return Database(
        DatabaseState(bindings), payload["transaction_number"]
    )


# -- convenience wrappers ----------------------------------------------------------


def dumps(database: Database, indent: int | None = None) -> str:
    """Serialize a database to a JSON string."""
    return json.dumps(database_to_dict(database), indent=indent)


def loads(text: str) -> Database:
    """Deserialize a database from a JSON string."""
    return database_from_dict(json.loads(text))


def dump(database: Database, fp: IO[str], indent: int | None = None) -> None:
    """Serialize a database to an open text file."""
    json.dump(database_to_dict(database), fp, indent=indent)


def load(fp: IO[str]) -> Database:
    """Deserialize a database from an open text file."""
    return database_from_dict(json.load(fp))
