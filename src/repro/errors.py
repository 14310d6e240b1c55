"""Exception hierarchy for the repro library.

The paper (Section 3.4) restricts the semantic function ``E`` to *valid*
expressions and delegates the treatment of invalid expressions to a companion
technical report.  This library makes the invalid cases explicit: every
semantic violation raises a typed exception rooted at :class:`ReproError`, so
callers can distinguish schema problems from rollback problems from language
(syntax) problems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "DomainError",
    "PredicateError",
    "UnknownRelationError",
    "RelationTypeError",
    "RollbackError",
    "CommandError",
    "ExpressionError",
    "IntervalError",
    "ParseError",
    "LexError",
    "TranslationError",
    "StorageError",
    "ShardingError",
    "ClusterError",
    "ClusterDegradedError",
    "WalError",
    "CheckpointError",
    "ReplicationError",
    "StreamGapError",
    "DivergenceError",
    "RetryExhaustedError",
    "StaleReadError",
    "ConcurrencyError",
    "WorkloadError",
    "ProtocolError",
    "ServerError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServerShutdownError",
    "ConnectionClosedError",
    "RemoteError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A schema violation: duplicate attributes, incompatible schemas for a
    set operation, projection onto attributes a relation does not have, etc."""


class DomainError(ReproError):
    """A tuple value does not belong to the declared attribute domain."""


class PredicateError(ReproError):
    """A selection predicate (the ``F`` or ``G`` syntactic domain) references
    an unknown attribute or compares incomparable values."""


class UnknownRelationError(ReproError):
    """An identifier is unbound in the database state (maps to the bottom
    element in the paper's ``DATABASE STATE`` domain)."""


class RelationTypeError(ReproError):
    """An operation was applied to a relation of the wrong type, e.g. rolling
    back a snapshot relation to a past transaction."""


class RollbackError(ReproError):
    """A rollback operation could not produce a state, e.g. the requested
    transaction number predates the relation's first recorded state."""


class CommandError(ReproError):
    """A command is semantically invalid on the current database."""


class ExpressionError(ReproError):
    """An algebraic expression is ill-formed independent of any database."""


class IntervalError(ReproError):
    """A valid-time interval or period set is ill-formed (end before start,
    overlapping components in a canonical period set, ...)."""


class LexError(ReproError):
    """The lexer encountered an invalid character sequence."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class ParseError(ReproError):
    """The parser could not derive a sentence/command/expression."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class TranslationError(ReproError):
    """A Quel-style update statement could not be translated to the algebra."""


class StorageError(ReproError):
    """A physical storage backend detected an inconsistency.

    Root of the durability/replication taxonomy below, so ``except
    StorageError`` written against earlier releases keeps catching the
    finer-grained errors."""


class ShardingError(StorageError):
    """The shard coordinator detected an inconsistency: shards opened
    over non-empty stores without coordinator metadata, a moved
    identifier whose replayed history disagrees with the source, or a
    partitioner that maps outside the shard set."""


class ClusterError(StorageError):
    """The cluster topology rejected an operation: failing over a shard
    with no (live) replicas, a promotion candidate that cannot reach the
    primary's tail, or a configuration that names an invalid topology."""


class ClusterDegradedError(ClusterError):
    """A shard has no live primary, so the cluster shed the write rather
    than hang or half-apply it.  Reads keep serving from the shard's
    replicas; the health supervisor (or an operator failover) clears the
    condition, after which a retry of the same sentence succeeds.
    Transient by construction — retrying clients treat it like
    :class:`QueueFullError`."""


class WalError(StorageError):
    """The write-ahead log rejected an operation or found damage it
    could not repair (bad fsync policy, empty record, rebase below the
    retained tail, a segment losing records under a live log)."""


class CheckpointError(StorageError):
    """A checkpoint failed validation (unreadable envelope, wrong
    format/version, CRC mismatch, bad LSN) or could not be written."""


class ReplicationError(StorageError):
    """Base class for replication failures.  Raised directly for
    *transient* conditions — an injected stream fault, an undecodable
    shipped record — that a retry of the fetch may clear."""


class StreamGapError(ReplicationError):
    """The replication stream skipped one or more LSNs.

    ``compacted=True`` means the gap is authoritative — the primary no
    longer retains the records (log compaction or a rebase) and the
    replica must re-snapshot; ``compacted=False`` means the delivery
    itself was gappy (drop/reorder) and a re-fetch may heal it.
    """

    def __init__(
        self,
        message: str,
        *,
        expected: int = 0,
        got: int = 0,
        compacted: bool = False,
    ) -> None:
        super().__init__(message)
        self.expected = expected
        self.got = got
        self.compacted = compacted


class DivergenceError(ReplicationError):
    """A replica's replay no longer matches the primary: applying a
    shipped record produced a transaction number different from the one
    the record committed with.  Fatal for the replica — it must be
    discarded or rebuilt from a snapshot, never retried."""


class RetryExhaustedError(ReplicationError):
    """A :class:`~repro.replication.retry.RetryPolicy` gave up: every
    attempt failed and the attempt budget or deadline ran out.  The last
    underlying error is chained as ``__cause__``."""

    def __init__(
        self, message: str, *, attempts: int = 0, elapsed: float = 0.0
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.elapsed = elapsed


class StaleReadError(ReplicationError):
    """A replica configured with ``max_lag`` + reject semantics refused
    a read because it had fallen too far behind the primary."""

    def __init__(self, message: str, *, lag: int = 0, max_lag: int = 0) -> None:
        super().__init__(message)
        self.lag = lag
        self.max_lag = max_lag


class ConcurrencyError(ReproError):
    """The transaction manager rejected or aborted a transaction."""


class WorkloadError(ReproError):
    """A workload generator was configured with invalid parameters."""


class ProtocolError(ReproError):
    """A wire frame or message violated the protocol: short or torn
    header, CRC mismatch, an oversized frame, non-JSON payload, or a
    message missing required fields.  Framing errors are not recoverable
    mid-stream (the byte positions of later frames are unknown), so the
    peer that detects one closes the connection."""


class ServerError(ReproError):
    """Base class for request failures reported by a repro server."""


class QueueFullError(ServerError):
    """The server shed the request: its admission queue was above the
    high watermark (or the connection exceeded its per-connection
    budget).  Retry after backoff — the server is saturated, not broken."""


class DeadlineExceededError(ServerError):
    """The request's deadline expired — either while queued (never
    executed) or mid-execution (the slow query was killed)."""


class ServerShutdownError(ServerError):
    """The server is draining: it finishes requests already admitted but
    accepts no new ones."""


class ConnectionClosedError(ServerError):
    """The connection closed before a complete response arrived."""


class RemoteError(ServerError):
    """The server executed the request and it failed; carries the remote
    exception's class name so clients can dispatch on it."""

    def __init__(self, message: str, *, remote_type: str = "ReproError") -> None:
        super().__init__(message)
        self.remote_type = remote_type
