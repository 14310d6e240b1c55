"""repro — a reproduction of McKenzie & Snodgrass (SIGMOD 1987),
"Extending the Relational Algebra to Support Transaction Time".

The library provides, as importable layers:

* :mod:`repro.snapshot` — the classical (snapshot) relational algebra;
* :mod:`repro.historical` — an historical algebra supporting valid time;
* :mod:`repro.core` — the paper's language: semantic domains, the rollback
  operators ``ρ``/``ρ̂``, and the semantic functions **E**, **C**, **P**;
* :mod:`repro.lang` — a concrete syntax (lexer/parser/interpreter) for the
  paper's BNF;
* :mod:`repro.quel` — a Quel-style update calculus translated to the algebra;
* :mod:`repro.optimizer` — rewrite rules demonstrating that the extension
  preserves the snapshot algebra's optimization laws;
* :mod:`repro.storage` — physical backends (full copy, deltas, checkpoints,
  tuple timestamping) all observation-equivalent to the paper's semantics;
* :mod:`repro.concurrency` — commit-timestamp transaction management;
* :mod:`repro.benzvi` — Ben-Zvi's Time-View operator as the comparison
  baseline;
* :mod:`repro.workloads` — synthetic workload generators for the benchmark
  harness.

Quickstart::

    from repro import (
        DefineRelation, ModifyState, Const, Rollback, run,
        Schema, SnapshotState, NOW,
    )

    faculty = Schema(['name', 'rank'])
    db = run([
        DefineRelation('faculty', 'rollback'),
        ModifyState('faculty', Const(
            SnapshotState(faculty, [['merrie', 'assistant']]))),
        ModifyState('faculty', Const(
            SnapshotState(faculty, [['merrie', 'associate']]))),
    ])
    then = Rollback('faculty', 2).evaluate(db)   # state as of txn 2
    now = Rollback('faculty', NOW).evaluate(db)  # current state
"""

from repro.errors import (
    CommandError,
    ConcurrencyError,
    DomainError,
    ExpressionError,
    IntervalError,
    LexError,
    ParseError,
    PredicateError,
    RelationTypeError,
    ReproError,
    RollbackError,
    SchemaError,
    StorageError,
    TranslationError,
    UnknownRelationError,
    WorkloadError,
)
from repro.snapshot import (
    ANY,
    BOOLEAN,
    INTEGER,
    NUMBER,
    STRING,
    USER_DEFINED_TIME,
    And,
    Attribute,
    Comparison,
    Domain,
    FalsePredicate,
    Not,
    Or,
    Predicate,
    Schema,
    SnapshotState,
    SnapshotTuple,
    TruePredicate,
    attr,
    lit,
)
from repro.historical import (
    FOREVER,
    HistoricalState,
    HistoricalTuple,
    Interval,
    PeriodSet,
)
from repro.core import (
    EMPTY_DATABASE,
    NOW,
    Command,
    Const,
    Database,
    DatabaseState,
    DefineRelation,
    Derive,
    Difference,
    Expression,
    ModifyState,
    Product,
    Project,
    Relation,
    RelationType,
    Rename,
    Rollback,
    Select,
    Sentence,
    Sequence,
    Union,
    evaluate,
    execute,
    find_state,
    find_type,
    run,
    sequence,
)

__version__ = "1.0.0"

__all__ = [
    # errors
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
    "LexError",
    "ParseError",
    "TranslationError",
    "StorageError",
    "ConcurrencyError",
    "WorkloadError",
    # snapshot algebra
    "Attribute",
    "Domain",
    "Schema",
    "SnapshotState",
    "SnapshotTuple",
    "Predicate",
    "Comparison",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "FalsePredicate",
    "attr",
    "lit",
    "ANY",
    "BOOLEAN",
    "INTEGER",
    "NUMBER",
    "STRING",
    "USER_DEFINED_TIME",
    # historical algebra
    "FOREVER",
    "Interval",
    "PeriodSet",
    "HistoricalTuple",
    "HistoricalState",
    # core language
    "NOW",
    "RelationType",
    "Relation",
    "find_state",
    "find_type",
    "Database",
    "DatabaseState",
    "EMPTY_DATABASE",
    "Expression",
    "Const",
    "Union",
    "Difference",
    "Product",
    "Project",
    "Select",
    "Rename",
    "Derive",
    "Rollback",
    "evaluate",
    "Command",
    "DefineRelation",
    "ModifyState",
    "Sequence",
    "sequence",
    "execute",
    "Sentence",
    "run",
]
