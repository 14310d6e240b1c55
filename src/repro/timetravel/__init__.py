"""Time-travel utilities over rollback databases.

Tools a downstream user reaches for once transaction time exists:

* :func:`as_of` — rewrite an expression so every ``ρ(R, now)`` (and the
  database-relative ``now`` in general) is pinned to a specific
  transaction: "run this query as of transaction k".  Sound because ``ρ``
  is the only database-relative leaf.
* :class:`View` — a named, virtual derived relation: an expression whose
  state *as of any transaction* is obtained by pinning and evaluating.
  Views are never stored; they inherit rollback-ability from their
  sources, which is exactly the paper's point about expressions being
  side-effect-free.
"""

from repro.timetravel.asof import as_of, View

__all__ = ["as_of", "View"]
