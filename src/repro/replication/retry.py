"""Retry with deadline, capped exponential backoff and jitter.

Every loop in the replication layer that talks to a possibly-flaky
stream runs under a :class:`RetryPolicy`.  The policy is deliberately a
plain value — attempts, base/cap/multiplier, jitter fraction, optional
wall-clock deadline — with the two impure inputs (sleeping and reading
the clock) injected, so tests drive it deterministically and the chaos
suite replays schedules exactly.

The backoff for attempt *k* (0-based) is::

    delay = min(max_delay, base_delay * multiplier**k)
    delay *= 1 - jitter * rng.random()        # de-synchronize retriers

Jitter subtracts (never adds): the configured delay is an upper bound,
which keeps worst-case catch-up time analyzable while still spreading
simultaneous retriers apart.

When every attempt fails — or the deadline would be overrun before the
next one — :class:`~repro.errors.RetryExhaustedError` is raised with the
final underlying error chained as ``__cause__``.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Iterator, Optional, Tuple, Type

from repro.errors import ReplicationError, RetryExhaustedError
from repro.obsv import registry as _obsv

__all__ = ["RetryPolicy"]


class RetryPolicy:
    """How a replication operation retries: attempt budget, capped
    exponential backoff with subtractive jitter, optional deadline.

    ``sleep`` and ``clock`` default to the real ``time`` module; tests
    pass fakes.  The jitter RNG is seeded, so a policy value implies one
    exact delay sequence.
    """

    __slots__ = (
        "max_attempts",
        "base_delay",
        "max_delay",
        "multiplier",
        "jitter",
        "deadline",
        "_sleep",
        "_clock",
        "_rng",
    )

    def __init__(
        self,
        max_attempts: int = 8,
        base_delay: float = 0.01,
        max_delay: float = 2.0,
        multiplier: float = 2.0,
        jitter: float = 0.5,
        deadline: Optional[float] = None,
        *,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ReplicationError(
                f"max_attempts must be ≥ 1, got {max_attempts}"
            )
        if base_delay < 0 or max_delay < 0 or base_delay > max_delay:
            raise ReplicationError(
                f"need 0 ≤ base_delay ≤ max_delay, got "
                f"base={base_delay}, max={max_delay}"
            )
        if multiplier < 1:
            raise ReplicationError(
                f"multiplier must be ≥ 1, got {multiplier}"
            )
        if not 0 <= jitter <= 1:
            raise ReplicationError(
                f"jitter must be a fraction in [0, 1], got {jitter}"
            )
        if deadline is not None and deadline <= 0:
            raise ReplicationError(
                f"deadline must be positive seconds, got {deadline}"
            )
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self.jitter = jitter
        self.deadline = deadline
        self._sleep = sleep
        self._clock = clock
        self._rng = random.Random(seed)

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A single attempt, no backoff — fail fast (test default)."""
        return cls(max_attempts=1, base_delay=0.0, max_delay=0.0)

    # -- the delay schedule ------------------------------------------------

    def delays(self) -> Iterator[float]:
        """The backoff delay *before* each retry (``max_attempts - 1``
        values; the first attempt is free)."""
        for attempt in range(self.max_attempts - 1):
            delay = min(
                self.max_delay,
                self.base_delay * self.multiplier ** attempt,
            )
            if self.jitter:
                delay *= 1.0 - self.jitter * self._rng.random()
            yield delay

    # -- driving an operation ----------------------------------------------

    def run(
        self,
        operation: Callable[[], object],
        *,
        retry_on: Tuple[Type[BaseException], ...] = (ReplicationError,),
        no_retry_on: Tuple[Type[BaseException], ...] = (),
        describe: str = "replication operation",
    ):
        """Call ``operation`` until it returns, retrying on ``retry_on``.

        Errors outside ``retry_on`` propagate immediately, as do errors
        matching ``no_retry_on`` even when they subclass a retryable
        type (a :class:`~repro.errors.DivergenceError` *is a*
        ``ReplicationError`` but must never be retried — callers exclude
        it explicitly).  Exhaustion raises :class:`RetryExhaustedError`
        carrying the attempt count and elapsed time, with the last
        error as ``__cause__``.
        """
        start = self._clock()
        last_error: Optional[BaseException] = None
        delays = self.delays()
        for attempt in range(1, self.max_attempts + 1):
            try:
                return operation()
            except retry_on as error:
                if no_retry_on and isinstance(error, no_retry_on):
                    raise
                last_error = error
                if _obsv.enabled():
                    _obsv.get().counter("repl.transient_errors").inc()
                if attempt == self.max_attempts:
                    break
                delay = next(delays)
                if (
                    self.deadline is not None
                    and self._clock() - start + delay > self.deadline
                ):
                    break
                if _obsv.enabled():
                    registry = _obsv.get()
                    registry.counter("repl.retries").inc()
                    registry.histogram("repl.retry_sleep_seconds").observe(
                        delay
                    )
                if delay > 0:
                    self._sleep(delay)
        elapsed = self._clock() - start
        raise RetryExhaustedError(
            f"{describe} failed after {attempt} attempt(s) in "
            f"{elapsed:.3f}s: {last_error}",
            attempts=attempt,
            elapsed=elapsed,
        ) from last_error

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base_delay={self.base_delay:g}, "
            f"max_delay={self.max_delay:g}, "
            f"multiplier={self.multiplier:g}, jitter={self.jitter:g}, "
            f"deadline={self.deadline})"
        )
