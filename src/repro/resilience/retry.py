"""Retry with jittered exponential backoff for worker dispatch.

A FELINE cluster loses workers: a failed shard RPC of
:class:`repro.shard.ShardService` surfaces as a transient
:class:`~repro.exceptions.WorkerError`.  :class:`RetryPolicy`
centralises how those are retried: exponential backoff with *full
jitter* (delay drawn uniformly from ``[0, base * multiplier**attempt]``,
the AWS-recommended variant that decorrelates thundering herds), capped
at ``max_delay``.

The policy is deterministic (seeded) and, by default, does not actually
sleep — ``sleep=None`` records the would-be delays in
:attr:`RetryPolicy.total_delay_s` (the shard service's worker restarts
already pace its retries) while tests can still assert on backoff
arithmetic.  Pass ``sleep=time.sleep``
for real pacing.
"""

from __future__ import annotations

from random import Random

from repro.exceptions import ReproError, WorkerError

__all__ = ["RetryPolicy"]


class RetryPolicy:
    """Jittered-exponential-backoff retry for transient failures.

    Parameters
    ----------
    max_attempts:
        Total tries including the first (``1`` = no retries).
    base_delay_s, multiplier, max_delay_s:
        Backoff curve: attempt ``k`` (0-based retry count) draws its
        delay uniformly from ``[0, min(max_delay_s, base_delay_s *
        multiplier**k)]``.
    seed:
        Seeds the jitter; same seed, same delays.
    sleep:
        Callable taking seconds; ``None`` records without sleeping.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay_s: float = 0.01,
        multiplier: float = 2.0,
        max_delay_s: float = 1.0,
        seed: int = 0,
        sleep=None,
    ) -> None:
        if max_attempts < 1:
            raise ReproError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.multiplier = multiplier
        self.max_delay_s = max_delay_s
        self._rng = Random(seed)
        self._sleep = sleep
        self.total_delay_s = 0.0
        self.retries = 0

    def backoff(self, retry_number: int) -> float:
        """Pause (or record) the jittered delay before retry ``retry_number``.

        ``retry_number`` is 0 for the first retry.  Returns the delay.
        """
        ceiling = min(
            self.max_delay_s, self.base_delay_s * self.multiplier ** retry_number
        )
        delay = self._rng.uniform(0.0, ceiling)
        self.total_delay_s += delay
        self.retries += 1
        if self._sleep is not None:
            self._sleep(delay)
        return delay

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` with retries on transient :class:`WorkerError`.

        Non-transient worker errors and other exception types propagate
        immediately; a transient error on the final attempt propagates
        too, so failures are *survived when possible, surfaced when not*
        — never swallowed.
        """
        for attempt in range(self.max_attempts):
            try:
                return fn(*args, **kwargs)
            except WorkerError as exc:
                if not exc.transient or attempt + 1 >= self.max_attempts:
                    raise
                self.backoff(attempt)

    def __repr__(self) -> str:
        return (
            f"<RetryPolicy attempts={self.max_attempts} "
            f"base={self.base_delay_s}s x{self.multiplier} "
            f"retries={self.retries}>"
        )
