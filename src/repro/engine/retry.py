"""Retry, backoff, and graceful-degradation policy for batch evaluation.

The paper's premise — "any failed test execution is expensive and has a
long fix-execute-debug cycle" — cuts both ways: the *evaluation harness*
must not turn one failing executor call into an aborted tuning session.

:class:`RetryPolicy` is the knob set, consumed by
:meth:`repro.engine.engine.EvaluationEngine.evaluate_batch`:

* bounded attempts with exponential backoff and *deterministic* jitter
  (a stable hash of the attempt index and a caller token — reproducible
  runs stay reproducible, while concurrent engines still de-synchronize);
* per-request isolation: a failed batch is re-run one request at a time,
  and each attempt re-dispatches only the requests that never produced
  a result (results are pure functions of the request, so retries cannot
  change observations);
* once attempts run out, a one-way downgrade to the in-process serial
  executor answers the stragglers, and the downgrade is recorded in
  :class:`FailureCounters`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["RetryPolicy", "FailureCounters", "RetryError"]


class RetryError(RuntimeError):
    """Raised when requests still fail after every attempt and fallback."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry knobs for one engine's dispatch path.

    Parameters
    ----------
    max_attempts:
        Total tries per request (first dispatch included).
    backoff_base_s / backoff_factor:
        Attempt ``a`` sleeps ``base * factor**a`` before re-dispatch.
    jitter_fraction:
        Backoff is stretched by up to this fraction, derived
        deterministically from ``(attempt, token)`` — no wall-clock or
        global RNG, so retried runs remain reproducible.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.02
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.25

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")

    def backoff_s(self, attempt: int, token: int = 0) -> float:
        """Sleep before re-dispatching attempt ``attempt + 1``.

        Deterministic: the jitter is a stable digest of ``(attempt,
        token)``, not a draw from any RNG the simulation shares.
        """
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        base = self.backoff_base_s * self.backoff_factor**attempt
        if self.jitter_fraction == 0.0 or base == 0.0:
            return base
        digest = hashlib.blake2b(
            f"{attempt}:{token}".encode(), digest_size=8
        ).digest()
        unit = int.from_bytes(digest, "big") / 2**64      # in [0, 1)
        return base * (1.0 + self.jitter_fraction * unit)


@dataclass
class FailureCounters:
    """Failure/retry/degradation tallies for one engine (audit surface)."""

    #: request-attempts that produced no result (the executor raised)
    n_failures: int = 0
    #: requests re-dispatched after a failed attempt
    n_retries: int = 0
    #: one-way downgrades from a custom executor to the serial one
    n_degraded: int = 0
    #: requests only answered by the last-resort serial pass
    n_exhausted: int = 0

    def snapshot(self) -> dict[str, float]:
        return {
            "n_failures": self.n_failures,
            "n_retries": self.n_retries,
            "n_degraded": self.n_degraded,
            "n_exhausted": self.n_exhausted,
        }
