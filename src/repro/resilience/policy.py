"""Retry/timeout/backoff policies for the chunked executor.

A :class:`RetryPolicy` tells :func:`repro.core.parallel.map_chunked` how
to treat failing chunks: how many re-attempts each chunk gets, how long
to back off between them, what the per-chunk deadline is on pooled
backends, and whether a dying backend may degrade down the ladder
(process -> serial).

Backoff is **deterministic**: delays are a pure function of the policy
and the (chunk id, attempt) pair.  Jitter — needed so a thundering herd
of retried chunks does not re-synchronize — comes from a SHA-256 hash of
``(seed, chunk, attempt)``, not from wall clock or a shared RNG stream,
so a retried run schedules exactly the same waits as the first one and
no simulation RNG stream is ever touched.  Retried chunks themselves are
bit-identical by construction: the worker body re-derives its generators
from the same SeedSequence spawn keys embedded in the payload, so a
retry is simply the same pure function applied again.

Configuration resolves, in priority order: explicit :class:`RetryPolicy`
> ``REPRO_RETRY_*`` environment variables > defaults.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple, Type, Union

from .errors import TransientError

__all__ = [
    "RetryPolicy",
    "resolve_retry",
    "deterministic_jitter",
    "fallback_rungs",
    "without_sleep",
    "DEGRADATION_LADDER",
]

#: Environment knobs (also set by CLI flags in ``repro.__main__``).
ENV_MAX_RETRIES = "REPRO_RETRY_MAX"
ENV_TIMEOUT = "REPRO_RETRY_TIMEOUT"
ENV_BACKOFF = "REPRO_RETRY_BACKOFF"
ENV_NO_DEGRADE = "REPRO_RETRY_NO_DEGRADE"

#: Graceful-degradation ladder per starting backend: when the pool breaks
#: or hangs past recovery, incomplete chunks re-run on ``serial``, which
#: cannot break.
DEGRADATION_LADDER = {
    "serial": ("serial",),
    "process": ("process", "serial"),
}


def fallback_rungs(backend: str) -> Tuple[str, ...]:
    """The rungs *below* ``backend`` on the degradation ladder.

    ``process`` -> ``("serial",)``, ``serial`` -> ``()`` (the
    bottom rung cannot break).  The service supervisor walks these when a
    batch loses its compute plane mid-flight, re-running only the
    affected request group one rung down.
    """
    return DEGRADATION_LADDER.get(backend, ("serial",))[1:]


def deterministic_jitter(seed: int, chunk: int, attempt: int) -> float:
    """A reproducible uniform draw in ``[0, 1)`` for backoff jitter.

    Hash-derived so it is independent of every simulation RNG stream and
    identical across processes, platforms and reruns.
    """
    digest = hashlib.sha256(
        f"repro-backoff:{seed}:{chunk}:{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor reacts to failing, hanging or dying chunks.

    ``max_retries`` counts *re*-attempts per chunk beyond the first try.
    ``chunk_timeout`` (seconds) is the per-chunk deadline, enforced on
    pooled backends (serial execution cannot be preempted; deadlines are
    a no-op there).  ``degrade=False`` turns the fallback ladder off, so
    a broken pool raises instead of re-running chunks on the next rung.
    ``retryable`` lists the exception types worth retrying; everything
    else propagates immediately.  ``sleep`` is injectable so tests can
    assert the computed schedule without actually waiting.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    chunk_timeout: Optional[float] = None
    degrade: bool = True
    retryable: Tuple[Type[BaseException], ...] = (TransientError, OSError)
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive")

    def is_retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retryable)

    def backoff_delay(self, chunk: int, attempt: int) -> float:
        """The wait before re-attempt ``attempt`` (1-based) of ``chunk``.

        Bounded exponential with deterministic, symmetric jitter:
        ``base * factor**(attempt-1)`` capped at ``backoff_max``, then
        scaled by ``1 + jitter * (2u - 1)`` with ``u`` hash-derived.
        """
        delay = min(
            self.backoff_base * self.backoff_factor ** max(attempt - 1, 0),
            self.backoff_max,
        )
        if self.jitter:
            unit = deterministic_jitter(self.seed, chunk, attempt)
            delay *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return delay

    def wait(self, chunk: int, attempt: int) -> float:
        """Sleep the backoff delay; returns the seconds slept."""
        delay = self.backoff_delay(chunk, attempt)
        if delay > 0:
            self.sleep(delay)
        return delay

    def ladder(self, backend: str) -> Tuple[str, ...]:
        """The fallback rungs for ``backend`` under this policy."""
        rungs = DEGRADATION_LADDER.get(backend, ("serial",))
        return rungs if self.degrade else rungs[:1]


def resolve_retry(
    policy: Optional[Union[RetryPolicy, int]] = None,
) -> RetryPolicy:
    """Normalize a caller-supplied retry policy.

    ``None`` falls back to the ``REPRO_RETRY_*`` environment (defaults
    when unset); a bare integer is shorthand for ``max_retries``.
    """
    if isinstance(policy, RetryPolicy):
        return policy
    if isinstance(policy, int) and not isinstance(policy, bool):
        return RetryPolicy(max_retries=policy)
    kwargs = {}
    retries = os.environ.get(ENV_MAX_RETRIES, "").strip()
    if retries:
        kwargs["max_retries"] = int(retries)
    timeout = os.environ.get(ENV_TIMEOUT, "").strip()
    if timeout:
        kwargs["chunk_timeout"] = float(timeout)
    backoff = os.environ.get(ENV_BACKOFF, "").strip()
    if backoff:
        kwargs["backoff_base"] = float(backoff)
    if os.environ.get(ENV_NO_DEGRADE, "").strip():
        kwargs["degrade"] = False
    return RetryPolicy(**kwargs)


def without_sleep(policy: RetryPolicy) -> RetryPolicy:
    """A copy of ``policy`` that never actually waits (test helper)."""
    return replace(policy, sleep=lambda _delay: None)
