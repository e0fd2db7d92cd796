"""repro.resilience — fault-tolerant execution for long Monte-Carlo runs.

The Section I protocol is a long campaign: N defect-injection trials per
circuit, each a statistical dynamic timing simulation over thousands of
samples, fanned out across worker pools with an on-disk dictionary
cache.  At that scale the failure modes are mundane and inevitable — a
worker gets OOM-killed, a chunk hangs, the filesystem hiccups, the
operator hits Ctrl-C at hour two.  This package makes every one of them
either *recoverable* or a *typed, diagnosable error*:

* :mod:`~repro.resilience.policy` — retry/timeout/backoff policies for
  the chunked executor (:func:`repro.core.parallel.map_chunked`), with
  deterministic seeded jitter and a process -> serial degradation
  ladder,
* :mod:`~repro.resilience.checkpoint` — atomic, schema-pinned
  checkpoint files written at trial boundaries, carrying the exact RNG
  state so a resumed campaign is bit-identical to an uninterrupted one,
* :mod:`~repro.resilience.chaos` — the deterministic fault-injection
  harness (kill/hang/slow workers, transient exceptions, on-disk
  corruption) driving the chaos test suite,
* :mod:`~repro.resilience.errors` — the failure taxonomy the CLI maps
  to exit codes.

Nothing here touches a simulation RNG stream: retried chunks re-derive
their generators from the same SeedSequence spawn keys, backoff jitter
is hash-derived, and checkpoints persist generator state verbatim — the
determinism guarantee survives every recovery path (see
``tests/test_resilience.py`` and ``docs/architecture.md`` §11).
"""

from .errors import (
    ChaosError,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    ChunkTimeoutError,
    ResilienceError,
    RetryExhaustedError,
    TransientChaosError,
    TransientError,
    WorkerPoolBrokenError,
)
from .policy import (
    DEGRADATION_LADDER,
    RetryPolicy,
    deterministic_jitter,
    fallback_rungs,
    resolve_retry,
    without_sleep,
)
from .checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    build_checkpoint,
    checkpoint_checksum,
    load_checkpoint,
    validate_checkpoint,
    write_checkpoint,
)
from .chaos import (
    ChaosEvent,
    ChaosPlan,
    chaos_active,
    corrupt_file,
)
from . import chaos

__all__ = [
    "ChaosError",
    "ChaosEvent",
    "ChaosPlan",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointMismatchError",
    "ChunkTimeoutError",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "DEGRADATION_LADDER",
    "ResilienceError",
    "RetryExhaustedError",
    "RetryPolicy",
    "TransientChaosError",
    "TransientError",
    "WorkerPoolBrokenError",
    "build_checkpoint",
    "chaos",
    "chaos_active",
    "checkpoint_checksum",
    "corrupt_file",
    "deterministic_jitter",
    "fallback_rungs",
    "load_checkpoint",
    "resolve_retry",
    "validate_checkpoint",
    "without_sleep",
    "write_checkpoint",
]
