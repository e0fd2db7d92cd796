"""Self-healing supervision for the diagnosis serving plane.

The service layer of PR 8 is a fair-weather machine: a killed pool
worker fails a whole micro-batch, a hot loop of failures keeps accepting
traffic it cannot serve, and there is no orderly way to stop or to swap
a dictionary under live queries.  This module adds the missing
operational layer — the same fault-tolerance discipline
:mod:`repro.resilience` gave the batch pipeline, applied to serving:

* :class:`Lifecycle` — the ``starting -> ready -> degraded -> draining
  -> stopped`` state machine, every transition counted through
  :mod:`repro.obs` and exposed over the wire as ``health``/``ready``.
* :class:`CircuitBreaker` — sliding-window admission control.  When the
  p95 batch latency or the batch failure rate over the recent window
  exceeds its thresholds the breaker opens and the server sheds load
  with typed ``overloaded`` wire errors; after a cooldown one half-open
  probe batch decides between closing and re-opening.
* :class:`ServiceSupervisor` — wraps :class:`DiagnosisService` scoring
  with per-group isolation: requests are grouped by ``(workload,
  error_function)`` exactly as the engine batches them, each group is
  scored independently, and a group that loses its compute plane
  mid-batch (``BrokenProcessPool`` / worker death, surfaced as
  :class:`~repro.resilience.WorkerPoolBrokenError`) is re-run — alone —
  one rung down the :data:`~repro.resilience.policy.DEGRADATION_LADDER`
  (process -> serial).  Answers are bit-identical across rungs
  (the build/scoring contract), so degradation is invisible in results.
  The primary plane is re-probed in a background thread and swapped back
  in once healthy (``degraded -> ready``).

Every failure path is exercised deterministically through the
``service.batch`` / ``service.store_load`` / ``service.connection``
chaos points (:mod:`repro.resilience.chaos`).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..core.parallel import map_chunked, resolve_parallel
from ..resilience import chaos
from ..resilience.errors import (
    ChunkTimeoutError,
    ResilienceError,
    WorkerPoolBrokenError,
)
from ..resilience.policy import RetryPolicy, fallback_rungs
from .engine import DiagnosisRequest, DiagnosisService, RankedDiagnosis
from .errors import BadRequestError, ServiceError

__all__ = [
    "STATES",
    "Lifecycle",
    "BreakerConfig",
    "CircuitBreaker",
    "SupervisorConfig",
    "ServiceSupervisor",
]


# ----------------------------------------------------------------------
# lifecycle state machine
# ----------------------------------------------------------------------

#: The serving states, in nominal order of appearance.
STATES = ("starting", "ready", "degraded", "draining", "stopped")

#: Legal transitions.  ``degraded`` is re-entrant with ``ready`` (planes
#: break and heal); ``draining`` only ever ends in ``stopped``.
_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    "starting": ("ready", "degraded", "draining", "stopped"),
    "ready": ("degraded", "draining", "stopped"),
    "degraded": ("ready", "draining", "stopped"),
    "draining": ("stopped",),
    "stopped": (),
}


class Lifecycle:
    """Thread-safe serving state with counted, validated transitions."""

    def __init__(self) -> None:
        self._state = "starting"
        self._lock = threading.Lock()
        self.history: List[str] = ["starting"]

    @property
    def state(self) -> str:
        return self._state

    @property
    def accepting(self) -> bool:
        """Whether new diagnose requests may enter the queue."""
        return self._state in ("starting", "ready", "degraded")

    @property
    def is_ready(self) -> bool:
        """Readiness verdict: serving, possibly on a degraded plane."""
        return self._state in ("ready", "degraded")

    def to(self, state: str) -> str:
        """Transition (idempotent on the current state; illegal raises)."""
        if state not in _TRANSITIONS:
            raise ValueError(f"unknown lifecycle state {state!r}")
        with self._lock:
            if state == self._state:
                return state
            if state not in _TRANSITIONS[self._state]:
                raise ValueError(
                    f"illegal lifecycle transition "
                    f"{self._state!r} -> {state!r}"
                )
            self._state = state
            self.history.append(state)
        obs.get_recorder().count(f"service.state.{state}")
        return state

    def try_to(self, state: str) -> bool:
        """Lenient transition: ``False`` instead of raising when illegal.

        The supervisor uses this for plane events — ``degrade`` while
        already draining must not blow up the drain.
        """
        try:
            self.to(state)
        except ValueError:
            return False
        return True

    def snapshot(self) -> Dict:
        with self._lock:
            return {"state": self._state, "history": list(self.history)}


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BreakerConfig:
    """Thresholds of the sliding-window circuit breaker.

    The window holds per-*batch* outcomes (latency seconds, ok flag).
    ``max_p95_latency`` of ``None`` disables the latency gate; the
    failure gate compares the windowed failure fraction against
    ``max_failure_rate``.  Nothing trips below ``min_samples`` — a cold
    server must not open on its first slow warm-up batch.  After
    ``cooldown`` seconds open, one half-open probe batch is admitted;
    its outcome decides between closing and re-opening.
    """

    window: int = 32
    min_samples: int = 8
    max_p95_latency: Optional[float] = None
    max_failure_rate: float = 0.5
    cooldown: float = 5.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.max_p95_latency is not None and self.max_p95_latency <= 0:
            raise ValueError("max_p95_latency must be positive (or None)")
        if not 0.0 < self.max_failure_rate <= 1.0:
            raise ValueError("max_failure_rate must be in (0, 1]")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")


class CircuitBreaker:
    """closed -> open -> half-open admission gate over batch outcomes.

    ``clock`` is injectable so tests drive the cooldown deterministically
    instead of sleeping.
    """

    def __init__(
        self,
        config: BreakerConfig = BreakerConfig(),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self._clock = clock
        self._samples: deque = deque(maxlen=config.window)
        self._state = "closed"
        self._opened_at = 0.0
        self._reason = ""
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        return self._state

    def allow(self) -> Optional[str]:
        """``None`` to admit; otherwise the shed reason string."""
        with self._lock:
            if self._state == "closed":
                return None
            if self._state == "open":
                if self._clock() - self._opened_at >= self.config.cooldown:
                    self._state = "half_open"
                    obs.get_recorder().count("service.breaker.half_open")
                    return None  # the one probe batch
                return (
                    f"circuit breaker open ({self._reason}); "
                    f"retry after cooldown"
                )
            # half_open: the probe is in flight; shed until it reports.
            return "circuit breaker half-open: probe batch in flight"

    def record(self, latency: float, ok: bool) -> None:
        """Feed one batch outcome; may open, close, or re-open."""
        recorder = obs.get_recorder()
        with self._lock:
            if self._state == "half_open":
                if ok:
                    self._state = "closed"
                    self._samples.clear()
                    self._reason = ""
                    recorder.count("service.breaker.closed")
                else:
                    self._state = "open"
                    self._opened_at = self._clock()
                    recorder.count("service.breaker.reopened")
                self._samples.append((float(latency), bool(ok)))
                return
            self._samples.append((float(latency), bool(ok)))
            if self._state != "closed":
                return
            reason = self._trip_reason()
            if reason is not None:
                self._state = "open"
                self._opened_at = self._clock()
                self._reason = reason
                recorder.count("service.breaker.opened")

    def _trip_reason(self) -> Optional[str]:
        if len(self._samples) < self.config.min_samples:
            return None
        failures = sum(1 for _latency, ok in self._samples if not ok)
        rate = failures / len(self._samples)
        if rate > self.config.max_failure_rate:
            return (
                f"failure rate {rate:.2f} > "
                f"{self.config.max_failure_rate:.2f} "
                f"over last {len(self._samples)} batches"
            )
        limit = self.config.max_p95_latency
        if limit is not None:
            p95 = self._p95()
            if p95 > limit:
                return (
                    f"p95 batch latency {p95:.3f}s > {limit:.3f}s "
                    f"over last {len(self._samples)} batches"
                )
        return None

    def _p95(self) -> float:
        latencies = sorted(latency for latency, _ok in self._samples)
        if not latencies:
            return 0.0
        rank = max(int(math.ceil(0.95 * len(latencies))) - 1, 0)
        return latencies[rank]

    def snapshot(self) -> Dict:
        with self._lock:
            failures = sum(1 for _l, ok in self._samples if not ok)
            return {
                "state": self._state,
                "window": len(self._samples),
                "failures": failures,
                "p95_latency": self._p95(),
                "reason": self._reason,
            }


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------

#: Compute-plane death signatures: the pool broke under a batch.
_PLANE_FAILURES = (WorkerPoolBrokenError, BrokenExecutor, ChunkTimeoutError)

#: User-shaped errors: never a service failure for breaker accounting.
_USER_ERRORS = (BadRequestError,)


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of one :class:`ServiceSupervisor`."""

    breaker: BreakerConfig = BreakerConfig()
    #: Probe and restore the primary plane in a background thread after
    #: a degradation (tests turn this off and call
    #: :meth:`ServiceSupervisor.restore_plane` synchronously).
    auto_restore: bool = True
    #: Seconds the background probe waits before its first attempt.
    restore_delay: float = 0.05


def _probe_chunk(_payload, indices: Sequence[int]) -> List[int]:
    """Trivial round-trip body for the plane-restore probe."""
    return list(indices)


class ServiceSupervisor:
    """Per-group supervised scoring plus lifecycle/admission state.

    One supervisor wraps one :class:`DiagnosisService`; the server calls
    :meth:`admit` at the front door and :meth:`score` from its
    dispatcher.  :meth:`score` never raises: every request gets either a
    :class:`RankedDiagnosis` or a typed exception in the returned list.
    """

    def __init__(
        self,
        service: DiagnosisService,
        config: SupervisorConfig = SupervisorConfig(),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.service = service
        self.config = config
        self.lifecycle = Lifecycle()
        self.breaker = CircuitBreaker(config.breaker, clock=clock)
        self._clock = clock
        self._primary = service.parallel
        self._backend = resolve_parallel(self._primary).backend
        self._rung: Optional[str] = None  # current override backend
        self._lock = threading.Lock()
        self._restore_thread: Optional[threading.Thread] = None
        self._batches = 0

    # -- admission -------------------------------------------------------

    def admit(self) -> Optional[str]:
        """``None`` to admit a request; else the typed-overloaded reason."""
        reason = self.breaker.allow()
        if reason is not None:
            obs.get_recorder().count("service.breaker.shed")
        return reason

    # -- supervised scoring ----------------------------------------------

    def score(
        self, requests: Sequence[DiagnosisRequest]
    ) -> List[Union[RankedDiagnosis, BaseException]]:
        """Score a micro-batch with per-group fault isolation.

        Requests are grouped exactly as
        :meth:`DiagnosisService.diagnose_batch` groups them, then each
        group is scored in its own engine call: a group that fails —
        plane death after the ladder is exhausted, a typed engine error,
        or an unexpected exception — poisons only its own requests,
        which receive a typed exception object in the result slot
        (anything untyped is wrapped as an ``internal``
        :class:`ServiceError`).  The batch outcome feeds the breaker.
        """
        recorder = obs.get_recorder()
        outcomes: List[Union[RankedDiagnosis, BaseException, None]]
        outcomes = [None] * len(requests)
        groups: Dict[Tuple[str, str], List[int]] = {}
        for index, request in enumerate(requests):
            key = (request.workload, request.error_function)
            groups.setdefault(key, []).append(index)
        start = self._clock()
        batch_ok = True
        with recorder.span("service.supervised_batch"):
            self._batches += 1
            batch_index = self._batches - 1
            for (name, function_name), indices in groups.items():
                sub = [requests[i] for i in indices]
                try:
                    answers = self._score_group(sub, batch_index)
                except Exception as error:
                    if not isinstance(error, _USER_ERRORS):
                        batch_ok = False
                    typed: BaseException = error
                    if not isinstance(error, ResilienceError):
                        typed = ServiceError(
                            f"internal failure scoring group "
                            f"({name}, {function_name}): {error}"
                        )
                    recorder.count("service.group_failures")
                    for i in indices:
                        outcomes[i] = typed
                    continue
                for i, answer in zip(indices, answers):
                    outcomes[i] = answer
        self.breaker.record(self._clock() - start, batch_ok)
        return [
            outcome
            if outcome is not None
            else ServiceError("request was never scored (supervisor bug)")
            for outcome in outcomes
        ]

    def _score_group(
        self, requests: Sequence[DiagnosisRequest], batch_index: int
    ) -> List[RankedDiagnosis]:
        """One group through the engine, walking the ladder on plane death."""
        recorder = obs.get_recorder()
        current = self._rung or self._backend
        rungs = (current,) + fallback_rungs(current)
        last: Optional[BaseException] = None
        for attempt, rung in enumerate(rungs):
            try:
                chaos.trip("service.batch", index=batch_index, attempt=attempt)
                if attempt:
                    self._degrade_to(rung)
                return self.service.diagnose_batch(requests)
            except _PLANE_FAILURES as error:
                recorder.count("service.supervision.plane_failures")
                last = error
                continue
        assert last is not None
        raise last

    # -- plane degradation and restore ------------------------------------

    def _degrade_to(self, rung: str) -> None:
        recorder = obs.get_recorder()
        with self._lock:
            self._rung = rung
            self.service.set_parallel(rung)
        recorder.count("service.supervision.fallbacks")
        recorder.count(f"service.supervision.fallback.{rung}")
        self.lifecycle.try_to("degraded")
        if self.config.auto_restore:
            self._schedule_restore()

    def _schedule_restore(self) -> None:
        with self._lock:
            if (
                self._restore_thread is not None
                and self._restore_thread.is_alive()
            ):
                return
            self._restore_thread = threading.Thread(
                target=self._restore_background,
                name="repro-service-restore",
                daemon=True,
            )
            self._restore_thread.start()

    def _restore_background(self) -> None:
        if self.config.restore_delay > 0:
            time.sleep(self.config.restore_delay)
        self.restore_plane()

    def restore_plane(self) -> bool:
        """Probe the primary plane; swap it back in on success.

        The probe is a trivial :func:`map_chunked` round trip on the
        primary configuration with retries and degradation *off* — a
        probe that silently degraded would report a healthy plane that
        is still broken.  On success the service's parallel plane reverts
        to the primary and the lifecycle recovers ``degraded -> ready``.
        """
        if self._rung is None:
            return True
        recorder = obs.get_recorder()
        try:
            probe = RetryPolicy(max_retries=0, jitter=0.0, degrade=False)
            map_chunked(
                _probe_chunk,
                None,
                4,
                config=resolve_parallel(self._primary),
                policy=probe,
            )
        except Exception:
            recorder.count("service.supervision.restore_failed")
            return False
        with self._lock:
            self._rung = None
            self.service.set_parallel(self._primary)
        recorder.count("service.supervision.restored")
        self.lifecycle.try_to("ready")
        return True

    # -- introspection ----------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self._rung is not None

    def health(self) -> Dict:
        """The ``op: health`` document: state, breaker, plane, counters."""
        return {
            "state": self.lifecycle.state,
            "ready": self.lifecycle.is_ready,
            "breaker": self.breaker.snapshot(),
            "plane": {
                "primary": self._backend,
                "current": self._rung or self._backend,
                "degraded": self._rung is not None,
            },
            "batches_supervised": self._batches,
        }
