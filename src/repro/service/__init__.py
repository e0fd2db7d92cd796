"""repro.service — diagnosis as a service (ROADMAP north-star layer).

The amortize-once/query-many serving stack over the core diagnosis
library:

* :class:`DiagnosisService` (:mod:`~repro.service.engine`) — a warm,
  thread-safe engine holding precompiled timing artifacts and fault
  dictionaries; ``diagnose_batch`` groups queries per (workload, error
  function) and scores them in one vectorized kernel call, bit-identical
  to the one-shot :func:`repro.core.diagnose` path,
* :class:`DiagnosisServer` (:mod:`~repro.service.server`) — the asyncio
  JSON-lines front end with a bounded queue, micro-batching dispatcher
  and typed backpressure/timeout errors (``repro serve``),
* :class:`ServiceClient` (:mod:`~repro.service.client`) — the thin
  synchronous client behind ``repro query``, with opt-in
  reconnect-and-retry (``retries=``),
* :class:`ServiceSupervisor` (:mod:`~repro.service.supervision`) — the
  self-healing layer: per-group degradation-ladder recovery from worker
  death, a sliding-window circuit breaker, the
  ``starting -> ready -> degraded -> draining -> stopped`` lifecycle,
  and hot dictionary reload,
* :mod:`~repro.service.errors` — the typed failure taxonomy and its
  stable wire tags (append-only; pinned by lint rule R605).

Dictionaries resolve through :func:`repro.core.cache.resolve_cache`;
point ``REPRO_CACHE_DIR`` at a directory to share warm dictionaries
across service processes as read-only mmapped store pages.
"""

from .engine import (
    DiagnosisRequest,
    DiagnosisService,
    RankedDiagnosis,
    Workload,
    draw_query_behaviors,
    standard_workload,
)
from .server import DiagnosisServer, ServerConfig
from .client import RemoteDiagnosis, ServiceClient
from .supervision import (
    BreakerConfig,
    CircuitBreaker,
    Lifecycle,
    ServiceSupervisor,
    SupervisorConfig,
)
from .errors import (
    BadRequestError,
    QueueFullError,
    RequestTimeoutError,
    ServiceConnectionError,
    ServiceDrainingError,
    ServiceError,
    UnknownWorkloadError,
    WorkloadReloadError,
)

__all__ = [
    "DiagnosisRequest",
    "DiagnosisService",
    "RankedDiagnosis",
    "Workload",
    "draw_query_behaviors",
    "standard_workload",
    "DiagnosisServer",
    "ServerConfig",
    "RemoteDiagnosis",
    "ServiceClient",
    "BreakerConfig",
    "CircuitBreaker",
    "Lifecycle",
    "ServiceSupervisor",
    "SupervisorConfig",
    "BadRequestError",
    "QueueFullError",
    "RequestTimeoutError",
    "ServiceConnectionError",
    "ServiceDrainingError",
    "ServiceError",
    "UnknownWorkloadError",
    "WorkloadReloadError",
]
