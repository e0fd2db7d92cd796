"""Parallel execution substrate for the per-suspect simulation fan-out.

Dictionary construction is embarrassingly parallel across suspects: each
signature is a deterministic function of (timing model, base simulations,
suspect edge, size samples) and no suspect reads another's result.  The
same shape covers per-pattern base simulation.  This module provides the
executor abstraction those loops fan out through:

* ``serial`` — plain in-process loop (the default; zero overhead),
* ``process`` — a ``concurrent.futures.ProcessPoolExecutor`` of worker
  processes, the one pooled backend.

Work is sharded into *chunks of item indices*; the (potentially large)
shared payload — the timing model plus base simulations — is shipped to
each worker **once** via the pool initializer, not once per task.  Results
are reassembled in item order, so any reduction downstream sees exactly
the serial ordering: a parallel build is bit-identical to a serial one by
construction, never "close enough modulo float reduction order".

Execution is **fault-tolerant** (see :mod:`repro.resilience` and
``docs/architecture.md`` §11).  A :class:`~repro.resilience.RetryPolicy`
governs how failing chunks are handled:

* a retryable exception re-runs the chunk after a bounded exponential
  backoff with deterministic (seeded, never wall-clock) jitter; retried
  chunks are bit-identical because the worker body re-derives its RNG
  from the same SeedSequence spawn keys in the payload,
* a chunk that overruns its per-chunk deadline, or a pool whose worker
  was killed (``BrokenProcessPool``), degrades gracefully down the
  ladder process -> serial, re-running only incomplete chunks,
* exhausted budgets surface as typed errors
  (:class:`~repro.resilience.RetryExhaustedError`,
  :class:`~repro.resilience.ChunkTimeoutError`,
  :class:`~repro.resilience.WorkerPoolBrokenError`),
* ``KeyboardInterrupt`` cancels all pending chunks and shuts the pool
  down promptly instead of draining the queue.

Configuration resolves, in priority order: explicit ``ParallelConfig`` >
``REPRO_PARALLEL_BACKEND`` / ``REPRO_PARALLEL_WORKERS`` /
``REPRO_PARALLEL_CHUNK`` environment variables > serial default; the
retry policy resolves explicit ``RetryPolicy`` > ``REPRO_RETRY_*`` >
defaults (:func:`repro.resilience.resolve_retry`).
"""

from __future__ import annotations

import collections
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from .. import obs
from ..resilience import chaos
from ..resilience.errors import (
    ChunkTimeoutError,
    RetryExhaustedError,
    WorkerPoolBrokenError,
)
from ..resilience.policy import RetryPolicy, resolve_retry

__all__ = [
    "BACKENDS",
    "MIN_CHUNK_WORK",
    "ParallelConfig",
    "resolve_parallel",
    "chunk_indices",
    "map_chunked",
]

T = TypeVar("T")

#: Recognised backend names.
BACKENDS = ("serial", "process")

#: Environment knobs (also set by the CLI flags in ``repro.__main__``).
ENV_BACKEND = "REPRO_PARALLEL_BACKEND"
ENV_WORKERS = "REPRO_PARALLEL_WORKERS"
ENV_CHUNK = "REPRO_PARALLEL_CHUNK"

#: Granularity of the pooled wait loop (deadline checks, interrupt
#: responsiveness).  Small enough that Ctrl-C feels immediate, large
#: enough to cost nothing next to a simulation chunk.
_POLL_S = 0.05


@dataclass(frozen=True)
class ParallelConfig:
    """How to fan a per-item loop out.

    ``n_workers`` ``None`` means "one per available CPU"; ``chunk_size``
    ``None`` means "one chunk when serial, else ~4 per worker" (small
    chunks balance load, large chunks amortize dispatch).
    """

    backend: str = "serial"
    n_workers: Optional[int] = None
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown parallel backend {self.backend!r}; "
                f"expected one of {BACKENDS}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ValueError("n_workers must be positive")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")

    @property
    def is_serial(self) -> bool:
        return self.backend == "serial" or self.workers == 1

    @property
    def workers(self) -> int:
        if self.backend == "serial":
            return 1
        if self.n_workers is not None:
            return self.n_workers
        return max(os.cpu_count() or 1, 1)


def resolve_parallel(
    config: Optional[Union[ParallelConfig, str]] = None,
) -> ParallelConfig:
    """Normalize a caller-supplied configuration.

    ``None`` falls back to the ``REPRO_PARALLEL_*`` environment (serial
    when unset); a bare string is shorthand for a backend name.
    """
    if isinstance(config, ParallelConfig):
        return config
    if isinstance(config, str):
        return ParallelConfig(backend=config)
    backend = os.environ.get(ENV_BACKEND, "").strip()
    if not backend:
        return ParallelConfig()
    workers = os.environ.get(ENV_WORKERS, "").strip()
    chunk = os.environ.get(ENV_CHUNK, "").strip()
    return ParallelConfig(
        backend=backend,
        n_workers=int(workers) if workers else None,
        chunk_size=int(chunk) if chunk else None,
    )


#: Minimum work units (item count × per-item work) a pooled chunk should
#: carry before its dispatch/pickling overhead is worth paying.
#: Count-based chunking split small per-suspect work into many tiny
#: tasks; work-aware sizing merges those into fewer, larger chunks.
#: BENCH_parallel.json still shows process pools losing to serial on
#: plain builds: the pool's fixed start-up cost exceeds the whole build.
MIN_CHUNK_WORK = 32_768


def chunk_indices(
    n_items: int,
    chunk_size: Optional[int],
    n_workers: int,
    work_per_item: Optional[float] = None,
) -> List[range]:
    """Shard ``range(n_items)`` into contiguous chunks, order-preserving.

    With ``chunk_size=None`` one worker takes all items in one chunk (a
    dictionary chunk replays each pattern's suspects together); more
    workers split them into roughly ``4 * n_workers`` equal chunks —
    and, when the caller declares ``work_per_item`` (for dictionary
    construction: patterns × samples per suspect), never into chunks
    carrying less than :data:`MIN_CHUNK_WORK` work units, so
    small-granularity workloads produce few large chunks instead of many
    dispatch-dominated ones.  An explicit ``chunk_size`` always wins.
    Chunk sizes above ``n_items`` simply yield one chunk — callers may
    pass any positive value.
    """
    if n_items <= 0:
        return []
    if chunk_size is None and n_workers <= 1:
        chunk_size = n_items
    elif chunk_size is None:
        chunk_size = max(1, -(-n_items // max(4 * n_workers, 1)))
        if work_per_item is not None and work_per_item > 0:
            work_floor = int(-(-MIN_CHUNK_WORK // work_per_item))
            chunk_size = max(chunk_size, min(work_floor, n_items))
    return [
        range(start, min(start + chunk_size, n_items))
        for start in range(0, n_items, chunk_size)
    ]


# ----------------------------------------------------------------------
# worker-side state: the shared payload is installed once per worker by
# the pool initializer, so each task message carries only an index range.
# ----------------------------------------------------------------------
_WORKER_FN: Optional[Callable] = None
_WORKER_PAYLOAD = None
_WORKER_METRICS = False


@dataclass
class _MetricsShard:
    """A chunk result bundled with the worker-side metrics snapshot.

    Process-pool workers cannot record into the parent's recorder, so each
    chunk runs under a private worker recorder whose snapshot rides home
    with the results and is merged by :func:`map_chunked`.  Only the
    metrics payload differs between shards of the same run; the ``items``
    are exactly what an uninstrumented worker would have returned.
    """

    items: List
    metrics: dict


def _init_worker(
    fn: Callable, payload, metrics: bool = False, chaos_plan=None
) -> None:
    global _WORKER_FN, _WORKER_PAYLOAD, _WORKER_METRICS
    _WORKER_FN = fn
    _WORKER_PAYLOAD = payload
    _WORKER_METRICS = metrics
    if chaos_plan is not None:
        chaos.install(chaos_plan)


def _run_chunk_task(task: Tuple[Sequence[int], int]):
    """Process-pool task body: run one (chunk, attempt) on worker state."""
    indices, attempt = task
    assert _WORKER_FN is not None, "worker pool used before initialization"
    chaos.trip(
        "parallel.chunk",
        index=indices[0] if indices else None,
        attempt=attempt,
    )
    if not _WORKER_METRICS:
        return _WORKER_FN(_WORKER_PAYLOAD, list(indices))
    recorder = obs.Recorder()
    with obs.use_recorder(recorder):
        with recorder.span("parallel.chunk"):
            items = _WORKER_FN(_WORKER_PAYLOAD, list(indices))
    return _MetricsShard(items, recorder.snapshot())


# ----------------------------------------------------------------------
# the resilient driver
# ----------------------------------------------------------------------
#: Sentinel marking a chunk slot whose result has not been produced yet.
_PENDING = object()


@dataclass
class _TaskInfo:
    """Parent-side bookkeeping for one in-flight pooled chunk."""

    index: int
    attempt: int
    started: Optional[float] = None  # first time the future was seen running


def _terminate_workers(executor) -> None:
    """Best-effort kill of a process pool's workers (hung/abandoned pool).

    Reaches into ``ProcessPoolExecutor._processes`` — stable since 3.7 —
    so an abandoned pool does not leave a hung worker alive for minutes.
    """
    processes = getattr(executor, "_processes", None)
    if not processes:
        return
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass


def _abandon(executor) -> None:
    executor.shutdown(wait=False, cancel_futures=True)
    _terminate_workers(executor)


def _run_serial_rung(
    fn: Callable,
    payload,
    chunks: List[range],
    pending: List[int],
    results: List,
    attempts: List[int],
    policy: RetryPolicy,
    recorder,
) -> None:
    """The ladder's last rung: in-process, retryable, cannot break."""
    for index in pending:
        chunk = chunks[index]
        while True:
            try:
                chaos.trip(
                    "parallel.chunk",
                    index=chunk[0] if chunk else None,
                    attempt=attempts[index],
                )
                results[index] = fn(payload, list(chunk))
                break
            except KeyboardInterrupt:
                raise
            except BaseException as error:
                if not policy.is_retryable(error):
                    raise
                if attempts[index] >= policy.max_retries:
                    raise RetryExhaustedError(
                        f"chunk {index} failed after "
                        f"{attempts[index] + 1} attempts: {error}",
                        chunk=index,
                        attempts=attempts[index] + 1,
                    ) from error
                attempts[index] += 1
                recorder.count("resilience.retries")
                policy.wait(index, attempts[index])


def _run_pool_rung(
    fn: Callable,
    payload,
    chunks: List[range],
    pending: List[int],
    results: List,
    attempts: List[int],
    workers: int,
    policy: RetryPolicy,
    recorder,
) -> bool:
    """Run the pending chunks on the process pool.

    Returns ``True`` when every pending chunk completed, ``False`` when
    the pool had to be abandoned (worker killed, or a hung chunk past
    its deadline) and the survivors should re-run on the serial rung.
    Chunk-level failures retry in place; non-retryable ones propagate.
    """
    import concurrent.futures as cf

    executor = cf.ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(fn, payload, recorder.enabled, chaos.get_plan()),
    )

    in_flight: Dict = {}
    waiting = collections.deque(pending)
    # Under a deadline, at most ``workers`` chunks are in flight: the
    # executor marks a future running once it enters its call queue
    # (``workers + 1`` deep), so a deeper backlog would start the clock
    # of a chunk that no worker has taken yet.
    limit = workers if policy.chunk_timeout is not None else len(pending)

    def top_up() -> None:
        while waiting and len(in_flight) < limit:
            index = waiting.popleft()
            future = executor.submit(
                _run_chunk_task, (list(chunks[index]), attempts[index])
            )
            in_flight[future] = _TaskInfo(index, attempts[index])

    try:
        top_up()
        broken = False
        while in_flight and not broken:
            done, _not_done = cf.wait(
                in_flight, timeout=_POLL_S, return_when=cf.FIRST_COMPLETED
            )
            resubmit: List[int] = []
            for future in done:
                info = in_flight.pop(future)
                try:
                    results[info.index] = future.result()
                except KeyboardInterrupt:
                    raise
                except cf.BrokenExecutor:
                    # The chunk stays pending; bump its attempt so chaos
                    # events gated on the first attempt do not re-fire on
                    # the next rung.
                    attempts[info.index] += 1
                    broken = True
                except cf.CancelledError:
                    # Cancelled by the abandon path below; stays pending.
                    pass
                except BaseException as error:
                    if not policy.is_retryable(error):
                        raise
                    if attempts[info.index] >= policy.max_retries:
                        raise RetryExhaustedError(
                            f"chunk {info.index} failed after "
                            f"{attempts[info.index] + 1} attempts: {error}",
                            chunk=info.index,
                            attempts=attempts[info.index] + 1,
                        ) from error
                    attempts[info.index] += 1
                    recorder.count("resilience.retries")
                    policy.wait(info.index, attempts[info.index])
                    resubmit.append(info.index)
            if broken:
                break
            waiting.extendleft(reversed(resubmit))
            top_up()
            if policy.chunk_timeout is None:
                continue
            now = time.perf_counter()
            for future, info in list(in_flight.items()):
                # Deadlines measure *execution* time: the clock starts
                # when the future is first observed running, and with no
                # more chunks in flight than workers, a running future
                # has a worker, so waiting chunks never falsely expire.
                if info.started is None:
                    if future.running():
                        info.started = now
                    continue
                if now - info.started <= policy.chunk_timeout:
                    continue
                recorder.count("resilience.timeouts")
                if future.cancel():
                    # Raced to completion-queue; just re-run it here.
                    in_flight.pop(future)
                    attempts[info.index] += 1
                    waiting.appendleft(info.index)
                else:
                    # Genuinely hung worker: the slot is unrecoverable,
                    # abandon the whole pool and let the ladder re-run
                    # whatever did not finish.
                    _abandon(executor)
                    for other in in_flight.values():
                        attempts[other.index] += 1
                    return False
            top_up()
        if broken:
            recorder.count("resilience.broken_pools")
            _abandon(executor)
            for other in in_flight.values():
                attempts[other.index] += 1
            return False
        executor.shutdown(wait=True)
        return True
    except KeyboardInterrupt:
        # Ctrl-C must not drain the queue: cancel everything pending and
        # shut the pool down now.
        _abandon(executor)
        raise
    except BaseException:
        _abandon(executor)
        raise


def map_chunked(
    fn: Callable,
    payload,
    n_items: int,
    config: Optional[Union[ParallelConfig, str]] = None,
    policy: Optional[RetryPolicy] = None,
    work_per_item: Optional[float] = None,
) -> List:
    """Run ``fn(payload, indices)`` over chunked indices; flatten in order.

    ``fn`` must be a module-level function returning one result per index
    in the chunk (in chunk order); ``payload`` must be picklable for the
    process backend.  The flattened result list is aligned with
    ``range(n_items)`` regardless of completion order, which is what makes
    parallel runs reproduce serial runs exactly.

    ``work_per_item`` is an optional cost hint (work units per index)
    that lets auto-chunking respect :data:`MIN_CHUNK_WORK`; it never
    changes results, only how indices group into tasks.

    ``policy`` (a :class:`repro.resilience.RetryPolicy`; defaults to the
    ``REPRO_RETRY_*`` environment) adds per-chunk retries with
    deterministic backoff, per-chunk deadlines and graceful degradation
    process -> serial — all result-preserving: a recovered run
    returns exactly what an undisturbed one would have.
    """
    config = resolve_parallel(config)
    policy = resolve_retry(policy)
    recorder = obs.get_recorder()
    chunks = chunk_indices(
        n_items, config.chunk_size, config.workers, work_per_item
    )
    if not chunks:
        return []

    results: List = [_PENDING] * len(chunks)
    attempts: List[int] = [0] * len(chunks)
    all_indices = list(range(len(chunks)))

    if config.is_serial or len(chunks) == 1:
        with recorder.span("parallel.map"):
            _run_serial_rung(
                fn, payload, chunks, all_indices, results, attempts,
                policy, recorder,
            )
        recorder.count("parallel.serial.chunks", len(chunks))
        recorder.count("parallel.serial.items", n_items)
        return _flatten(results, recorder)

    workers = min(config.workers, len(chunks))
    # The ladder below the pool: the serial rung, or nothing when
    # degradation is off.
    fallback = policy.ladder(config.backend)[1:]
    with recorder.span("parallel.map"):
        if not _run_pool_rung(
            fn, payload, chunks, all_indices, results, attempts,
            workers, policy, recorder,
        ):
            pending = [i for i in all_indices if results[i] is _PENDING]
            if not fallback:
                # The pool was abandoned (hung chunk or broken pool) and
                # there is no rung to re-run its chunks on.
                if policy.chunk_timeout is not None:
                    raise ChunkTimeoutError(
                        f"{len(pending)} chunk(s) did not complete on the "
                        f"{config.backend!r} backend (degradation disabled)",
                        chunk=pending[0],
                        timeout_s=policy.chunk_timeout,
                    )
                raise WorkerPoolBrokenError(
                    f"worker pool of the {config.backend!r} backend broke "
                    f"with {len(pending)} chunk(s) incomplete "
                    "(degradation disabled)"
                )
            recorder.count("resilience.fallbacks")
            recorder.count(f"resilience.fallback.{fallback[0]}")
            _run_serial_rung(
                fn, payload, chunks, pending, results, attempts,
                policy, recorder,
            )
    recorder.count(f"parallel.{config.backend}.chunks", len(chunks))
    recorder.count(f"parallel.{config.backend}.items", n_items)
    recorder.gauge("parallel.workers", workers)
    return _flatten(results, recorder)


def _flatten(results: List, recorder) -> List:
    """Reassemble chunk results in chunk (= item) order.

    Chunks are contiguous ascending ranges, so concatenation in chunk
    order is already item order.
    """
    flattened = []
    for chunk_result in results:
        if isinstance(chunk_result, _MetricsShard):
            recorder.merge(chunk_result.metrics)
            chunk_result = chunk_result.items
        flattened.extend(chunk_result)
    return flattened
