"""The asyncio JSON-lines front end of :class:`DiagnosisService`.

Protocol — one JSON object per line, both directions:

request::

    {"op": "diagnose", "id": 7, "workload": "s1196",
     "behavior": [[0,1,...], ...], "error_function": "alg_rev", "top_k": 5}
    {"op": "ping"}        {"op": "stats"}        {"op": "workloads"}
    {"op": "health"}      {"op": "ready"}
    {"op": "reload", "workload": "s1196"}

response::

    {"id": 7, "ok": true, "result": {"workload": "s1196",
     "method": "alg_rev", "version": 0,
     "ranking": [["a->b[0]", 0.25], ...]}}
    {"id": 7, "ok": false, "error": {"type": "overloaded", "message": "..."}}

``error.type`` tags are the stable wire taxonomy of
:mod:`repro.service.errors`.  Backpressure contract (documented in
``docs/architecture.md`` §15): diagnose requests land in a bounded
queue; when it is full the server answers ``overloaded`` *immediately*
instead of buffering — a saturated service degrades into fast typed
rejections, never unbounded memory.  A dispatcher task drains the queue
and micro-batches up to ``max_batch`` pending requests through the
:class:`~repro.service.supervision.ServiceSupervisor`, which scores each
``(workload, error_function)`` group in one vectorized engine call with
per-group fault isolation; batching never changes answers (the engine's
bit-identity contract), so rankings are stable however client streams
interleave.

Operational behavior (``docs/architecture.md`` §16): the supervisor's
circuit breaker sheds load with ``overloaded`` before the queue is
touched; per-connection write deadlines (``write_timeout``) disconnect
stalled readers so one slow client cannot wedge the dispatcher's answer
path; :meth:`DiagnosisServer.drain` stops accepting, flushes every
in-flight batch, answers every pending request, and stops — the SIGTERM
contract of ``repro serve``.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .. import obs
from ..core.error_functions import by_name
from ..resilience import chaos
from ..resilience.errors import ChaosError
from .engine import DiagnosisRequest, DiagnosisService
from .errors import (
    BadRequestError,
    RequestTimeoutError,
    ServiceDrainingError,
    ServiceError,
    wire_type,
)
from .supervision import ServiceSupervisor

__all__ = ["ServerConfig", "DiagnosisServer"]


@dataclass(frozen=True)
class ServerConfig:
    """Operational knobs of one server instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (tests); the bound port is exposed
    queue_limit: int = 64  # backpressure bound on queued diagnose requests
    max_batch: int = 16  # micro-batch cap per dispatcher drain
    request_timeout: float = 30.0  # seconds from enqueue to answer
    write_timeout: float = 10.0  # per-response write deadline (slow clients)
    drain_grace: float = 10.0  # seconds a graceful drain may flush for


class _SlowClientError(Exception):
    """Internal: a response write missed ``write_timeout``; drop the peer."""


@dataclass
class _Pending:
    request: DiagnosisRequest
    future: "asyncio.Future" = field(repr=False)
    enqueued_at: float = 0.0
    deadline: float = 0.0


class DiagnosisServer:
    """Bounded-queue asyncio server around a warm :class:`DiagnosisService`.

    ``supervisor`` defaults to a fresh
    :class:`~repro.service.supervision.ServiceSupervisor` over
    ``service``; pass one explicitly to share breaker/lifecycle state
    with the embedding process (the CLI does, for drain accounting).
    """

    def __init__(
        self,
        service: DiagnosisService,
        config: ServerConfig = ServerConfig(),
        supervisor: Optional[ServiceSupervisor] = None,
    ) -> None:
        self.service = service
        self.config = config
        self.supervisor = (
            supervisor if supervisor is not None else ServiceSupervisor(service)
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._connections: set = set()
        self._conn_seq = 0
        self._active_lines = 0  # requests between readline and written reply

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.supervisor.lifecycle.try_to("ready")

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Cancel live connection handlers so no coroutine outlives the
        # event loop (a GC'd suspended handler raises at interpreter
        # teardown otherwise).  Re-cancel survivors: asyncio.wait_for
        # (the slow-client write deadline) can swallow a cancellation
        # delivered in the same tick its inner awaitable completes
        # (bpo-42130), leaving the handler parked on the next readline
        # with the cancel already consumed.
        pending = set(self._connections)
        while pending:
            for task in pending:
                task.cancel()
            _done, pending = await asyncio.wait(pending, timeout=1.0)
        self._connections.clear()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        self.supervisor.lifecycle.try_to("stopped")

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, flush in-flight, stop.

        The SIGTERM contract of ``repro serve``: the listener closes
        first (no new connections), the lifecycle moves to ``draining``
        (new diagnose requests on existing connections get the typed
        ``draining`` error), and the dispatcher keeps scoring until the
        queue is empty and every accepted request has its reply written
        — bounded by ``drain_grace``.  Counters: ``service.drained``
        marks a completed drain, ``service.drain.flushed`` counts the
        requests answered while draining.
        """
        recorder = obs.get_recorder()
        self.supervisor.lifecycle.try_to("draining")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + self.config.drain_grace
        while time.monotonic() < deadline:
            queue_empty = self._queue is None or self._queue.empty()
            if queue_empty and self._active_lines == 0:
                break
            await asyncio.sleep(0.02)
        recorder.count("service.drained")
        await self.stop()

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- dispatcher -----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Drain the queue, micro-batching adjacent pending requests.

        The loop body is exception-proof: whatever goes wrong scoring a
        batch, every request in it is answered (typed errors from the
        supervisor, a wrapped ``internal`` error for anything that
        slips past) and the dispatcher lives on — a dead dispatcher
        would leave every queued client waiting out its timeout in
        silence.
        """
        assert self._queue is not None
        recorder = obs.get_recorder()
        while True:
            batch: List[_Pending] = [await self._queue.get()]
            while (
                len(batch) < self.config.max_batch
                and not self._queue.empty()
            ):
                batch.append(self._queue.get_nowait())
            try:
                self._dispatch_batch(batch, recorder)
            except Exception as error:
                recorder.count("service.dispatch_failures")
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(ServiceError(
                            f"internal dispatch failure: {error}"
                        ))

    def _dispatch_batch(self, batch: List[_Pending], recorder) -> None:
        now = time.monotonic()
        live: List[_Pending] = []
        for pending in batch:
            if pending.future.cancelled():
                continue
            if now > pending.deadline:
                pending.future.set_exception(RequestTimeoutError(
                    "request spent longer than "
                    f"{self.config.request_timeout:g}s queued"
                ))
                recorder.count("service.timeouts")
                continue
            live.append(pending)
        if not live:
            return
        with recorder.span("service.dispatch"):
            outcomes = self.supervisor.score(
                [pending.request for pending in live]
            )
        if self.supervisor.lifecycle.state == "draining":
            recorder.count("service.drain.flushed", len(live))
        for pending, outcome in zip(live, outcomes):
            if pending.future.done():
                continue
            if isinstance(outcome, BaseException):
                pending.future.set_exception(outcome)
            else:
                pending.future.set_result(outcome)

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        recorder = obs.get_recorder()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        conn_id = self._conn_seq
        self._conn_seq += 1
        try:
            # Accept-time fault injection: a `raise` event here models a
            # transport blow-up before the first byte is served.
            await chaos.async_trip("service.connection", index=conn_id,
                                   attempt=0)
            while True:
                line = await reader.readline()
                if not line:
                    break
                self._active_lines += 1
                try:
                    response = await self._handle_line(line, recorder)
                    await self._send(writer, response, conn_id, recorder)
                finally:
                    self._active_lines -= 1
        except _SlowClientError:
            pass  # already counted; just drop the peer
        except ChaosError:
            recorder.count("service.connection_faults")
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            # ``stop()`` cancels live handlers.  Nothing awaits this task
            # (it runs the root coroutine), so end it normally: the stream
            # protocol's done-callback calls ``task.exception()``, which
            # on a cancelled task raises and gets logged as an error.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _send(
        self, writer: asyncio.StreamWriter, response: dict, conn_id: int,
        recorder,
    ) -> None:
        """Write one response under the slow-client deadline.

        A reader that stalls past ``write_timeout`` with a full socket
        buffer is disconnected — the dispatcher's answer path must never
        block on one peer while others wait.
        """
        writer.write(json.dumps(response).encode() + b"\n")
        try:
            await asyncio.wait_for(
                self._drain_writer(writer, conn_id),
                timeout=self.config.write_timeout,
            )
        except asyncio.TimeoutError:
            recorder.count("service.slow_clients")
            raise _SlowClientError() from None

    async def _drain_writer(
        self, writer: asyncio.StreamWriter, conn_id: int
    ) -> None:
        # Write-time fault injection: a `hang` event (attempt 1) models
        # the stalled-reader backpressure the write deadline guards.
        await chaos.async_trip("service.connection", index=conn_id, attempt=1)
        await writer.drain()

    async def _handle_line(self, line: bytes, recorder) -> dict:
        request_id = None
        try:
            try:
                message = json.loads(line)
            except json.JSONDecodeError as exc:
                raise BadRequestError(f"bad JSON: {exc}") from None
            if not isinstance(message, dict):
                raise BadRequestError("request must be a JSON object")
            request_id = message.get("id")
            op = message.get("op")
            if op == "ping":
                return {"id": request_id, "ok": True, "result": "pong"}
            if op == "stats":
                return {
                    "id": request_id, "ok": True,
                    "result": self.service.stats(),
                }
            if op == "workloads":
                return {
                    "id": request_id, "ok": True,
                    "result": self.service.workload_names(),
                }
            if op == "health":
                return {
                    "id": request_id, "ok": True,
                    "result": self._health(),
                }
            if op == "ready":
                lifecycle = self.supervisor.lifecycle
                return {
                    "id": request_id, "ok": True,
                    "result": {
                        "ready": lifecycle.is_ready,
                        "state": lifecycle.state,
                    },
                }
            if op == "reload":
                workload = message.get("workload")
                if not isinstance(workload, str):
                    raise BadRequestError("reload needs a string 'workload'")
                version = self.service.reload(workload)
                return {
                    "id": request_id, "ok": True,
                    "result": {"workload": workload, "version": version},
                }
            if op != "diagnose":
                raise BadRequestError(f"unknown op {op!r}")
            return await self._handle_diagnose(message, request_id, recorder)
        except ServiceError as error:
            return self._error_response(request_id, error, recorder)
        except Exception as error:  # internal: never kill the connection
            return self._error_response(request_id, error, recorder)

    def _health(self) -> dict:
        health = self.supervisor.health()
        health["queue_depth"] = (
            0 if self._queue is None else self._queue.qsize()
        )
        return health

    async def _handle_diagnose(
        self, message: dict, request_id, recorder
    ) -> dict:
        assert self._queue is not None
        with recorder.span("service.request"):
            if not self.supervisor.lifecycle.accepting:
                return self._error_response(
                    request_id,
                    ServiceDrainingError(
                        "server is "
                        f"{self.supervisor.lifecycle.state}; "
                        "not accepting new diagnose requests"
                    ),
                    recorder,
                )
            shed = self.supervisor.admit()
            if shed is not None:
                recorder.count("service.overloaded")
                return {
                    "id": request_id, "ok": False,
                    "error": {"type": "overloaded", "message": shed},
                }
            request = self._parse_diagnose(message)
            loop = asyncio.get_event_loop()
            now = time.monotonic()
            pending = _Pending(
                request=request,
                future=loop.create_future(),
                enqueued_at=now,
                deadline=now + self.config.request_timeout,
            )
            try:
                self._queue.put_nowait(pending)
            except asyncio.QueueFull:
                recorder.count("service.overloaded")
                return {
                    "id": request_id, "ok": False,
                    "error": {
                        "type": "overloaded",
                        "message": (
                            "request queue is full "
                            f"({self.config.queue_limit} pending); retry"
                        ),
                    },
                }
            try:
                answer = await asyncio.wait_for(
                    pending.future, timeout=self.config.request_timeout
                )
            except asyncio.TimeoutError:
                recorder.count("service.timeouts")
                return self._error_response(
                    request_id,
                    RequestTimeoutError(
                        "no answer within "
                        f"{self.config.request_timeout:g}s"
                    ),
                    recorder,
                )
            top_k = message.get("top_k")
            ranking = answer.ranking if top_k is None else answer.ranking[:top_k]
            return {
                "id": request_id, "ok": True,
                "result": {
                    "workload": answer.workload,
                    "method": answer.method,
                    "version": answer.version,
                    "ranking": [
                        [str(edge), score] for edge, score in ranking
                    ],
                },
            }

    def _parse_diagnose(self, message: dict) -> DiagnosisRequest:
        workload = message.get("workload")
        if not isinstance(workload, str):
            raise BadRequestError("diagnose needs a string 'workload'")
        behavior = message.get("behavior")
        if behavior is None:
            raise BadRequestError("diagnose needs a 'behavior' matrix")
        try:
            matrix = np.asarray(behavior, dtype=float)
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"bad behavior matrix: {exc}") from None
        if matrix.ndim != 2:
            raise BadRequestError(
                f"behavior must be 2-D, got shape {matrix.shape}"
            )
        top_k = message.get("top_k")
        if top_k is not None and (not isinstance(top_k, int) or top_k < 1):
            raise BadRequestError("top_k must be a positive integer")
        error_function = message.get("error_function", "alg_rev")
        if not isinstance(error_function, str):
            raise BadRequestError("error_function must be a string name")
        try:
            by_name(error_function)
        except KeyError as exc:
            raise BadRequestError(str(exc)) from None
        # Reject unknown workloads and shape mismatches *before* the
        # queue: a bad request must fail alone, never poison the
        # micro-batch it would have been grouped into.
        expected = self.service.workload(workload).behavior_shape
        if matrix.shape != tuple(expected):
            raise BadRequestError(
                f"behavior shape {matrix.shape} != workload {workload!r} "
                f"shape {tuple(expected)}"
            )
        return DiagnosisRequest(
            workload=workload,
            behavior=matrix,
            error_function=error_function,
        )

    def _error_response(self, request_id, error, recorder) -> dict:
        tag = wire_type(error)
        recorder.count(f"service.errors.{tag}")
        return {
            "id": request_id, "ok": False,
            "error": {"type": tag, "message": str(error)},
        }
