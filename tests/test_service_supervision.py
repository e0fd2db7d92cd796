"""Acceptance suite for the self-healing serving plane (supervision).

The load-bearing contracts of the supervision layer:

* **Chaos proof** — a ``service.batch:kill`` event (the compute plane
  dying under a micro-batch) is absorbed by the degradation ladder and
  the batch's answers are *bit-identical* to a no-chaos run.
* **Hot reload** — a dictionary swap under concurrent queries never
  yields a mixed-generation ranking: every answer's ranking matches the
  reference for the generation its ``version`` tag names.
* **Lifecycle + admission** — the state machine only walks legal edges,
  the circuit breaker sheds with typed ``overloaded`` errors, draining
  answers everything already accepted, and the dispatcher never leaves a
  request unanswered.
"""

import asyncio
import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro import obs
from repro.core.cache import DictionaryStore
from repro.resilience import WorkerPoolBrokenError, chaos
from repro.resilience.chaos import ChaosEvent, ChaosPlan, chaos_active
from repro.resilience.policy import RetryPolicy
from repro.service import (
    BadRequestError,
    BreakerConfig,
    CircuitBreaker,
    DiagnosisRequest,
    DiagnosisServer,
    DiagnosisService,
    Lifecycle,
    QueueFullError,
    RequestTimeoutError,
    ServerConfig,
    ServiceClient,
    ServiceConnectionError,
    ServiceDrainingError,
    ServiceError,
    ServiceSupervisor,
    SupervisorConfig,
    WorkloadReloadError,
    draw_query_behaviors,
    standard_workload,
)

WORKLOAD = "s27"


@pytest.fixture(scope="module")
def workload_and_model():
    return standard_workload(WORKLOAD, samples=100, seed=1)


@pytest.fixture(scope="module")
def behaviors(workload_and_model):
    workload, model = workload_and_model
    return draw_query_behaviors(workload, model, 4, seed=50)


def _fresh(workload):
    return dataclasses.replace(workload, dictionary=None)


def _service(workload, **kwargs) -> DiagnosisService:
    service = DiagnosisService(**kwargs)
    service.register(_fresh(workload))
    return service


def _requests(behaviors, error_function="alg_rev"):
    return [
        DiagnosisRequest(WORKLOAD, behavior, error_function)
        for behavior in behaviors
    ]


# ----------------------------------------------------------------------
# lifecycle state machine
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_nominal_walk_and_history(self):
        lifecycle = Lifecycle()
        assert lifecycle.state == "starting"
        assert lifecycle.accepting and not lifecycle.is_ready
        lifecycle.to("ready")
        assert lifecycle.accepting and lifecycle.is_ready
        lifecycle.to("degraded")
        assert lifecycle.accepting and lifecycle.is_ready
        lifecycle.to("ready")
        lifecycle.to("draining")
        assert not lifecycle.accepting and not lifecycle.is_ready
        lifecycle.to("stopped")
        assert lifecycle.snapshot()["history"] == [
            "starting", "ready", "degraded", "ready", "draining", "stopped",
        ]

    def test_same_state_is_idempotent(self):
        lifecycle = Lifecycle()
        lifecycle.to("ready")
        lifecycle.to("ready")
        assert lifecycle.history == ["starting", "ready"]

    @pytest.mark.parametrize(
        "path, illegal",
        [
            (("ready", "draining"), "ready"),
            (("ready", "draining"), "degraded"),
            (("ready", "stopped"), "ready"),
            (("ready", "stopped"), "draining"),
        ],
    )
    def test_illegal_transitions_raise(self, path, illegal):
        lifecycle = Lifecycle()
        for state in path:
            lifecycle.to(state)
        with pytest.raises(ValueError, match="illegal lifecycle transition"):
            lifecycle.to(illegal)
        assert lifecycle.state == path[-1]

    def test_unknown_state_raises(self):
        with pytest.raises(ValueError, match="unknown lifecycle state"):
            Lifecycle().to("zombie")

    def test_try_to_is_lenient(self):
        lifecycle = Lifecycle()
        lifecycle.to("draining")
        assert lifecycle.try_to("ready") is False
        assert lifecycle.state == "draining"
        assert lifecycle.try_to("stopped") is True

    def test_transitions_are_counted(self):
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            lifecycle = Lifecycle()
            lifecycle.to("ready")
            lifecycle.to("draining")
            lifecycle.to("stopped")
        assert recorder.counter_value("service.state.ready") == 1
        assert recorder.counter_value("service.state.draining") == 1
        assert recorder.counter_value("service.state.stopped") == 1


# ----------------------------------------------------------------------
# circuit breaker (driven by an injectable clock — no sleeping)
# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def _breaker(self, **config):
        clock = _FakeClock()
        defaults = dict(window=8, min_samples=4, cooldown=10.0)
        defaults.update(config)
        return CircuitBreaker(BreakerConfig(**defaults), clock=clock), clock

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(window=0)
        with pytest.raises(ValueError):
            BreakerConfig(max_failure_rate=0.0)
        with pytest.raises(ValueError):
            BreakerConfig(max_p95_latency=-1.0)

    def test_stays_closed_below_min_samples(self):
        breaker, _clock = self._breaker()
        for _ in range(3):  # three failures, but min_samples is 4
            breaker.record(0.01, ok=False)
        assert breaker.state == "closed"
        assert breaker.allow() is None

    def test_failure_rate_trips_and_cooldown_half_opens(self):
        breaker, clock = self._breaker()
        for _ in range(4):
            breaker.record(0.01, ok=False)
        assert breaker.state == "open"
        reason = breaker.allow()
        assert reason is not None and "failure rate" in reason
        # inside the cooldown: still shedding
        clock.now += 5.0
        assert breaker.allow() is not None
        # past the cooldown: exactly one probe admitted, then shed again
        clock.now += 6.0
        assert breaker.allow() is None
        assert breaker.state == "half_open"
        assert breaker.allow() is not None  # probe in flight
        breaker.record(0.01, ok=True)
        assert breaker.state == "closed"
        assert breaker.allow() is None

    def test_half_open_failure_reopens(self):
        breaker, clock = self._breaker()
        for _ in range(4):
            breaker.record(0.01, ok=False)
        clock.now += 11.0
        assert breaker.allow() is None  # the probe
        breaker.record(0.01, ok=False)
        assert breaker.state == "open"
        assert breaker.allow() is not None

    def test_p95_latency_gate(self):
        breaker, _clock = self._breaker(max_p95_latency=0.5)
        for _ in range(7):
            breaker.record(0.01, ok=True)
        assert breaker.state == "closed"
        breaker.record(2.0, ok=True)  # p95 over a window of 8 is the max
        assert breaker.state == "open"
        assert "p95" in breaker.allow()

    def test_snapshot_shape(self):
        breaker, _clock = self._breaker()
        breaker.record(0.2, ok=False)
        snapshot = breaker.snapshot()
        assert snapshot["state"] == "closed"
        assert snapshot["window"] == 1
        assert snapshot["failures"] == 1
        assert snapshot["p95_latency"] == 0.2


# ----------------------------------------------------------------------
# supervised scoring: the chaos proof
# ----------------------------------------------------------------------
class TestSupervisedScoring:
    def _supervisor(self, workload, parallel="process", **config):
        service = _service(workload, parallel=parallel)
        service.warm(WORKLOAD)
        supervisor = ServiceSupervisor(
            service, SupervisorConfig(auto_restore=False, **config)
        )
        supervisor.lifecycle.to("ready")
        return supervisor

    def test_chaos_kill_batch_answers_bit_identical(
        self, workload_and_model, behaviors
    ):
        """``service.batch:kill`` → the ladder absorbs the dead plane and
        the batch's rankings equal a no-chaos run bit-for-bit."""
        workload, _model = workload_and_model
        reference = self._supervisor(workload).score(_requests(behaviors))
        assert all(not isinstance(r, BaseException) for r in reference)

        recorder = obs.Recorder()
        supervisor = self._supervisor(workload)
        plan = ChaosPlan((
            ChaosEvent("service.batch", "kill", attempts=(0,)),
        ))
        with obs.use_recorder(recorder), chaos_active(plan):
            outcomes = supervisor.score(_requests(behaviors))
        assert all(not isinstance(o, BaseException) for o in outcomes)
        for got, want in zip(outcomes, reference):
            assert got.ranking == want.ranking
        assert supervisor.degraded
        assert supervisor.lifecycle.state == "degraded"
        assert recorder.counter_value("service.supervision.plane_failures") == 1
        assert recorder.counter_value("service.supervision.fallbacks") == 1
        assert recorder.counter_value("service.supervision.fallback.serial") == 1
        assert supervisor.health()["plane"] == {
            "primary": "process", "current": "serial", "degraded": True,
        }

    def test_ladder_exhausted_yields_typed_errors(
        self, workload_and_model, behaviors
    ):
        workload, _model = workload_and_model
        supervisor = self._supervisor(workload)
        plan = ChaosPlan((
            ChaosEvent("service.batch", "kill", times=None),  # every attempt
        ))
        recorder = obs.Recorder()
        with obs.use_recorder(recorder), chaos_active(plan):
            outcomes = supervisor.score(_requests(behaviors))
        assert all(isinstance(o, WorkerPoolBrokenError) for o in outcomes)
        assert recorder.counter_value("service.group_failures") == 1
        assert supervisor.breaker.snapshot()["failures"] == 1

    def test_restore_plane_recovers_primary(self, workload_and_model,
                                            behaviors):
        workload, _model = workload_and_model
        supervisor = self._supervisor(workload)
        plan = ChaosPlan((
            ChaosEvent("service.batch", "kill", attempts=(0,)),
        ))
        with chaos_active(plan):
            supervisor.score(_requests(behaviors))
        assert supervisor.degraded
        assert supervisor.service.parallel == "serial"
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            assert supervisor.restore_plane() is True
        assert not supervisor.degraded
        assert supervisor.service.parallel == "process"
        assert supervisor.lifecycle.state == "ready"
        assert recorder.counter_value("service.supervision.restored") == 1
        # idempotent when healthy
        assert supervisor.restore_plane() is True

    def test_group_failure_is_isolated(self, workload_and_model, behaviors):
        """A poisoned group answers typed; the healthy group still scores."""
        workload, _model = workload_and_model
        supervisor = self._supervisor(workload)
        good = _requests(behaviors[:2], "alg_rev")
        bad = [
            DiagnosisRequest(WORKLOAD, np.zeros((2, 2)), "method_I")
        ]
        outcomes = supervisor.score(good + bad + good[:1])
        assert isinstance(outcomes[0].ranking, list)
        assert isinstance(outcomes[1].ranking, list)
        assert isinstance(outcomes[2], BadRequestError)
        assert isinstance(outcomes[3].ranking, list)
        # a user error is not a service failure for breaker accounting
        assert supervisor.breaker.snapshot()["failures"] == 0

    def test_unexpected_errors_wrap_as_internal(
        self, workload_and_model, behaviors, monkeypatch
    ):
        workload, _model = workload_and_model
        supervisor = self._supervisor(workload)
        monkeypatch.setattr(
            supervisor.service, "diagnose_batch",
            lambda requests: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        outcomes = supervisor.score(_requests(behaviors[:1]))
        assert isinstance(outcomes[0], ServiceError)
        assert not isinstance(outcomes[0], BadRequestError)
        assert "internal failure scoring group" in str(outcomes[0])
        assert supervisor.breaker.snapshot()["failures"] == 1

    def test_admit_counts_shed(self, workload_and_model):
        workload, _model = workload_and_model
        service = _service(workload)
        clock = _FakeClock()
        supervisor = ServiceSupervisor(
            service,
            SupervisorConfig(
                breaker=BreakerConfig(min_samples=1, cooldown=60.0),
                auto_restore=False,
            ),
            clock=clock,
        )
        assert supervisor.admit() is None
        supervisor.breaker.record(0.01, ok=False)
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            reason = supervisor.admit()
        assert reason is not None
        assert recorder.counter_value("service.breaker.shed") == 1


# ----------------------------------------------------------------------
# hot reload
# ----------------------------------------------------------------------
class TestHotReload:
    def _store_backed(self, tmp_path, workload):
        store = DictionaryStore(tmp_path / "store")
        service = _service(workload, cache=store)
        service.warm(WORKLOAD)
        return service, store

    def _rewrite_entry(self, service, store, scale=2.0):
        """Rewrite the workload's store entry with perturbed signatures."""
        key = service.cache_key(WORKLOAD)
        stack = store.load(key)
        assert stack is not None
        signatures = [np.asarray(s) * scale for s in stack[1:]]
        store.store(key, np.asarray(stack[0]), signatures)
        return key

    def test_reload_swaps_generation_and_answers(
        self, tmp_path, workload_and_model, behaviors
    ):
        workload, _model = workload_and_model
        service, store = self._store_backed(tmp_path, workload)
        before = service.diagnose_batch(_requests(behaviors))
        assert all(a.version == 0 for a in before)

        self._rewrite_entry(service, store)
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            version = service.reload(WORKLOAD)
        assert version == 1
        assert recorder.counter_value("service.reloads") == 1
        after = service.diagnose_batch(_requests(behaviors))
        assert all(a.version == 1 for a in after)
        # perturbed signatures genuinely change the scoring
        assert any(
            a.ranking != b.ranking for a, b in zip(after, before)
        )
        assert service.stats()["workloads"][WORKLOAD]["version"] == 1

    def test_reload_without_store_is_typed(self, workload_and_model):
        workload, _model = workload_and_model
        service = _service(workload)
        with pytest.raises(WorkloadReloadError, match="no cache directory"):
            service.reload(WORKLOAD)

    def test_invalid_manifest_keeps_old_generation(
        self, tmp_path, workload_and_model, behaviors
    ):
        workload, _model = workload_and_model
        service, store = self._store_backed(tmp_path, workload)
        before = service.diagnose_batch(_requests(behaviors))
        key = service.cache_key(WORKLOAD)
        manifest_path = os.path.join(str(tmp_path / "store"),
                                     f"dict_{key}.json")
        assert os.path.exists(manifest_path)
        chaos.corrupt_file(manifest_path, mode="garbage")
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            with pytest.raises(WorkloadReloadError, match="generation 0"):
                service.reload(WORKLOAD)
        assert recorder.counter_value("service.reload.failed") == 1
        # the old mapping keeps serving, bit-identically
        after = service.diagnose_batch(_requests(behaviors))
        for got, want in zip(after, before):
            assert got.version == 0
            assert got.ranking == want.ranking

    def test_chaos_store_load_is_typed(self, tmp_path, workload_and_model):
        workload, _model = workload_and_model
        service, _store = self._store_backed(tmp_path, workload)
        plan = ChaosPlan((ChaosEvent("service.store_load", "raise"),))
        with chaos_active(plan):
            with pytest.raises(WorkloadReloadError):
                service.reload(WORKLOAD)
        assert service.workload(WORKLOAD).version == 0

    def test_concurrent_queries_never_see_mixed_generation(
        self, tmp_path, workload_and_model, behaviors
    ):
        """The acceptance proof: reload under fire, every reply's ranking
        is consistent with the generation its version tag names."""
        workload, _model = workload_and_model
        service, store = self._store_backed(tmp_path, workload)
        reference = {
            0: [a.ranking for a in service.diagnose_batch(_requests(behaviors))]
        }
        self._rewrite_entry(service, store)

        answers = []
        errors = []
        stop = threading.Event()

        def hammer():
            try:
                while not stop.is_set():
                    answers.extend(
                        service.diagnose_batch(_requests(behaviors))
                    )
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        assert service.reload(WORKLOAD) == 1
        time.sleep(0.05)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        reference[1] = [
            a.ranking for a in service.diagnose_batch(_requests(behaviors))
        ]
        assert len(answers) > 0
        seen_versions = set()
        for index, answer in enumerate(answers):
            seen_versions.add(answer.version)
            want = reference[answer.version][index % len(behaviors)]
            assert answer.ranking == want, (
                f"answer {index} tagged generation {answer.version} does "
                "not match that generation's reference ranking"
            )
        assert 1 in seen_versions  # the reload landed under fire


# ----------------------------------------------------------------------
# server integration: draining, shedding, slow clients, never-silent
# ----------------------------------------------------------------------
@contextmanager
def _threaded_server(service, supervisor=None, **config_kwargs):
    loop = asyncio.new_event_loop()
    started = threading.Event()
    stop = loop.create_future()
    server = DiagnosisServer(
        service, ServerConfig(port=0, **config_kwargs), supervisor=supervisor
    )

    async def _run():
        await server.start()
        started.set()
        await stop
        await server.stop()

    thread = threading.Thread(
        target=loop.run_until_complete, args=(_run(),), daemon=True
    )
    thread.start()
    assert started.wait(timeout=30), "server failed to start"
    try:
        yield server, loop
    finally:
        loop.call_soon_threadsafe(stop.set_result, None)
        thread.join(timeout=30)
        loop.close()


class TestServerOperations:
    def test_health_and_ready_ops(self, workload_and_model, behaviors):
        workload, _model = workload_and_model
        service = _service(workload)
        service.warm_all()
        with _threaded_server(service) as (server, _loop):
            with ServiceClient("127.0.0.1", server.port) as client:
                ready = client.ready()
                assert ready == {"ready": True, "state": "ready"}
                health = client.health()
                assert health["state"] == "ready"
                assert health["breaker"]["state"] == "closed"
                assert health["plane"]["degraded"] is False
                assert health["queue_depth"] == 0
                client.diagnose(WORKLOAD, behaviors[0])
                assert client.health()["batches_supervised"] >= 1

    def test_open_breaker_sheds_with_overloaded(
        self, workload_and_model, behaviors
    ):
        workload, _model = workload_and_model
        service = _service(workload)
        service.warm_all()
        supervisor = ServiceSupervisor(service, SupervisorConfig(
            breaker=BreakerConfig(min_samples=1, cooldown=600.0),
            auto_restore=False,
        ))
        supervisor.breaker.record(0.01, ok=False)  # trip it
        assert supervisor.breaker.state == "open"
        with _threaded_server(service, supervisor=supervisor) as (server, _):
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(QueueFullError, match="circuit breaker"):
                    client.diagnose(WORKLOAD, behaviors[0])
                assert client.ping()  # non-diagnose ops still served
                assert client.health()["breaker"]["state"] == "open"

    def test_draining_rejects_new_diagnose_typed(
        self, workload_and_model, behaviors
    ):
        workload, _model = workload_and_model
        service = _service(workload)
        service.warm_all()
        with _threaded_server(service) as (server, _loop):
            with ServiceClient("127.0.0.1", server.port) as client:
                client.diagnose(WORKLOAD, behaviors[0])
                server.supervisor.lifecycle.to("draining")
                with pytest.raises(ServiceDrainingError, match="draining"):
                    client.diagnose(WORKLOAD, behaviors[0])
                # introspection ops still answer while draining
                assert client.ready() == {
                    "ready": False, "state": "draining",
                }

    def test_drain_flushes_inflight_replies(
        self, workload_and_model, behaviors
    ):
        """Queries accepted before the drain all get their replies."""
        workload, _model = workload_and_model
        service = _service(workload)
        service.warm_all()
        recorder = obs.Recorder()
        n = len(behaviors)

        async def scenario():
            server = DiagnosisServer(service, ServerConfig(port=0))
            await server.start()
            # Freeze the dispatcher so the requests are still *queued*
            # when the drain begins — the drain must finish the work,
            # not merely observe it already done.
            assert server._dispatcher is not None
            server._dispatcher.cancel()
            try:
                await server._dispatcher
            except asyncio.CancelledError:
                pass
            connections = []
            for index in range(n):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(json.dumps({
                    "op": "diagnose", "id": index, "workload": WORKLOAD,
                    "behavior": behaviors[index].tolist(),
                }).encode() + b"\n")
                await writer.drain()
                connections.append((reader, writer))
            while server._queue.qsize() < n:
                await asyncio.sleep(0.01)
            drain_task = asyncio.create_task(server.drain())
            await asyncio.sleep(0.05)  # let the drain enter "draining"
            server._dispatcher = asyncio.ensure_future(
                server._dispatch_loop()
            )
            replies = []
            for reader, writer in connections:
                line = await reader.readline()
                assert line, "connection closed before its reply arrived"
                replies.append(json.loads(line))
                writer.close()
            await drain_task
            return replies

        with obs.use_recorder(recorder):
            replies = asyncio.run(scenario())
        assert all(reply["ok"] for reply in replies)
        assert [reply["id"] for reply in replies] == list(range(n))
        assert recorder.counter_value("service.drained") == 1
        assert recorder.counter_value("service.drain.flushed") == n
        assert recorder.counter_value("service.state.draining") == 1
        assert recorder.counter_value("service.state.stopped") == 1

    def test_slow_client_is_disconnected_others_survive(
        self, workload_and_model, behaviors
    ):
        """A reader stalled past write_timeout is dropped (typed counter);
        a healthy connection keeps being served."""
        workload, _model = workload_and_model
        service = _service(workload)
        service.warm_all()
        recorder = obs.Recorder()
        # conn index 0 = first accepted connection; attempt 1 = write site
        plan = ChaosPlan((
            ChaosEvent("service.connection", "hang", index=0,
                       attempts=(1,), param=30.0),
        ))
        with obs.use_recorder(recorder), chaos_active(plan):
            with _threaded_server(service, write_timeout=0.2) as (server, _):
                slow = socket.create_connection(
                    ("127.0.0.1", server.port), 10
                )
                slow_reader = slow.makefile("rb")
                slow.sendall(b'{"op": "ping", "id": 1}\n')
                # the reply bytes may already be on the wire (write()
                # buffers before the stalled drain); the contract is that
                # the server *cuts the connection* instead of waiting out
                # a stuck peer, so the stream must hit EOF promptly
                first = slow_reader.readline()
                assert first == b"" or b'"pong"' in first
                assert slow_reader.readline() == b""
                slow_reader.close()
                slow.close()
                with ServiceClient("127.0.0.1", server.port) as client:
                    assert client.ping()
                    answer = client.diagnose(WORKLOAD, behaviors[0])
                    assert answer.ranking
        assert recorder.counter_value("service.slow_clients") == 1

    def test_connection_chaos_at_accept_is_counted(self, workload_and_model):
        workload, _model = workload_and_model
        service = _service(workload)
        recorder = obs.Recorder()
        plan = ChaosPlan((
            ChaosEvent("service.connection", "raise", attempts=(0,)),
        ))
        with obs.use_recorder(recorder), chaos_active(plan):
            with _threaded_server(service) as (server, _loop):
                doomed = socket.create_connection(
                    ("127.0.0.1", server.port), 10
                )
                doomed_reader = doomed.makefile("rb")
                assert doomed_reader.readline() == b""  # dropped at accept
                doomed_reader.close()
                doomed.close()
                with ServiceClient("127.0.0.1", server.port) as client:
                    assert client.ping()  # the event disarmed; next conn fine
        assert recorder.counter_value("service.connection_faults") == 1

    def test_dispatcher_never_leaves_requests_unanswered(
        self, workload_and_model, behaviors, monkeypatch
    ):
        """Satellite: a group escape inside the dispatcher answers every
        in-flight request with a typed internal error — never silence."""
        workload, _model = workload_and_model
        service = _service(workload)
        service.warm_all()
        with _threaded_server(service) as (server, _loop):
            original = server.supervisor.score
            monkeypatch.setattr(
                server.supervisor, "score",
                lambda requests: (_ for _ in ()).throw(
                    MemoryError("scoring exploded")
                ),
            )
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceError, match="internal"):
                    client.diagnose(WORKLOAD, behaviors[0])
                # the dispatcher survived; restore scoring and serve again
                monkeypatch.setattr(server.supervisor, "score", original)
                answer = client.diagnose(WORKLOAD, behaviors[0])
                assert answer.ranking

    def test_wire_reload_roundtrip(
        self, tmp_path, workload_and_model, behaviors
    ):
        workload, _model = workload_and_model
        store = DictionaryStore(tmp_path / "store")
        service = _service(workload, cache=store)
        service.warm_all()
        key = service.cache_key(WORKLOAD)
        stack = store.load(key)
        store.store(
            key, np.asarray(stack[0]), [np.asarray(s) * 2.0 for s in stack[1:]]
        )
        with _threaded_server(service) as (server, _loop):
            with ServiceClient("127.0.0.1", server.port) as client:
                before = client.diagnose(WORKLOAD, behaviors[0])
                assert before.version == 0
                assert client.reload(WORKLOAD) == {
                    "workload": WORKLOAD, "version": 1,
                }
                after = client.diagnose(WORKLOAD, behaviors[0])
                assert after.version == 1
                with pytest.raises(BadRequestError):
                    client.call({"op": "reload"})  # missing workload

    def test_wire_reload_failure_is_typed(
        self, workload_and_model, behaviors
    ):
        workload, _model = workload_and_model
        service = _service(workload)  # no store: reload must fail typed
        service.warm_all()
        with _threaded_server(service) as (server, _loop):
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(WorkloadReloadError):
                    client.reload(WORKLOAD)
                # the failure never broke serving
                assert client.diagnose(WORKLOAD, behaviors[0]).version == 0


# ----------------------------------------------------------------------
# client-side retries
# ----------------------------------------------------------------------
class _ScriptedServer:
    """A raw TCP server that answers each accepted connection from a
    script of per-request behaviors: "ok", "overloaded", "timeout",
    "drop" (close without answering)."""

    def __init__(self, script):
        self.script = list(script)
        self.requests_served = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while self.script:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            with conn:
                reader = conn.makefile("rb")
                while self.script:
                    line = reader.readline()
                    if not line:
                        break
                    request = json.loads(line)
                    action = self.script.pop(0)
                    self.requests_served += 1
                    if action == "drop":
                        break  # close the connection unanswered
                    if action == "ok":
                        response = {
                            "id": request.get("id"), "ok": True,
                            "result": "pong",
                        }
                    else:
                        response = {
                            "id": request.get("id"), "ok": False,
                            "error": {"type": action, "message": action},
                        }
                    conn.sendall(json.dumps(response).encode() + b"\n")

    def close(self):
        try:
            self._sock.close()
        finally:
            self._thread.join(timeout=10)


_NO_WAIT = dict(backoff_base=0.0, jitter=0.0)


class TestClientRetries:
    def test_retries_off_by_default(self):
        scripted = _ScriptedServer(["overloaded", "ok"])
        try:
            client = ServiceClient("127.0.0.1", scripted.port, timeout=10)
            with pytest.raises(QueueFullError):
                client.call({"op": "ping"})
            client.close()
        finally:
            scripted.close()
        assert scripted.requests_served == 1  # no hidden re-issue

    def test_overloaded_retries_and_succeeds(self):
        scripted = _ScriptedServer(["overloaded", "overloaded", "ok"])
        try:
            client = ServiceClient(
                "127.0.0.1", scripted.port, timeout=10,
                retries=RetryPolicy(max_retries=2, **_NO_WAIT),
            )
            assert client.call({"op": "ping"}) == "pong"
            client.close()
        finally:
            scripted.close()
        assert scripted.requests_served == 3

    def test_connection_drop_reconnects_and_retries(self):
        scripted = _ScriptedServer(["drop", "ok"])
        try:
            client = ServiceClient(
                "127.0.0.1", scripted.port, timeout=10,
                retries=RetryPolicy(max_retries=2, **_NO_WAIT),
            )
            assert client.call({"op": "ping"}) == "pong"
            client.close()
        finally:
            scripted.close()
        assert scripted.requests_served == 2

    def test_retry_budget_exhausts_typed(self):
        scripted = _ScriptedServer(["overloaded"] * 3)
        try:
            client = ServiceClient(
                "127.0.0.1", scripted.port, timeout=10,
                retries=RetryPolicy(max_retries=2, **_NO_WAIT),
            )
            with pytest.raises(QueueFullError):
                client.call({"op": "ping"})
            client.close()
        finally:
            scripted.close()
        assert scripted.requests_served == 3

    def test_timeout_is_never_retried(self):
        """A timed-out request may have executed — re-issuing it is the
        client's decision, never the retry policy's."""
        scripted = _ScriptedServer(["timeout", "ok"])
        try:
            client = ServiceClient(
                "127.0.0.1", scripted.port, timeout=10,
                retries=RetryPolicy(max_retries=5, **_NO_WAIT),
            )
            with pytest.raises(RequestTimeoutError):
                client.call({"op": "ping"})
            client.close()
        finally:
            scripted.close()
        assert scripted.requests_served == 1

    def test_int_shorthand_and_bad_retries_type(self):
        scripted = _ScriptedServer(["ok"])
        try:
            client = ServiceClient(
                "127.0.0.1", scripted.port, timeout=10, retries=1
            )
            assert client.call({"op": "ping"}) == "pong"
            client.close()
        finally:
            scripted.close()
        with pytest.raises(TypeError):
            ServiceClient("127.0.0.1", 1, retries="lots")

    def test_dead_server_exhausts_reconnects(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nobody listening
        with pytest.raises(ServiceConnectionError):
            ServiceClient(
                "127.0.0.1", port, timeout=0.5,
                retries=RetryPolicy(max_retries=1, **_NO_WAIT),
            )


# ----------------------------------------------------------------------
# SIGTERM graceful drain (the `repro serve` subprocess contract)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSigtermDrain:
    def test_sigterm_drains_inflight_and_exits_zero(
        self, tmp_path, workload_and_model, behaviors
    ):
        workload, _model = workload_and_model
        manifest_path = tmp_path / "serve-manifest.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONUNBUFFERED"] = "1"
        # hold the first diagnose batch long enough for SIGTERM to land
        # while the reply is genuinely in flight
        env["REPRO_CHAOS"] = "service.batch:slow:param=1.5"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", WORKLOAD,
             "--port", "0", "--samples", "100", "--seed", "1",
             "--drain-grace", "30",
             "--metrics", str(manifest_path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            port = None
            deadline = time.time() + 120
            assert process.stdout is not None
            while time.time() < deadline:
                line = process.stdout.readline()
                if not line:
                    break
                if line.startswith("serving on "):
                    port = int(line.strip().rsplit(":", 1)[1])
                    break
            assert port, "server never announced its port"

            with socket.create_connection(("127.0.0.1", port), 30) as sock:
                reader = sock.makefile("rb")
                sock.sendall(json.dumps({
                    "op": "diagnose", "id": 7, "workload": WORKLOAD,
                    "behavior": behaviors[0].tolist(),
                }).encode() + b"\n")
                time.sleep(0.4)  # let the dispatcher pick the batch up
                process.send_signal(signal.SIGTERM)
                reply = json.loads(reader.readline())
                reader.close()
            assert reply["ok"], reply
            assert reply["id"] == 7
            assert reply["result"]["ranking"]
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

        manifest = json.loads(manifest_path.read_text())
        counters = manifest["metrics"]["counters"]
        assert counters.get("service.drained") == 1
        assert counters.get("service.state.draining") == 1
