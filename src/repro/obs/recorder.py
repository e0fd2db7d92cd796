"""The metrics recorder: hierarchical spans, counters, gauges, meters.

One :class:`Recorder` aggregates everything a run does:

* **spans** — nested wall-clock timings (``with recorder.span("x"): ...``)
  aggregated into a tree keyed by span name; the current parent lives in
  a :class:`contextvars.ContextVar`, so each asyncio task and each fresh
  thread nests from its own context (a new thread's spans attach at the
  root), while the aggregate tree itself is shared and lock-protected:
  the :class:`~repro.service.ServiceSupervisor` restore thread and
  concurrent :class:`~repro.service.DiagnosisService` callers record
  into the one shared recorder,
* **counters** — monotonically accumulated integers/floats (cache hits,
  resimulation counts, chunk throughput),
* **gauges** — last-write-wins scalars (worker counts, config echoes),
* **convergence meters** — :class:`repro.obs.convergence.ConvergenceStat`
  streams fed by the Monte-Carlo hot paths.

Process-backend workers cannot share the tree, so a recorder knows how to
:meth:`merge` another recorder's :meth:`snapshot` payload — the executor
ships each worker shard's snapshot home with its results and folds it in
(see ``repro.core.parallel.map_chunked``).

Instrumentation must cost ~nothing when nobody is measuring: the module
default is a :class:`NullRecorder` whose every operation is a constant
no-op that reads no clock and takes no lock (``tests/test_obs.py`` pins
this), and none of this machinery ever touches an RNG stream —
determinism is proven by the instrumented-vs-uninstrumented rounds in
the test suite.
"""

from __future__ import annotations

import contextvars
import threading
import time
from typing import Dict, Optional, Union

import numpy as np

from .convergence import ConvergenceStat

__all__ = ["SpanNode", "Recorder", "NullRecorder"]


class SpanNode:
    """One aggregated node of the span tree."""

    __slots__ = ("name", "count", "total_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    def depth(self) -> int:
        """Levels below (and including) this node's children."""
        if not self.children:
            return 0
        return 1 + max(child.depth() for child in self.children.values())

    def to_payload(self) -> Dict:
        payload: Dict = {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
        }
        if self.children:
            payload["children"] = [
                self.children[name].to_payload()
                for name in sorted(self.children)
            ]
        return payload

    def merge_payload(self, payload: Dict) -> None:
        self.count += int(payload.get("count", 0))
        self.total_s += float(payload.get("total_s", 0.0))
        for child_payload in payload.get("children", ()):
            self.child(str(child_payload["name"])).merge_payload(child_payload)


class _SpanContext:
    """Context manager for one timed block (re-entrant per name)."""

    __slots__ = ("_recorder", "_name", "_node", "_token", "_start")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._node: Optional[SpanNode] = None
        self._token: Optional[contextvars.Token] = None
        self._start = 0.0

    def __enter__(self) -> "_SpanContext":
        recorder = self._recorder
        with recorder._lock:
            parent = recorder._parent.get() or recorder._root
            self._node = parent.child(self._name)
        self._token = recorder._parent.set(self._node)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        recorder = self._recorder
        recorder._parent.reset(self._token)
        with recorder._lock:
            assert self._node is not None
            self._node.count += 1
            self._node.total_s += elapsed
        return False


class _NullSpan:
    """Shared do-nothing context manager for disabled instrumentation."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """Live, thread-safe metrics registry (see module docstring)."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: The span node new spans nest under; ``None`` means the root.
        self._parent: contextvars.ContextVar[Optional[SpanNode]] = (
            contextvars.ContextVar("repro_obs_span_parent", default=None)
        )
        self._root = SpanNode("")
        self._counters: Dict[str, Union[int, float]] = {}
        self._gauges: Dict[str, float] = {}
        self._meters: Dict[str, ConvergenceStat] = {}

    # -- spans ----------------------------------------------------------
    def span(self, name: str) -> _SpanContext:
        """``with recorder.span("dictionary.build"): ...``"""
        return _SpanContext(self, name)

    def span_depth(self) -> int:
        """Deepest nesting level currently recorded."""
        with self._lock:
            return self._root.depth()

    # -- counters / gauges ----------------------------------------------
    def count(self, name: str, value: Union[int, float] = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def counter_value(self, name: str) -> Union[int, float]:
        with self._lock:
            return self._counters.get(name, 0)

    # -- convergence meters ---------------------------------------------
    def observe(
        self,
        name: str,
        values: Union[np.ndarray, float],
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """Feed Monte-Carlo samples into the named convergence meter."""
        with self._lock:
            meter = self._meters.get(name)
            if meter is None:
                meter = self._meters[name] = ConvergenceStat()
            meter.update(values, weights)

    def meter(self, name: str) -> Optional[ConvergenceStat]:
        with self._lock:
            return self._meters.get(name)

    # -- snapshot / merge ------------------------------------------------
    def snapshot(self) -> Dict:
        """JSON-ready copy of everything recorded so far."""
        with self._lock:
            return {
                "spans": [
                    self._root.children[name].to_payload()
                    for name in sorted(self._root.children)
                ],
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "convergence": {
                    name: meter.to_payload()
                    for name, meter in sorted(self._meters.items())
                },
            }

    def merge(self, snapshot: Optional[Dict]) -> None:
        """Fold a worker shard's :meth:`snapshot` payload into this one.

        Spans and counters accumulate, gauges last-write-win, convergence
        meters merge exactly (shard-order independent up to float
        associativity of the merged moments).
        """
        if not snapshot:
            return
        with self._lock:
            for span_payload in snapshot.get("spans", ()):
                self._root.child(str(span_payload["name"])).merge_payload(
                    span_payload
                )
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                self._gauges[name] = float(value)
            for name, payload in snapshot.get("convergence", {}).items():
                meter = self._meters.get(name)
                if meter is None:
                    meter = self._meters[name] = ConvergenceStat()
                meter.merge(payload)

    def reset(self) -> None:
        with self._lock:
            self._root = SpanNode("")
            self._counters.clear()
            self._gauges.clear()
            self._meters.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        snap = self.snapshot()
        return (
            f"Recorder(spans={len(snap['spans'])}, "
            f"counters={len(snap['counters'])}, "
            f"meters={len(snap['convergence'])})"
        )


class NullRecorder(Recorder):
    """Disabled instrumentation: every operation is a constant no-op.

    The hot paths guard per-sample work behind ``recorder.enabled``, but
    even unguarded calls (span entry, counter bumps) must stay cheap —
    this class never takes a lock, never allocates, never reads a clock.
    """

    enabled = False

    def __init__(self) -> None:  # deliberately no parent __init__: no state
        pass

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def span_depth(self) -> int:
        return 0

    def count(self, name: str, value: Union[int, float] = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def counter_value(self, name: str) -> Union[int, float]:
        return 0

    def observe(self, name, values, weights=None) -> None:
        pass

    def meter(self, name: str) -> None:
        return None

    def snapshot(self) -> Dict:
        return {"spans": [], "counters": {}, "gauges": {}, "convergence": {}}

    def merge(self, snapshot: Optional[Dict]) -> None:
        pass

    def reset(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullRecorder()"
