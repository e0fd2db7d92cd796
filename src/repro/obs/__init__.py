"""repro.obs — run observability: spans, counters, convergence, manifests.

The instrumentation layer behind ``python -m repro profile`` and the
``--metrics out.json`` CLI flag.  One global recorder slot holds either a
live :class:`Recorder` or the default :class:`NullRecorder`; library code
fetches it per call (:func:`get_recorder`) and records through it:

    from repro import obs

    recorder = obs.get_recorder()
    with recorder.span("dictionary.build"):
        recorder.count("dictionary.suspects", len(suspects))
        if recorder.enabled:                 # guard per-sample work
            recorder.observe("dynamic.settle", samples)

Contract (enforced by ``tests/test_obs.py`` and the determinism suite):

* disabled mode is a constant no-op — no locks, no clock reads, no
  allocation,
* recording never touches an RNG stream: instrumented runs are
  bit-identical to uninstrumented ones,
* worker shards merge: process workers ship snapshots home through
  :func:`repro.core.parallel.map_chunked`; threads in one process share
  the (lock-protected) recorder.

Manifests (:mod:`repro.obs.manifest`) serialize a snapshot plus run
identity into the schema-validated JSON document CI archives per run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .convergence import ConvergenceStat
from .manifest import (
    MANIFEST_FORMAT,
    MANIFEST_SCHEMA,
    MANIFEST_VERSION,
    build_manifest,
    load_manifest,
    span_tree_depth,
    stable_skeleton,
    validate_manifest,
    write_manifest,
)
from .recorder import NullRecorder, Recorder, SpanNode
from .render import render_metrics_text

__all__ = [
    "ConvergenceStat",
    "MANIFEST_FORMAT",
    "MANIFEST_SCHEMA",
    "MANIFEST_VERSION",
    "NullRecorder",
    "Recorder",
    "SpanNode",
    "build_manifest",
    "disable",
    "enabled",
    "get_recorder",
    "install",
    "load_manifest",
    "render_metrics_text",
    "span_tree_depth",
    "stable_skeleton",
    "use_recorder",
    "validate_manifest",
    "write_manifest",
]

#: The process-wide recorder slot.  Off by default: nothing records until
#: a caller installs a live Recorder (CLI ``--metrics``, ``profile``, or
#: the library API below).
_ACTIVE: Recorder = NullRecorder()


def get_recorder() -> Recorder:
    """The currently installed recorder (a no-op one when disabled)."""
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE.enabled


def install(recorder: Optional[Recorder] = None) -> Recorder:
    """Install (and return) a live recorder as the process-wide default."""
    global _ACTIVE
    _ACTIVE = recorder if recorder is not None else Recorder()
    return _ACTIVE


def disable() -> None:
    """Reinstall the no-op recorder (the initial state)."""
    global _ACTIVE
    _ACTIVE = NullRecorder()


@contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Temporarily swap the active recorder (restored on exit)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous
