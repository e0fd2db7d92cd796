"""Shared plumbing of the pipeline benchmark.

Timing (``perf_counter_ns``), the percentile rule, environment capture,
per-process peak RSS, the span tracer the traced run records with, and a
schema-checked JSON writer.  Importing this module has no side effects:
pytest collects the directory, and worker processes import it too.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

#: Percentiles tried, highest first, by :func:`summarize`.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def now_ns() -> int:
    return time.perf_counter_ns()


def seconds_since(start_ns: int) -> float:
    return (time.perf_counter_ns() - start_ns) / 1e9


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of ``pct`` among ``n`` values (exact in tenths)."""
    tenths = round(pct * 10)
    return max(1, -(-tenths * n // 1000))


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("no values")
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with >= 10 of ``n`` samples beyond it."""
    for pct in TAIL_LADDER:
        if n - _rank(n, pct) >= TAIL_MIN_BEYOND:
            return pct
    return None


def summarize(values: Sequence[float]) -> Dict:
    """Median plus the highest percentile with ten samples beyond it.

    ``tail_pct``/``tail`` are ``None`` when fewer than eleven samples
    exist: no percentile above the median then has ten samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("no values to summarize")
    pct = tail_percentile(n)
    return {
        "n": n,
        "p50": statistics.median(ordered),
        "tail_pct": pct,
        "tail": None if pct is None else nearest_rank(ordered, pct),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child, in MB.

    Linux reports ``ru_maxrss`` in KiB.  Children count only after they
    have been waited for, which is how the serving workload adds its
    server processes to its own footprint.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def capture_environment(root: str) -> Dict:
    """Where a record was measured: CPUs, interpreter, numpy, git sha.

    Git runs only when ``root`` itself holds a ``.git`` directory, so a
    plain checkout never makes git search the directories above it.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=False,
            )
            if done.returncode == 0:
                sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": sha,
    }


class _Span:
    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        stack = tracer._stack
        self._index = len(tracer.spans)
        tracer.spans.append(
            [name, 0, 0, stack[-1] if stack else -1, tracer.op]
        )

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self._index)
        self._tracer.spans[self._index][1] = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer.spans[self._index][2] = time.perf_counter_ns()
        self._tracer._stack.pop()
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """In-memory spans: ``[name, start_ns, end_ns, parent, op]`` rows.

    ``op`` is the index of the operation the span belongs to (``-1``
    during set-up), so the spans of one operation share an identifier.
    A disabled tracer hands out one shared no-op context.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self.op = -1
        self._stack: List[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def self_seconds(self) -> Dict[str, Dict[str, float]]:
        """Self time per span name, split into set-up and operation time.

        A span's self time is its duration minus the durations of its
        direct children (spans nest strictly, so children never overlap).
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent, op) in enumerate(self.spans):
            phase = "setup" if op < 0 else "ops"
            entry = totals.setdefault(name, {"setup": 0.0, "ops": 0.0})
            entry[phase] += (end - start - child_ns[index]) / 1e9
        return totals


#: Required keys and types of one workload record (the result schema).
RECORD_SCHEMA = {
    "workload": str,
    "mode": str,
    "seed": int,
    "quick": bool,
    "seconds": (int, float),
    "correct": bool,
    "attempted": int,
    "failed": int,
    "gates": dict,
    "metrics": dict,
    "environment": dict,
}

#: Required keys and types of a results file (``run.py --output``).
RESULTS_SCHEMA = {
    "format": str,
    "records": list,
}

RESULTS_FORMAT = "pipeline-bench-v1"


def schema_errors(payload, schema: Dict) -> List[str]:
    errors = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    for key, kind in schema.items():
        if key not in payload:
            errors.append(f"missing key {key!r}")
        elif isinstance(payload[key], bool) and kind in (int, (int, float)):
            errors.append(f"{key!r} must be a number, not a bool")
        elif not isinstance(payload[key], kind):
            errors.append(f"{key!r} has type {type(payload[key]).__name__}")
    return errors


def validate_results(payload) -> List[str]:
    errors = schema_errors(payload, RESULTS_SCHEMA)
    if errors:
        return errors
    if payload["format"] != RESULTS_FORMAT:
        errors.append(f"format must be {RESULTS_FORMAT!r}")
    for index, record in enumerate(payload["records"]):
        errors.extend(
            f"record {index}: {error}"
            for error in schema_errors(record, RECORD_SCHEMA)
        )
        for name, metric in (record.get("metrics") or {}).items():
            if not isinstance(metric, dict) or set(metric) != {"value", "unit"}:
                errors.append(f"record {index}: metric {name!r} malformed")
            elif isinstance(metric["value"], bool) or not isinstance(
                metric["value"], (int, float)
            ):
                errors.append(f"record {index}: metric {name!r} not a number")
    return errors


def _write_atomically(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def write_json(path: str, payload: Dict) -> None:
    _write_atomically(path, json.dumps(payload, sort_keys=True) + "\n")


def write_results(path: str, payload: Dict) -> None:
    """Write a schema-checked results file, one record per line."""
    errors = validate_results(payload)
    if errors:
        raise ValueError(f"refusing to write {path}: {errors[0]}")
    records = ",\n".join(
        json.dumps(record, sort_keys=True) for record in payload["records"]
    )
    _write_atomically(
        path,
        '{"format": %s, "records": [\n%s\n]}\n'
        % (json.dumps(payload["format"]), records),
    )


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
