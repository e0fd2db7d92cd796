"""Tests of the pipeline benchmark itself.

Run with ``python3 -m pytest benchmarks/pipeline`` from the repository
root.  The smoke tests start ``run.py`` at ``--quick`` sizes, so the
whole file takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import harness  # noqa: E402

SPEC = harness.load_json(os.path.join(ROOT, "BENCHMARK.json"))


def run_bench(*args, cwd=ROOT, timeout=300):
    """``run.py`` of the checkout at ``cwd``, the way BENCHMARK.json runs it."""
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "pipeline", "run.py"),
         "--quick", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


# -- the percentile rule ------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (10, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected


def test_summarize_reports_median_tail_and_count():
    summary = harness.summarize([float(v) for v in range(100, 0, -1)])
    assert summary == {"n": 100, "p50": 50.5, "tail_pct": 90.0, "tail": 90.0}
    short = harness.summarize([3.0, 1.0, 2.0])
    assert short["p50"] == 2.0 and short["tail"] is None


def test_tracer_self_time_subtracts_children():
    tracer = harness.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.spans[0][1:3] = [0, 10_000_000_000]
    tracer.spans[1][1:3] = [1_000_000_000, 4_000_000_000]
    assert tracer.self_seconds() == {
        "outer": {"setup": 7.0, "ops": 0.0},
        "inner": {"setup": 3.0, "ops": 0.0},
    }


# -- comparator verdicts ------------------------------------------------
@pytest.mark.parametrize("base, new, better, bound, exact, expected", [
    ([100, 101, 99, 100], [101, 100, 102, 100], "lower", 0.1, False, "same"),
    ([100, 101, 99, 100], [120, 121, 119, 122], "lower", 0.1, False, "worse"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "lower", 0.1, False, "better"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "higher", 0.1, False, "worse"),
    ([50, 100, 150, 200], [60, 110, 160, 210], "lower", 0.1, False,
     "unresolved"),
    ([50, 100, 150, 200], [10, 11, 12, 13], "lower", 0.1, False, "better"),
    ([3, 3, 4], [3, 4, 3], "lower", None, True, "same"),
    ([3, 3, 4], [4, 4, 5], "lower", None, True, "worse"),
    ([1.0, 1.0], [0.5, 0.5], "higher", None, True, "worse"),
    ([0.2, 0.3], [0.25, 0.2], "lower", None, False, "info"),
])
def test_verdicts(base, new, better, bound, exact, expected):
    assert compare.verdict(base, new, better, bound, exact) == expected


def _record(workload, value, failed=0, label="run"):
    return {
        "workload": workload, "label": label, "mode": "untraced", "seed": 0,
        "quick": True, "seconds": 1.0, "correct": True, "attempted": 100,
        "failed": failed, "gates": {}, "environment": {"cpu_count": 2},
        "metrics": {
            "op_p50_ms": {"value": value, "unit": "ms"},
            "ops_per_s": {"value": 1000.0 / value, "unit": "1/s"},
        },
    }


def _results(tmp_path, name, records):
    path = tmp_path / name
    harness.write_results(
        str(path), {"format": harness.RESULTS_FORMAT, "records": records}
    )
    return str(path)


def test_compare_exit_status(tmp_path):
    base = _results(tmp_path, "base.json",
                    [_record("chip-s5378", v) for v in (10.0, 10.1, 9.9)])
    same = _results(tmp_path, "same.json",
                    [_record("chip-s5378", v) for v in (10.0, 10.2, 9.9)])
    slow = _results(tmp_path, "slow.json",
                    [_record("chip-s5378", v) for v in (13.0, 13.1, 12.9)])
    failing = _results(tmp_path, "failing.json",
                       [_record("chip-s5378", 10.0, failed=1)])
    assert compare.main([base, same]) == 0
    assert compare.main([base, slow]) == 1
    assert compare.main([base, failing]) == 1


def test_compare_selects_labelled_set(tmp_path):
    path = _results(tmp_path, "both.json", [
        _record("chip-s5378", 10.0, label="A"),
        _record("chip-s5378", 20.0, label="B"),
    ])
    assert compare.main([f"{path}@A", f"{path}@A"]) == 0
    assert compare.main([f"{path}@A", f"{path}@B"]) == 1


# -- the benchmark end to end ---------------------------------------------
def test_quick_untraced_run_of_all_workloads():
    done = run_bench()
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] is True and result["failed"] == 0
    names = {m["name"] for m in SPEC["end_to_end"]}
    for workload in SPEC["workloads"]:
        keys = {k.split("/", 1)[1] for k in result["metrics"]
                if k.startswith(workload["name"] + "/")}
        assert keys == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_traced_run_reports_every_layer_metric():
    done = run_bench("--workload", "serve-mixed", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["cache.hit_ratio"]["value"] == 1.0


def test_mutated_pinned_digest_fails_the_run(tmp_path):
    pins = harness.load_json(os.path.join(HERE, "pins.json"))
    pinned = pins["pins"]["dict-s15850"]["quick"]
    pinned["digest"] = "0" * 64
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    done = run_bench("--workload", "dict-s15850", "--pins", str(path))
    assert done.returncode != 0
    assert "pinned_digest" in done.stderr
    assert last_json(done.stdout) is None


def test_checkout_without_library_source_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "chip-s5378", cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert last_json(done.stdout) is None
