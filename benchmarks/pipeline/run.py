"""Pipeline benchmark: the paper's diagnosis flow, end to end and per layer.

Runs each workload serially, each pass in a fresh ``workloads.py``
process whose environment holds no ``REPRO_*`` variable, checks the
outputs (a failed gate exits 1 and prints no result), then prints every
metric by name with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics of ``BENCHMARK.json`` without ``--trace``, its
per-layer metrics with it.

Usage, from the repository root::

    python3 benchmarks/pipeline/run.py [--workload W] [--seed S]
        [--seconds T] [--trace [0|1]] [--quick] [--output F] [--label L]

``--seed`` offsets every pinned workload seed (``pins.json``): 0 is the
pinned input, any other value a held-out one.  ``--output`` appends the
records to a results file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKER = os.path.join(HERE, "workloads.py")
DEFAULT_PINS = os.path.join(HERE, "pins.json")
WORK_DIR = os.path.join(ROOT, ".bench_build", "pipeline")
WORKLOAD_NAMES = ("dict-s15850", "chip-s5378", "dict-adaptive", "serve-mixed")

#: Wall-clock budget of one run.py invocation per workload, in seconds.
RUN_BUDGET_S = 170.0


class BenchmarkError(Exception):
    """A pass crashed, timed out or failed a correctness gate."""


def load_spec() -> Dict:
    return harness.load_json(os.path.join(ROOT, "BENCHMARK.json"))


def check_checkout() -> None:
    """Refuse to run anywhere but a checkout holding the library source."""
    package = os.path.join(ROOT, "src", "repro", "__init__.py")
    if not os.path.isfile(package):
        raise BenchmarkError(f"library source not found at {package}")


def worker_env(tmp: str) -> Dict[str, str]:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = tmp
    return env


def run_pass(workload: str, mode: str, seed: int, seconds: float,
             quick: bool, pins: str, deadline: float) -> Dict:
    """One worker process; returns its record."""
    workdir = os.path.join(WORK_DIR, f"{workload}-{mode}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp)
    result = os.path.join(workdir, "result.json")
    command = [
        sys.executable, WORKER, "--workload", workload, "--mode", mode,
        "--offset", str(seed), "--seconds", repr(seconds),
        "--pins", pins, "--workdir", workdir, "--result", result,
    ]
    if quick:
        command.append("--quick")
    # Its own session, so a timed-out worker goes down together with any
    # server it started.
    proc = subprocess.Popen(command, cwd=ROOT, env=worker_env(tmp),
                            start_new_session=True)
    try:
        status = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        status = None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if status is None:
        raise BenchmarkError(f"{workload} {mode} pass ran out of time")
    if status != 0:
        raise BenchmarkError(f"{workload} {mode} pass exited with {status}")
    record = harness.load_json(result)
    shutil.rmtree(workdir, ignore_errors=True)
    return record


def check_gates(record: Dict) -> None:
    failed = [
        f"{record['workload']} {record['mode']}: gate {name} failed "
        f"({outcome['detail']})"
        for name, outcome in sorted(record["gates"].items())
        if not outcome["ok"]
    ]
    if failed:
        raise BenchmarkError("; ".join(failed))


def end_to_end(record: Dict) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(record["setup_s"]),
        "peak_rss_mb": record["peak_rss_mb"],
        "op_p50_ms": 1e3 * statistics.median(record["op_s"]),
        "ops_per_s": record["ops_per_s"],
    }


def named_metrics(record: Dict) -> List[tuple]:
    """The workload's own names for its results: (name, value, unit, note)."""
    ops = harness.summarize(record["op_s"])
    layers = record["layers"]
    n = f"n={ops['n']}"
    rows = []
    tail = ops["tail_pct"]
    workload = record["workload"]
    if workload in ("dict-s15850", "dict-adaptive"):
        rows.append(("build_s", ops["p50"], "s", f"median, {n}"))
    elif workload == "chip-s5378":
        rows.append(("chip_p50_s", ops["p50"], "s", n))
        if tail is not None:
            rows.append((f"chip_p{tail:g}_s", ops["tail"], "s", n))
    else:
        rows.append(("serve_qps", record["ops_per_s"], "q/s", "closed loop"))
        rows.append(("serve_p50_ms", 1e3 * ops["p50"], "ms", f"open loop, {n}"))
        if tail is not None:
            rows.append((f"serve_p{tail:g}_ms", 1e3 * ops["tail"], "ms", n))
        rows.append(("restart_s", layers["server.restart_s"], "s", ""))
    if "diagnosis.topk_hit_rate" in layers:
        rows.append(("topk_hit_rate", layers["diagnosis.topk_hit_rate"],
                     "fraction", ""))
    rows.append(("error_rate", record["failed"] / record["attempted"],
                  "failed/attempted", f"of {record['attempted']}"))
    return rows


def layer_metrics(reference: Dict, traced: Dict, names: List[str]) -> Dict:
    """Every per-layer metric: 0 where the workload skips that layer."""
    values = {name: 0.0 for name in names}
    values.update(traced["layers"])
    values["trace.overhead"] = (
        statistics.median(traced["op_s"]) / statistics.median(reference["op_s"])
    )
    return {name: values[name] for name in names}


def run_workload(workload: str, args, spec: Dict) -> Dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    if not args.trace:
        record = run_pass(workload, "measure", args.seed, args.seconds,
                          args.quick, args.pins, deadline)
        check_gates(record)
        metrics = end_to_end(record)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        records = [record]
    else:
        half = args.seconds / 2
        reference = run_pass(workload, "reference", args.seed, half,
                             args.quick, args.pins, deadline)
        check_gates(reference)
        traced = run_pass(workload, "traced", args.seed, half, args.quick,
                          args.pins, deadline)
        check_gates(traced)
        names = [m["name"] for m in spec["per_layer"]]
        metrics = layer_metrics(reference, traced, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        records = [reference, traced]
    return {
        "records": records,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
    }


def print_report(workload: str, outcome: Dict, trace: bool) -> None:
    print(f"== {workload} ({'traced' if trace else 'untraced'})")
    for name, metric in outcome["metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    if not trace:
        for name, value, unit, note in named_metrics(outcome["records"][0]):
            print(f"  {name:32s} {value:>16.6g} {unit}  {note}".rstrip())
    for record in outcome["records"]:
        for name, gate in sorted(record["gates"].items()):
            print(f"  gate {name}: ok ({gate['detail']})")


def output_record(workload: str, outcome: Dict, args, environment) -> Dict:
    detail = []
    for record in outcome["records"]:
        entry = {
            key: record[key]
            for key in ("mode", "setup_s", "ops_per_s", "layers", "info",
                        "peak_rss_mb", "attempted", "failed")
        }
        entry["op_s"] = harness.summarize(record["op_s"])
        entry["named"] = {
            name: {"value": value, "unit": unit, "note": note}
            for name, value, unit, note in named_metrics(record)
        }
        if record["mode"] == "traced":
            entry["spans"] = record["spans"]
        detail.append(entry)
    return {
        "workload": workload,
        "label": args.label,
        "mode": "traced" if args.trace else "untraced",
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "gates": {
            f"{r['mode']}.{name}": gate
            for r in outcome["records"] for name, gate in r["gates"].items()
        },
        "metrics": outcome["metrics"],
        "environment": environment,
        "passes": detail,
    }


def append_output(path: str, records: List[Dict]) -> None:
    payload = {"format": harness.RESULTS_FORMAT, "records": []}
    if os.path.exists(path):
        payload = harness.load_json(path)
        errors = harness.validate_results(payload)
        if errors:
            raise BenchmarkError(f"{path} is not a results file: {errors[0]}")
    payload["records"].extend(records)
    harness.write_results(path, payload)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every pinned workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced rerun")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes (smoke test)")
    parser.add_argument("--output", help="append records to this results file")
    parser.add_argument("--label", default="run",
                        help="set name recorded with --output")
    parser.add_argument("--pins", default=DEFAULT_PINS, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_checkout()
        spec = load_spec()
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        environment = harness.capture_environment(ROOT)
        workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
        outcomes = {}
        for workload in workloads:
            outcomes[workload] = run_workload(workload, args, spec)
            print_report(workload, outcomes[workload], bool(args.trace))
        if args.output:
            append_output(args.output, [
                output_record(w, o, args, environment)
                for w, o in outcomes.items()
            ])
    except (BenchmarkError, OSError, ValueError, KeyError) as error:
        print(f"pipeline benchmark failed: {error}", file=sys.stderr)
        return 1
    print(f"environment: cpu_count={environment['cpu_count']} "
          f"python={environment['python']} numpy={environment['numpy']}")
    if len(outcomes) == 1:
        metrics = next(iter(outcomes.values()))["metrics"]
    else:
        metrics = {
            f"{workload}/{name}": metric
            for workload, outcome in outcomes.items()
            for name, metric in outcome["metrics"].items()
        }
    print(json.dumps({
        "correct": True,
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
