"""Compare two sets of pipeline benchmark runs, metric by metric.

Usage, from the repository root::

    python3 benchmarks/pipeline/compare.py BASE NEW

``BASE`` and ``NEW`` are results files written by ``run.py --output``;
``PATH@LABEL`` keeps only the records written with ``--label LABEL``.
Each metric's direction and bound come from ``BENCHMARK.json``.  One row
per (workload, pass, metric) gets a verdict:

* ``better`` / ``worse`` -- the medians differ by more than the bound;
* ``same``       -- they differ by less;
* ``unresolved`` -- the spread of either side (quartile distance over
  median) is wider than the bound, and not every new run beats every
  base run;
* ``info``       -- a per-layer time, which has no bound.

Counts, ranks and fractions repeat exactly on the same inputs, so any
difference in them is a verdict.  The exit status is 1 when an
end-to-end metric reads ``worse`` or the new runs fail a larger share of
their operations, else 0; per-layer verdicts explain, they do not gate.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Units whose values repeat exactly between runs on the same inputs.
EXACT_UNITS = ("count", "rank", "fraction")


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    first, _median, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else 0.0


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: Optional[float], exact: bool = False) -> str:
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new_median - base_median)
    if exact:
        if sorted(base) == sorted(new):
            return "same"
        if worse_by == 0:
            return "unresolved"
        return "worse" if worse_by > 0 else "better"
    if bound is None:
        return "info"
    if base_median:
        worse_by /= abs(base_median)
    if max(relative_spread(base), relative_spread(new)) > bound:
        if better == "lower":
            every_new_better = max(new) < min(base)
        else:
            every_new_better = min(new) > max(base)
        return "better" if every_new_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def load_set(selector: str) -> List[Dict]:
    path, _, label = selector.partition("@")
    payload = harness.load_json(path)
    errors = harness.validate_results(payload)
    if errors:
        raise ValueError(f"{path}: {errors[0]}")
    records = payload["records"]
    if label:
        records = [r for r in records if r.get("label") == label]
    if not records:
        raise ValueError(f"{selector}: no records")
    return records


def metric_specs(spec: Dict) -> Dict[str, Dict]:
    specs = {m["name"]: dict(m) for m in spec["end_to_end"]}
    for metric in spec["per_layer"]:
        specs[metric["name"]] = dict(metric, bound=None)
    return specs


def group(records: List[Dict]) -> Dict[tuple, Dict[str, List[float]]]:
    values: Dict[tuple, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for record in records:
        for name, metric in record["metrics"].items():
            values[(record["workload"], record["mode"])][name].append(
                metric["value"]
            )
    return values


def failed_share(records: List[Dict]) -> Dict[str, float]:
    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for record in records:
        totals[record["workload"]][0] += record["failed"]
        totals[record["workload"]][1] += record["attempted"]
    return {w: failed / max(attempted, 1) for w, (failed, attempted)
            in totals.items()}


def compare(base: List[Dict], new: List[Dict], spec: Dict) -> tuple:
    """(rows, regressed): one row per (workload, pass, metric)."""
    specs = metric_specs(spec)
    base_values, new_values = group(base), group(new)
    rows = []
    regressed = False
    for key in sorted(set(base_values) & set(new_values)):
        for name in sorted(set(base_values[key]) & set(new_values[key])):
            meta = specs.get(name)
            if meta is None:
                continue
            b, n = base_values[key][name], new_values[key][name]
            outcome = verdict(b, n, meta["better"], meta["bound"],
                              exact=meta["unit"] in EXACT_UNITS)
            # Only bounded (end-to-end) metrics gate; layers explain.
            regressed |= outcome == "worse" and meta["bound"] is not None
            rows.append((*key, name, statistics.median(b),
                         statistics.median(n), meta["unit"],
                         max(relative_spread(b), relative_spread(n)),
                         meta["bound"], outcome))
    base_failed, new_failed = failed_share(base), failed_share(new)
    for workload in sorted(set(base_failed) & set(new_failed)):
        if new_failed[workload] > base_failed[workload]:
            regressed = True
            rows.append((workload, "all", "failed_share",
                         base_failed[workload], new_failed[workload],
                         "failed/attempted", 0.0, 0.0, "worse"))
    return rows, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base", help="results file, or PATH@LABEL")
    parser.add_argument("new", help="results file, or PATH@LABEL")
    args = parser.parse_args(argv)
    try:
        spec = harness.load_json(os.path.join(ROOT, "BENCHMARK.json"))
        rows, regressed = compare(load_set(args.base), load_set(args.new),
                                  spec)
    except (OSError, ValueError, KeyError) as error:
        print(f"compare failed: {error}", file=sys.stderr)
        return 2
    print(f"{'workload':14s} {'pass':9s} {'metric':32s} {'base':>12s} "
          f"{'new':>12s} {'unit':10s} {'spread':>7s} {'bound':>6s} verdict")
    for workload, mode, name, b, n, unit, spread, bound, outcome in rows:
        bound_text = "-" if bound is None else f"{bound:.2f}"
        print(f"{workload:14s} {mode:9s} {name:32s} {b:12.6g} {n:12.6g} "
              f"{unit:10s} {spread:7.3f} {bound_text:>6s} {outcome}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
