"""The four pipeline workloads and the worker process that runs one.

``run.py`` starts this file once per workload pass, in a fresh process
whose environment holds no ``REPRO_*`` variable, so every library call
takes its defaults: the serial backend, the plain sampler, the flat
build and no dictionary cache.  The worker drives the library only
through public functions, checks the outputs, and writes one JSON
record for ``run.py`` to turn into metrics.

Modes:

* ``measure``  -- set up ``SETUP_REPEATS`` times (the median is
  ``setup_s``), then run operations for ``--seconds``;
* ``reference`` -- set up once and run operations untraced: the baseline
  of ``trace.overhead``;
* ``traced``   -- the same with the benchmark's spans on, plus one extra
  operation under an ``obs`` recorder for the program's own counters.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Set-ups per ``measure`` pass; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Sizes per workload; ``quick`` is the smoke-test scale.  Every run
#: makes at least ``min_ops`` operations; counts and ranks are taken over
#: exactly those, so they repeat between runs of one seed.
#:
#: The seeds here fix what the system is given to work on: netlists,
#: pattern sets, the adaptive workload's failing trials and the served
#: workloads.  The seeds in ``pins.json`` draw what varies from run to
#: run -- Monte-Carlo delay samples, chips, queries -- and ``--seed``
#: moves only those, so held-out seeds change the inputs without
#: changing how much work a run holds.
PARAMS = {
    "dict-s15850": {
        # Half scale: the full netlist needs ~3 GB per dictionary and
        # ~15 s per set-up, which three set-ups per run cannot afford.
        "full": dict(circuit="s15850", circuit_seed=1, scale=0.5,
                     samples=128, patterns=50, site_stride=173, n_paths=4,
                     pattern_space_seed=7, atpg_seed=5, min_ops=3),
        "quick": dict(circuit="s1196", circuit_seed=1, scale=None,
                      samples=32, patterns=8, site_stride=29, n_paths=4,
                      pattern_space_seed=7, atpg_seed=5, min_ops=2),
    },
    "chip-s5378": {
        "full": dict(circuit="s5378", samples=300, n_paths=10, min_ops=30),
        "quick": dict(circuit="s1196", samples=64, n_paths=4, min_ops=4),
    },
    "dict-adaptive": {
        # The two strongly-diagnosable trials of bench_sampling.py.
        "full": dict(cases=(("s1196", 4), ("s1488", 7)), samples=120,
                     n_paths=10, min_ops=20),
        "quick": dict(cases=(("s1196", 4),), samples=120, n_paths=10,
                      min_ops=2),
    },
    "serve-mixed": {
        # The open-loop rate sits near a quarter of the closed-loop
        # capacity (~2,200 q/s on 2 CPUs): at 1,000 q/s a 2x host slowdown
        # saturated the server and its latency measured the backlog.
        "full": dict(circuits=("s1196", "s5378"), samples=300, n_paths=8,
                     serve_seed=0, queries=32, rate=500.0, min_ops=100),
        "quick": dict(circuits=("s1196",), samples=64, n_paths=4,
                      serve_seed=0, queries=8, rate=200.0, min_ops=10),
    },
}

#: The chip that warms up the chip workload; the same for every seed.
WARMUP_CHIP_SEED = 999

#: Clock-quantile of the Section I protocol and the paper's largest K.
CLK_QUANTILE = 0.85
TOP_K = 7

#: Confidence target shared with ``bench_sampling.py`` (tail regime).
TARGET = dict(
    mode="adaptive",
    ci_abs=2e-4,
    ci_rel=1.0,
    min_rounds=2,
    max_rounds=128,
    alpha=0.2,
    ess_floor=0.05,
)

#: Ranking depth of the adaptive workload's hit rate.
ADAPTIVE_TOP_K = 4

#: Load generator: one asyncio process, one connection per CPU.
CONNECTIONS = 2
SERVE_TOP_K = 10


def _import_library():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"no repro package under {src}")
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")


def dictionary_digest(dictionary) -> tuple:
    """``(sha256, nonzero)``: m_crt plus every non-zero signature and index."""
    digest = hashlib.sha256()
    m_crt = np.ascontiguousarray(dictionary.m_crt)
    digest.update(repr(m_crt.shape).encode())
    digest.update(m_crt.tobytes())
    nonzero = 0
    # Dead suspects share a few read-only zero matrices; test each once.
    zero_ids = set()
    for index, edge in enumerate(dictionary.suspects):
        signature = dictionary.signatures[edge]
        if id(signature) in zero_ids:
            continue
        if not signature.any():
            zero_ids.add(id(signature))
            continue
        nonzero += 1
        digest.update(index.to_bytes(4, "little"))
        digest.update(np.ascontiguousarray(signature).tobytes())
    return digest.hexdigest(), nonzero


def gate(ok: bool, detail: str) -> Dict:
    return {"ok": bool(ok), "detail": detail}


class Workload:
    """One workload: set-up, operations, gates and layer metrics.

    Subclasses that run a plain operation loop implement :meth:`op`;
    the serving workload overrides :meth:`measure` instead.
    """

    def __init__(self, params: Dict, seeds: Dict, tracer, workdir: str
                 ) -> None:
        self.params = params
        self.seeds = seeds
        self.tracer = tracer
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.durations: List[float] = []
        self.throughput: Optional[float] = None

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release one set-up before the next (untimed)."""

    def op(self, index: int) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        """Run operations back to back for ``seconds`` (at least ``min_ops``)."""
        busy = 0.0
        index = 0
        while busy < seconds or index < self.params["min_ops"]:
            self.tracer.op = index
            self.before_op(index)
            start = harness.now_ns()
            self.op(index)
            elapsed = harness.seconds_since(start)
            self.after_op(index)
            self.tracer.op = -1
            self.durations.append(elapsed)
            busy += elapsed
            index += 1
        self.attempted += index
        self.throughput = index / busy

    def before_op(self, index: int) -> None:
        """Untimed preparation of one operation's inputs."""

    def after_op(self, index: int) -> None:
        """Untimed per-operation checks."""

    def gates(self, pins: Dict) -> Dict[str, Dict]:
        return {}

    def recorder_op(self) -> None:
        """One extra operation, run while an ``obs`` recorder is installed."""
        raise NotImplementedError

    def layer_metrics(self) -> Dict[str, float]:
        return {}

    def info(self) -> Dict:
        """Identifying results (digests) kept in the record."""
        return {}

    def close(self) -> None:
        """Stop every process the workload started."""


# ----------------------------------------------------------------------
# dict-s15850: one full-edge multi-clock dictionary build per operation
# ----------------------------------------------------------------------
def strided_patterns(circuit, timing, want, stride, n_paths, rng_seed):
    """Path tests for every ``stride``-th edge until ``want`` pairs exist.

    Spreading targets over the whole netlist, instead of one defect
    cone, keeps suspect activity realistic for an all-edge dictionary.
    """
    from repro.atpg import generate_path_tests

    patterns = None
    for site in circuit.edges[::stride]:
        extra, _paths = generate_path_tests(
            timing, site, n_paths=n_paths, rng_seed=rng_seed
        )
        if patterns is None:
            patterns = extra
        else:
            for index in range(len(extra)):
                try:
                    patterns.append(
                        extra.pairs[index][0],
                        extra.pairs[index][1],
                        extra.sources[index],
                    )
                except ValueError:
                    pass  # duplicate pair
        if patterns is not None and len(patterns) >= want:
            break
    if patterns is None or not len(patterns):
        raise RuntimeError("no path tests found")
    return patterns


class DictS15850(Workload):
    def setup(self) -> None:
        from repro.circuits import load_benchmark
        from repro.core import build_multi_clock_dictionary
        from repro.timing import (
            CircuitTiming,
            SampleSpace,
            diagnosis_clock,
            simulate_pattern_set,
        )

        p, tr = self.params, self.tracer
        with tr.span("circuits.load"):
            circuit = load_benchmark(
                p["circuit"], seed=p["circuit_seed"], scale=p["scale"]
            )
            # The pattern set is generated once per design; the dictionary
            # is built on the run's own Monte-Carlo samples.
            pattern_timing = CircuitTiming(
                circuit,
                SampleSpace(n_samples=p["samples"],
                            seed=p["pattern_space_seed"]),
            )
            timing = CircuitTiming(
                circuit,
                SampleSpace(n_samples=p["samples"], seed=self.seeds["space"]),
            )
        with tr.span("atpg.generate"):
            patterns = strided_patterns(
                circuit, pattern_timing, p["patterns"], p["site_stride"],
                p["n_paths"], p["atpg_seed"],
            )
        with tr.span("timing.simulate"):
            sims = simulate_pattern_set(timing, list(patterns))
        with tr.span("timing.clock"):
            clk = diagnosis_clock(
                timing, list(patterns), CLK_QUANTILE,
                simulations=sims, targets=patterns.target_observations(),
            )
        self.build = lambda: build_multi_clock_dictionary(
            timing, patterns, [clk, clk * 1.02], list(circuit.edges),
            np.full(p["samples"], 0.9), base_simulations=sims,
        )
        with tr.span("dictionary.build"):
            warm = self.build()
        self.warm_digest, self.nonzero = dictionary_digest(warm)
        self.n_suspects = len(warm.suspects)
        self.mismatches = 0
        self.last = None

    def teardown(self) -> None:
        self.build = None
        gc.collect()

    def op(self, index: int) -> None:
        with self.tracer.span("dictionary.build"):
            self.last = self.build()

    def after_op(self, index: int) -> None:
        if dictionary_digest(self.last)[0] != self.warm_digest:
            self.mismatches += 1
        self.last = None  # one dictionary alive at a time

    def recorder_op(self) -> None:
        self.build()

    def gates(self, pins: Dict) -> Dict[str, Dict]:
        gates = {
            "builds_match_warmup": gate(
                self.mismatches == 0,
                f"{self.mismatches} of {len(self.durations)} builds differ",
            )
        }
        if pins:
            gates["pinned_digest"] = gate(
                self.warm_digest == pins["digest"],
                f"{self.warm_digest[:16]} vs pinned {pins['digest'][:16]}",
            )
            gates["pinned_nonzero"] = gate(
                self.nonzero == pins["nonzero"],
                f"{self.nonzero} non-zero vs pinned {pins['nonzero']}",
            )
        return gates

    def layer_metrics(self) -> Dict[str, float]:
        return {"dictionary.nonzero_ratio": self.nonzero / self.n_suspects}

    def info(self) -> Dict:
        return {"digest": self.warm_digest, "nonzero": self.nonzero,
                "suspects": self.n_suspects}


# ----------------------------------------------------------------------
# chip-s5378: one failing chip of the Section I protocol per operation
# ----------------------------------------------------------------------
class ChipS5378(Workload):
    METHOD_NAMES = ("method_I", "method_II", "alg_rev")

    def setup(self) -> None:
        from repro.circuits import load_benchmark
        from repro.defects import SingleDefectModel
        from repro.timing import CircuitTiming, SampleSpace

        p, tr = self.params, self.tracer
        with tr.span("circuits.load"):
            circuit = load_benchmark(p["circuit"], seed=0)
            self.timing = CircuitTiming(
                circuit, SampleSpace(n_samples=p["samples"], seed=0)
            )
        self.model = SingleDefectModel(self.timing)
        self.sizes = self.model.dictionary_size_variable().samples
        # A chip outside the measured stream lets lazy set-up finish; it
        # draws from its own generator so chip k still matches trial k of
        # evaluate_circuit.
        self.chip(np.random.default_rng(WARMUP_CHIP_SEED), WARMUP_CHIP_SEED)
        self.rng = np.random.default_rng(self.seeds["protocol"])
        self.ranks: List[Dict] = []

    def chip(self, rng, atpg_seed: int) -> Dict:
        """Mirror of one ``evaluate_circuit`` trial through public calls."""
        from repro.atpg import generate_path_tests
        from repro.core import (
            ALG_REV, METHOD_I, METHOD_II, build_dictionary, diagnose,
            suspect_edges,
        )
        from repro.defects import draw_failing_trial
        from repro.timing import diagnosis_clock, simulate_pattern_set

        p, tr, timing = self.params, self.tracer, self.timing
        with tr.span("atpg.generate"):
            for _redraw in range(10):
                defect = self.model.draw(rng)
                patterns, _tests = generate_path_tests(
                    timing, defect.edge, n_paths=p["n_paths"],
                    rng_seed=atpg_seed,
                )
                if len(patterns):
                    break
            else:
                raise RuntimeError("no testable defect site in 10 redraws")
        with tr.span("timing.simulate"):
            sims = simulate_pattern_set(timing, list(patterns))
        with tr.span("timing.clock"):
            clk = diagnosis_clock(
                timing, list(patterns), CLK_QUANTILE,
                simulations=sims, targets=patterns.target_observations(),
            )
        with tr.span("defects.inject"):
            trial, _redraws = draw_failing_trial(
                timing, patterns, clk, self.model, rng, defect=defect
            )
        with tr.span("suspects.extract"):
            suspects = suspect_edges(sims, trial.behavior)
        with tr.span("dictionary.build"):
            dictionary = build_dictionary(
                timing, patterns, clk, suspects, self.sizes,
                base_simulations=sims,
                size_distribution=self.model.dictionary_size_distribution(),
            )
        with tr.span("diagnosis.score"):
            ranks = {
                function.name: diagnose(
                    dictionary, trial.behavior, function
                ).rank_of(defect.edge)
                for function in (METHOD_I, METHOD_II, ALG_REV)
            }
        return {"ranks": ranks, "suspects": len(suspects)}

    def op(self, index: int) -> None:
        # evaluate_circuit seeds trial k's ATPG with seed * 1000 + k.
        self.ranks.append(
            self.chip(self.rng, self.seeds["protocol"] * 1000 + index)
        )

    def recorder_op(self) -> None:
        # A fixed chip off the measured stream.
        seed = WARMUP_CHIP_SEED - 1
        self.chip(np.random.default_rng(seed), seed)

    def gates(self, pins: Dict) -> Dict[str, Dict]:
        from repro.core import EvaluationConfig, evaluate_circuit

        n = min(3, len(self.ranks))
        result = evaluate_circuit(
            self.timing,
            EvaluationConfig(
                n_trials=n, n_paths=self.params["n_paths"],
                clk_quantile=CLK_QUANTILE, seed=self.seeds["protocol"],
            ),
        )
        expected = [record.ranks for record in result.records]
        got = [entry["ranks"] for entry in self.ranks[:n]]
        return {
            "first_chips_match_evaluate_circuit": gate(
                expected == got, f"{got} vs evaluate_circuit {expected}"
            )
        }

    def layer_metrics(self) -> Dict[str, float]:
        # Over the first min_ops chips, which every run diagnoses.
        first = self.ranks[: self.params["min_ops"]]
        metrics = {}
        for name in self.METHOD_NAMES:
            ranks = [_rank_or_miss(e["ranks"][name], e["suspects"])
                     for e in first]
            metrics[f"diagnosis.rank.{name.lower()}"] = statistics.median(ranks)
        hits = [
            e["ranks"]["alg_rev"] is not None and e["ranks"]["alg_rev"] <= TOP_K
            for e in first
        ]
        metrics["diagnosis.topk_hit_rate"] = sum(hits) / len(hits)
        return metrics


def _rank_or_miss(rank: Optional[int], n_suspects: int) -> int:
    """A pruned defect ranks after every suspect."""
    return n_suspects + 1 if rank is None else rank


# ----------------------------------------------------------------------
# dict-adaptive: importance-sampled builds with adaptive allocation
# ----------------------------------------------------------------------
class DictAdaptive(Workload):
    """Each build draws its own Monte-Carlo samples.

    How many rounds the allocator needs depends on the draw (builds take
    0.12-0.37 s, and about one draw in thirteen stops at ``max_rounds``),
    so a run averages over many draws.  The set-up builds both trials on
    the pinned seed-0 samples of ``bench_sampling.py``; the correctness
    gates run on those.
    """

    METHOD_NAMES = ("method_I", "method_II", "method_III", "alg_rev")

    def setup(self) -> None:
        from repro.core import SamplerConfig

        self.sampler = SamplerConfig(importance=True, **TARGET)
        self.cases = [
            self.build_case(name, trial_seed)
            for name, trial_seed in self.params["cases"]
        ]
        self.warm = []
        for case in self.cases:
            inputs = self.inputs(case, 0)
            with self.tracer.span("dictionary.build"):
                built = self.build(case, inputs)
            self.warm.append((inputs, dictionary_digest(built)[0],
                              built.sampling_report["all_converged"]))
        self.outcomes: List[Dict] = []

    def build_case(self, name: str, trial_seed: int) -> Dict:
        """The failing trial of ``bench_sampling.py`` for one circuit."""
        from repro.atpg import generate_path_tests
        from repro.circuits import load_benchmark
        from repro.core import suspect_edges
        from repro.defects import SingleDefectModel, draw_failing_trial
        from repro.timing import (
            CircuitTiming,
            SampleSpace,
            diagnosis_clock,
            simulate_pattern_set,
        )

        p, tr = self.params, self.tracer
        with tr.span("circuits.load"):
            circuit = load_benchmark(name, seed=0)
            timing = CircuitTiming(
                circuit, SampleSpace(n_samples=p["samples"], seed=0)
            )
        model = SingleDefectModel(timing)
        rng = np.random.default_rng(trial_seed)
        with tr.span("atpg.generate"):
            for _attempt in range(30):
                defect = model.draw(rng)
                patterns, _ = generate_path_tests(
                    timing, defect.edge, n_paths=p["n_paths"],
                    rng_seed=trial_seed,
                )
                if len(patterns) >= 4:
                    break
            else:
                raise RuntimeError(f"no testable defect site on {name}")
        with tr.span("timing.simulate"):
            sims = simulate_pattern_set(timing, list(patterns))
        with tr.span("timing.clock"):
            clk = diagnosis_clock(
                timing, list(patterns), CLK_QUANTILE,
                simulations=sims, targets=patterns.target_observations(),
            )
        with tr.span("defects.inject"):
            trial, _ = draw_failing_trial(
                timing, patterns, clk, model, rng, defect=defect
            )
        with tr.span("suspects.extract"):
            suspects = suspect_edges(sims, trial.behavior)
        if defect.edge not in suspects:
            raise RuntimeError(f"{name}: injected defect pruned from suspects")
        return dict(circuit=circuit, defect=defect, patterns=patterns,
                    clk=clk, trial=trial, suspects=suspects)

    def inputs(self, case: Dict, space_seed: int) -> Dict:
        """Timing, base simulations and size samples of one draw."""
        from repro.defects import SingleDefectModel
        from repro.timing import CircuitTiming, SampleSpace, simulate_pattern_set

        timing = CircuitTiming(
            case["circuit"],
            SampleSpace(n_samples=self.params["samples"], seed=space_seed),
        )
        model = SingleDefectModel(timing)
        return dict(
            timing=timing,
            sims=simulate_pattern_set(timing, list(case["patterns"])),
            sizes=model.dictionary_size_variable().samples,
            distribution=model.dictionary_size_distribution(),
        )

    def build(self, case: Dict, inputs: Dict):
        from repro.core import build_dictionary

        return build_dictionary(
            inputs["timing"], case["patterns"], case["clk"], case["suspects"],
            inputs["sizes"], base_simulations=inputs["sims"],
            sampler=self.sampler, size_distribution=inputs["distribution"],
        )

    def before_op(self, index: int) -> None:
        case = self.cases[index % len(self.cases)]
        draw = index // len(self.cases)
        seed = int(np.random.SeedSequence(
            [self.seeds["space"], draw]
        ).generate_state(1)[0])
        self.pending = (case, self.inputs(case, seed))

    def op(self, index: int) -> None:
        case, inputs = self.pending
        with self.tracer.span("dictionary.build"):
            self.last = self.build(case, inputs)

    def after_op(self, index: int) -> None:
        from repro.core import ALG_REV, METHOD_I, METHOD_II, METHOD_III, diagnose

        case, _inputs = self.pending
        built, self.pending, self.last = self.last, None, None
        outcome = dict(report=built.sampling_report)
        if index < self.params["min_ops"]:
            with self.tracer.span("diagnosis.score"):
                outcome["ranks"] = {
                    function.name: _rank_or_miss(
                        diagnose(built, case["trial"].behavior, function)
                        .rank_of(case["defect"].edge),
                        len(case["suspects"]),
                    )
                    for function in (METHOD_I, METHOD_II, METHOD_III, ALG_REV)
                }
        self.outcomes.append(outcome)

    def recorder_op(self) -> None:
        self.build(self.cases[0], self.warm[0][0])

    def gates(self, pins: Dict) -> Dict[str, Dict]:
        repeats = [
            dictionary_digest(self.build(case, inputs))[0] == digest
            for case, (inputs, digest, _converged) in zip(self.cases, self.warm)
        ]
        converged = [converged for _inputs, _digest, converged in self.warm]
        return {
            "pinned_builds_converged": gate(
                all(converged), f"converged per trial: {converged}"
            ),
            "builds_bit_identical": gate(
                all(repeats), f"repeat matches set-up build per trial: {repeats}"
            ),
        }

    def layer_metrics(self) -> Dict[str, float]:
        # Counts and ranks come from the first min_ops builds, which every
        # run makes, so two runs of one seed report the same values.
        first = self.outcomes[: self.params["min_ops"]]
        reports = [outcome["report"] for outcome in first]
        all_samples = sum(o["report"]["total_samples"] for o in self.outcomes)
        metrics = {
            "sampling.samples": statistics.median(
                r["total_samples"] for r in reports
            ),
            "sampling.rounds": statistics.median(
                sum(r["rounds_per_suspect"]) for r in reports
            ),
            "sampling.degenerate_rounds": statistics.median(
                r["degenerate_rounds"] for r in reports
            ),
            "sampling.unconverged": sum(
                not r["all_converged"] for r in reports
            ) / len(reports),
            "sampling.us_per_sample": 1e6 * sum(self.durations) / all_samples,
        }
        hits = 0
        for name in self.METHOD_NAMES:
            ranks = [outcome["ranks"][name] for outcome in first]
            metrics[f"sampling.defect_rank.{name.lower()}"] = (
                statistics.median(ranks)
            )
            hits += sum(rank <= ADAPTIVE_TOP_K for rank in ranks)
        metrics["diagnosis.topk_hit_rate"] = hits / (
            len(first) * len(self.METHOD_NAMES)
        )
        return metrics


# ----------------------------------------------------------------------
# serve-mixed: diagnose requests over loopback to `repro serve`
# ----------------------------------------------------------------------
class Server:
    """One ``python -m repro serve`` process on an ephemeral port."""

    def __init__(self, circuits, params, seed, cache_dir, log_path,
                 metrics_path: Optional[str] = None) -> None:
        command = [
            sys.executable, "-m", "repro", "serve", *circuits,
            "--port", "0", "--cache-dir", cache_dir,
            "--samples", str(params["samples"]),
            "--paths", str(params["n_paths"]), "--seed", str(seed),
        ]
        if metrics_path:
            command += ["--metrics", metrics_path]
        env = dict(os.environ)
        # The roadmap keeps only the mmap store format; select it until
        # it is the sole format.
        env["REPRO_CACHE_FORMAT"] = "store"
        self.metrics_path = metrics_path
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.port = None
        while self.port is None:
            line = self.proc.stdout.readline().decode()
            if not line:
                self.stop()
                raise RuntimeError(f"server exited before serving; see {log_path}")
            if line.startswith("serving on "):
                self.port = int(line.rsplit(":", 1)[1])

    def exchange(self, lines: List[bytes]) -> List[bytes]:
        """Send request lines one at a time on one connection; the replies."""
        replies = []
        with socket.create_connection(("127.0.0.1", self.port), 60) as sock:
            with sock.makefile("rwb") as stream:
                for line in lines:
                    stream.write(line)
                    stream.flush()
                    replies.append(stream.readline())
        return replies

    def request(self, op: str) -> Dict:
        reply = json.loads(self.exchange([b'{"op": "%s"}\n' % op.encode()])[0])
        if not reply.get("ok"):
            raise RuntimeError(f"server refused {op}: {reply}")
        return reply["result"]

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit status."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()
        return self.proc.returncode


def _encode(request_id: int, body: bytes) -> bytes:
    return b'{"id": %d, %s' % (request_id, body)


async def _connect(port: int):
    return [
        await asyncio.open_connection("127.0.0.1", port)
        for _ in range(CONNECTIONS)
    ]


async def _close(conns) -> None:
    for _reader, writer in conns:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class _Tally:
    """Replies checked against the in-process reference rankings."""

    def __init__(self, expected: List) -> None:
        self.expected = expected
        self.sent = 0
        self.failed = 0
        self.wrong = 0

    def check(self, line: bytes, index: int) -> None:
        reply = json.loads(line)
        if not reply.get("ok"):
            self.failed += 1
        elif reply["result"]["ranking"] != self.expected[index]:
            self.wrong += 1


async def closed_loop(port: int, bodies, tally: _Tally, seconds: float,
                      min_requests: int) -> float:
    """Each connection waits for its reply before sending again."""
    conns = await _connect(port)
    start = time.perf_counter()
    deadline = start + seconds

    async def client(slot: int) -> None:
        reader, writer = conns[slot]
        index = slot
        while time.perf_counter() < deadline or index < min_requests:
            body_index = index % len(bodies)
            writer.write(_encode(index, bodies[body_index]))
            tally.sent += 1
            await writer.drain()
            tally.check(await reader.readline(), body_index)
            index += CONNECTIONS

    try:
        await asyncio.gather(*(client(slot) for slot in range(CONNECTIONS)))
    finally:
        await _close(conns)
    return tally.sent / (time.perf_counter() - start)


async def open_loop(port: int, bodies, tally: _Tally, rate: float,
                    seconds: float) -> tuple:
    """Requests go out on a fixed schedule, whether or not replies came.

    Latency runs from each request's due time, so a stall also charges
    the requests queued behind it; ``late`` is how far behind schedule
    the generator itself sent.
    """
    conns = await _connect(port)
    total = max(1, int(rate * seconds))
    start = time.perf_counter() + 0.05
    latency = [0.0] * total
    late = [0.0] * total

    async def sender(slot: int) -> None:
        writer = conns[slot][1]
        for index in range(slot, total, CONNECTIONS):
            due = start + index / rate
            wait = due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            late[index] = time.perf_counter() - due
            writer.write(_encode(index, bodies[index % len(bodies)]))
            tally.sent += 1
            await writer.drain()

    async def receiver(slot: int) -> None:
        reader = conns[slot][0]
        for index in range(slot, total, CONNECTIONS):
            line = await reader.readline()
            latency[index] = time.perf_counter() - (start + index / rate)
            tally.check(line, index % len(bodies))

    try:
        await asyncio.gather(
            *(sender(slot) for slot in range(CONNECTIONS)),
            *(receiver(slot) for slot in range(CONNECTIONS)),
        )
    finally:
        await _close(conns)
    return latency, late


def _span_seconds(spans: List[Dict], name: str) -> tuple:
    """(total s, self s, count) over every ``obs`` span node called ``name``."""
    total = own = 0.0
    count = 0
    for node in spans:
        children = node.get("children", [])
        if node["name"] == name:
            total += node["total_s"]
            own += node["total_s"] - sum(c["total_s"] for c in children)
            count += node["count"]
        sub_total, sub_own, sub_count = _span_seconds(children, name)
        total, own, count = total + sub_total, own + sub_own, count + sub_count
    return total, own, count


class ServeMixed(Workload):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.traced = self.tracer.enabled
        self.server: Optional[Server] = None
        self.reference = None
        self.spawns = 0
        self.layers: Dict[str, float] = {}
        self.wrong = 0

    def _spawn(self, cache_dir: str, metered: bool) -> Server:
        """Start a server; ``metered`` ones write an ``obs`` manifest.

        The program's span stack is per thread, not per asyncio task, so
        concurrent requests nest their spans without bound and the
        manifest cannot be written.  Metered servers therefore only ever
        see sequential requests on one connection.
        """
        self.spawns += 1
        metrics = (
            os.path.join(self.workdir, f"server-{self.spawns}.json")
            if metered else None
        )
        server = Server(
            self.params["circuits"], self.params, self.params["serve_seed"],
            cache_dir, os.path.join(self.workdir, "server.log"), metrics,
        )
        server.request("ping")  # once answered, the SIGTERM handler is set
        return server

    def _stop_server(self) -> Optional[Dict]:
        """Drain the running server; its manifest when traced."""
        server, self.server = self.server, None
        if server is None:
            return None
        status = server.stop()
        if status != 0:
            raise RuntimeError(f"server exited with status {status}")
        if server.metrics_path:
            return harness.load_json(server.metrics_path)
        return None

    def teardown(self) -> None:
        self._stop_server()

    def setup(self) -> None:
        # A fresh store per set-up: each one builds and writes it.
        self.cache_dir = os.path.join(self.workdir, f"store-{self.spawns}")
        with self.tracer.span("service.spawn"):
            self.server = self._spawn(self.cache_dir, metered=self.traced)

    def prepare_reference(self) -> None:
        """In-process dictionaries, query behaviours and expected answers."""
        from repro.core import ALG_REV, build_dictionary, diagnose
        from repro.service import draw_query_behaviors, standard_workload

        p, tr = self.params, self.tracer
        self.reference = []
        bodies, expected = [], []
        for circuit in p["circuits"]:
            with tr.span("service.standard_workload"):
                workload, model = standard_workload(
                    circuit, samples=p["samples"], seed=p["serve_seed"],
                    n_paths=p["n_paths"],
                )
            with tr.span("dictionary.build"):
                workload.dictionary = build_dictionary(
                    workload.timing, workload.patterns, workload.clk,
                    workload.suspects, workload.size_samples,
                    base_simulations=workload.base_simulations,
                )
            with tr.span("defects.inject"):
                behaviors = draw_query_behaviors(
                    workload, model, p["queries"], seed=self.seeds["queries"]
                )
            self.reference.append((workload, behaviors))
        # Alternate the circuits request by request.
        for index in range(p["queries"]):
            for workload, behaviors in self.reference:
                behavior = behaviors[index]
                with tr.span("diagnosis.score"):
                    ranking = diagnose(workload.dictionary, behavior, ALG_REV)
                expected.append([
                    [str(edge), score]
                    for edge, score in ranking.ranking[:SERVE_TOP_K]
                ])
                body = json.dumps({
                    "op": "diagnose", "workload": workload.name,
                    "behavior": np.asarray(behavior).astype(int).tolist(),
                    "error_function": "alg_rev", "top_k": SERVE_TOP_K,
                })
                bodies.append(body[1:].encode() + b"\n")
        self.bodies, self.expected = bodies, expected

    def _gate_queries(self) -> _Tally:
        """Every reference query once, in order, on one connection."""
        tally = _Tally(self.expected)
        replies = self.server.exchange(
            [_encode(index, body) for index, body in enumerate(self.bodies)]
        )
        for index, reply in enumerate(replies):
            tally.sent += 1
            tally.check(reply, index)
        return tally

    def measure(self, seconds: float) -> None:
        p, tr = self.params, self.tracer
        self.prepare_reference()
        tally = self._gate_queries()
        self.gate_tallies = [tally]
        if self.traced:
            # The metered set-up server has seen only the sequential gate
            # queries; the load loops need an unmetered one.
            setup_manifest = self._stop_server()
            self.server = self._spawn(self.cache_dir, metered=False)
        port = self.server.port

        before = self.server.request("stats")
        closed = _Tally(self.expected)
        with tr.span("loadgen.closed"):
            self.throughput = asyncio.run(closed_loop(
                port, self.bodies, closed, seconds / 2, p["min_ops"]
            ))
        after = self.server.request("stats")
        batches = after["batches_served"] - before["batches_served"]
        queries = after["queries_served"] - before["queries_served"]

        opened = _Tally(self.expected)
        with tr.span("loadgen.open"):
            latency, late = asyncio.run(open_loop(
                port, self.bodies, opened, p["rate"], seconds / 2
            ))
        self.durations = latency
        self._stop_server()

        with tr.span("service.restart"):
            start = harness.now_ns()
            self.server = self._spawn(self.cache_dir, metered=self.traced)
            restart_s = harness.seconds_since(start)
        stats = self.server.request("stats")
        restart_tally = self._gate_queries()
        self.gate_tallies.append(restart_tally)
        restart_manifest = self._stop_server()

        tallies = [tally, closed, opened, restart_tally]
        self.attempted += sum(t.sent for t in tallies)
        self.failed += sum(t.failed for t in tallies)
        self.wrong = sum(t.wrong for t in tallies)
        cache = stats["cache"] or {}
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        ordered_latency = sorted(latency)
        ordered_late = sorted(late)
        self.layers = {
            "server.restart_s": restart_s,
            "cache.hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
            "server.mean_batch": queries / batches if batches else 0.0,
            "server.p99_ms": 1e3 * harness.nearest_rank(ordered_latency, 99.0),
            "server.p99_n": len(ordered_latency),
            "loadgen.late_p99_ms": 1e3 * harness.nearest_rank(ordered_late, 99.0),
        }
        self.restart_cache = cache
        if self.traced:
            self._manifest_layers(setup_manifest, restart_manifest)

    def _manifest_layers(self, setup_manifest, restart_manifest) -> None:
        spans = setup_manifest["metrics"]["spans"]
        _, request_s, requests = _span_seconds(spans, "service.request")
        _, dispatch_s, dispatches = _span_seconds(spans, "service.dispatch")
        self.layers.update({
            "server.request_s": request_s / max(requests, 1),
            "server.dispatch_s": dispatch_s / max(dispatches, 1),
            "cache.store_s": _span_seconds(spans, "dictionary.cache_store")[0],
            "cache.load_s": _span_seconds(
                restart_manifest["metrics"]["spans"], "dictionary.cache_lookup"
            )[0],
        })
        self.engine_us_per_query()

    def engine_us_per_query(self) -> None:
        """In-process ``diagnose_batch`` at batch 16 on the same queries."""
        from repro.service import DiagnosisRequest, DiagnosisService

        service = DiagnosisService()
        for workload, _behaviors in self.reference:
            service.register(workload)
        requests = []
        for index in range(self.params["queries"]):
            for workload, behaviors in self.reference:
                requests.append(DiagnosisRequest(
                    workload=workload.name, behavior=behaviors[index]
                ))
        rounds, start = 0, harness.now_ns()
        while rounds < 3 or harness.seconds_since(start) < 1.0:
            for first in range(0, len(requests), 16):
                service.diagnose_batch(requests[first:first + 16])
            rounds += 1
        elapsed = harness.seconds_since(start)
        engine_us = 1e6 * elapsed / (rounds * len(requests))
        self.layers["engine.us_per_query"] = engine_us
        # Closed-loop wall time per query that scoring does not explain.
        self.layers["server.us_per_query"] = 1e6 / self.throughput - engine_us

    def recorder_op(self) -> None:
        from repro.service import DiagnosisRequest, DiagnosisService

        service = DiagnosisService()
        for workload, _behaviors in self.reference:
            service.register(workload)
        workload, behaviors = self.reference[0]
        service.diagnose_batch([
            DiagnosisRequest(workload=workload.name, behavior=b)
            for b in behaviors[:16]
        ])

    def gates(self, pins: Dict) -> Dict[str, Dict]:
        first, restarted = self.gate_tallies
        return {
            "served_top10_match_in_process": gate(
                first.wrong == 0 and first.failed == 0,
                f"{first.wrong} wrong, {first.failed} failed of {first.sent}",
            ),
            "every_reply_matches_reference": gate(
                self.wrong == 0, f"{self.wrong} replies differ"
            ),
            "restart_served_from_store": gate(
                self.layers["cache.hit_ratio"] == 1.0
                and restarted.wrong == 0 and restarted.failed == 0,
                f"store {self.restart_cache}, {restarted.wrong} wrong after "
                "restart",
            ),
        }

    def layer_metrics(self) -> Dict[str, float]:
        return dict(self.layers)

    def close(self) -> None:
        server, self.server = self.server, None
        if server is not None:
            server.stop()


WORKLOADS = {
    "dict-s15850": DictS15850,
    "chip-s5378": ChipS5378,
    "dict-adaptive": DictAdaptive,
    "serve-mixed": ServeMixed,
}

#: Benchmark span -> per-layer metric (seconds of self time per op, or
#: per set-up for a layer that only runs during set-up).
SPAN_METRICS = {
    "atpg.generate": "atpg.generate_s",
    "timing.simulate": "timing.simulate_s",
    "timing.clock": "timing.clock_s",
    "defects.inject": "defects.inject_s",
    "suspects.extract": "suspects.extract_s",
    "dictionary.build": "dictionary.build_s",
    "diagnosis.score": "diagnosis.score_s",
}


def recorder_metrics(snapshot: Dict) -> Dict[str, float]:
    """Per-op counts and times from the program's own ``obs`` recorder."""
    counters = snapshot["counters"]
    spans = snapshot["spans"]
    replays = counters.get("dynamic.resimulations", 0)
    signatures_s = _span_seconds(spans, "dictionary.signatures")[0]

    def ratio(hit: str, miss: str) -> float:
        hits, misses = counters.get(hit, 0), counters.get(miss, 0)
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "kernel.replays": replays,
        "kernel.replay_us": 1e6 * signatures_s / replays if replays else 0.0,
        "kernel.reductions": counters.get("kernel.reductions", 0),
        "kernel.schedule_hit_ratio": ratio(
            "kernel.schedule_reuse", "kernel.schedules_built"
        ),
        "kernel.cone_hit_ratio": ratio(
            "kernel.cone_reuse", "kernel.cone_schedules"
        ),
        "dictionary.signatures_s": signatures_s,
        "dictionary.m_crt_s": _span_seconds(spans, "dictionary.m_crt")[0],
        "parallel.chunks": counters.get("parallel.serial.chunks", 0),
    }


def run_workload(name: str, mode: str, offset: int, seconds: float,
                 quick: bool, pins: Dict, workdir: str) -> Dict:
    _import_library()
    from repro import obs

    scale = "quick" if quick else "full"
    params = PARAMS[name][scale]
    seeds = {key: value + offset for key, value in pins["seeds"][name].items()}
    traced = mode == "traced"
    tracer = harness.Tracer(enabled=traced)
    workload = WORKLOADS[name](params, seeds, tracer, workdir)
    try:
        setups = []
        for repeat in range(SETUP_REPEATS if mode == "measure" else 1):
            if repeat:
                workload.teardown()
            start = harness.now_ns()
            workload.setup()
            setups.append(harness.seconds_since(start))
        workload.measure(seconds)
        recorder_snapshot = None
        if traced:
            with obs.use_recorder(obs.Recorder()) as recorder:
                workload.recorder_op()
            recorder_snapshot = recorder.snapshot()
        pinned = pins.get("pins", {}).get(name, {}).get(scale)
        gates = workload.gates(pinned if offset == 0 else None)
    finally:
        workload.close()

    layers = {}
    if traced:
        n_ops = len(workload.durations)
        for span, seconds_by_phase in tracer.self_seconds().items():
            metric = SPAN_METRICS.get(span)
            if metric is None:
                continue
            if seconds_by_phase["ops"] > 0:
                layers[metric] = seconds_by_phase["ops"] / n_ops
            else:
                layers[metric] = seconds_by_phase["setup"]
        layers.update(recorder_metrics(recorder_snapshot))
    layers.update(workload.layer_metrics())
    return {
        "workload": name,
        "mode": mode,
        "seed": offset,
        "quick": quick,
        "seconds": seconds,
        "setup_s": setups,
        "op_s": workload.durations,
        "ops_per_s": workload.throughput,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "gates": gates,
        "layers": layers,
        "info": workload.info(),
        "peak_rss_mb": harness.peak_rss_mb(),
        "spans": tracer.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True,
                        choices=("measure", "reference", "traced"))
    parser.add_argument("--offset", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--pins", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    record = run_workload(
        args.workload, args.mode, args.offset, args.seconds, args.quick,
        harness.load_json(args.pins), args.workdir,
    )
    harness.write_json(args.result, record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
