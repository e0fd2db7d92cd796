"""Evaluation protocol of Section I: statistical defect injection trials.

For a circuit model ``C`` and defect model ``D_s``:

1. draw a defect (location uniform over edges, size from the D.9/D.10
   population) and generate the diagnostic pattern set for its site — the
   longest testable paths through the fault, per Section H-4,
2. pick the cut-off ``clk`` tight against the tested paths
   (:func:`repro.timing.critical.diagnosis_clock`),
3. draw chip instances carrying the defect until one *fails* (a passing
   chip is never submitted for diagnosis),
4. run every configured diagnosis method and record the rank of the true
   defect location,
5. repeat ``n_trials`` times and report per-(method, K) success rates —
   success means the injected defect is contained in the top-K answer set.

Defect locations whose site admits no path-delay test at all are redrawn
(the tester would never see such a chip fail; the redraw count is recorded).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..atpg.patterns import PatternPairSet, generate_path_tests
from ..circuits.netlist import Edge
from ..defects.injection import draw_failing_trial
from ..defects.model import DefectSizeModel, SingleDefectModel
from ..timing.critical import diagnosis_clock, simulate_pattern_set
from ..timing.instance import CircuitTiming
from .. import obs
from ..resilience import chaos
from ..resilience.checkpoint import (
    build_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from .cache import DictionaryStore, resolve_cache, timing_fingerprint
from .diagnosis import run_diagnosis
from .error_functions import ALG_REV, ErrorFunction, METHOD_I, METHOD_II
from .parallel import ParallelConfig, resolve_parallel

__all__ = ["EvaluationConfig", "TrialRecord", "EvaluationResult", "evaluate_circuit"]


@dataclass
class EvaluationConfig:
    """Knobs of the Section I protocol (defaults follow the paper).

    ``parallel`` selects the dictionary-construction backend
    (``None`` defers to the ``REPRO_PARALLEL_*`` environment, serial by
    default) and ``cache`` an optional on-disk dictionary cache
    (``None`` defers to ``REPRO_CACHE_DIR``); neither changes results —
    parallel and cached builds are bit-identical to serial ones, so the
    protocol stays reproducible in its seed alone.

    ``checkpoint`` names a checkpoint file updated atomically after every
    committed trial (see :mod:`repro.resilience.checkpoint`).  With
    ``resume=True`` an existing checkpoint restores the completed trial
    prefix *and the exact RNG state*, so the resumed campaign is
    bit-identical to an uninterrupted one; a checkpoint written under a
    different circuit/seed/protocol raises
    :class:`~repro.resilience.CheckpointMismatchError` instead of
    silently mixing campaigns.  Without ``resume`` an existing file is
    restarted from trial zero (and overwritten at the first boundary).
    """

    n_trials: int = 20
    n_paths: int = 10
    clk_quantile: float = 0.85
    k_values: Tuple[int, ...] = (1, 3, 7)
    error_functions: Tuple[ErrorFunction, ...] = (METHOD_I, METHOD_II, ALG_REV)
    size_model: DefectSizeModel = field(default_factory=DefectSizeModel)
    seed: int = 0
    max_location_redraws: int = 10
    max_instance_redraws: int = 50
    parallel: Optional[Union[ParallelConfig, str]] = None
    cache: Optional[Union[DictionaryStore, str]] = None
    checkpoint: Optional[str] = None
    resume: bool = False
    #: Dictionary signature estimator (:func:`repro.sampling.resolve_sampler`
    #: semantics): a mode name, a SamplerConfig, or None to defer to the
    #: ``REPRO_SAMPLER`` environment (default plain).
    sampler: Optional[str] = None


@dataclass
class TrialRecord:
    """Ground truth and per-method outcome of one injection trial."""

    defect_edge: Edge
    defect_size_mean: float
    sample_index: int
    n_patterns: int
    n_suspects: int
    n_failing_observations: int
    location_redraws: int
    instance_redraws: int
    ranks: Dict[str, Optional[int]]
    seconds: float

    def hit(self, method: str, k: int) -> bool:
        rank = self.ranks.get(method)
        return rank is not None and rank <= k


@dataclass
class EvaluationResult:
    """Aggregated success rates plus the raw per-trial records."""

    circuit_name: str
    config: EvaluationConfig
    records: List[TrialRecord]

    def success_rate(self, method: str, k: int) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([record.hit(method, k) for record in self.records]))

    def table(self) -> Dict[Tuple[str, int], float]:
        """{(method, K): success rate} over the configured grid."""
        return {
            (function.name, k): self.success_rate(function.name, k)
            for function in self.config.error_functions
            for k in self.config.k_values
        }

    def mean_suspects(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([record.n_suspects for record in self.records]))

    def mean_patterns(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([record.n_patterns for record in self.records]))


# ----------------------------------------------------------------------
# checkpoint plumbing: trial records round-trip through plain JSON
# ----------------------------------------------------------------------
def _record_to_payload(record: TrialRecord) -> Dict:
    return {
        "defect_edge": [
            record.defect_edge.source,
            record.defect_edge.sink,
            record.defect_edge.pin,
        ],
        "defect_size_mean": float(record.defect_size_mean),
        "sample_index": int(record.sample_index),
        "n_patterns": int(record.n_patterns),
        "n_suspects": int(record.n_suspects),
        "n_failing_observations": int(record.n_failing_observations),
        "location_redraws": int(record.location_redraws),
        "instance_redraws": int(record.instance_redraws),
        "ranks": {
            method: None if rank is None else int(rank)
            for method, rank in record.ranks.items()
        },
        "seconds": float(record.seconds),
    }


def _record_from_payload(payload: Dict) -> TrialRecord:
    source, sink, pin = payload["defect_edge"]
    return TrialRecord(
        defect_edge=Edge(str(source), str(sink), int(pin)),
        defect_size_mean=float(payload["defect_size_mean"]),
        sample_index=int(payload["sample_index"]),
        n_patterns=int(payload["n_patterns"]),
        n_suspects=int(payload["n_suspects"]),
        n_failing_observations=int(payload["n_failing_observations"]),
        location_redraws=int(payload["location_redraws"]),
        instance_redraws=int(payload["instance_redraws"]),
        ranks={
            method: None if rank is None else int(rank)
            for method, rank in payload["ranks"].items()
        },
        seconds=float(payload["seconds"]),
    )


def _evaluation_identity(timing: CircuitTiming, config: EvaluationConfig) -> Dict:
    """What a checkpoint must agree on before its records may be reused.

    The timing fingerprint hashes the materialized delay matrix, so it
    subsumes the circuit structure, the sample-space seed and
    ``n_samples`` — any model drift invalidates the checkpoint exactly.
    """
    return {
        "circuit": timing.circuit.name,
        "timing_fingerprint": timing_fingerprint(timing),
        "seed": int(config.seed),
        "n_trials": int(config.n_trials),
        "n_paths": int(config.n_paths),
        "clk_quantile": float(config.clk_quantile),
        "k_values": [int(k) for k in config.k_values],
        "error_functions": [
            function.name for function in config.error_functions
        ],
        "max_location_redraws": int(config.max_location_redraws),
        "max_instance_redraws": int(config.max_instance_redraws),
    }


def _rng_state_payload(rng: np.random.Generator) -> Dict:
    """JSON-safe copy of a Generator's bit-generator state."""

    def convert(value):
        if isinstance(value, dict):
            return {key: convert(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [convert(item) for item in value]
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.ndarray):
            return [convert(item) for item in value.tolist()]
        return value

    return convert(rng.bit_generator.state)


def evaluate_circuit(
    timing: CircuitTiming,
    config: Optional[EvaluationConfig] = None,
) -> EvaluationResult:
    """Run the full Section I protocol on one circuit model."""
    config = config or EvaluationConfig()
    rng = np.random.default_rng(config.seed)
    defect_model = SingleDefectModel(timing, size_model=config.size_model)
    # Resolve once so all N trials share one executor config and one cache
    # object (whose hit/miss counters then describe the whole protocol).
    parallel = resolve_parallel(config.parallel)
    cache = resolve_cache(config.cache)
    recorder = obs.get_recorder()
    records: List[TrialRecord] = []

    identity: Optional[Dict] = None
    first_trial = 0
    if config.checkpoint:
        identity = _evaluation_identity(timing, config)
        if config.resume and os.path.exists(config.checkpoint):
            payload = load_checkpoint(
                config.checkpoint, kind="evaluation", identity=identity
            )
            state = payload["state"]
            records = [
                _record_from_payload(entry) for entry in state["records"]
            ]
            # Restore the exact generator state the interrupted run left
            # behind: trial k+1 draws continue the stream bit-for-bit.
            rng.bit_generator.state = state["rng_state"]
            first_trial = len(records)
            recorder.count("checkpoint.resumed_trials", first_trial)

    def _commit_checkpoint() -> None:
        if not config.checkpoint or identity is None:
            return
        with recorder.span("checkpoint.write"):
            write_checkpoint(
                config.checkpoint,
                build_checkpoint(
                    "evaluation",
                    identity,
                    {
                        "records": [
                            _record_to_payload(record) for record in records
                        ],
                        "rng_state": _rng_state_payload(rng),
                    },
                    completed=len(records),
                    total=config.n_trials,
                ),
            )

    for trial_index in range(first_trial, config.n_trials):
        chaos.trip("evaluate.trial", index=trial_index)
        started = time.perf_counter()
        with recorder.span("evaluate.trial"):
            patterns: Optional[PatternPairSet] = None
            defect = None
            location_redraws = 0
            with recorder.span("evaluate.atpg"):
                for _redraw in range(config.max_location_redraws):
                    defect = defect_model.draw(rng)
                    patterns, _tests = generate_path_tests(
                        timing,
                        defect.edge,
                        n_paths=config.n_paths,
                        rng_seed=config.seed * 1000 + trial_index,
                    )
                    if len(patterns):
                        break
                    location_redraws += 1
            if patterns is None or not len(patterns):
                raise RuntimeError(
                    "could not find a testable defect site after "
                    f"{config.max_location_redraws} redraws"
                )

            with recorder.span("evaluate.simulate"):
                simulations = simulate_pattern_set(timing, list(patterns))
                clk = diagnosis_clock(
                    timing,
                    list(patterns),
                    config.clk_quantile,
                    simulations=simulations,
                    targets=patterns.target_observations(),
                )
                trial, instance_redraws = draw_failing_trial(
                    timing,
                    patterns,
                    clk,
                    defect_model,
                    rng,
                    max_attempts=config.max_instance_redraws,
                    defect=defect,
                )

            with recorder.span("evaluate.diagnose"):
                results, dictionary = run_diagnosis(
                    timing,
                    patterns,
                    clk,
                    trial.behavior,
                    defect_model.dictionary_size_variable().samples,
                    error_functions=config.error_functions,
                    base_simulations=simulations,
                    parallel=parallel,
                    cache=cache,
                    sampler=config.sampler,
                    size_distribution=(
                        defect_model.dictionary_size_distribution()
                    ),
                )
        recorder.count("evaluate.trials")
        recorder.count("evaluate.location_redraws", location_redraws)
        recorder.count("evaluate.instance_redraws", instance_redraws)
        recorder.count("evaluate.suspects", len(dictionary))
        recorder.count(
            "evaluate.failing_observations", trial.n_failing_observations
        )
        ranks = {
            name: result.rank_of(defect.edge) for name, result in results.items()
        }
        records.append(
            TrialRecord(
                defect_edge=defect.edge,
                defect_size_mean=defect.size_mean,
                sample_index=trial.sample_index,
                n_patterns=len(patterns),
                n_suspects=len(dictionary),
                n_failing_observations=trial.n_failing_observations,
                location_redraws=location_redraws,
                instance_redraws=instance_redraws,
                ranks=ranks,
                seconds=time.perf_counter() - started,
            )
        )
        _commit_checkpoint()
    return EvaluationResult(timing.circuit.name, config, records)
