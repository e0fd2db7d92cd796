"""The warm diagnosis engine: precompiled workloads, batched queries.

A :class:`DiagnosisService` is the amortize-once/query-many core of the
service layer (ROADMAP north-star; the hierarchical-reuse structure of
Li & Schlichtmann's timing-model extraction applied one level up): each
registered *workload* compiles its circuit timing, simulates the
defect-free pattern responses, and builds the probabilistic fault
dictionary exactly once — after which every query is a cheap vectorized
scoring pass over the warm signature stack via
:func:`repro.core.diagnosis.diagnose_batch`.

Warm answers are bit-identical to the one-shot
:func:`repro.core.diagnosis.diagnose` path on the same dictionary (the
acceptance contract, enforced by ``tests/test_service.py``): the engine
adds grouping and bookkeeping, never arithmetic.

Dictionaries flow through :func:`repro.core.cache.resolve_cache`, so a
cache directory's ``DictionaryStore`` serves the signature stack as
read-only mmapped pages shared across service processes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..atpg import generate_path_tests
from ..atpg.patterns import PatternPairSet
from ..circuits import load_benchmark
from ..circuits.netlist import Edge
from ..defects import SingleDefectModel, draw_failing_trial
from ..timing import (
    CircuitTiming,
    SampleSpace,
    diagnosis_clock,
    simulate_pattern_set,
)
from ..core import diagnose_batch as _core_diagnose_batch
from ..core import by_name
from ..core.cache import (
    DictionaryStore,
    dictionary_cache_key,
    resolve_cache,
)
from ..core.dictionary import ProbabilisticFaultDictionary, build_dictionary
from ..core.parallel import ParallelConfig
from ..resilience import chaos
from ..sampling import SizeDistribution, resolve_sampler
from .errors import BadRequestError, UnknownWorkloadError, WorkloadReloadError

__all__ = [
    "DiagnosisRequest",
    "RankedDiagnosis",
    "DiagnosisService",
    "Workload",
    "standard_workload",
    "draw_query_behaviors",
]


@dataclass(frozen=True, eq=False)
class DiagnosisRequest:
    """One query: a behavior matrix against a named warm workload."""

    workload: str
    behavior: np.ndarray
    error_function: str = "alg_rev"


@dataclass
class RankedDiagnosis:
    """The service's answer: best-first suspect ranking for one request.

    ``version`` tags which dictionary generation scored the request — it
    is the proof obligation of hot reload: every suspect in ``ranking``
    came from exactly that generation, never a mix.
    """

    workload: str
    method: str
    ranking: List[Tuple[Edge, float]]
    version: int = 0

    def top(self, k: int = 1) -> List[Edge]:
        if k < 1:
            raise ValueError("K must be at least 1")
        return [edge for edge, _score in self.ranking[:k]]


@dataclass
class Workload:
    """Everything one workload needs, compiled once at registration.

    ``dictionary`` stays ``None`` until the first query (or an explicit
    :meth:`DiagnosisService.warm`) builds it — the cold/warm latency
    split ``benchmarks/bench_service.py`` measures.
    """

    name: str
    timing: CircuitTiming
    patterns: PatternPairSet
    clk: float
    suspects: List[Edge]
    size_samples: np.ndarray
    size_distribution: Optional[SizeDistribution] = None
    base_simulations: Optional[Sequence] = None
    dictionary: Optional[ProbabilisticFaultDictionary] = None
    #: Dictionary generation: bumped by every successful hot reload and
    #: threaded through :class:`RankedDiagnosis` and the wire result.
    version: int = 0

    @property
    def behavior_shape(self) -> Tuple[int, int]:
        # One row per circuit output, one column per pattern pair — the
        # same axes as ``m_crt`` and every suspect signature.  (Not the
        # *targeted* observation count: a behavior matrix reports every
        # output, whether or not the pattern set targets it.)
        return (len(self.patterns.circuit.outputs), len(self.patterns))


class DiagnosisService:
    """A long-lived, thread-safe engine answering diagnosis queries.

    ``cache`` / ``parallel`` / ``sampler`` flow into dictionary builds
    exactly as in :func:`repro.core.dictionary.build_dictionary` (all
    bit-identical knobs).  The per-workload build lock makes concurrent
    first queries build each dictionary once, not once per caller.
    """

    def __init__(
        self,
        cache: Optional[Union[DictionaryStore, str]] = None,
        parallel: Optional[Union[ParallelConfig, str]] = None,
        sampler=None,
    ) -> None:
        self._cache = resolve_cache(cache)
        self._parallel = parallel
        self._sampler = sampler
        self._workloads: Dict[str, Workload] = {}
        self._locks: Dict[str, threading.Lock] = {}
        self._registry_lock = threading.Lock()
        self.queries_served = 0
        self.batches_served = 0

    # -- registration ---------------------------------------------------

    def register(self, workload: Workload) -> Workload:
        """Register a compiled workload under its name (idempotent)."""
        with self._registry_lock:
            self._workloads[workload.name] = workload
            self._locks.setdefault(workload.name, threading.Lock())
        return workload

    def workload(self, name: str) -> Workload:
        try:
            return self._workloads[name]
        except KeyError:
            raise UnknownWorkloadError(
                f"unknown workload {name!r}; registered: "
                f"{sorted(self._workloads)}"
            ) from None

    def workload_names(self) -> List[str]:
        return sorted(self._workloads)

    # -- warm-up --------------------------------------------------------

    def warm(self, name: str) -> ProbabilisticFaultDictionary:
        """Build (or fetch) the workload's dictionary; idempotent."""
        workload = self.workload(name)
        if workload.dictionary is not None:
            return workload.dictionary
        with self._locks[name]:
            if workload.dictionary is None:
                recorder = obs.get_recorder()
                with recorder.span("service.warm"):
                    recorder.count("service.warmups")
                    workload.dictionary = build_dictionary(
                        workload.timing,
                        workload.patterns,
                        workload.clk,
                        workload.suspects,
                        workload.size_samples,
                        base_simulations=workload.base_simulations,
                        parallel=self._parallel,
                        cache=self._cache,
                        sampler=self._sampler,
                        size_distribution=workload.size_distribution,
                    )
                    # Pre-stack signatures so the first query pays no
                    # assembly cost either (a no-op for store-served
                    # dictionaries, which arrive with the mmapped stack).
                    workload.dictionary.signature_stack()
        return workload.dictionary

    def warm_all(self) -> None:
        for name in self.workload_names():
            self.warm(name)

    # -- execution plane -------------------------------------------------

    @property
    def parallel(self):
        """The current parallel plane (builds run through it)."""
        return self._parallel

    def set_parallel(self, parallel) -> None:
        """Swap the parallel plane — the supervisor's degradation hook.

        Only future dictionary builds are affected; answers never change
        (builds are bit-identical across backends by contract).
        """
        self._parallel = parallel

    @property
    def cache(self):
        """The resolved dictionary cache/store (``None`` when disabled)."""
        return self._cache

    # -- hot reload ------------------------------------------------------

    def cache_key(self, name: str) -> str:
        """The content address a workload's dictionary lives under.

        Mirrors :func:`repro.core.dictionary.build_dictionary` exactly
        (same fingerprints, same sampler token), so a rewritten store
        entry for this key is *the* entry a reload must pick up.
        """
        workload = self.workload(name)
        sampler_config = resolve_sampler(self._sampler)
        token = None
        if not sampler_config.is_plain:
            token = sampler_config.cache_token(workload.size_distribution)
        return dictionary_cache_key(
            workload.timing,
            list(workload.patterns),
            (float(workload.clk),),
            workload.suspects,
            workload.size_samples,
            sampler_token=token,
        )

    def reload(self, name: str) -> int:
        """Atomically swap a workload's dictionary from its store entry.

        Reads the rewritten :class:`~repro.core.cache.DictionaryStore`
        manifest for the workload's cache key, validates it loudly
        (:meth:`DictionaryStore.read_manifest`), maps the payload, and
        swaps the ``(dictionary, version)`` pair under the per-workload
        lock — in-flight queries keep scoring against the generation
        they snapshotted; later groups see the new one.  Any failure
        raises a typed :class:`WorkloadReloadError` and leaves the old
        mapping serving.  Returns the new generation number.
        """
        workload = self.workload(name)
        recorder = obs.get_recorder()
        with recorder.span("service.reload"):
            try:
                if self._cache is None:
                    raise ValueError(
                        "hot reload needs a dictionary store, but the "
                        "service has no cache directory"
                    )
                chaos.trip("service.store_load", index=workload.version)
                key = self.cache_key(name)
                manifest = self._cache.read_manifest(key)
                if manifest["n_suspects"] != len(workload.suspects):
                    raise ValueError(
                        f"store entry has {manifest['n_suspects']} suspects, "
                        f"workload has {len(workload.suspects)}"
                    )
                expected = workload.behavior_shape
                if tuple(manifest["shape"][1:]) != tuple(expected):
                    raise ValueError(
                        f"store entry shape {tuple(manifest['shape'][1:])} "
                        f"!= workload behavior shape {tuple(expected)}"
                    )
                stack = self._cache.load(key)
                if stack is None:
                    raise ValueError(
                        "store entry vanished or failed structural checks "
                        "while mapping"
                    )
            except Exception as exc:
                recorder.count("service.reload.failed")
                raise WorkloadReloadError(
                    f"hot reload of workload {name!r} rejected (still "
                    f"serving generation {workload.version}): {exc}"
                ) from exc
            dictionary = ProbabilisticFaultDictionary(
                timing=workload.timing,
                clk=workload.clk,
                m_crt=stack[0],
                suspects=list(workload.suspects),
                signatures=dict(zip(workload.suspects, stack[1:])),
                size_samples=workload.size_samples,
                _signature_stack=stack[1:],
            )
            with self._locks[name]:
                workload.dictionary = dictionary
                workload.version += 1
                version = workload.version
            recorder.count("service.reloads")
            return version

    # -- queries --------------------------------------------------------

    def diagnose_batch(
        self, requests: Sequence[DiagnosisRequest]
    ) -> List[RankedDiagnosis]:
        """Answer a batch of queries, preserving request order.

        Requests are grouped by ``(workload, error_function)`` and each
        group is scored in one vectorized kernel call — answers are
        bit-identical to running the one-shot scalar path per request,
        and therefore independent of how requests are batched or
        interleaved across clients.  A bad request fails the *batch*
        with a typed error before any scoring runs, so partial answers
        never escape.
        """
        recorder = obs.get_recorder()
        groups: Dict[Tuple[str, str], List[int]] = {}
        for index, request in enumerate(requests):
            try:
                by_name(request.error_function)
            except KeyError as exc:
                raise BadRequestError(str(exc)) from None
            self.workload(request.workload)  # raises UnknownWorkloadError
            key = (request.workload, request.error_function)
            groups.setdefault(key, []).append(index)

        answers: List[Optional[RankedDiagnosis]] = [None] * len(requests)
        with recorder.span("service.batch"):
            recorder.count("service.batches")
            recorder.count("service.queries", len(requests))
            for (name, function_name), indices in groups.items():
                self.warm(name)
                workload = self.workload(name)
                # Snapshot one (dictionary, version) pair under the
                # workload lock: a concurrent hot reload lands wholly
                # before or wholly after this group, so a group is never
                # scored against a torn mix of generations.
                with self._locks[name]:
                    dictionary = workload.dictionary
                    version = workload.version
                behaviors = []
                for index in indices:
                    behavior = np.asarray(requests[index].behavior)
                    if behavior.shape != dictionary.m_crt.shape:
                        raise BadRequestError(
                            f"behavior shape {behavior.shape} != workload "
                            f"{name!r} shape {dictionary.m_crt.shape}"
                        )
                    behaviors.append(behavior)
                results = _core_diagnose_batch(
                    dictionary, behaviors, by_name(function_name)
                )
                for index, result in zip(indices, results):
                    answers[index] = RankedDiagnosis(
                        workload=name,
                        method=result.method,
                        ranking=result.ranking,
                        version=version,
                    )
        self.queries_served += len(requests)
        self.batches_served += 1
        return [answer for answer in answers if answer is not None]

    def diagnose(
        self,
        workload: str,
        behavior: np.ndarray,
        error_function: str = "alg_rev",
    ) -> RankedDiagnosis:
        """Single-query convenience wrapper over :meth:`diagnose_batch`."""
        return self.diagnose_batch(
            [DiagnosisRequest(workload, behavior, error_function)]
        )[0]

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict:
        """Counters + per-workload warm state (for ``op: stats``)."""
        cache_stats = None
        if self._cache is not None:
            cache_stats = {
                "hits": self._cache.stats.hits,
                "misses": self._cache.stats.misses,
                "stores": self._cache.stats.stores,
            }
        return {
            "queries_served": self.queries_served,
            "batches_served": self.batches_served,
            "workloads": {
                name: {
                    "warm": workload.dictionary is not None,
                    "suspects": len(workload.suspects),
                    "behavior_shape": list(workload.behavior_shape),
                    "version": workload.version,
                }
                for name, workload in sorted(self._workloads.items())
            },
            "cache": cache_stats,
        }


def standard_workload(
    benchmark: str,
    samples: int = 300,
    seed: int = 0,
    n_paths: int = 8,
) -> Tuple[Workload, SingleDefectModel]:
    """The canonical workload for a benchmark circuit, fully determined
    by ``(benchmark, samples, seed, n_paths)``.

    Mirrors the one-shot diagnosis flow (``quick_diagnosis_demo``): draw
    a defect site, generate path-delay patterns through it, pick the
    diagnosis clock, and take the full sensitized-edge suspect set from a
    failing trial at that clock.  CLI, benchmark, and tests all build
    workloads through this helper so they agree on every artifact.
    """
    circuit = load_benchmark(benchmark, seed=seed)
    timing = CircuitTiming(circuit, SampleSpace(n_samples=samples, seed=seed))
    rng = np.random.default_rng(seed)
    model = SingleDefectModel(timing)
    defect = patterns = None
    for _ in range(20):
        defect = model.draw(rng)
        patterns, _tests = generate_path_tests(
            timing, defect.edge, n_paths=n_paths, rng_seed=seed
        )
        if len(patterns):
            break
    if patterns is None or not len(patterns):
        raise RuntimeError(
            f"could not generate patterns for any drawn defect on "
            f"{benchmark!r} (seed {seed})"
        )
    simulations = simulate_pattern_set(timing, list(patterns))
    clk = diagnosis_clock(
        timing, list(patterns), 0.85,
        simulations=simulations, targets=patterns.target_observations(),
    )
    from ..core import suspect_edges

    trial, _redraws = draw_failing_trial(
        timing, patterns, clk, model, rng, defect=defect
    )
    suspects = suspect_edges(simulations, trial.behavior)
    return (
        Workload(
            name=benchmark,
            timing=timing,
            patterns=patterns,
            clk=clk,
            suspects=list(suspects),
            size_samples=model.dictionary_size_variable().samples,
            size_distribution=model.dictionary_size_distribution(),
            base_simulations=simulations,
        ),
        model,
    )


def draw_query_behaviors(
    workload: Workload,
    model: SingleDefectModel,
    n: int,
    seed: int = 1000,
) -> List[np.ndarray]:
    """Deterministic failing-chip behavior matrices for a workload.

    Behavior ``k`` is drawn with its own ``default_rng(seed + offset)``,
    so a query stream is reproducible and independent of batch sizes —
    the concurrency tests compare rankings for the *same* behaviors
    routed through differently interleaved client batches.  A seed
    offset whose drawn defect the pattern set cannot expose is skipped
    (deterministically — the scan order is fixed), so one untestable
    site never sinks the whole stream.
    """
    behaviors: List[np.ndarray] = []
    offset = 0
    limit = 10 * n + 100  # plenty of headroom before declaring defeat
    while len(behaviors) < n:
        if offset >= limit:
            raise RuntimeError(
                f"drew only {len(behaviors)}/{n} failing behaviors in "
                f"{limit} seed offsets; workload {workload.name!r} is "
                "effectively untestable"
            )
        try:
            trial, _redraws = draw_failing_trial(
                workload.timing,
                workload.patterns,
                workload.clk,
                model,
                np.random.default_rng(seed + offset),
            )
        except RuntimeError:
            offset += 1
            continue
        behaviors.append(trial.behavior)
        offset += 1
    return behaviors
