"""The diagnosis drivers: ``Alg_sim`` (Algorithm E.1) and ``Alg_rev`` (F.1).

Both algorithms share all steps except the final scoring/ranking rule:

1. prune suspects by cause-effect tracing (:mod:`repro.core.suspects`),
2. build the probabilistic fault dictionary, i.e. per-suspect signature
   matrices via statistical dynamic timing simulation
   (:mod:`repro.core.dictionary`),
3. score each suspect's signature against the observed behavior matrix with
   a diagnosis error function (:mod:`repro.core.error_functions`),
4. rank and emit the top-``K`` candidate defect locations.

:func:`diagnose` runs steps 3-4 for one error function on a prebuilt
dictionary; :func:`run_diagnosis` is the end-to-end convenience wrapper
around all four steps.  Ties are broken deterministically by suspect order
(position in ``circuit.edges``), which matters for reproducibility when many
signatures are all-zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..atpg.patterns import PatternPairSet
from ..circuits.netlist import Edge
from ..timing.critical import simulate_pattern_set
from ..timing.dynamic import TransitionSimResult
from ..timing.instance import CircuitTiming
from .. import obs
from .cache import DictionaryStore
from .dictionary import ProbabilisticFaultDictionary, build_dictionary
from .error_functions import (
    ALG_REV,
    ErrorFunction,
    METHOD_I,
    METHOD_II,
    batched_scores,
)
from .parallel import ParallelConfig
from .suspects import suspect_edges

__all__ = [
    "DiagnosisResult",
    "diagnose",
    "diagnose_all",
    "diagnose_batch",
    "run_diagnosis",
]


@dataclass
class DiagnosisResult:
    """A ranked list of candidate defect locations.

    ``ranking`` is best-first: ``ranking[0]`` is the most probable defect
    site under the chosen error function.  Scores keep the function's
    native orientation (probabilities for Alg_sim methods, errors for
    Alg_rev).
    """

    method: str
    ranking: List[Tuple[Edge, float]]

    def top(self, k: int = 1) -> List[Edge]:
        """The paper's top-``K`` answer set."""
        if k < 1:
            raise ValueError("K must be at least 1")
        return [edge for edge, _score in self.ranking[:k]]

    def rank_of(self, edge: Edge) -> Optional[int]:
        """1-based rank of an edge, or ``None`` if it is not a suspect."""
        for index, (candidate, _score) in enumerate(self.ranking):
            if candidate == edge:
                return index + 1
        return None

    def hit(self, edge: Edge, k: int) -> bool:
        """Success criterion of Section I: injected defect in the top-K."""
        rank = self.rank_of(edge)
        return rank is not None and rank <= k

    def score_of(self, edge: Edge) -> Optional[float]:
        for candidate, score in self.ranking:
            if candidate == edge:
                return score
        return None

    def __len__(self) -> int:
        return len(self.ranking)


def diagnose(
    dictionary: ProbabilisticFaultDictionary,
    behavior: np.ndarray,
    error_function: ErrorFunction = ALG_REV,
) -> DiagnosisResult:
    """Rank the dictionary's suspects against a behavior matrix.

    Suspects are scored on their full failing-probability matrices
    ``E_crt = M_crt + S_crt`` (Figure 2's "probabilities of failing").  In
    the paper's regime — "we can always make clk large enough so that
    M_crt = 0, in that case S_crt = E_crt" — this is identical to scoring
    the signature; with a tight diagnosis clock, baseline-critical
    observations (``m ~ 1``) would otherwise make every suspect look
    inconsistent with failures the healthy circuit itself produces.
    """
    behavior = np.asarray(behavior)
    if behavior.shape != dictionary.m_crt.shape:
        raise ValueError(
            f"behavior shape {behavior.shape} != error-matrix shape "
            f"{dictionary.m_crt.shape}"
        )
    scored = [
        (edge, error_function(dictionary.e_crt(edge), behavior))
        for edge in dictionary.suspects
    ]
    # Stable sort: ties keep the deterministic suspect order.
    reverse = error_function.higher_is_better
    ranking = sorted(scored, key=lambda item: -item[1] if reverse else item[1])
    return DiagnosisResult(error_function.name, ranking)


#: Soft cap on the broadcast scratch ``(Q_chunk, S, n_out, n_cols)`` the
#: batch scorer materializes at once, in float64 elements (~64 MiB).
#: Chunking over queries never changes results — each (query, suspect)
#: score is computed independently.
_BATCH_BLOCK_ELEMS = 8_000_000


def diagnose_batch(
    dictionary: ProbabilisticFaultDictionary,
    behaviors: Sequence[np.ndarray],
    error_function: ErrorFunction = ALG_REV,
) -> List[DiagnosisResult]:
    """Rank the dictionary's suspects against many behavior matrices.

    One vectorized kernel call scores every (behavior, suspect) pair via
    the suspect signature stack, then each query is ranked exactly like
    :func:`diagnose`.  The result is bit-identical to
    ``[diagnose(dictionary, b, error_function) for b in behaviors]`` —
    the batched error-function kernels replay the scalar floating-point
    reduction order (see :func:`repro.core.error_functions.batched_scores`)
    and the ranking uses the same stable sort and tie-break.  This is the
    hot path of the warm :class:`repro.service.DiagnosisService`.
    """
    recorder = obs.get_recorder()
    shape = dictionary.m_crt.shape
    stacked = np.empty((len(behaviors),) + shape, dtype=float)
    for index, behavior in enumerate(behaviors):
        behavior = np.asarray(behavior)
        if behavior.shape != shape:
            raise ValueError(
                f"behavior {index} shape {behavior.shape} != error-matrix "
                f"shape {shape}"
            )
        stacked[index] = behavior
    suspects = dictionary.suspects
    if not suspects:
        return [
            DiagnosisResult(error_function.name, [])
            for _ in range(len(behaviors))
        ]
    with recorder.span("diagnosis.batch"):
        recorder.count("diagnosis.batch_queries", len(behaviors))
        # Same floats as per-suspect ``m_crt + signatures[edge]``: the
        # broadcast add performs the identical elementwise additions.
        e_stack = dictionary.m_crt[None, :, :] + dictionary.signature_stack()
        per_query = len(suspects) * max(int(np.prod(shape)), 1)
        block = max(1, _BATCH_BLOCK_ELEMS // per_query)
        results: List[DiagnosisResult] = []
        reverse = error_function.higher_is_better
        for start in range(0, len(behaviors), block):
            grid = batched_scores(
                error_function, e_stack, stacked[start:start + block]
            )
            for row in grid:
                scored = [
                    (edge, float(score))
                    for edge, score in zip(suspects, row)
                ]
                ranking = sorted(
                    scored, key=lambda item: -item[1] if reverse else item[1]
                )
                results.append(DiagnosisResult(error_function.name, ranking))
    return results


def diagnose_all(
    dictionary: ProbabilisticFaultDictionary,
    behavior: np.ndarray,
    error_functions: Sequence[ErrorFunction] = (METHOD_I, METHOD_II, ALG_REV),
) -> Dict[str, DiagnosisResult]:
    """Run several error functions on one dictionary (one sim pass total)."""
    return {
        function.name: diagnose(dictionary, behavior, function)
        for function in error_functions
    }


def run_diagnosis(
    timing: CircuitTiming,
    patterns: PatternPairSet,
    clk: float,
    behavior: np.ndarray,
    size_samples: np.ndarray,
    error_functions: Sequence[ErrorFunction] = (METHOD_I, METHOD_II, ALG_REV),
    base_simulations: Optional[Sequence[TransitionSimResult]] = None,
    suspects: Optional[Sequence[Edge]] = None,
    parallel: Optional[Union[ParallelConfig, str]] = None,
    cache: Optional[Union[DictionaryStore, str]] = None,
    sampler=None,
    size_distribution=None,
) -> Tuple[Dict[str, DiagnosisResult], ProbabilisticFaultDictionary]:
    """End-to-end diagnosis of one failing chip.

    Returns the per-method results plus the dictionary (so callers can
    inspect signatures, rerun other error functions, or feed the automatic
    K-selection heuristics).  ``parallel`` / ``cache`` flow into the
    dictionary construction (bit-identical results either way).
    ``sampler`` / ``size_distribution`` select the variance-reduced
    signature estimator (:func:`repro.core.dictionary.build_dictionary`
    semantics).
    """
    recorder = obs.get_recorder()
    if base_simulations is None:
        base_simulations = simulate_pattern_set(timing, list(patterns))
    if suspects is None:
        suspects = suspect_edges(base_simulations, behavior)
    recorder.count("diagnosis.runs")
    recorder.count("diagnosis.suspects", len(suspects))
    dictionary = build_dictionary(
        timing,
        patterns,
        clk,
        suspects,
        size_samples,
        base_simulations=base_simulations,
        parallel=parallel,
        cache=cache,
        sampler=sampler,
        size_distribution=size_distribution,
    )
    with recorder.span("diagnosis.score"):
        results = diagnose_all(dictionary, behavior, error_functions)
    return results, dictionary
