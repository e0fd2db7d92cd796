"""Delay-maximizing fill of unconstrained inputs (paper Section G).

    "Another possibility could be to use Genetic Algorithm based ATPG
    techniques that can generate tests resulting in longer path delays
    based on a fitness function [11].  After assigning the mandatory values
    to sensitize a given path, usually there are still many unspecified
    values at the primary inputs."

This module implements that idea as a small (mu + lambda) evolutionary
search over the free input bits of a justified path test:

* **genome** — one bit per free (input, frame) position,
* **fitness** — the *defect visibility* of the test: the mean increase of
  the targeted output's settle time when a canonical delta is added on the
  tested path.  (In the paper's setting fill changes path delay through
  slew/crosstalk; our library's pin-to-pin delays are input-independent, so
  the faithful objective is the one fill still controls — how much of the
  fault's extra delay actually reaches the observation point instead of
  being masked by longer incidental paths the fill sensitizes.  Visibility
  of ``delta`` is at most ``delta``; a fill reaching it makes the tested
  path dominate the output arrival for every sample.)
* **feasibility** — candidates that break the required sensitization class
  of the targeted path are discarded (the mandatory values are never
  touched, but fill interactions can still change off-path side values).

The ``pattern_quality_study`` example and the extension bench measure the
effect end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.netlist import Circuit
from ..logic.simulator import evaluate_two_frame, frame_values
from ..rng import RngLike, coerce_rng
from ..paths.sensitization import Sensitization, classify_path_sensitization
from ..timing.dynamic import simulate_transition
from ..timing.instance import CircuitTiming
from .pathdelay import PathTest

__all__ = ["FillResult", "optimize_fill"]


@dataclass
class FillResult:
    """Outcome of the fill optimization.

    ``baseline_visibility``/``optimized_visibility`` are mean delay units of
    a canonical ``delta`` on the tested path that reach the observed output
    (at most ``delta``; higher = the tested path dominates the output).
    """

    test: PathTest
    baseline_visibility: float
    optimized_visibility: float
    delta: float
    generations_run: int

    @property
    def improvement(self) -> float:
        """Absolute visibility gain (delay units)."""
        return self.optimized_visibility - self.baseline_visibility


def _defect_visibility(
    timing: CircuitTiming,
    v1: List[int],
    v2: List[int],
    target: str,
    probe: Dict[int, float],
) -> float:
    """Mean settle increase at ``target`` caused by the probe delta."""
    base = simulate_transition(timing, np.asarray(v1), np.asarray(v2))
    if not base.transitioned(target):
        return float("-inf")
    from ..timing.dynamic import resimulate_with_extra

    shifted = resimulate_with_extra(base, probe)
    return float((shifted.stable[target] - base.stable[target]).mean())


def _feasible(
    circuit: Circuit,
    test_path,
    v1: List[int],
    v2: List[int],
    criterion: Sensitization,
) -> bool:
    rows = circuit.rows
    val1, val2 = frame_values(rows, evaluate_two_frame(rows, v1, v2))
    return classify_path_sensitization(circuit, test_path, val1, val2).at_least(
        criterion
    )


def optimize_fill(
    timing: CircuitTiming,
    test: PathTest,
    criterion: Sensitization = Sensitization.NON_ROBUST,
    population: int = 8,
    generations: int = 6,
    mutation_rate: float = 0.15,
    delta: float = 1.0,
    rng: Optional[RngLike] = None,
) -> FillResult:
    """Evolve the fill of ``test`` to maximize defect visibility.

    The mandatory bits are those whose flip would break the sensitization;
    rather than re-deriving them from the justifier, feasibility is checked
    behaviourally on each candidate — simpler, and it also exploits fills
    that happen to keep the path sensitized through different side values.
    ``delta`` is the canonical probe size (default: one nominal NAND
    delay).  Returns the best feasible test found (possibly the input).
    """
    if population < 2 or generations < 1:
        raise ValueError("population >= 2 and generations >= 1 required")
    if delta <= 0:
        raise ValueError("delta must be positive")
    rng = coerce_rng(rng)
    circuit = timing.circuit
    target = test.path.nets[-1]
    width = len(circuit.inputs)
    first_edge = test.path.edges(circuit)[0]
    probe = {timing.edge_index[first_edge]: delta}

    def genome_of(v1: List[int], v2: List[int]) -> List[int]:
        return list(v1) + list(v2)

    def vectors_of(genome: List[int]) -> Tuple[List[int], List[int]]:
        return genome[:width], genome[width:]

    seed_genome = genome_of(test.v1, test.v2)
    baseline = _defect_visibility(timing, test.v1, test.v2, target, probe)

    scored: List[Tuple[float, List[int]]] = [(baseline, seed_genome)]
    pool: List[List[int]] = [seed_genome]
    while len(pool) < population:
        candidate = list(seed_genome)
        for index in range(len(candidate)):
            if rng.random() < mutation_rate:
                candidate[index] ^= 1
        pool.append(candidate)

    generations_run = 0
    for _generation in range(generations):
        generations_run += 1
        for genome in pool:
            v1, v2 = vectors_of(genome)
            if not _feasible(circuit, test.path, v1, v2, criterion):
                continue
            fitness = _defect_visibility(timing, v1, v2, target, probe)
            scored.append((fitness, genome))
        scored.sort(key=lambda item: -item[0])
        del scored[population:]
        # next generation: mutations and uniform crossovers of survivors
        pool = []
        while len(pool) < population:
            if len(scored) >= 2 and rng.random() < 0.5:
                a = rng.choice(scored)[1]
                b = rng.choice(scored)[1]
                child = [x if rng.random() < 0.5 else y for x, y in zip(a, b)]
            else:
                child = list(rng.choice(scored)[1])
            for index in range(len(child)):
                if rng.random() < mutation_rate:
                    child[index] ^= 1
            pool.append(child)

    best_fitness, best_genome = scored[0]
    v1, v2 = vectors_of(best_genome)
    rows = circuit.rows
    val1, val2 = frame_values(rows, evaluate_two_frame(rows, v1, v2))
    achieved = classify_path_sensitization(circuit, test.path, val1, val2)
    optimized = PathTest(test.path, v1, v2, test.rising_at_input, achieved)
    return FillResult(
        test=optimized,
        baseline_visibility=baseline,
        optimized_visibility=best_fitness,
        delta=delta,
        generations_run=generations_run,
    )
