"""Defect size estimation — completing the defect function ``D``.

Definition D.9 makes the defect a pair ``(delta, rho)``: the diagnosis
problem asks for the *distribution function*, but Algorithm E.1 only
recovers the location (``rho``).  This module estimates the size component
by maximum likelihood over a size grid:

for each candidate mean size ``s`` the suspect's failing-probability matrix
``E_crt(edge, s)`` is rebuilt (one cone re-simulation per grid point — the
settle-time shift is what changes, the logic never does) and the observed
behavior's log-likelihood under the independent-Bernoulli model

    ``L(s) = sum_ij [ b_ij log e_ij(s) + (1 - b_ij) log(1 - e_ij(s)) ]``

is evaluated; the maximizing ``s`` is the estimate.  Because the behavior
matrix is a single chip (one Bernoulli draw per entry) the estimate is
coarse — the grid default spans half-decades, which is exactly the
resolution failure analysis needs ("is this a fully open via or a slightly
resistive one?").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..atpg.patterns import PatternPairSet
from ..circuits.netlist import Edge
from ..defects.model import DefectSizeModel
from ..timing.critical import simulate_pattern_set
from ..timing.dynamic import TransitionSimResult, resimulate_with_extra
from ..timing.instance import CircuitTiming

__all__ = ["SizeEstimate", "estimate_defect_size"]

_EPS = 1e-9


@dataclass
class SizeEstimate:
    """Outcome of the maximum-likelihood size scan."""

    edge: Edge
    best_size: float
    log_likelihoods: Dict[float, float]

    @property
    def grid(self) -> List[float]:
        return sorted(self.log_likelihoods)

    def confidence_ratio(self) -> float:
        """Likelihood ratio between the best and the runner-up grid point.

        ~1.0 means the data cannot tell neighbouring sizes apart.
        """
        ranked = sorted(self.log_likelihoods.values(), reverse=True)
        if len(ranked) < 2:
            return float("inf")
        return float(np.exp(ranked[0] - ranked[1]))


def _log_likelihood(e_crt: np.ndarray, behavior: np.ndarray) -> float:
    probabilities = np.clip(e_crt, _EPS, 1.0 - _EPS)
    behavior = behavior.astype(bool)
    return float(
        np.log(probabilities[behavior]).sum()
        + np.log(1.0 - probabilities[~behavior]).sum()
    )


def estimate_defect_size(
    timing: CircuitTiming,
    patterns: PatternPairSet,
    clk: float,
    behavior: np.ndarray,
    edge: Edge,
    size_grid: Optional[Sequence[float]] = None,
    size_model: Optional[DefectSizeModel] = None,
    base_simulations: Optional[Sequence[TransitionSimResult]] = None,
) -> SizeEstimate:
    """ML estimate of the mean defect size at a located ``edge``.

    ``size_grid`` defaults to half-decade multiples of the circuit's mean
    cell delay, from 1/4 cell to 8 cells.  The per-size population keeps
    the paper's ``3*sigma = mean/2`` shape via ``size_model``.
    """
    size_model = size_model or DefectSizeModel()
    if size_grid is None:
        cell = timing.library.mean_cell_delay(timing.circuit)
        size_grid = [cell * factor for factor in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
    if not size_grid:
        raise ValueError("size grid must not be empty")
    behavior = np.asarray(behavior)
    expected_shape = (len(timing.circuit.outputs), len(patterns))
    if behavior.shape != expected_shape:
        raise ValueError(f"behavior shape {behavior.shape} != {expected_shape}")
    if base_simulations is None:
        base_simulations = simulate_pattern_set(timing, list(patterns))

    edge_index = timing.edge_index[edge]
    outputs = timing.circuit.outputs
    rows = timing.circuit.rows
    affected = rows.cone_outputs(rows.index[edge.sink]).tolist()
    rng = np.random.default_rng(timing.space.seed + 17)

    log_likelihoods: Dict[float, float] = {}
    for size in size_grid:
        samples = size_model.size_variable(float(size), timing.space, rng=rng).samples
        e_crt = np.zeros(expected_shape)
        for column, sim in enumerate(base_simulations):
            e_crt[:, column] = sim.error_vector(clk)
            if affected and sim.transitioned(edge.sink):
                patched = resimulate_with_extra(sim, {edge_index: samples})
                for row in affected:
                    net = outputs[row]
                    if patched.transitioned(net):
                        e_crt[row, column] = float(
                            np.mean(patched.stable[net] > clk)
                        )
        log_likelihoods[float(size)] = _log_likelihood(e_crt, behavior)

    # Likelihood plateaus once the defect saturates every sensitized entry
    # (all larger sizes explain the data equally well); prefer the smallest
    # size on (near-)ties — the minimal defect consistent with the evidence.
    best_ll = max(log_likelihoods.values())
    best_size = min(
        size for size, ll in log_likelihoods.items() if ll >= best_ll - 1e-6
    )
    return SizeEstimate(edge, best_size, log_likelihoods)
