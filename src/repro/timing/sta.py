"""Statistical static timing analysis (Definition D.5, "static" half).

Block-based Monte-Carlo STA: arrival-time sample vectors propagate through
the DAG in topological order with the elementwise sum/max algebra of
:mod:`repro.timing.randvars`.  Because every edge delay shares the common
sample space, arbitrary correlations (global process shift, reconvergent
fanout) are handled exactly — the known weakness of analytic (moment-based)
statistical STA that motivated the Monte-Carlo framework of [5]/[17].

Static STA here is *topological*: it ignores logic masking, i.e. it bounds
the sensitizable delay from above (false paths included).  The diagnosis
flow uses it for clock selection and longest-path search; per-pattern
sensitized arrival times come from :mod:`repro.timing.dynamic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..circuits.library import GateType
from ..circuits.netlist import Circuit
from .dynamic import edge_offsets
from .instance import CircuitTiming
from .randvars import RandomVariable

__all__ = ["StaResult", "analyze", "suggest_clock"]


@dataclass
class StaResult:
    """Arrival-time samples per net plus the circuit-delay distribution."""

    timing: CircuitTiming
    arrivals: Dict[str, np.ndarray]

    def arrival(self, net: str) -> RandomVariable:
        """``Ar(net)`` as a random variable (Definition under D-1)."""
        return RandomVariable(self.arrivals[net], self.timing.space)

    def circuit_delay(self) -> RandomVariable:
        """``Delta(C) = max over outputs of Ar(o)`` — the D-1 circuit delay."""
        outputs = self.timing.circuit.outputs
        stacked = np.stack([self.arrivals[net] for net in outputs])
        return RandomVariable(stacked.max(axis=0), self.timing.space)

    def critical_probability(self, net: str, clk: float) -> float:
        return float(np.mean(self.arrivals[net] > clk))

    def nominal_arrival(self, net: str) -> float:
        return float(self.arrivals[net].mean())


def analyze(timing: CircuitTiming, extra_delay: Optional[Dict[int, np.ndarray]] = None) -> StaResult:
    """Run statistical STA; optionally add per-edge extra delay samples.

    ``extra_delay`` maps edge indices (``circuit.edges`` order) to sample
    vectors — the hook used to study a defect's effect on the static
    distribution (e.g. for clock selection under pessimism, or ablations).
    """
    circuit = timing.circuit
    delays = timing.delays
    edge_offset = edge_offsets(circuit)

    arrivals: Dict[str, np.ndarray] = {}
    zeros = np.zeros(timing.space.n_samples)
    for name in circuit.topological_order:
        gate = circuit.gates[name]
        if gate.gate_type is GateType.INPUT:
            arrivals[name] = zeros
            continue
        base = edge_offset[name]
        best: Optional[np.ndarray] = None
        for pin, fanin in enumerate(gate.fanins):
            edge_index = base + pin
            candidate = arrivals[fanin] + delays[edge_index]
            if extra_delay and edge_index in extra_delay:
                candidate = candidate + extra_delay[edge_index]
            best = candidate if best is None else np.maximum(best, candidate)
        arrivals[name] = best if best is not None else zeros
    return StaResult(timing, arrivals)


def suggest_clock(timing: CircuitTiming, quantile: float = 0.95) -> float:
    """Cut-off period ``clk`` as a quantile of the defect-free ``Delta(C)``.

    The paper applies one fixed ``clk`` to observe the behavior matrix
    (Algorithm E.1, step 0) without specifying how it was chosen; a high
    quantile of the healthy population is the natural test-clock choice —
    healthy chips mostly pass, delay-defective chips fail some patterns.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    return analyze(timing).circuit_delay().quantile(quantile)
