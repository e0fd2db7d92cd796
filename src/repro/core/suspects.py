"""Suspect-fault pruning: the cause-effect step of Algorithm E.1.

    "Find a set of suspect faults S subset of E such that each fault in S is
    *logically* sensitized to a faulty output by at least one pattern."

Implemented as backward critical-path tracing on the settled two-vector
logic values: starting from every failing (output, pattern) observation,
walk back through the input pins that can be driving the output's timing
(:func:`repro.paths.sensitization.sensitized_input_pins` — controlling-final
pins for controlled outputs, transitioning pins otherwise) and collect the
traversed edges.  The union over all failing observations is the suspect
set; the paper reports 100-600 suspects per circuit under this pruning.
"""

from __future__ import annotations

from typing import List, Sequence, Set

import numpy as np

from ..circuits.library import GateType
from ..circuits.netlist import Edge
from ..paths.sensitization import sensitized_input_pins
from ..timing.dynamic import TransitionSimResult, edge_offsets

__all__ = ["trace_sensitized_edges", "suspect_edges"]


def trace_sensitized_edges(
    sim: TransitionSimResult, output: str
) -> List[Edge]:
    """Edges logically sensitized toward ``output`` under one pattern.

    Backward trace from the output through driving pins; only nets that
    actually transition are traversed (a defect on a transition-free segment
    cannot have produced a late transition at the output).
    """
    circuit = sim.timing.circuit
    if not sim.transitioned(output):
        return []
    edges: List[Edge] = []
    seen: Set[str] = {output}
    stack: List[str] = [output]
    while stack:
        net = stack.pop()
        gate = circuit.gates[net]
        if gate.gate_type is GateType.INPUT:
            continue
        pins = sensitized_input_pins(
            gate.gate_type,
            [sim.val1[f] for f in gate.fanins],
            [sim.val2[f] for f in gate.fanins],
        )
        for pin in pins:
            fanin = gate.fanins[pin]
            if sim.val1[fanin] == sim.val2[fanin]:
                # Steady driver: its own history cannot delay the output.
                continue
            edges.append(Edge(fanin, net, pin))
            if fanin not in seen:
                seen.add(fanin)
                stack.append(fanin)
    return edges


def suspect_edges(
    simulations: Sequence[TransitionSimResult],
    behavior: np.ndarray,
) -> List[Edge]:
    """The suspect set for a failing behavior matrix.

    ``simulations[j]`` must be the (full-width) dynamic simulation of
    pattern ``j``; ``behavior[i, j] = 1`` marks output ``i`` failing pattern
    ``j``.  Returns the union of traced edges, ordered deterministically by
    their position in ``circuit.edges``.
    """
    if not simulations:
        return []
    circuit = simulations[0].timing.circuit
    if behavior.shape != (len(circuit.outputs), len(simulations)):
        raise ValueError(
            f"behavior shape {behavior.shape} does not match "
            f"({len(circuit.outputs)}, {len(simulations)})"
        )
    collected: Set[Edge] = set()
    for column, sim in enumerate(simulations):
        for row, output in enumerate(circuit.outputs):
            if behavior[row, column]:
                collected.update(trace_sensitized_edges(sim, output))
    offsets = edge_offsets(circuit)
    return sorted(collected, key=lambda edge: offsets[edge.sink] + edge.pin)
