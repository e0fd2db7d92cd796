"""The live part of a replayed cone, straight from its definition.

A copy of a cone replay adds extra delay to one suspect edge ``hit`` of a
simulated pattern, may recompute every transitioning gate of ``cone`` and
is read at ``nets``.  Its *live* gates are the recomputed gates that

* the hit edge reaches through candidate edges whose drivers the copy
  recomputes (forward), and
* reach a requested net through such edges (backward).

Every other gate of the cone re-reduces its base operands or is never
read, so the compiled kernel leaves it out of the replay plan.  This
module walks gate by gate over net names and the logic values, with the
candidate-pin rule of the reference oracle, and shares no table with the
kernel.
"""

from repro.circuits.library import CONTROLLING_VALUE, GateType
from repro.timing.dynamic import edge_offsets


def candidate_pins(gate, val1, val2):
    """The pins the settle rule of ``gate`` reduces over."""
    controlling = CONTROLLING_VALUE[gate.gate_type]
    if controlling is not None:
        pins = [
            pin for pin, fanin in enumerate(gate.fanins)
            if val2[fanin] == controlling
        ]
        if pins:
            return pins
    pins = [
        pin for pin, fanin in enumerate(gate.fanins)
        if val1[fanin] != val2[fanin]
    ]
    return pins or list(range(len(gate.fanins)))


def live_gates(sim, hit, cone, nets):
    """``(live gate names, their candidate edge count)`` of one copy."""
    circuit = sim.timing.circuit
    val1, val2 = sim.val1, sim.val2
    offsets = edge_offsets(circuit)
    index = circuit.topological_index
    order = sorted(cone, key=index.__getitem__)
    recomputed = {
        net for net in order
        if val1[net] != val2[net]
        and circuit.gates[net].gate_type is not GateType.INPUT
    }
    pins = {
        net: candidate_pins(circuit.gates[net], val1, val2)
        for net in recomputed
    }
    reached = set()
    for net in order:
        if net not in recomputed:
            continue
        fanins = circuit.gates[net].fanins
        if any(
            offsets[net] + pin == hit or fanins[pin] in reached
            for pin in pins[net]
        ):
            reached.add(net)
    needed = set(nets) & recomputed
    for net in reversed(order):
        if net in needed:
            fanins = circuit.gates[net].fanins
            needed.update(
                fanins[pin] for pin in pins[net] if fanins[pin] in recomputed
            )
    live = reached & needed
    return live, sum(len(pins[net]) for net in live)
