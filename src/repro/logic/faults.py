"""Logic-domain fault models: stuck-at and (gross-delay) transition faults.

These are the models of the *traditional* diagnosis world the paper contrasts
against (Sections B and C).  They serve three roles in the reproduction:

* the logic-only diagnosis baseline (:mod:`repro.core.baselines`),
* fault-resolution analysis of pattern sets (Section C's argument that logic
  resolution is not timing resolution),
* transition-fault detection as the *logic* precondition of delay detection
  (a pattern pair can only detect a delay defect on a net it launches a
  transition through and propagates to an output).

Delay-defect behaviour itself is simulated statistically in
:mod:`repro.defects.faultsim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.library import GateType
from ..circuits.netlist import Circuit
from .simulator import LogicSimResult, simulate, simulate_cone

__all__ = [
    "StuckAtFault",
    "TransitionFault",
    "all_stuck_at_faults",
    "all_transition_faults",
    "collapse_stuck_at_faults",
    "detection_matrix",
    "stuck_at_response",
    "transition_detection_matrix",
    "fault_resolution_classes",
]


@dataclass(frozen=True)
class StuckAtFault:
    """Net ``net`` permanently stuck at ``value`` (0 or 1)."""

    net: str
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("stuck value must be 0 or 1")

    def __str__(self) -> str:
        return f"{self.net}/sa{self.value}"


@dataclass(frozen=True)
class TransitionFault:
    """Gross-delay fault on ``net``: slow-to-rise (``rising=True``) or fall.

    Detected by a pattern pair that launches the corresponding transition on
    the net and propagates the *final* value to an output — equivalently, the
    second vector detects ``net`` stuck-at the initial value.
    """

    net: str
    rising: bool

    def __str__(self) -> str:
        return f"{self.net}/{'str' if self.rising else 'stf'}"

    @property
    def initial_value(self) -> int:
        return 0 if self.rising else 1

    @property
    def final_value(self) -> int:
        return 1 if self.rising else 0


def all_stuck_at_faults(circuit: Circuit) -> List[StuckAtFault]:
    """Both polarities on every net (no fault collapsing; the paper assumes
    dictionary storage is not the bottleneck, Section B question 3)."""
    return [
        StuckAtFault(net, value) for net in circuit.gates for value in (0, 1)
    ]


def all_transition_faults(circuit: Circuit) -> List[TransitionFault]:
    return [
        TransitionFault(net, rising)
        for net in circuit.gates
        for rising in (True, False)
    ]


def stuck_at_response(
    good: LogicSimResult, fault: StuckAtFault
) -> np.ndarray:
    """Output response matrix ``(|O|, n_patterns)`` under ``fault``."""
    circuit = good.circuit
    n_words = next(iter(good.words.values())).shape[0]
    forced = (
        np.full(n_words, np.uint64(0xFFFFFFFFFFFFFFFF))
        if fault.value == 1
        else np.zeros(n_words, dtype=np.uint64)
    )
    patched = simulate_cone(good, fault.net, forced, observe=circuit.outputs)
    from .simulator import unpack_words

    return np.stack(
        [unpack_words(patched[net], good.n_patterns) for net in circuit.outputs]
    )


def detection_matrix(
    circuit: Circuit,
    patterns: np.ndarray,
    faults: Optional[Sequence[StuckAtFault]] = None,
) -> Tuple[np.ndarray, LogicSimResult]:
    """Stuck-at detection matrix ``D[f, p] = 1`` iff pattern p detects fault f.

    Returns the matrix and the good-circuit simulation for reuse.  This is
    the logic-domain fault dictionary: the full per-output signatures can be
    recovered via :func:`stuck_at_response` when needed.
    """
    good = simulate(circuit, patterns)
    good_outputs = good.output_matrix()
    if faults is None:
        faults = all_stuck_at_faults(circuit)
    rows = []
    for fault in faults:
        faulty = stuck_at_response(good, fault)
        rows.append((faulty != good_outputs).any(axis=0))
    return np.stack(rows) if rows else np.zeros((0, patterns.shape[0]), bool), good


def transition_detection_matrix(
    circuit: Circuit,
    pattern_pairs: np.ndarray,
    faults: Optional[Sequence[TransitionFault]] = None,
) -> np.ndarray:
    """Transition-fault detection matrix for two-vector tests.

    ``pattern_pairs`` has shape ``(n_tests, 2, n_inputs)``; test ``t``
    detects a slow-to-rise fault on net ``n`` iff vector 1 sets ``n = 0``,
    vector 2 sets ``n = 1``, and vector 2 propagates ``n`` stuck-at-0 to some
    output (dually for slow-to-fall).  This is the standard
    transition-fault condition — gross delay, no timing.
    """
    pattern_pairs = np.asarray(pattern_pairs)
    if pattern_pairs.ndim != 3 or pattern_pairs.shape[1] != 2:
        raise ValueError("pattern_pairs must have shape (n_tests, 2, n_inputs)")
    if faults is None:
        faults = all_transition_faults(circuit)
    first = simulate(circuit, pattern_pairs[:, 0, :])
    second = simulate(circuit, pattern_pairs[:, 1, :])
    good_outputs = second.output_matrix()
    detected = np.zeros((len(faults), pattern_pairs.shape[0]), dtype=bool)
    # Group by (net, stuck value of the final vector) to share cone resims.
    response_cache: Dict[Tuple[str, int], np.ndarray] = {}
    for index, fault in enumerate(faults):
        initial = first.values(fault.net)
        final = second.values(fault.net)
        launches = (initial == bool(fault.initial_value)) & (
            final == bool(fault.final_value)
        )
        if not launches.any():
            continue
        key = (fault.net, fault.initial_value)
        if key not in response_cache:
            response_cache[key] = stuck_at_response(
                second, StuckAtFault(fault.net, fault.initial_value)
            )
        propagates = (response_cache[key] != good_outputs).any(axis=0)
        detected[index] = launches & propagates
    return detected


def collapse_stuck_at_faults(circuit: Circuit) -> List[StuckAtFault]:
    """Structural equivalence collapsing of the stuck-at fault universe.

    Classic gate-local rules merge equivalent faults into one class each:

    * wire faults: an input pin fault on a single-fanout net is equivalent
      to the corresponding fault on the driving net (we enumerate faults on
      *nets*, so this is implicit in the net-based universe),
    * AND/NAND: any input stuck-at-0 == output stuck-at-(0/1 resp.),
    * OR/NOR:   any input stuck-at-1 == output stuck-at-(1/0 resp.),
    * NOT/BUF:  input faults == (possibly inverted) output faults.

    Returns one representative :class:`StuckAtFault` per equivalence class
    (the class member on the topologically earliest net, lowest polarity),
    typically collapsing the universe by 35-60% — the standard saving the
    paper's "storing the dictionary is not an issue" assumption leans on.
    """
    parent: Dict[Tuple[str, int], Tuple[str, int]] = {}

    def find(item: Tuple[str, int]) -> Tuple[str, int]:
        parent.setdefault(item, item)
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(a: Tuple[str, int], b: Tuple[str, int]) -> None:
        parent[find(a)] = find(b)

    for name in circuit.topological_order:
        gate = circuit.gates[name]
        if gate.gate_type is GateType.INPUT:
            continue
        single_input = gate.gate_type in (
            GateType.NOT, GateType.BUF, GateType.OUTPUT, GateType.DFF
        )
        if single_input:
            inverted = gate.gate_type is GateType.NOT
            fanin = gate.fanins[0]
            if len(circuit.fanouts[fanin]) == 1:
                union((fanin, 0), (name, 1 if inverted else 0))
                union((fanin, 1), (name, 0 if inverted else 1))
            continue
        from ..circuits.library import CONTROLLING_VALUE, INVERTING

        controlling = CONTROLLING_VALUE.get(gate.gate_type)
        if controlling is None:
            continue  # XOR family collapses nothing gate-locally
        inverted = gate.gate_type in INVERTING
        controlled_output = (1 - controlling) if inverted else controlling
        for fanin in gate.fanins:
            # input stuck-at-controlling == output stuck-at-controlled value,
            # but only via a fanout-free connection
            if len(circuit.fanouts[fanin]) == 1:
                union((fanin, controlling), (name, controlled_output))

    order = circuit.topological_index
    representatives: Dict[Tuple[str, int], Tuple[str, int]] = {}
    for net in circuit.gates:
        for value in (0, 1):
            root = find((net, value))
            best = representatives.get(root)
            candidate = (net, value)
            if best is None or (order[candidate[0]], candidate[1]) < (
                order[best[0]], best[1]
            ):
                representatives[root] = candidate
    return sorted(
        (StuckAtFault(net, value) for net, value in representatives.values()),
        key=lambda fault: (order[fault.net], fault.value),
    )


def fault_resolution_classes(detection: np.ndarray) -> List[List[int]]:
    """Group fault indices with identical detection signatures.

    A pattern set achieves *maximal fault resolution* (Section C) iff every
    class is a singleton among detected faults.  Undetected faults (all-zero
    rows) form their own shared class.
    """
    groups: Dict[bytes, List[int]] = {}
    for index in range(detection.shape[0]):
        key = np.packbits(detection[index].astype(np.uint8)).tobytes()
        groups.setdefault(key, []).append(index)
    return list(groups.values())
