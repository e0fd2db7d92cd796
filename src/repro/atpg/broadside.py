"""Broadside (launch-on-capture) delay test generation.

The main flow assumes *skewed-load* scan testing: both vectors of a delay
test are fully controllable (the second vector is shifted in).  Production
at-speed testing more commonly uses **broadside** (launch-on-capture)
patterns: only the first vector is scanned in; the second vector's state
bits are whatever the circuit *functionally captures* — ``v2[ppi] =
F_next(v1)`` — which shrinks the reachable two-vector space and makes some
paths untestable.

Implementation by time-frame expansion: build a combinational model with
two copies of the circuit, frame 1's pseudo-primary-inputs driven by frame
0's next-state functions (per ``circuit.scan_pairs``).  Path constraints
for the targeted (frame-1) path map onto the expanded netlist, and the
ordinary two-frame justifier runs on it single-frame.  The resulting test
is checked end to end: sensitization class on the settled values *and* the
functional-capture consistency ``v2[ppi] == F_next(v1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..circuits.library import GateType
from ..circuits.netlist import Circuit
from ..rng import RngLike, coerce_rng
from ..paths.model import Path
from ..paths.sensitization import Sensitization, classify_path_sensitization
from .justify import Justifier
from .pathdelay import build_path_constraints

__all__ = ["BroadsideModel", "BroadsideTest", "broadside_expand", "generate_broadside_test"]

_F0, _F1 = "f0:", "f1:"


@dataclass
class BroadsideModel:
    """Two-time-frame combinational expansion of a full-scan circuit."""

    original: Circuit
    expanded: Circuit

    def frame0(self, net: str) -> str:
        return _F0 + net

    def frame1(self, net: str) -> str:
        return _F1 + net


@dataclass
class BroadsideTest:
    """A launch-on-capture test: ``v2``'s state bits are captured, not set."""

    path: Path
    v1: List[int]
    v2: List[int]
    achieved: Sensitization


def broadside_expand(circuit: Circuit) -> BroadsideModel:
    """Build the two-frame expansion.

    Frame-0 and frame-1 copies share nothing except that each scan pair's
    frame-1 state input is a buffer of the frame-0 next-state net.  Primary
    (non-state) inputs remain free in both frames, matching testers that
    can change PI values between launch and capture.
    """
    if not circuit.scan_pairs:
        raise ValueError(
            "circuit has no scan pairs; broadside needs the full-scan view "
            "of a sequential circuit (see Circuit.unroll_scan)"
        )
    captured = {ppi: ppo for ppi, ppo in circuit.scan_pairs}
    expanded = Circuit(circuit.name + "_broadside")

    for name in circuit.topological_order:
        gate = circuit.gates[name]
        if gate.gate_type is GateType.INPUT:
            expanded.add_input(_F0 + name)
        else:
            expanded.add_gate(
                _F0 + name, gate.gate_type, [_F0 + f for f in gate.fanins]
            )
    for name in circuit.topological_order:
        gate = circuit.gates[name]
        if gate.gate_type is GateType.INPUT:
            if name in captured:
                expanded.add_gate(_F1 + name, GateType.BUF, [_F0 + captured[name]])
            else:
                expanded.add_input(_F1 + name)
        else:
            expanded.add_gate(
                _F1 + name, gate.gate_type, [_F1 + f for f in gate.fanins]
            )
    for output in circuit.outputs:
        expanded.mark_output(_F1 + output)
    return BroadsideModel(circuit, expanded.freeze())


def generate_broadside_test(
    circuit: Circuit,
    path: Path,
    criterion: Sensitization = Sensitization.NON_ROBUST,
    model: Optional[BroadsideModel] = None,
    rng: Optional[RngLike] = None,
    justifier: Optional[Justifier] = None,
    backtrack_limit: int = 150,
) -> Optional[BroadsideTest]:
    """A launch-on-capture two-vector test sensitizing ``path``, or ``None``.

    Constraints are built exactly as for skewed-load
    (:func:`repro.atpg.pathdelay.build_path_constraints`), then re-keyed
    onto the expanded netlist — frame 0 constraints onto the ``f0:`` copy,
    frame 1 onto ``f1:`` — and justified *single-frame* there, so the
    capture relation is enforced structurally rather than by search.  As
    in :func:`repro.atpg.pathdelay.generate_test_for_path`, a set that
    :meth:`~repro.atpg.justify.Justifier.refutes` proves unsatisfiable
    skips the search.
    """
    rng = coerce_rng(rng)
    if model is None:
        model = broadside_expand(circuit)
    expanded = model.expanded
    justifier = justifier or Justifier(expanded)
    captured = {ppi for ppi, _ppo in circuit.scan_pairs}
    recorder = obs.get_recorder()

    for rising in (True, False):
        for constraints in build_path_constraints(circuit, path, rising, criterion):
            mapped: Dict[Tuple[str, int], int] = {}
            feasible = True
            for (net, frame), value in constraints.items():
                prefix = _F0 if frame == 0 else _F1
                key = (prefix + net, 0)
                existing = mapped.get(key)
                if existing is not None and existing != value:
                    feasible = False
                    break
                mapped[key] = value
            if not feasible:
                continue
            if justifier.refutes(mapped):
                if recorder.enabled:
                    recorder.count("atpg.implication_rejects")
                continue
            result = justifier.justify(mapped, backtrack_limit=backtrack_limit)
            if not result.success:
                continue

            # materialize v1 over all original inputs (quiet-fill free PIs,
            # shared by both frames where the tester would hold them)
            v1: List[int] = []
            v2_free: Dict[str, int] = {}
            for net in circuit.inputs:
                bit0 = result.assignment.get((_F0 + net, 0))
                bit1 = result.assignment.get((_F1 + net, 0))
                if bit0 is None:
                    bit0 = bit1 if (bit1 is not None and net not in captured) else rng.randint(0, 1)
                v1.append(bit0)
                if net not in captured:
                    v2_free[net] = bit1 if bit1 is not None else bit0
            # capture: v2 state bits come from frame-0 next-state values
            settled1 = circuit.evaluate(dict(zip(circuit.inputs, v1)))
            next_state = {ppi: settled1[ppo] for ppi, ppo in circuit.scan_pairs}
            v2 = [
                next_state[net] if net in captured else v2_free[net]
                for net in circuit.inputs
            ]

            val1 = settled1
            val2 = circuit.evaluate(dict(zip(circuit.inputs, v2)))
            achieved = classify_path_sensitization(circuit, path, val1, val2)
            if achieved.at_least(criterion):
                return BroadsideTest(path, v1, v2, achieved)
    return None
