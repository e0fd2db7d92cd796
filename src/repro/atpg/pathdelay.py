"""Path delay fault ATPG (paper Sections G, H-4).

Builds two-frame value constraints that sensitize a given path under the
robust or non-robust criterion, drops the sets implication refutes, hands
the rest to the :class:`~repro.atpg.justify.Justifier`, random-fills the
free inputs and verifies the achieved sensitization class on the settled
logic values.

Constraint semantics (see :mod:`repro.paths.sensitization` for discussion):

* every on-path net is constrained to its transition values ``(v1, v2)``;
  the polarity flips through inverting gates and through XOR-family gates
  according to the chosen side-input phase,
* off-path inputs of a gate with controlling value ``c``:

  - on-path input transitioning **to** ``c``  -> off inputs ``v2 = nc``
    (robust and non-robust coincide, the Lin-Reddy ``X -> nc`` rule),
  - on-path input transitioning to ``nc``     -> robust: steady ``(nc, nc)``;
    non-robust: ``v2 = nc`` only,

* off-path inputs of XOR-family gates: steady ``(s, s)``; both phases ``s``
  are tried, flipping the downstream polarity accordingly.

The generator mirrors the paper's setup: conventional (untimed) path-delay
ATPG — "tests are derived without considering timing" — robust preferred,
non-robust as fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .. import obs
from ..circuits.library import CONTROLLING_VALUE, GateType, INVERTING
from ..circuits.netlist import Circuit
from ..rng import RngLike, coerce_rng
from ..paths.model import Path
from ..paths.sensitization import Sensitization, classify_path_sensitization
from ..timing.kernel import compile_circuit
from .justify import Justifier, Key

__all__ = ["PathTest", "build_path_constraints", "generate_test_for_path"]


@dataclass
class PathTest:
    """A generated two-vector test for a path."""

    path: Path
    v1: List[int]
    v2: List[int]
    rising_at_input: bool
    achieved: Sensitization

    def as_pair(self):
        import numpy as np

        return np.asarray(self.v1), np.asarray(self.v2)


def build_path_constraints(
    circuit: Circuit,
    path: Path,
    rising_at_input: bool,
    criterion: Sensitization = Sensitization.ROBUST,
    max_variants: int = 4,
) -> Iterator[Dict[Key, int]]:
    """Yield constraint-set variants (one per XOR side-phase combination).

    Each yielded dict maps ``(net, frame)`` to a required settled value.
    Variants differ in the steady phase chosen for XOR-family side inputs;
    at most ``max_variants`` are produced (phase combinations beyond that
    are pruned breadth-first).
    """
    if criterion not in (Sensitization.ROBUST, Sensitization.NON_ROBUST):
        raise ValueError("ATPG criteria are ROBUST or NON_ROBUST")

    # Each partial state: (constraints so far, current on-path final value).
    # Adding a requirement that contradicts an existing one kills the state:
    # the path re-converges onto itself in a statically unsensitizable way
    # (a structurally false path under this criterion/polarity).
    first = path.nets[0]
    initial_final = 1 if rising_at_input else 0
    states: List[Tuple[Dict[Key, int], int]] = [
        (
            {(first, 0): 1 - initial_final, (first, 1): initial_final},
            initial_final,
        )
    ]

    for on_net, sink in zip(path.nets, path.nets[1:]):
        gate = circuit.gates[sink]
        off_inputs = [f for f in gate.fanins if f != on_net]
        next_states: List[Tuple[Dict[Key, int], int]] = []
        for constraints, on_final in states:
            if gate.gate_type in (GateType.BUF, GateType.OUTPUT, GateType.NOT):
                out_final = (
                    1 - on_final if gate.gate_type is GateType.NOT else on_final
                )
                with_on = _with_on_path(dict(constraints), sink, out_final)
                if with_on is not None:
                    next_states.append((with_on, out_final))
                continue
            controlling = CONTROLLING_VALUE[gate.gate_type]
            if controlling is not None:
                inverted = gate.gate_type in INVERTING
                non_controlling = 1 - controlling
                updated = dict(constraints)
                feasible = True
                required = [(off, 1, non_controlling) for off in off_inputs]
                if on_final != controlling and criterion is Sensitization.ROBUST:
                    required += [(off, 0, non_controlling) for off in off_inputs]
                for off, frame, value in required:
                    if not _try_add(updated, (off, frame), value):
                        feasible = False
                        break
                if not feasible:
                    continue
                # With all off inputs pinned non-controlling, the gate
                # reduces to an (inverted) buffer of the on-path input.
                out_final = on_final if not inverted else 1 - on_final
                with_on = _with_on_path(updated, sink, out_final)
                if with_on is not None:
                    next_states.append((with_on, out_final))
                continue
            # XOR family: branch on the steady side phase.
            base_inverting = gate.gate_type is GateType.XNOR
            for phase in (0, 1):
                updated = dict(constraints)
                parity = 1 if base_inverting else 0
                feasible = True
                for off in off_inputs:
                    if not _try_add(updated, (off, 0), phase) or not _try_add(
                        updated, (off, 1), phase
                    ):
                        feasible = False
                        break
                    parity ^= phase
                if not feasible:
                    continue
                out_final = on_final ^ parity
                with_on = _with_on_path(updated, sink, out_final)
                if with_on is not None:
                    next_states.append((with_on, out_final))
        # prune breadth-first to bound the variant explosion
        states = next_states[:max_variants]
        if not states:
            return
    for constraints, _ in states:
        yield constraints


def _try_add(constraints: Dict[Key, int], key: Key, value: int) -> bool:
    """Add a requirement; False when it contradicts an existing one."""
    existing = constraints.get(key)
    if existing is not None and existing != value:
        return False
    constraints[key] = value
    return True


def _with_on_path(
    constraints: Dict[Key, int], net: str, final: int
) -> Optional[Dict[Key, int]]:
    updated = dict(constraints)
    if not _try_add(updated, (net, 0), 1 - final):
        return None
    if not _try_add(updated, (net, 1), final):
        return None
    return updated


def generate_test_for_path(
    circuit: Circuit,
    path: Path,
    criterion: Sensitization = Sensitization.ROBUST,
    rng: Optional[RngLike] = None,
    justifier: Optional[Justifier] = None,
    fill_attempts: int = 4,
    backtrack_limit: Optional[int] = None,
) -> Optional[PathTest]:
    """Generate a two-vector test sensitizing ``path``, or ``None``.

    Tries both launch polarities and every XOR side-phase variant under the
    requested ``criterion``.  Each constraint set is first offered to
    :meth:`Justifier.refutes`: most long paths are false, and implication
    alone proves most of their sets unsatisfiable, so PODEM
    (:meth:`Justifier.justify`) searches only the sets it cannot refute
    (``atpg.implication_rejects`` counts the others).  A refuted set could
    never have been justified, so the tests are those the search alone
    yields.  Free primary inputs are filled randomly; the settled values
    are then classified and the test accepted only if the achieved
    sensitization is at least ``criterion`` (random fill cannot break the
    constraints, but the check also guards the constraint builder itself —
    this is the "false-path-aware" filter of Section H-4).  The settled
    values come from the circuit's cached pattern schedule
    (:meth:`~repro.timing.kernel.CompiledCircuit.schedule_for`), so the
    timing simulation of an accepted test reuses it instead of settling
    the vectors again.
    """
    rng = coerce_rng(rng)
    justifier = justifier or Justifier(circuit)
    compiled = compile_circuit(circuit)
    recorder = obs.get_recorder()
    for rising in (True, False):
        for constraints in build_path_constraints(circuit, path, rising, criterion):
            if justifier.refutes(constraints):
                if recorder.enabled:
                    recorder.count("atpg.implication_rejects")
                continue
            result = justifier.justify(constraints, backtrack_limit=backtrack_limit)
            if not result.success:
                continue
            # Quiet fill first (highest diagnostic quality), then random
            # refills in case the quiet assignment trips the classifier.
            fills = ["quiet"] + ["random"] * max(fill_attempts - 1, 0)
            for fill in fills:
                v1, v2 = result.vectors(circuit, rng, fill=fill)
                schedule = compiled.schedule_for(
                    np.asarray(v1, dtype=int), np.asarray(v2, dtype=int)
                )
                achieved = classify_path_sensitization(
                    circuit, path, schedule.val1, schedule.val2
                )
                if achieved.at_least(criterion):
                    return PathTest(path, v1, v2, rising, achieved)
    return None
