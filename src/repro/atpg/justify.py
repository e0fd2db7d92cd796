"""Two-frame PODEM-style justification engine.

The path-delay ATPG reduces a path test to a set of *constraints*: required
settled logic values on specific nets in specific frames (frame 0 = first
vector ``v1``, frame 1 = second vector ``v2``).  This engine searches for a
primary-input assignment (two vectors, partially specified) satisfying all
constraints, by PODEM-style decision making:

* decisions are made only on (primary input, frame) pairs,
* implications are computed by three-valued simulation restricted to the
  transitive fanin cone of the constrained nets, over the opcode, fanin
  and fanout rows of the circuit's row table (:mod:`repro.circuits.rows`)
  plus its all-X settled values (memoized on the table); a ``justify``
  call only marks its cone in a ``bytearray`` and copies the start
  values,
* an objective (an unsatisfied constraint) is backtraced through X-valued
  gate inputs to find the next decision, preferring controlling-value
  shortcuts,
* conflicts flip the most recent untried decision; a backtrack limit bounds
  the search (untestable-path detection is then conservative, as in any
  practical ATPG).  Every value change is logged on a trail, so a
  backtrack restores the values from before the flipped decision and
  propagates only the flipped pin — values are a function of the pins, so
  the state is exact without re-simulation.

Before searching, a caller can ask :meth:`Justifier.refutes` whether the
constraints are unsatisfiable by implication alone.  Per frame, it pins the
constraint values on the start values and propagates forced values to a
fixpoint over the same cone — forward evaluation, BUF/NOT both ways, a
non-controlled AND-family output forcing every input, a controlled one
with a single X input forcing that input, an XOR with a single X input
forcing the parity — with no decisions, and reports the first conflict.
Every forced value holds in every satisfying assignment, so a refuted set
is one ``justify`` would only fail on; most constraint sets of long, false
paths are refuted this way for a fraction of a failing search's cost.

The engine knows nothing about delay testing itself — constraint semantics
live in :mod:`repro.atpg.pathdelay`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..circuits.library import GateType, X
from ..circuits.netlist import Circuit
from ..circuits.rows import (
    OP_BUF, OP_DFF, OP_INPUT, OP_NAND, OP_NOR, OP_NOT, OP_XNOR, RowTable,
)

__all__ = ["Justifier", "JustifyResult", "Key"]

#: A constraint key: (net name, frame index 0|1).
Key = Tuple[str, int]

#: Controlling input value per opcode (None where not applicable).
_CONTROLLING = (None, None, None, 0, 0, 1, 1, None, None, None)
_INVERTING = frozenset({OP_NOT, OP_NAND, OP_NOR, OP_XNOR})


@dataclass
class JustifyResult:
    """Outcome of a justification run.

    ``assignment`` maps (input net, frame) to 0/1 for the inputs the search
    had to pin; other inputs are free and may be filled arbitrarily.
    ``backtracks`` reports search effort.
    """

    success: bool
    assignment: Dict[Key, int]
    backtracks: int

    def vectors(
        self, circuit: Circuit, rng=None, fill: str = "quiet"
    ) -> Tuple[List[int], List[int]]:
        """Materialize full (v1, v2) vectors, filling free inputs.

        The paper notes test quality depends on how the unspecified input
        values are filled (Section G, the GA-based idea).  Two strategies:

        * ``"quiet"`` (default) — free inputs hold the same (random) value
          in both frames, and inputs pinned in only one frame keep that
          value in the other.  This launches no transitions beyond what the
          constraints require, so the targeted path dominates the induced
          circuit — the single-input-change idea used for high-resolution
          delay diagnosis patterns.
        * ``"random"`` — independent random values per frame; noisier tests
          that sensitize many incidental paths (used by ablations).
        """
        from ..rng import coerce_rng

        rng = coerce_rng(rng)
        if fill not in ("quiet", "random"):
            raise ValueError("fill must be 'quiet' or 'random'")
        v1, v2 = [], []
        for net in circuit.inputs:
            a = self.assignment.get((net, 0))
            b = self.assignment.get((net, 1))
            if fill == "random":
                a = rng.randint(0, 1) if a is None else a
                b = rng.randint(0, 1) if b is None else b
            else:
                if a is None and b is None:
                    a = b = rng.randint(0, 1)
                elif a is None:
                    a = b
                elif b is None:
                    b = a
            v1.append(a)
            v2.append(b)
        return v1, v2


def _start_values(table: RowTable) -> bytes:
    """The settled values with every pin at X (memoized on the table as
    ``table.justify_start``).

    They differ from all-X only below fanin-less (constant) gates.  A DFF
    is not evaluable, so it is never settled.
    """
    if table.justify_start is None:
        opcodes = table.opcodes
        start = bytearray([X]) * len(opcodes)
        constants = [
            row for row, rows_in in enumerate(table.fanins)
            if not rows_in and opcodes[row] != OP_INPUT
        ]
        evaluable = bytearray(op != OP_DFF for op in opcodes)
        _settle(start, constants, evaluable, table, [])
        table.justify_start = bytes(start)
    return table.justify_start


def _settle(
    values: bytearray,
    queue: List[int],
    in_cone: bytearray,
    table: RowTable,
    trail: List[Tuple[bytearray, int]],
) -> None:
    """Evaluate the rows of ``queue`` and, transitively, the fanouts they set.

    ``queue`` is a min-heap of X-valued rows; rows are topological, so it
    pops them in dependency order.  Three-valued simulation is monotone in
    the pins, and a settle only follows a pin going from X to 0/1, so every
    change is X -> 0/1: a row that already holds 0/1 cannot change and is
    never enqueued, nor is a row outside ``in_cone``.  Each change is
    logged on ``trail`` as ``(values, row)``; undo writes X back.
    Fanout rows are ascending, so a filtered fanout list is already a
    min-heap.
    """
    opcodes, fanins, fanouts = table.opcodes, table.fanins, table.fanouts
    pop, push, log = heapq.heappop, heapq.heappush, trail.append
    queued = set(queue)
    enqueue = queued.add
    while queue:
        row = pop(queue)
        op = opcodes[row]
        rows_in = fanins[row]
        # three-valued evaluation of one gate (inputs never get here)
        if op == OP_BUF:
            new = values[rows_in[0]]
        elif op == OP_NOT:
            new = values[rows_in[0]]
            if new != X:
                new = 1 - new
        elif op <= OP_NOR:  # AND, NAND, OR, NOR
            controlling = _CONTROLLING[op]
            new = 1 - controlling
            for fanin in rows_in:
                value = values[fanin]
                if value == controlling:
                    new = controlling
                    break
                if value == X:
                    new = X
            if new != X and op in _INVERTING:
                new = 1 - new
        else:  # XOR, XNOR
            new = 1 if op == OP_XNOR else 0
            for fanin in rows_in:
                value = values[fanin]
                if value == X:
                    new = X
                    break
                new ^= value
        if new == X:
            continue
        log((values, row))
        values[row] = new
        for successor in fanouts[row]:
            if (in_cone[successor] and values[successor] == X
                    and successor not in queued):
                enqueue(successor)
                push(queue, successor)


def _implies_conflict(
    values: bytearray,
    pins: List[Tuple[int, int]],
    in_cone: bytearray,
    table: RowTable,
) -> bool:
    """Pin ``(row, value)`` pairs in one frame; True on a forced conflict.

    ``values`` starts as the settled all-X values.  Every value derived
    here holds in every binary input assignment that meets the pins, so a
    conflict proves them unsatisfiable.  A marked gate is re-examined each
    time its output or one of its inputs gets a value, until none changes:

    * forward three-valued evaluation; only when it yields X do the
      backward rules below apply to a known output,
    * BUF/NOT: the input follows the output,
    * AND/OR/NAND/NOR: a non-controlled output forces every input to the
      non-controlling value; a controlled output with exactly one X input
      (and so no controlling one) forces that input to the controlling
      value,
    * XOR/XNOR: with exactly one X input, the output forces its parity.
    """
    opcodes, fanins, fanouts = table.opcodes, table.fanins, table.fanouts
    work: List[int] = []
    implied = pins
    while True:
        for row, value in implied:
            actual = values[row]
            if actual == X:
                values[row] = value
                if opcodes[row] != OP_INPUT:
                    work.append(row)
                work.extend(
                    successor for successor in fanouts[row] if in_cone[successor]
                )
            elif actual != value:
                return True
        implied = ()
        if not work:
            return False
        row = work.pop()
        op = opcodes[row]
        rows_in = fanins[row]
        if op == OP_BUF or op == OP_NOT:
            fanin = rows_in[0]
            flip = op == OP_NOT
            if values[fanin] != X:
                implied = ((row, values[fanin] ^ flip),)
            elif values[row] != X:
                implied = ((fanin, values[row] ^ flip),)
        elif op <= OP_NOR:  # AND, NAND, OR, NOR
            controlling = _CONTROLLING[op]
            inverted = op in _INVERTING
            new = 1 - controlling
            n_x = 0
            for fanin in rows_in:
                value = values[fanin]
                if value == controlling:
                    new = controlling
                    break
                if value == X:
                    n_x += 1
                    x_input = fanin
            if n_x and new != controlling:
                new = X
            out = values[row]
            if new != X:
                implied = ((row, new ^ inverted),)
            elif out != X:
                if out ^ inverted != controlling:
                    implied = [(fanin, 1 - controlling) for fanin in rows_in]
                elif n_x == 1:
                    implied = ((x_input, controlling),)
        else:  # XOR, XNOR
            parity = 1 if op == OP_XNOR else 0
            n_x = 0
            for fanin in rows_in:
                value = values[fanin]
                if value == X:
                    n_x += 1
                    x_input = fanin
                else:
                    parity ^= value
            if not n_x:
                implied = ((row, parity),)
            elif n_x == 1 and values[row] != X:
                implied = ((x_input, values[row] ^ parity),)


class Justifier:
    """Reusable justification engine for one circuit.

    ``guidance`` optionally supplies SCOAP measures
    (:func:`repro.logic.testability.compute_scoap`): backtrace then prefers
    the X-input that is cheapest to drive to the needed value, which cuts
    backtracking on hard constraint sets.
    """

    def __init__(
        self,
        circuit: Circuit,
        backtrack_limit: int = 150,
        guidance=None,
    ) -> None:
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self.guidance = guidance

    # ------------------------------------------------------------------
    def _constraint_cone(
        self, constraints: Dict[Key, int]
    ) -> Tuple[RowTable, List[Tuple[int, int, int]], bytearray]:
        """Validate ``constraints``; return the table, targets and cone mark.

        Targets are ``(row, frame, value)`` in constraint order; the mark
        flags the union of the constrained nets' fanin cones.  Raises
        ``KeyError`` for an unknown net or a DFF inside the cone and
        ``ValueError`` for a frame or value outside ``{0, 1}``.
        """
        for (net, frame), value in constraints.items():
            if net not in self.circuit.gates:
                raise KeyError(f"unknown net {net!r} in constraints")
            if frame not in (0, 1) or value not in (0, 1):
                raise ValueError(f"bad constraint {(net, frame)} = {value}")

        table = self.circuit.rows
        opcodes, fanins = table.opcodes, table.fanins
        rows = table.index
        targets = [
            (rows[net], frame, value) for (net, frame), value in constraints.items()
        ]
        in_cone = bytearray(len(opcodes))
        stack: List[int] = []
        pop, push = stack.pop, stack.append
        for row, _frame, _value in targets:
            if not in_cone[row]:
                in_cone[row] = 1
                push(row)
        while stack:
            row = pop()
            if opcodes[row] == OP_DFF:
                raise KeyError(GateType.DFF)
            for fanin in fanins[row]:
                if not in_cone[fanin]:
                    in_cone[fanin] = 1
                    push(fanin)
        return table, targets, in_cone

    def refutes(self, constraints: Dict[Key, int]) -> bool:
        """True when implication alone proves ``constraints`` unsatisfiable.

        Each frame starts from the settled all-X values with its
        constraints pinned and propagates forced values to a fixpoint over
        the constraint cone (see :func:`_implies_conflict`); the frames
        share no gate, so a conflict in either one refutes the set.  No
        decision is made, so ``False`` proves nothing: :meth:`justify`
        must still search.  Raises what :meth:`justify` raises.
        """
        table, targets, in_cone = self._constraint_cone(constraints)
        start = _start_values(table)
        for frame in (0, 1):
            pins = [(row, value) for row, f, value in targets if f == frame]
            if pins and _implies_conflict(bytearray(start), pins, in_cone, table):
                return True
        return False

    # ------------------------------------------------------------------
    def justify(
        self,
        constraints: Dict[Key, int],
        backtrack_limit: Optional[int] = None,
    ) -> JustifyResult:
        """Search for an input assignment satisfying ``constraints``.

        Returns an unsuccessful result when the constraint set is proven or
        presumed (backtrack limit) unsatisfiable.
        """
        limit = backtrack_limit if backtrack_limit is not None else self.backtrack_limit
        table, targets, in_cone = self._constraint_cone(constraints)
        fanouts = table.fanouts
        start = _start_values(table)

        values = (bytearray(start), bytearray(start))
        trail: List[Tuple[bytearray, int]] = []
        # (input row, frame, value, flipped, trail length before the pin)
        decisions: List[Tuple[int, int, int, bool, int]] = []
        backtracks = 0

        while True:
            objective = None
            conflict = False
            for row, frame, required in targets:
                actual = values[frame][row]
                if actual == X:
                    if objective is None:
                        objective = (row, frame, required)
                elif actual != required:
                    conflict = True
                    break
            if not conflict and objective is None:  # satisfied
                names = table.names
                assignment = {
                    (names[row], frame): value
                    for row, frame, value, _flipped, _mark in sorted(decisions)
                }
                return JustifyResult(True, assignment, backtracks)
            decision = None
            if not conflict:
                decision = self._backtrace(table, values, objective)
            if decision is None:
                # flip the most recent untried decision, popping exhausted ones
                while decisions and decisions[-1][3]:
                    decisions.pop()
                if not decisions:
                    return JustifyResult(False, {}, backtracks)
                backtracks += 1
                if backtracks > limit:
                    return JustifyResult(False, {}, backtracks)
                row, frame, value, _flipped, mark = decisions.pop()
                # restore the values from before that decision's pin
                for frame_values, changed in trail[mark:]:
                    frame_values[changed] = X
                del trail[mark:]
                value, flipped = 1 - value, True
            else:
                row, frame, value = decision
                flipped, mark = False, len(trail)
            decisions.append((row, frame, value, flipped, mark))
            frame_values = values[frame]
            trail.append((frame_values, row))
            frame_values[row] = value
            queue = [
                successor for successor in fanouts[row]
                if in_cone[successor] and frame_values[successor] == X
            ]
            _settle(frame_values, queue, in_cone, table, trail)

    # ------------------------------------------------------------------
    def _backtrace(
        self,
        table: RowTable,
        values: Tuple[bytearray, bytearray],
        objective: Tuple[int, int, int],
    ) -> Optional[Tuple[int, int, int]]:
        """Walk from the objective to an unassigned input, PODEM-style."""
        opcodes, fanins = table.opcodes, table.fanins
        row, frame, value = objective
        frame_values = values[frame]
        guidance = self.guidance
        names = table.names

        def pick(x_inputs: List[int], needed: int) -> int:
            """Choose among X-valued fanins (SCOAP-guided when available)."""
            if guidance is None or len(x_inputs) == 1:
                return x_inputs[0]
            return min(
                x_inputs,
                key=lambda f: guidance.controllability(names[f], needed),
            )

        while True:
            op = opcodes[row]
            if op == OP_INPUT:
                return (row, frame, value) if frame_values[row] == X else None
            rows_in = fanins[row]
            if op == OP_BUF:
                row = rows_in[0]
                continue
            if op == OP_NOT:
                row, value = rows_in[0], 1 - value
                continue
            x_inputs = [f for f in rows_in if frame_values[f] == X]
            if not x_inputs:
                return None
            if op <= OP_NOR:  # AND, NAND, OR, NOR
                controlling = _CONTROLLING[op]
                inverted = op in _INVERTING
                controlled_output = (1 - controlling) if inverted else controlling
                needed = controlling if value == controlled_output else 1 - controlling
                row, value = pick(x_inputs, needed), needed
                continue
            # XOR family: choose an X input; required value assumes the other
            # X inputs resolve to 0 (heuristic; conflicts self-correct).
            chosen = x_inputs[0]
            parity = 1 if op == OP_XNOR else 0
            for f in rows_in:
                v = frame_values[f]
                if v in (0, 1) and f != chosen:
                    parity ^= v
            row, value = chosen, value ^ parity
