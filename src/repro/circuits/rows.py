"""The row table: the one integer lowering of a frozen circuit.

Every tool that walks a circuit by index — the two-frame evaluator, the
compiled timing kernel, the justification engine, the dictionary
builder — reads the same :class:`RowTable`, built once per frozen
:class:`~repro.circuits.netlist.Circuit` (:attr:`Circuit.rows`).  A net
is a *row*: its position in the circuit's topological order.  The table
holds no reference to its circuit, so a schedule or a worker pickle that
carries it carries no netlist.

Opcodes encode the gate types by logic function (``OUTPUT`` is a
buffer), ordered so that the AND/OR family sits between the one-input
gates and the XOR family; consumers keep tiny per-opcode lookup tuples.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .library import GateType

__all__ = ["RowTable", "OPCODE", "OP_INPUT", "OP_BUF", "OP_NOT", "OP_AND",
           "OP_NAND", "OP_OR", "OP_NOR", "OP_XOR", "OP_XNOR", "OP_DFF"]

(OP_INPUT, OP_BUF, OP_NOT, OP_AND, OP_NAND, OP_OR, OP_NOR, OP_XOR,
 OP_XNOR, OP_DFF) = range(10)

#: Gate type -> opcode.
OPCODE: Dict[GateType, int] = {
    GateType.INPUT: OP_INPUT,
    GateType.BUF: OP_BUF,
    GateType.OUTPUT: OP_BUF,
    GateType.NOT: OP_NOT,
    GateType.AND: OP_AND,
    GateType.NAND: OP_NAND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_NOR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
    GateType.DFF: OP_DFF,
}


def _read_only(values: Sequence[int]) -> np.ndarray:
    array = np.array(values, dtype=np.int64)
    array.setflags(write=False)
    return array


class RowTable:
    """Topological integer rows of one frozen circuit.

    Per row: ``names[row]`` (``index`` inverts it), ``opcodes[row]``,
    ``fanins[row]`` (driver rows in pin order; a DFF keeps its next-state
    fanin, which is not a combinational dependency), ``fanouts[row]``
    (the distinct sink rows, ascending), ``fanin_starts[row]`` (the edge
    index of its first pin in ``circuit.edges`` order, so edge ``(row,
    pin)`` is ``fanin_starts[row] + pin``) and ``levels[row]`` (the
    longest unit-delay depth from an input).  ``input_rows`` and
    ``output_rows`` follow ``circuit.inputs`` and ``circuit.outputs``.

    Python loops index the tuple and bytes fields per gate; the numpy
    fields serve vector code.  Fanout cones, their outputs and
    :attr:`net_starts` are memoized on first use.  Three slots are memos
    filled by the modules that build them: ``edges`` and
    ``fanout_edges`` (:attr:`Circuit.edges`, :attr:`Circuit.fanouts`)
    and ``justify_start`` (:mod:`repro.atpg.justify`).  Each starts as
    ``None`` and must not refer back to the table or a circuit; a new
    memo needs a new slot here.  No memo is pickled: a worker rebuilds
    what it asks for.
    """

    __slots__ = ("names", "index", "opcodes", "fanins", "fanouts",
                 "fanin_starts", "levels", "input_rows", "output_rows",
                 "_cones", "_cone_names", "_cone_outputs", "_output_positions",
                 "_net_starts", "edges", "fanout_edges", "justify_start",
                 "__weakref__")

    def __init__(self, circuit) -> None:
        """Lower a frozen circuit (read here, never referenced)."""
        order = circuit.topological_order
        gates = circuit.gates
        self.names: Tuple[str, ...] = tuple(order)
        index = self.index = {name: row for row, name in enumerate(order)}
        opcodes = bytearray(len(order))
        fanins: List[Tuple[int, ...]] = []
        fanouts: List[List[int]] = [[] for _ in order]
        starts: List[int] = []
        levels: List[int] = []
        start = 0
        for row, name in enumerate(order):
            gate = gates[name]
            opcodes[row] = op = OPCODE[gate.gate_type]
            rows_in = tuple(index[fanin] for fanin in gate.fanins)
            fanins.append(rows_in)
            starts.append(start)
            start += len(rows_in)
            for fanin in rows_in:  # a net feeding two pins is one fanout
                if not fanouts[fanin] or fanouts[fanin][-1] != row:
                    fanouts[fanin].append(row)
            # A DFF's fanin is evaluated in the previous clock cycle.
            levels.append(
                1 + max(levels[fanin] for fanin in rows_in)
                if rows_in and op != OP_DFF else 0
            )
        self.opcodes = bytes(opcodes)
        self.fanins: Tuple[Tuple[int, ...], ...] = tuple(fanins)
        self.fanouts: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, fanouts))
        self.fanin_starts: Tuple[int, ...] = tuple(starts)
        self.levels = _read_only(levels)
        self.input_rows = tuple(index[net] for net in circuit.inputs)
        self.output_rows = _read_only([index[net] for net in circuit.outputs])
        self._clear_memos()

    def _clear_memos(self) -> None:
        self._cones: Dict[int, np.ndarray] = {}
        self._cone_names: Dict[int, List[str]] = {}
        self._cone_outputs: Dict[int, np.ndarray] = {}
        self._output_positions: Optional[np.ndarray] = None
        self._net_starts: Optional[Dict[str, int]] = None
        self.edges: Optional[list] = None
        self.fanout_edges: Optional[dict] = None
        self.justify_start: Optional[bytes] = None

    def __len__(self) -> int:
        return len(self.names)

    def rows_of(self, nets: Iterable[str]) -> np.ndarray:
        """The rows of ``nets``, in order."""
        index = self.index
        return np.array([index[net] for net in nets], dtype=np.int64)

    # ------------------------------------------------------------------
    def cone(self, row: int) -> np.ndarray:
        """The transitive fanout of ``row`` (inclusive), ascending rows.

        Memoized per row: dictionary builds ask once per suspect sink and
        replays once per affected edge.  The array is read-only.
        """
        cached = self._cones.get(row)
        if cached is None:
            fanouts = self.fanouts
            seen = {row}
            stack = [row]
            while stack:
                for sink in fanouts[stack.pop()]:
                    if sink not in seen:
                        seen.add(sink)
                        stack.append(sink)
            cached = self._cones[row] = _read_only(sorted(seen))
        return cached

    def cone_names(self, row: int) -> List[str]:
        """:meth:`cone` by net name, memoized apart from the row arrays
        (only name-level callers pay for it; treat as read-only)."""
        cached = self._cone_names.get(row)
        if cached is None:
            names = self.names
            cached = self._cone_names[row] = [
                names[member] for member in self.cone(row).tolist()
            ]
        return cached

    def cone_outputs(self, row: int) -> np.ndarray:
        """Positions in ``output_rows`` of the outputs in :meth:`cone`, in
        cone order (memoized per row; the array is read-only)."""
        cached = self._cone_outputs.get(row)
        if cached is None:
            position = self._output_positions
            if position is None:
                position = np.full(len(self), -1, dtype=np.int64)
                position[self.output_rows] = np.arange(len(self.output_rows))
                self._output_positions = position
            found = position[self.cone(row)]
            cached = self._cone_outputs[row] = found[found >= 0]
            cached.setflags(write=False)
        return cached

    @property
    def net_starts(self) -> Dict[str, int]:
        """``fanin_starts`` by net name (memoized; treat as read-only)."""
        if self._net_starts is None:
            self._net_starts = dict(zip(self.names, self.fanin_starts))
        return self._net_starts

    # ------------------------------------------------------------------
    def __getstate__(self):
        return (self.names, self.opcodes, self.fanins, self.fanouts,
                self.fanin_starts, self.levels, self.input_rows,
                self.output_rows)

    def __setstate__(self, state):
        (self.names, self.opcodes, self.fanins, self.fanouts,
         self.fanin_starts, self.levels, self.input_rows,
         self.output_rows) = state
        self.levels.setflags(write=False)
        self.output_rows.setflags(write=False)
        self.index = {name: row for row, name in enumerate(self.names)}
        self._clear_memos()

