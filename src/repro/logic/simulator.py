"""Bit-parallel gate-level logic simulation.

Evaluates a frozen combinational :class:`~repro.circuits.netlist.Circuit` on
many patterns at once by packing 64 patterns per ``uint64`` word — the
classic parallel-pattern single-fault technique.  This simulator provides:

* :func:`simulate` — full-circuit pattern-parallel simulation,
* :func:`simulate_cone` — resimulation of a fanout cone with a value
  override (used for stuck-at fault simulation and critical path tracing),
* :class:`LogicSimResult` — net values as boolean matrices,
* :func:`evaluate_two_frame` — both frames of one two-vector test in a
  single pass over the circuit's row table, packed one byte per net
  (``v1 | v2 << 1``), read back through :class:`FrameValues`.

Timing-aware simulation lives in :mod:`repro.timing.dynamic`; this module is
pure logic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..circuits.library import GateType, eval_gate_bits
from ..circuits.netlist import Circuit, CircuitError
from ..circuits.rows import OP_INPUT, OP_NAND, OP_NOR, OP_XNOR, RowTable

__all__ = [
    "LogicSimResult",
    "pack_patterns",
    "unpack_words",
    "simulate",
    "simulate_cone",
    "FrameValues",
    "evaluate_two_frame",
    "frame_values",
]


def pack_patterns(patterns: np.ndarray) -> np.ndarray:
    """Pack an ``(n_patterns, n_inputs)`` 0/1 matrix into uint64 words.

    Returns shape ``(n_inputs, n_words)`` with pattern ``p`` stored in bit
    ``p % 64`` of word ``p // 64`` — i.e. one packed row per input.
    """
    patterns = np.asarray(patterns, dtype=np.uint8)
    if patterns.ndim != 2:
        raise ValueError("patterns must be a 2-D (n_patterns, n_inputs) array")
    bits = np.packbits(patterns.T, axis=1, bitorder="little")
    n_words = (bits.shape[1] + 7) // 8
    padded = np.zeros((bits.shape[0], n_words * 8), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    return padded.view(np.uint64).reshape(bits.shape[0], n_words)


def unpack_words(words: np.ndarray, n_patterns: int) -> np.ndarray:
    """Inverse of :func:`pack_patterns` for a single net's word row."""
    as_bytes = words.astype(np.uint64).tobytes()
    bits = np.unpackbits(np.frombuffer(as_bytes, dtype=np.uint8), bitorder="little")
    return bits[:n_patterns].astype(bool)


@dataclass
class LogicSimResult:
    """Values of every net for every pattern.

    ``words[net]`` is the packed uint64 row; :meth:`values` unpacks to a
    boolean vector, :meth:`output_matrix` builds the ``(|O|, n_patterns)``
    response matrix the diagnosis flow consumes.
    """

    circuit: Circuit
    n_patterns: int
    words: Dict[str, np.ndarray]

    def values(self, net: str) -> np.ndarray:
        return unpack_words(self.words[net], self.n_patterns)

    def value(self, net: str, pattern_index: int) -> int:
        word = int(self.words[net][pattern_index // 64])
        return (word >> (pattern_index % 64)) & 1

    def output_matrix(self) -> np.ndarray:
        return np.stack([self.values(net) for net in self.circuit.outputs])


def simulate(circuit: Circuit, patterns: np.ndarray) -> LogicSimResult:
    """Simulate all patterns; ``patterns`` is ``(n_patterns, n_inputs)`` 0/1.

    Pattern column order follows ``circuit.inputs``.
    """
    patterns = np.asarray(patterns)
    if patterns.ndim == 1:
        patterns = patterns.reshape(1, -1)
    if patterns.shape[1] != len(circuit.inputs):
        raise ValueError(
            f"pattern width {patterns.shape[1]} != number of inputs "
            f"{len(circuit.inputs)}"
        )
    packed = pack_patterns(patterns)
    words: Dict[str, np.ndarray] = {}
    for index, net in enumerate(circuit.inputs):
        words[net] = packed[index]
    for name in circuit.topological_order:
        gate = circuit.gates[name]
        if gate.gate_type is GateType.INPUT:
            continue
        words[name] = eval_gate_bits(
            gate.gate_type, [words[fanin] for fanin in gate.fanins]
        )
    return LogicSimResult(circuit, patterns.shape[0], words)


def simulate_cone(
    result: LogicSimResult,
    override_net: str,
    override_words: np.ndarray,
    observe: Optional[Sequence[str]] = None,
) -> Dict[str, np.ndarray]:
    """Resimulate the fanout cone of ``override_net`` with its value replaced.

    Returns packed words for every net in the cone (others are unchanged and
    can be read from ``result``).  ``observe`` restricts the returned dict to
    the listed nets (they must lie in the cone or be unchanged; unchanged
    nets are returned from the base result).  This is the workhorse for
    bit-parallel stuck-at fault simulation.
    """
    circuit = result.circuit
    patched: Dict[str, np.ndarray] = {override_net: np.asarray(override_words)}

    def read(net: str) -> np.ndarray:
        return patched.get(net, result.words[net])

    for name in circuit.fanout_cone(override_net):  # topological order
        if name == override_net:
            continue
        gate = circuit.gates[name]
        patched[name] = eval_gate_bits(
            gate.gate_type, [read(fanin) for fanin in gate.fanins]
        )
    if observe is None:
        return patched
    return {net: read(net) for net in observe}


# ----------------------------------------------------------------------
# two-frame scalar evaluation
# ----------------------------------------------------------------------
# Every net of a two-vector test is packed into two bits, ``v1 | v2 << 1``.
# AND/OR/XOR act on both bits independently, so one bitwise pass over
# the packed values evaluates both frames; inverting gates flip both bits
# (``^ 3``).  BUF and OUTPUT are one-input ANDs, NOT a one-input NAND.
#: Opcode -> the mask an inverting gate flips.
_INVERT = (0, 0, 3, 0, 3, 0, 3, 0, 3, 0)


def evaluate_two_frame(
    rows: RowTable, v1: Sequence[int], v2: Sequence[int]
) -> bytes:
    """Settled values of every net under both vectors of a test.

    ``rows`` is the circuit's :attr:`~repro.circuits.netlist.Circuit.rows`
    table and ``v1``/``v2`` are 0/1 values in ``circuit.inputs`` order.
    Returns one byte per net row (topological order) holding ``value1 |
    value2 << 1``; :func:`frame_values` reads it back by net name.  Equal
    to two :meth:`Circuit.evaluate` calls, at a fraction of their cost:
    one loop over the table's opcodes and fanin rows serves both frames.
    """
    input_rows = rows.input_rows
    if len(v1) != len(input_rows) or len(v2) != len(input_rows):
        raise CircuitError("test vectors must assign every primary input")
    values = bytearray(len(rows))
    for row, value1, value2 in zip(input_rows, v1, v2):
        values[row] = int(value1) | int(value2) << 1
    for row, op, fanins in zip(range(len(rows)), rows.opcodes, rows.fanins):
        if op <= OP_NAND:
            if op == OP_INPUT:
                continue
            value = 3
            for fanin in fanins:
                value &= values[fanin]
        elif op <= OP_NOR:
            value = 0
            for fanin in fanins:
                value |= values[fanin]
        elif op <= OP_XNOR:
            value = 0
            for fanin in fanins:
                value ^= values[fanin]
        else:
            raise CircuitError(
                "cannot evaluate a sequential circuit; call unroll_scan() first"
            )
        values[row] = value ^ _INVERT[op]
    return bytes(values)


class FrameValues(Mapping):
    """Read-only ``net -> 0/1`` view of one frame of packed two-frame values.

    ``packed`` is :func:`evaluate_two_frame` output, ``net_rows`` maps a
    net to its byte (topological order, which is also the iteration
    order) and ``shift`` selects the frame (0: ``v1``, 1: ``v2``).  Equal
    to the ``Circuit.evaluate`` dict of the same frame.
    """

    __slots__ = ("packed", "net_rows", "shift")

    def __init__(self, packed: bytes, net_rows: Dict[str, int], shift: int) -> None:
        self.packed = packed
        self.net_rows = net_rows
        self.shift = shift

    def __getitem__(self, net: str) -> int:
        return self.packed[self.net_rows[net]] >> self.shift & 1

    def __iter__(self) -> Iterator[str]:
        return iter(self.net_rows)

    def __len__(self) -> int:
        return len(self.net_rows)


def frame_values(
    rows: RowTable, packed: bytes
) -> Tuple[FrameValues, FrameValues]:
    """The ``(val1, val2)`` views of :func:`evaluate_two_frame` output."""
    index = rows.index
    return FrameValues(packed, index, 0), FrameValues(packed, index, 1)
