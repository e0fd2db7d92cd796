"""Circuit model: the 5-tuple ``C = (V, E, I, O, f)`` of Definition D.1.

A :class:`Circuit` is a combinational DAG of :class:`Gate` objects.  Vertices
are cells; *edges* are pin-to-pin arcs ``(driver -> gate, pin)`` — the objects
the statistical timing model attaches delay random variables to, and the
sites where segment-oriented defects (Definition D.9) are injected.

Sequential ISCAS89-style netlists are supported through
:meth:`Circuit.unroll_scan`, which replaces each DFF with a pseudo-primary
input (the flop's Q, controllable through scan) and a pseudo-primary output
(the flop's D, observable through scan).  This is the standard full-scan view
under which delay tests are two-vector launch/capture patterns, and is the
setting of the paper's ISCAS89 experiments.

The ``f`` delay function itself lives in :mod:`repro.timing`; this module is
purely structural.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .library import GateType, eval_gate
from .rows import RowTable

__all__ = ["Gate", "Edge", "Circuit", "CircuitError"]


class CircuitError(ValueError):
    """Raised for structural problems: cycles, unknown nets, bad arity."""


@dataclass
class Gate:
    """One cell.  ``name`` doubles as the name of the cell's output net."""

    name: str
    gate_type: GateType
    fanins: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.gate_type is GateType.INPUT and self.fanins:
            raise CircuitError(f"input gate {self.name!r} cannot have fanins")
        if self.gate_type in (GateType.NOT, GateType.BUF, GateType.DFF, GateType.OUTPUT):
            if len(self.fanins) != 1:
                raise CircuitError(
                    f"{self.gate_type.value} gate {self.name!r} needs exactly one "
                    f"fanin, got {len(self.fanins)}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gate({self.name!r}, {self.gate_type.name}, fanins={self.fanins})"


@dataclass(frozen=True)
class Edge:
    """A pin-to-pin arc: input pin ``pin`` of ``sink``, driven by ``source``.

    Edges are the elements of ``E`` in Definition D.1: delay random variables
    and delay defects both live on edges.  ``pin`` is the fanin index within
    the sink gate, so parallel arcs between the same pair of cells (e.g. an
    XOR fed twice by one net) stay distinct.
    """

    source: str
    sink: str
    pin: int

    def __str__(self) -> str:
        return f"{self.source}->{self.sink}[{self.pin}]"


class Circuit:
    """A combinational circuit DAG with named primary inputs and outputs.

    Gates are stored in insertion order; :attr:`topological_order` caches a
    topologically sorted list of gate names.  The circuit is immutable once
    :meth:`freeze` has run (all constructors in this package freeze before
    returning).  What is derived from its structure is memoized on its
    row table (:attr:`rows`); the slots leave room for no other memo but
    the compiled timing kernel.
    """

    __slots__ = ("name", "gates", "inputs", "outputs", "scan_pairs", "_topo",
                 "_rows", "_kernel", "__weakref__")

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.gates: Dict[str, Gate] = {}
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        #: (pseudo-PI, pseudo-PO) pairs from scan unrolling: the state input
        #: and the next-state output of the same flip-flop.  Empty for truly
        #: combinational circuits; used by broadside test generation.
        self.scan_pairs: List[Tuple[str, str]] = []
        self._topo: Optional[List[str]] = None
        self._rows: Optional[RowTable] = None
        #: The compiled timing kernel (:func:`repro.timing.compile_circuit`).
        #: Not on the table: its cached schedules refer to the table.
        self._kernel = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> Gate:
        gate = Gate(name, GateType.INPUT)
        self._add_gate(gate)
        self.inputs.append(name)
        return gate

    def add_gate(self, name: str, gate_type: GateType, fanins: Sequence[str]) -> Gate:
        gate = Gate(name, gate_type, list(fanins))
        self._add_gate(gate)
        return gate

    def mark_output(self, name: str) -> None:
        if name in self.outputs:
            return
        self.outputs.append(name)

    def _add_gate(self, gate: Gate) -> None:
        if self._topo is not None:
            raise CircuitError("circuit is frozen; cannot add gates")
        if gate.name in self.gates:
            raise CircuitError(f"duplicate gate name {gate.name!r}")
        self.gates[gate.name] = gate

    def freeze(self) -> "Circuit":
        """Validate connectivity, compute the topological order, and lock."""
        for gate in self.gates.values():
            for fanin in gate.fanins:
                if fanin not in self.gates:
                    raise CircuitError(
                        f"gate {gate.name!r} references undefined net {fanin!r}"
                    )
        for output in self.outputs:
            if output not in self.gates:
                raise CircuitError(f"primary output {output!r} is undefined")
        self._topo = self._topological_sort()
        return self

    def _topological_sort(self) -> List[str]:
        # DFFs are state elements: their fanin is a *next-state* reference
        # evaluated in the previous clock cycle, so it is not a combinational
        # dependency and must not participate in the ordering (sequential
        # netlists are cyclic only through DFFs).
        def deps(gate: Gate) -> List[str]:
            return [] if gate.gate_type is GateType.DFF else gate.fanins

        indegree = {name: len(deps(gate)) for name, gate in self.gates.items()}
        fanout: Dict[str, List[str]] = {name: [] for name in self.gates}
        for name, gate in self.gates.items():
            for fanin in deps(gate):
                fanout[fanin].append(name)
        ready = [name for name, degree in indegree.items() if degree == 0]
        order: List[str] = []
        while ready:
            current = ready.pop()
            order.append(current)
            for successor in fanout[current]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(self.gates):
            cyclic = sorted(name for name, degree in indegree.items() if degree > 0)
            raise CircuitError(f"circuit contains a cycle through {cyclic[:5]}")
        return order

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        return self._topo is not None

    @property
    def topological_order(self) -> List[str]:
        if self._topo is None:
            raise CircuitError("circuit must be frozen first")
        return self._topo

    @property
    def rows(self) -> RowTable:
        """The circuit's row table (:mod:`repro.circuits.rows`), built on
        first use: the one integer lowering every row-level tool reads."""
        if self._rows is None:
            self._rows = RowTable(self)
        return self._rows

    @property
    def edges(self) -> List[Edge]:
        """All pin-to-pin arcs, in (topological sink, pin) order."""
        rows = self.rows
        if rows.edges is None:
            names = rows.names
            rows.edges = [
                Edge(names[fanin], names[row], pin)
                for row, fanins in enumerate(rows.fanins)
                for pin, fanin in enumerate(fanins)
            ]
        return rows.edges

    @property
    def fanouts(self) -> Dict[str, List[Edge]]:
        """Map net name -> outgoing edges."""
        rows = self.rows
        if rows.fanout_edges is None:
            rows.fanout_edges = {name: [] for name in rows.names}
            for edge in self.edges:
                rows.fanout_edges[edge.source].append(edge)
        return rows.fanout_edges

    @property
    def levels(self) -> Dict[str, int]:
        """Logic level (longest unit-delay depth from any input) per net."""
        rows = self.rows
        return dict(zip(rows.names, rows.levels.tolist()))

    @property
    def depth(self) -> int:
        """Maximum logic level across all nets (0 for an input-only circuit)."""
        return int(self.rows.levels.max(initial=0))

    def num_gates(self, combinational_only: bool = True) -> int:
        if not combinational_only:
            return len(self.gates)
        return sum(
            1 for gate in self.gates.values() if gate.gate_type is not GateType.INPUT
        )

    @property
    def topological_index(self) -> Dict[str, int]:
        """Map net name -> position in :attr:`topological_order`."""
        return self.rows.index

    def fanin_cone(self, net: str) -> List[str]:
        """All nets in the transitive fanin of ``net`` (inclusive), topo order."""
        seen = {net}
        stack = [net]
        while stack:
            current = stack.pop()
            for fanin in self.gates[current].fanins:
                if fanin not in seen:
                    seen.add(fanin)
                    stack.append(fanin)
        return sorted(seen, key=self.topological_index.__getitem__)

    def fanout_cone(self, net: str) -> List[str]:
        """All nets in the transitive fanout of ``net`` (inclusive), topo order.

        Memoized per net (:meth:`RowTable.cone`).  Treat the returned list
        as read-only.
        """
        rows = self.rows
        return rows.cone_names(rows.index[net])

    def outputs_reachable_from(self, net: str) -> List[str]:
        cone = set(self.fanout_cone(net))
        return [output for output in self.outputs if output in cone]

    # ------------------------------------------------------------------
    # evaluation helper (reference-model; simulators use faster paths)
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Dict[str, int]) -> Dict[str, int]:
        """Evaluate every net for a complete primary-input assignment.

        This is the slow, obviously-correct reference evaluator: it walks
        gates by name and shares nothing with the row table.  The
        test-suite uses it as the oracle for the bit-parallel simulator
        and for :func:`repro.logic.simulator.evaluate_two_frame`, which
        does the production two-vector evaluation over :attr:`rows`
        (pattern schedules, ATPG sensitization and fill checks).  The
        remaining library callers are the reference timing kernel (kept
        independent of the compiled one it is checked against), the event
        simulator's initial state and broadside generation, whose ``v2``
        derives from ``v1``'s settled state.
        """
        values: Dict[str, int] = {}
        for name in self.topological_order:
            gate = self.gates[name]
            if gate.gate_type is GateType.DFF:
                raise CircuitError(
                    "cannot evaluate a sequential circuit; call unroll_scan() first"
                )
            if gate.gate_type is GateType.INPUT:
                try:
                    values[name] = int(assignment[name])
                except KeyError:
                    raise CircuitError(f"missing assignment for input {name!r}")
            else:
                values[name] = eval_gate(
                    gate.gate_type, [values[fanin] for fanin in gate.fanins]
                )
        return values

    # ------------------------------------------------------------------
    # sequential -> full-scan combinational view
    # ------------------------------------------------------------------
    def unroll_scan(self) -> "Circuit":
        """Return the full-scan combinational view of a sequential circuit.

        Each ``DFF q <- d`` becomes a pseudo-primary input ``q`` and the net
        ``d`` becomes a pseudo-primary output.  Purely combinational circuits
        are returned unchanged (same object).
        """
        dffs = [g for g in self.gates.values() if g.gate_type is GateType.DFF]
        if not dffs:
            return self
        unrolled = Circuit(self.name)
        for name in self.gates:
            gate = self.gates[name]
            if gate.gate_type is GateType.INPUT:
                unrolled.add_input(name)
            elif gate.gate_type is GateType.DFF:
                unrolled.add_input(name)  # pseudo-PI: scanned-in state
            else:
                unrolled.add_gate(name, gate.gate_type, gate.fanins)
        for output in self.outputs:
            unrolled.mark_output(output)
        for gate in dffs:
            unrolled.mark_output(gate.fanins[0])  # pseudo-PO: next state
        unrolled.scan_pairs = [(gate.name, gate.fanins[0]) for gate in dffs]
        return unrolled.freeze()

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates.values())

    def __len__(self) -> int:
        return len(self.gates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit({self.name!r}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)}, gates={self.num_gates()})"
        )

    def stats(self) -> Dict[str, int]:
        """Summary counts used by the benchmark registry and reports."""
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": self.num_gates(),
            "edges": len(self.edges),
            "depth": self.depth,
        }

