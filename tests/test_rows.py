"""The row table: one integer lowering per circuit, with no back-reference.

Every row-level tool reads :attr:`Circuit.rows`.  These tests pin the
table to the name-level structure it lowers, and pin that nothing built
from it — the compiled kernel, its schedules, simulations and replays —
keeps a circuit alive through a reference cycle.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.circuits import load_benchmark
from repro.circuits.rows import OPCODE
from repro.timing import (
    CircuitTiming,
    SampleSpace,
    compile_circuit,
    resimulate_with_extra,
    simulate_transition,
)
from repro.timing.dynamic import replay_cones


def _fanout_cone_by_name(circuit, net):
    sinks = {}
    for gate in circuit.gates.values():
        for fanin in gate.fanins:
            sinks.setdefault(fanin, set()).add(gate.name)
    seen = {net}
    stack = [net]
    while stack:
        for sink in sinks.get(stack.pop(), ()):
            if sink not in seen:
                seen.add(sink)
                stack.append(sink)
    return seen


class TestTable:
    @pytest.mark.parametrize("name", ["c17", "s27", "s1196"])
    def test_rows_lower_the_gates(self, name):
        """Every row field recomputed from ``circuit.gates`` alone."""
        circuit = load_benchmark(name)
        rows = circuit.rows
        gates = circuit.gates
        assert circuit.rows is rows
        assert circuit.topological_index is rows.index
        level, start, sinks = {}, 0, {net: set() for net in gates}
        for row, net in enumerate(rows.names):
            gate = gates[net]
            assert rows.index[net] == row
            assert [rows.names[f] for f in rows.fanins[row]] == gate.fanins
            assert rows.opcodes[row] == OPCODE[gate.gate_type]
            assert rows.fanin_starts[row] == start
            start += len(gate.fanins)
            level[net] = 1 + max(
                (level[f] for f in gate.fanins), default=-1
            )
            assert rows.levels[row] == level[net]
            for fanin in gate.fanins:
                sinks[fanin].add(row)
        assert set(rows.names) == set(gates)
        for row, net in enumerate(rows.names):
            assert list(rows.fanouts[row]) == sorted(sinks[net])
        assert [rows.names[r] for r in rows.input_rows] == circuit.inputs
        assert [rows.names[r] for r in rows.output_rows] == circuit.outputs

    def test_cones_are_memoized_per_row(self, bench_synth):
        rows = bench_synth.rows
        outputs = bench_synth.outputs
        for edge in bench_synth.edges[::23]:
            row = rows.index[edge.sink]
            cone = rows.cone(row)
            assert rows.cone(row) is cone and not cone.flags.writeable
            names = bench_synth.fanout_cone(edge.sink)
            assert names == [rows.names[r] for r in cone]
            assert set(names) == _fanout_cone_by_name(bench_synth, edge.sink)
            assert [outputs[i] for i in rows.cone_outputs(row)] == [
                net for net in names if net in outputs
            ]

    def test_circuit_has_no_other_memo(self, c17):
        with pytest.raises(AttributeError):
            c17._compiled_kernel = None


def _set_up_and_replay():
    """An s27 set-up that compiles, schedules, simulates and replays;
    returns weak references to its circuit and row table."""
    circuit = load_benchmark("s27")
    timing = CircuitTiming(circuit, SampleSpace(n_samples=32, seed=0))
    width = len(circuit.inputs)
    compiled = compile_circuit(circuit)
    schedule = compiled.schedule_for(np.zeros(width, int), np.ones(width, int))
    base = simulate_transition(timing, np.zeros(width), np.ones(width))
    assert base.kernel_state is schedule
    edge = int(schedule.all_edges[-1])
    sink = circuit.edges[edge].sink
    resimulate_with_extra(base, {edge: 0.5})
    replay_cones(
        base, [edge], np.full(32, 0.5), [circuit.fanout_cone(sink)],
        [list(circuit.outputs)],
    )
    return weakref.ref(circuit), weakref.ref(circuit.rows)


def test_torn_down_set_up_dies_without_a_gc_pass():
    gc.collect()
    gc.disable()
    try:
        circuit_ref, rows_ref = _set_up_and_replay()
        assert circuit_ref() is None
        assert rows_ref() is None
    finally:
        gc.enable()
