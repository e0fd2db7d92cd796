"""Oracle tests for the compiled two-frame evaluator and its value views.

``repro.logic.simulator.evaluate_two_frame`` replaces two
``Circuit.evaluate`` calls on every production path (pattern schedules,
ATPG sensitization and fill checks); ``Circuit.evaluate`` stays the
oracle it is checked against here.
"""

import io
import itertools
import pickle

import numpy as np
import pytest

from repro.circuits import Circuit, CircuitError, GateType, benchmark_names, load_benchmark
from repro.logic.simulator import FrameValues, evaluate_two_frame, frame_values
from repro.timing import CircuitTiming, SampleSpace, compile_circuit, simulate_transition


def _oracle(circuit, v1, v2):
    return (
        circuit.evaluate(dict(zip(circuit.inputs, v1))),
        circuit.evaluate(dict(zip(circuit.inputs, v2))),
    )


def every_gate_circuit():
    """Three inputs feeding one gate of every combinational type, plus
    fanin-less (constant) gates."""
    c = Circuit("every_gate")
    for net in ("a", "b", "c"):
        c.add_input(net)
    c.add_gate("one", GateType.AND, [])
    c.add_gate("zero", GateType.XOR, [])
    c.add_gate("buf", GateType.BUF, ["a"])
    c.add_gate("inv", GateType.NOT, ["b"])
    c.add_gate("and3", GateType.AND, ["a", "b", "c"])
    c.add_gate("nand2", GateType.NAND, ["buf", "c"])
    c.add_gate("or3", GateType.OR, ["inv", "b", "c"])
    c.add_gate("nor2", GateType.NOR, ["a", "and3"])
    c.add_gate("xor3", GateType.XOR, ["nand2", "or3", "a"])
    c.add_gate("xnor2", GateType.XNOR, ["nor2", "xor3"])
    c.add_gate("xor_same", GateType.XOR, ["c", "c"])
    c.add_gate("and_one", GateType.AND, ["a", "one"])
    c.add_gate("or_zero", GateType.OR, ["b", "zero"])
    c.add_gate("out", GateType.OUTPUT, ["xnor2"])
    for net in ("out", "xor_same", "and3"):
        c.mark_output(net)
    return c.freeze()


class TestEvaluator:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_matches_oracle_on_registry(self, name):
        circuit = load_benchmark(name)
        rng = np.random.default_rng(11)
        for _ in range(3):
            v1 = rng.integers(0, 2, len(circuit.inputs))
            v2 = rng.integers(0, 2, len(circuit.inputs))
            packed = evaluate_two_frame(circuit.rows, v1, v2)
            val1, val2 = frame_values(circuit.rows, packed)
            oracle1, oracle2 = _oracle(circuit, v1, v2)
            assert dict(val1) == oracle1
            assert dict(val2) == oracle2

    def test_every_gate_type_exhaustively(self):
        circuit = every_gate_circuit()
        vectors = list(itertools.product((0, 1), repeat=3))
        for v1, v2 in itertools.product(vectors, vectors):
            packed = evaluate_two_frame(circuit.rows, v1, v2)
            val1, val2 = frame_values(circuit.rows, packed)
            oracle1, oracle2 = _oracle(circuit, v1, v2)
            assert val1 == oracle1 and val2 == oracle2, (v1, v2)

    def test_packing_is_v1_or_v2_shifted(self, c17):
        v1, v2 = [0, 1, 1, 0, 1], [1, 1, 0, 0, 0]
        packed = evaluate_two_frame(c17.rows, v1, v2)
        oracle1, oracle2 = _oracle(c17, v1, v2)
        assert isinstance(packed, bytes)
        assert list(packed) == [
            oracle1[net] | oracle2[net] << 1 for net in c17.topological_order
        ]

    def test_sequential_circuit_raises(self):
        s27 = load_benchmark("s27", scan=False)
        width = len(s27.inputs)
        with pytest.raises(CircuitError):
            evaluate_two_frame(s27.rows, [0] * width, [1] * width)
        with pytest.raises(CircuitError):
            s27.evaluate(dict.fromkeys(s27.inputs, 0))

    def test_wrong_width_raises(self, c17):
        with pytest.raises(CircuitError):
            evaluate_two_frame(c17.rows, [0, 1], [1, 0])


class TestFrameValues:
    @pytest.fixture()
    def views(self, s27):
        rng = np.random.default_rng(3)
        v1 = rng.integers(0, 2, len(s27.inputs))
        v2 = rng.integers(0, 2, len(s27.inputs))
        packed = evaluate_two_frame(s27.rows, v1, v2)
        return frame_values(s27.rows, packed), _oracle(s27, v1, v2)

    def test_mapping_contract(self, s27, views):
        (val1, val2), (oracle1, oracle2) = views
        assert len(val1) == len(oracle1) == len(s27.gates)
        assert list(val1) == list(s27.topological_order)
        assert val1 == oracle1 and oracle1 == val1
        assert val2 == oracle2 and oracle2 == val2
        assert dict(val2.items()) == oracle2
        assert set(val1.keys()) == set(oracle1)
        net = s27.topological_order[-1]
        assert net in val1 and val1.get(net) == oracle1[net]
        assert "no-such-net" not in val1
        with pytest.raises(KeyError):
            val1["no-such-net"]

    def test_read_only(self, views):
        (val1, _), _ = views
        with pytest.raises(TypeError):
            val1["G0"] = 1

    def test_pickle_round_trip(self, views):
        (val1, val2), (oracle1, oracle2) = views
        clone1, clone2 = pickle.loads(pickle.dumps((val1, val2)))
        assert isinstance(clone1, FrameValues)
        assert clone1 == oracle1 and clone2 == oracle2


class _NoNetlist(pickle.Unpickler):
    def find_class(self, module, name):
        if module == "repro.circuits.netlist":
            raise pickle.UnpicklingError(f"refused {module}.{name}")
        return super().find_class(module, name)


class TestPatternSchedule:
    @pytest.fixture()
    def timing(self, s27):
        return CircuitTiming(s27, SampleSpace(n_samples=20, seed=0))

    def test_schedule_holds_packed_values(self, timing):
        circuit = timing.circuit
        v1 = np.array([1, 0, 1, 1, 0, 0, 1])
        v2 = np.array([0, 1, 1, 0, 1, 0, 0])
        schedule = compile_circuit(circuit).schedule_for(v1, v2)
        oracle1, oracle2 = _oracle(circuit, v1, v2)
        assert schedule.values == evaluate_two_frame(circuit.rows, v1, v2)
        assert schedule.val1 == oracle1 and schedule.val2 == oracle2
        assert list(schedule.transitions) == [
            oracle1[net] != oracle2[net] for net in circuit.topological_order
        ]

    def test_pickle_round_trip(self, timing):
        circuit = timing.circuit
        rng = np.random.default_rng(5)
        v1 = rng.integers(0, 2, len(circuit.inputs))
        v2 = 1 - v1
        schedule = compile_circuit(circuit).schedule_for(v1, v2)
        # The schedule carries the row table, and no netlist object.
        clone = _NoNetlist(io.BytesIO(pickle.dumps(schedule))).load()
        assert clone.rows.names == circuit.rows.names
        assert clone.values == schedule.values
        assert clone.val1 == schedule.val1 and clone.val2 == schedule.val2
        assert np.array_equal(clone.transitions, schedule.transitions)
        assert np.array_equal(clone.all_edges, schedule.all_edges)
        assert np.array_equal(clone.all_sources, schedule.all_sources)
        assert clone.n_net_transitions == schedule.n_net_transitions

    def test_result_queries_read_the_schedule(self, timing):
        circuit = timing.circuit
        rng = np.random.default_rng(9)
        v1 = rng.integers(0, 2, len(circuit.inputs))
        v2 = rng.integers(0, 2, len(circuit.inputs))
        sim = simulate_transition(timing, v1, v2)
        oracle1, oracle2 = _oracle(circuit, v1, v2)
        for net in circuit.topological_order:
            assert sim.transitioned(net) == (oracle1[net] != oracle2[net])
        dense = np.stack([sim.stable[net] for net in circuit.topological_order])
        clk = float(np.median(dense))
        expected = [
            float(np.mean(sim.stable[net] > clk))
            if oracle1[net] != oracle2[net] else 0.0
            for net in circuit.outputs
        ]
        assert sim.error_vector(clk).tolist() == expected
