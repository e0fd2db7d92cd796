"""Bit-identity suite for the compiled levelized timing kernel.

The compiled kernel (``repro.timing.kernel``) is a pure performance
transformation of the reference gate-by-gate simulator, which lives on as
the test oracle ``repro.timing.reference``: every test here pins
``np.array_equal`` (not ``allclose``) equality between the two — settle
times, error vectors, whole fault dictionaries — across ISCAS benches,
random netlists, the instance (``sample_index``) path and every parallel
backend.  A kernel that is fast but drifts by one ULP fails this file.
"""

import inspect
import pickle
import typing

import numpy as np
import pytest

from repro import obs
from repro.circuits import GateType, GeneratorConfig, generate_circuit, load_benchmark
from repro.core import ParallelConfig, build_multi_clock_dictionary
from repro.timing import (
    CircuitTiming,
    SampleSpace,
    compile_circuit,
    resimulate_with_extra,
    simulate_transition,
)
from repro.timing.dynamic import prepare_cones, replay_cones
from repro.timing.kernel import ConeReplay, ConeStableTimes, StableTimes
from repro.timing.reference import (
    oracle_dictionary,
    resimulate_with_extra_reference,
    simulate_transition_reference,
)


def _vectors(circuit, seed, count=1):
    rng = np.random.default_rng(seed)
    pairs = [
        (
            rng.integers(0, 2, len(circuit.inputs)),
            rng.integers(0, 2, len(circuit.inputs)),
        )
        for _ in range(count)
    ]
    return pairs if count > 1 else pairs[0]


def _assert_same_sim(reference, compiled):
    assert reference.val1 == compiled.val1
    assert reference.val2 == compiled.val2
    assert reference.width == compiled.width
    assert set(reference.stable) == set(compiled.stable)
    for net in reference.stable:
        assert np.array_equal(reference.stable[net], compiled.stable[net]), net


# ----------------------------------------------------------------------
# dispatch: the compiled kernel only, the oracle by direct import
# ----------------------------------------------------------------------
class TestDispatch:
    def test_compiled_is_the_default(self, small_timing):
        """Every dispatching entry point runs the compiled kernel."""
        circuit = small_timing.circuit
        base = simulate_transition(small_timing, *_vectors(circuit, 0))
        assert isinstance(base.stable, StableTimes)
        edge = int(base.kernel_state.all_edges[0])
        cone = circuit.fanout_cone(circuit.edges[edge].sink)
        replay = resimulate_with_extra(base, {edge: 0.5}, affected=cone)
        assert isinstance(replay.stable, ConeStableTimes)
        assert isinstance(
            prepare_cones(base, [edge], [cone], [[circuit.edges[edge].sink]]),
            ConeReplay,
        )

    def test_dispatch_reaches_each_kernel(self, c17_timing):
        v1, v2 = _vectors(c17_timing.circuit, 0)
        assert simulate_transition(c17_timing, v1, v2).kernel_state is not None
        assert simulate_transition_reference(
            c17_timing, v1, v2
        ).kernel_state is None


# ----------------------------------------------------------------------
# settle-time bit-identity
# ----------------------------------------------------------------------
class TestSettleTimesIdentical:
    @pytest.mark.parametrize("seed", range(6))
    def test_c17(self, c17_timing, seed):
        v1, v2 = _vectors(c17_timing.circuit, seed)
        _assert_same_sim(
            simulate_transition_reference(c17_timing, v1, v2),
            simulate_transition(c17_timing, v1, v2),
        )

    @pytest.mark.parametrize("name", ["c432", "s1196"])
    def test_iscas_benches(self, name):
        circuit = load_benchmark(name, seed=0)
        timing = CircuitTiming(circuit, SampleSpace(n_samples=40, seed=3))
        for v1, v2 in _vectors(circuit, 11, count=4):
            _assert_same_sim(
                simulate_transition_reference(timing, v1, v2),
                simulate_transition(timing, v1, v2),
            )

    @pytest.mark.parametrize("gen_seed", range(4))
    def test_random_netlists(self, gen_seed):
        circuit = generate_circuit(
            GeneratorConfig(
                n_inputs=8, n_outputs=4, n_gates=60,
                target_depth=7, seed=gen_seed,
            )
        )
        timing = CircuitTiming(circuit, SampleSpace(n_samples=32, seed=5))
        for v1, v2 in _vectors(circuit, gen_seed, count=3):
            _assert_same_sim(
                simulate_transition_reference(timing, v1, v2),
                simulate_transition(timing, v1, v2),
            )

    def test_extra_delay_at_simulation_time(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 2)
        extra = {3: 1.5, 7: np.full(small_timing.space.n_samples, 0.25)}
        _assert_same_sim(
            simulate_transition_reference(small_timing, v1, v2, extra_delay=extra),
            simulate_transition(small_timing, v1, v2, extra_delay=extra),
        )

    def test_sample_index_path(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 4)
        for sample_index in (0, 17, 99):
            reference = simulate_transition_reference(
                small_timing, v1, v2, sample_index=sample_index
            )
            compiled = simulate_transition(
                small_timing, v1, v2, sample_index=sample_index
            )
            assert compiled.width == 1
            _assert_same_sim(reference, compiled)

    def test_error_vectors_identical(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 6)
        reference = simulate_transition_reference(small_timing, v1, v2)
        compiled = simulate_transition(small_timing, v1, v2)
        for clk in (0.5, 2.0, 5.0):
            assert np.array_equal(
                reference.error_vector(clk), compiled.error_vector(clk)
            )
            assert np.array_equal(
                reference.output_failures(clk), compiled.output_failures(clk)
            )

    def test_error_vector_fast_path_matches_instrumented_loop(self, small_timing):
        """The vectorized gather in ``error_vector`` and the recorded
        per-net loop are the same numbers."""
        v1, v2 = _vectors(small_timing.circuit, 8)
        compiled = simulate_transition(small_timing, v1, v2)
        fast = compiled.error_vector(2.0)
        with obs.use_recorder(obs.Recorder()):
            slow = compiled.error_vector(2.0)
        assert np.array_equal(fast, slow)


# ----------------------------------------------------------------------
# cone-restricted re-simulation
# ----------------------------------------------------------------------
class TestResimulationIdentical:
    @pytest.mark.parametrize("edge_index", [0, 5, 23])
    def test_single_edge(self, small_timing, edge_index):
        v1, v2 = _vectors(small_timing.circuit, 3)
        extra = {edge_index: np.full(small_timing.space.n_samples, 0.8)}
        reference = resimulate_with_extra_reference(
            simulate_transition_reference(small_timing, v1, v2), extra
        )
        compiled = resimulate_with_extra(
            simulate_transition(small_timing, v1, v2), extra
        )
        _assert_same_sim(reference, compiled)

    def test_precomputed_affected_cone(self, small_timing):
        circuit = small_timing.circuit
        edge = circuit.edges[9]
        cone = circuit.fanout_cone(edge.sink)
        extra = {9: 1.25}
        reference = resimulate_with_extra_reference(
            simulate_transition_reference(small_timing, *_vectors(circuit, 5)),
            extra, affected=cone,
        )
        compiled = resimulate_with_extra(
            simulate_transition(small_timing, *_vectors(circuit, 5)),
            extra, affected=cone,
        )
        _assert_same_sim(reference, compiled)

    def test_multi_edge_defect(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 7)
        extra = {2: 0.5, 11: 0.75, 19: np.full(small_timing.space.n_samples, 1.1)}
        reference = resimulate_with_extra_reference(
            simulate_transition_reference(small_timing, v1, v2), extra
        )
        compiled = resimulate_with_extra(
            simulate_transition(small_timing, v1, v2), extra
        )
        _assert_same_sim(reference, compiled)

    def test_replay_of_replay_raises_type_error(self, small_timing):
        """A replay result carries no schedule, so replaying it again is a
        typed error.  Re-simulating a replay would drop the first replay's
        extra delay (the oracle shows it), so no silent answer is right."""
        v1, v2 = _vectors(small_timing.circuit, 9)
        first = resimulate_with_extra(
            simulate_transition(small_timing, v1, v2), {4: 0.5}
        )
        assert first.kernel_state is None
        with pytest.raises(TypeError, match="compiled-kernel schedule"):
            resimulate_with_extra(first, {4: 0.5})
        once = resimulate_with_extra_reference(
            simulate_transition_reference(small_timing, v1, v2), {4: 0.5}
        )
        _assert_same_sim(once, resimulate_with_extra_reference(once, {4: 0.5}))
        total = simulate_transition_reference(
            small_timing, v1, v2, extra_delay={4: 1.0}
        )
        assert any(
            not np.array_equal(once.stable[net], total.stable[net])
            for net in small_timing.circuit.topological_order
        )

    def test_base_result_untouched_by_replay(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 1)
        base = simulate_transition(small_timing, v1, v2)
        before = {net: base.stable[net].copy() for net in base.stable}
        resimulate_with_extra(base, {6: 2.0})
        for net, values in before.items():
            assert np.array_equal(base.stable[net], values)


# ----------------------------------------------------------------------
# whole-dictionary bit-identity (the workload the kernel exists for)
# ----------------------------------------------------------------------
def _dictionary_case(timing, seed=0):
    from repro.atpg import generate_path_tests
    from repro.timing import diagnosis_clock, simulate_pattern_set

    circuit = timing.circuit
    patterns = None
    for site in circuit.edges[::19]:
        extra, _ = generate_path_tests(timing, site, n_paths=3, rng_seed=seed)
        if patterns is None:
            patterns = extra
        else:
            for index in range(len(extra)):
                try:
                    patterns.append(
                        extra.pairs[index][0],
                        extra.pairs[index][1],
                        extra.sources[index],
                    )
                except ValueError:
                    pass
        if len(patterns) >= 8:
            break
    sims = simulate_pattern_set(timing, list(patterns))
    clk = diagnosis_clock(
        timing, list(patterns), 0.85,
        simulations=sims, targets=patterns.target_observations(),
    )
    sizes = np.full(timing.space.n_samples, 0.9)
    return patterns, clk, list(circuit.edges), sizes


def _matches_oracle(dictionary, patterns, clks, suspects, sizes):
    m_crt, signatures = oracle_dictionary(
        dictionary.timing, list(patterns), clks, suspects, sizes
    )
    return np.array_equal(dictionary.m_crt, m_crt) and all(
        np.array_equal(dictionary.signatures[edge], signature)
        for edge, signature in zip(suspects, signatures)
    )


class TestDictionaryIdentical:
    """Compiled dictionary builds against the oracle's E - M dictionary."""

    def _check(self, timing, multi=False, **kwargs):
        from repro.timing import simulate_pattern_set

        patterns, clk, suspects, sizes = _dictionary_case(timing)
        sims = simulate_pattern_set(timing, list(patterns))
        clks = [clk, clk * 1.05] if multi else [clk]
        dictionary = build_multi_clock_dictionary(
            timing, patterns, clks, suspects, sizes,
            base_simulations=sims, **kwargs,
        )
        assert _matches_oracle(dictionary, patterns, clks, suspects, sizes)
        return dictionary

    def test_single_clock(self, small_timing):
        self._check(small_timing)

    def test_multi_clock(self, small_timing):
        self._check(small_timing, multi=True)

    @pytest.mark.slow
    def test_benchmark_circuit(self, bench_timing):
        self._check(bench_timing, multi=True)

    @pytest.mark.slow
    def test_parallel_backends(self, small_timing):
        """Compiled kernel inside process workers == the oracle."""
        self._check(
            small_timing,
            parallel=ParallelConfig(backend="process", n_workers=2),
        )

    def test_strided_path_tests_every_edge_s1196(self):
        """Full s1196 at 128 samples: path tests from every 173rd edge
        until 12 patterns, every edge a suspect, clocks ``clk`` and
        ``1.02 * clk``."""
        from repro.atpg import generate_path_tests
        from repro.timing import diagnosis_clock, simulate_pattern_set

        circuit = load_benchmark("s1196", seed=1)
        timing = CircuitTiming(circuit, SampleSpace(n_samples=128, seed=7))
        patterns = None
        for site in circuit.edges[::173]:
            extra, _paths = generate_path_tests(
                timing, site, n_paths=4, rng_seed=5
            )
            if patterns is None:
                patterns = extra
            else:
                for index in range(len(extra)):
                    try:
                        patterns.append(
                            extra.pairs[index][0],
                            extra.pairs[index][1],
                            extra.sources[index],
                        )
                    except ValueError:
                        pass  # duplicate pair
            if len(patterns) >= 12:
                break
        assert len(patterns) >= 12
        sims = simulate_pattern_set(timing, list(patterns))
        clk = diagnosis_clock(
            timing, list(patterns), 0.85,
            simulations=sims, targets=patterns.target_observations(),
        )
        clks = [clk, clk * 1.02]
        suspects = list(circuit.edges)
        sizes = np.full(timing.space.n_samples, 0.9)
        dictionary = build_multi_clock_dictionary(
            timing, patterns, clks, suspects, sizes, base_simulations=sims,
        )
        assert any(signature.any() for signature in dictionary.signatures.values())
        assert _matches_oracle(dictionary, patterns, clks, suspects, sizes)

    def test_signature_storage_invariants(self, small_timing):
        """Dead suspects share one read-only zero matrix; live suspects get
        private (arena-view) rows that never alias one another."""
        compiled = self._check(small_timing)
        live_keys = set()
        for edge in compiled.suspects:
            signature = compiled.signatures[edge]
            if not signature.flags.writeable:
                assert not signature.any()
                continue
            key = (
                signature.__array_interface__["data"][0]
                if signature.base is None
                else (id(signature.base),
                      signature.__array_interface__["data"][0])
            )
            assert key not in live_keys
            live_keys.add(key)


# ----------------------------------------------------------------------
# memoization (the satellite caches) — one computation per circuit
# ----------------------------------------------------------------------
class TestMemoization:
    def test_compile_circuit_runs_once(self, small_synth):
        first = compile_circuit(small_synth)
        assert compile_circuit(small_synth) is first

    def test_edge_offsets_memoized(self, small_synth):
        from repro.timing import edge_offsets

        assert edge_offsets(small_synth) is edge_offsets(small_synth)

    def test_fanout_cone_memoized(self, small_synth):
        sink = small_synth.edges[4].sink
        assert small_synth.fanout_cone(sink) is small_synth.fanout_cone(sink)

    def test_topological_index_memoized_and_consistent(self, small_synth):
        index = small_synth.topological_index
        assert small_synth.topological_index is index
        order = small_synth.topological_order
        assert [order[index[name]] for name in order] == list(order)

    def test_fanout_cone_is_topologically_sorted(self, small_synth):
        index = small_synth.topological_index
        for edge in small_synth.edges[::7]:
            cone = small_synth.fanout_cone(edge.sink)
            positions = [index[net] for net in cone]
            assert positions == sorted(positions)

    def test_schedule_and_cone_reuse_counted(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 12)
        with obs.use_recorder(obs.Recorder()) as recorder:
            base = simulate_transition(small_timing, v1, v2)
            simulate_transition(small_timing, v1, v2)
            assert recorder.counter_value("kernel.schedules_built") == 1
            assert recorder.counter_value("kernel.schedule_reuse") == 1
            # A candidate pin of the pattern, so the replay needs a cone.
            edge = int(base.kernel_state.all_edges[0])
            cone = small_timing.circuit.fanout_cone(
                small_timing.circuit.edges[edge].sink
            )
            # A single replay restricts its cone afresh every time.
            resimulate_with_extra(base, {edge: 0.5}, affected=cone)
            resimulate_with_extra(base, {edge: 0.7}, affected=cone)
            assert recorder.counter_value("kernel.cone_schedules") == 2
            assert recorder.counter_value("kernel.cone_reuse") == 0
            # A prepared replay restricts once; its later replays, and
            # every replay of a slice of it, reuse the restriction.
            sink = small_timing.circuit.edges[edge].sink
            prepared = prepare_cones(
                base, [edge, edge], [cone, cone], [[sink], [sink]]
            )
            sizes = np.full(small_timing.space.n_samples, 0.5)
            prepared.replay(sizes)
            prepared.replay(sizes)
            prepared.slice([1]).replay(sizes)
            assert recorder.counter_value("kernel.cone_schedules") == 4
            assert recorder.counter_value("kernel.cone_reuse") == 3

    def test_non_candidate_pin_returns_base_without_a_cone(self, small_timing):
        circuit = small_timing.circuit
        v1, v2 = _vectors(circuit, 12)
        base = simulate_transition(small_timing, v1, v2)
        candidates = set(base.kernel_state.edge_pos)
        edge = next(i for i in range(len(circuit.edges)) if i not in candidates)
        cone = circuit.fanout_cone(circuit.edges[edge].sink)
        with obs.use_recorder(obs.Recorder()) as recorder:
            assert resimulate_with_extra(base, {edge: 5.0}, affected=cone) is base
            assert resimulate_with_extra(base, {edge: 5.0}) is base
            assert recorder.counter_value("kernel.replays_skipped") == 2
            assert recorder.counter_value("kernel.cone_schedules") == 0
            assert recorder.counter_value("dynamic.resimulations") == 0
        reference = resimulate_with_extra_reference(base, {edge: 5.0}, cone)
        _assert_same_sim(reference, base)


# ----------------------------------------------------------------------
# compiled result containers
# ----------------------------------------------------------------------
class TestStableContainers:
    def test_stable_mapping_protocol(self, c17_timing):
        v1, v2 = _vectors(c17_timing.circuit, 0)
        compiled = simulate_transition(c17_timing, v1, v2)
        assert isinstance(compiled.stable, StableTimes)
        assert len(compiled.stable) == len(c17_timing.circuit.topological_order)
        for net in compiled.stable:
            assert compiled.stable[net].shape == (c17_timing.space.n_samples,)

    def test_take_rows_matches_stack(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 13)
        compiled = simulate_transition(small_timing, v1, v2)
        nets = list(small_timing.circuit.outputs)
        assert np.array_equal(
            compiled.stable.take_rows(nets),
            np.stack([compiled.stable[net] for net in nets]),
        )
        replay = resimulate_with_extra(compiled, {5: 0.5})
        assert isinstance(replay.stable, ConeStableTimes)
        assert np.array_equal(
            replay.stable.take_rows(nets),
            np.stack([replay.stable[net] for net in nets]),
        )

    def test_schedule_transitions_vector(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 14)
        compiled = simulate_transition(small_timing, v1, v2)
        schedule = compiled.kernel_state
        order = small_timing.circuit.topological_order
        expected = np.array(
            [compiled.val1[n] != compiled.val2[n] for n in order]
        )
        assert np.array_equal(schedule.transitions, expected)
        assert schedule.n_net_transitions == int(expected.sum())

    def test_transition_matrix_matches_oracle_values(self, small_timing):
        from repro.core.dictionary import _transition_matrix

        circuit = small_timing.circuit
        pairs = _vectors(circuit, 15, count=3)
        compiled = [simulate_transition(small_timing, v1, v2) for v1, v2 in pairs]
        expected = []
        for v1, v2 in pairs:
            oracle = simulate_transition_reference(small_timing, v1, v2)
            expected.append([
                oracle.val1[net] != oracle.val2[net]
                for net in circuit.topological_order
            ])
        assert np.array_equal(
            _transition_matrix(circuit, compiled), np.array(expected)
        )


# ----------------------------------------------------------------------
# compact settle-time matrix
# ----------------------------------------------------------------------
def _active_gates(reference):
    """Non-input nets the pattern transitions, from the reference values."""
    circuit = reference.timing.circuit
    return [
        net for net in circuit.topological_order
        if circuit.gates[net].gate_type is not GateType.INPUT
        and reference.val1[net] != reference.val2[net]
    ]


def _candidate_edge(base):
    """A candidate pin of the pattern schedule (its replay is not skipped)."""
    return int(base.kernel_state.all_edges[-1])


class TestCompactMatrix:
    @pytest.mark.parametrize("name", ["s1196", "s5378"])
    def test_one_row_per_transitioning_gate_plus_zero_row(self, name):
        circuit = load_benchmark(name, seed=0)
        timing = CircuitTiming(circuit, SampleSpace(n_samples=16, seed=2))
        for v1, v2 in _vectors(circuit, 21, count=3):
            reference = simulate_transition_reference(timing, v1, v2)
            compiled = simulate_transition(timing, v1, v2)
            n_active = len(_active_gates(reference))
            assert compiled.stable.matrix.shape == (n_active + 1, 16)
            assert not compiled.stable.matrix[n_active].any()

    def test_rows_are_read_only(self, small_timing):
        circuit = small_timing.circuit
        v1, v2 = _vectors(circuit, 22)
        reference = simulate_transition_reference(small_timing, v1, v2)
        base = simulate_transition(small_timing, v1, v2)
        active = _active_gates(reference)
        quiet = next(
            net for net in circuit.topological_order
            if reference.val1[net] == reference.val2[net]
        )
        for net in (quiet, active[0]):
            with pytest.raises(ValueError):
                base.stable[net][0] = 1.0
            with pytest.raises(ValueError):
                base.stable[net] += 1.0
        _assert_same_sim(reference, base)

        edge = _candidate_edge(base)
        cone = circuit.fanout_cone(circuit.edges[edge].sink)
        sizes = [np.full(small_timing.space.n_samples, s) for s in (0.4, 1.3)]
        expected = [
            resimulate_with_extra_reference(reference, {edge: x}, affected=cone)
            for x in sizes
        ]
        _assert_same_sim(
            expected[0], resimulate_with_extra(base, {edge: sizes[0]}, affected=cone)
        )
        nets = list(circuit.outputs) + active[:3]
        # One copy per size vector, each with its own sizes.
        batched = replay_cones(
            base, [edge] * len(sizes), np.stack(sizes), [cone] * len(sizes),
            [nets] * len(sizes),
        ).reshape(len(sizes), len(nets), -1)
        for index, patched in enumerate(expected):
            assert np.array_equal(
                batched[index], np.stack([patched.stable[net] for net in nets])
            )

    def test_pickle_round_trip(self, small_timing):
        circuit = small_timing.circuit
        v1, v2 = _vectors(circuit, 23)
        base = simulate_transition(small_timing, v1, v2)
        clone = pickle.loads(pickle.dumps(base))
        assert isinstance(clone.stable, StableTimes)
        assert not clone.stable.matrix.flags.writeable
        assert list(clone.stable) == list(base.stable)
        for net in base.stable:
            assert np.array_equal(clone.stable[net], base.stable[net]), net

        edge = _candidate_edge(base)
        cone = circuit.fanout_cone(circuit.edges[edge].sink)
        extra = {edge: np.full(small_timing.space.n_samples, 0.9)}
        _assert_same_sim(
            resimulate_with_extra(base, extra, affected=cone),
            resimulate_with_extra(clone, extra, affected=cone),
        )
        nets = list(circuit.outputs)
        assert np.array_equal(
            replay_cones(base, [edge], extra[edge][None], [cone], [nets]),
            replay_cones(clone, [edge], extra[edge][None], [cone], [nets]),
        )


def test_kernel_type_hints_resolve():
    from repro.timing import kernel

    functions = [
        getattr(kernel, name) for name in kernel.__all__
        if inspect.isfunction(getattr(kernel, name))
    ]
    assert kernel.resimulate_with_extra_compiled in functions
    for function in functions + [kernel.ConeReplay.__init__,
                                 kernel.ConeReplay.replay]:
        typing.get_type_hints(function)
