"""Unit tests for suspect pruning and the probabilistic fault dictionary."""

import numpy as np
import pytest

from repro.atpg import generate_path_tests
from repro.core import (
    build_dictionary,
    build_multi_clock_dictionary,
    suspect_edges,
    trace_sensitized_edges,
)
from repro.defects import SingleDefectModel, behavior_matrix
from repro.timing import (
    CircuitTiming,
    SampleSpace,
    diagnosis_clock,
    simulate_pattern_set,
    simulate_transition,
)
from repro.timing.dynamic import replay_cones
from repro.timing.reference import (
    oracle_dictionary,
    resimulate_with_extra_reference,
)


@pytest.fixture(scope="module")
def flow(bench_timing):
    """A defect that actually fires plus its pattern set and clock."""
    rng = np.random.default_rng(8)
    model = SingleDefectModel(bench_timing)
    for _ in range(30):
        defect = model.draw(rng)
        patterns, _ = generate_path_tests(
            bench_timing, defect.edge, n_paths=6, rng_seed=2
        )
        if not len(patterns):
            continue
        sims = simulate_pattern_set(bench_timing, list(patterns))
        clk = diagnosis_clock(
            bench_timing, list(patterns), 0.85,
            simulations=sims, targets=patterns.target_observations(),
        )
        # pick a big defect so the behavior is certainly defect-caused
        big = model.defect_at(defect.edge, size_mean=5.0)
        matrix = behavior_matrix(bench_timing, patterns, clk, big, 3)
        healthy = behavior_matrix(bench_timing, patterns, clk, None, 3)
        if (matrix & ~healthy).any():
            return model, big, patterns, sims, clk, matrix
    pytest.fail("no firing defect found")


class TestTracing:
    def test_no_transition_no_edges(self, bench_timing):
        circuit = bench_timing.circuit
        v = np.zeros(len(circuit.inputs), int)
        sim = simulate_transition(bench_timing, v, v)
        assert trace_sensitized_edges(sim, circuit.outputs[0]) == []

    def test_traced_edges_all_transition(self, flow, bench_timing):
        _model, _defect, patterns, sims, _clk, matrix = flow
        for sim in sims:
            for output in bench_timing.circuit.outputs:
                for edge in trace_sensitized_edges(sim, output):
                    assert sim.val1[edge.source] != sim.val2[edge.source]

    def test_defect_edge_traced_when_it_causes_failure(self, flow):
        model, defect, patterns, sims, clk, matrix = flow
        suspects = suspect_edges(sims, matrix)
        assert defect.edge in suspects

    def test_suspects_deterministic_order(self, flow, bench_timing):
        _model, _defect, _patterns, sims, _clk, matrix = flow
        a = suspect_edges(sims, matrix)
        b = suspect_edges(sims, matrix)
        assert a == b
        order = {e: i for i, e in enumerate(bench_timing.circuit.edges)}
        positions = [order[e] for e in a]
        assert positions == sorted(positions)

    def test_no_failures_no_suspects(self, flow, bench_timing):
        _model, _defect, _patterns, sims, _clk, matrix = flow
        empty = np.zeros_like(matrix)
        assert suspect_edges(sims, empty) == []

    def test_shape_mismatch_rejected(self, flow):
        _model, _defect, _patterns, sims, _clk, matrix = flow
        with pytest.raises(ValueError):
            suspect_edges(sims, matrix[:, :1])


class TestDictionary:
    def test_m_crt_matches_error_matrix(self, flow, bench_timing):
        model, defect, patterns, sims, clk, matrix = flow
        from repro.timing import error_matrix

        suspects = suspect_edges(sims, matrix)[:10]
        dictionary = build_dictionary(
            bench_timing, patterns, clk, suspects,
            model.dictionary_size_variable().samples, base_simulations=sims,
        )
        assert np.allclose(
            dictionary.m_crt,
            error_matrix(bench_timing, list(patterns), clk, simulations=sims),
        )

    def test_signatures_nonnegative_and_bounded(self, flow, bench_timing):
        model, defect, patterns, sims, clk, matrix = flow
        suspects = suspect_edges(sims, matrix)[:10]
        dictionary = build_dictionary(
            bench_timing, patterns, clk, suspects,
            model.dictionary_size_variable().samples, base_simulations=sims,
        )
        for edge in suspects:
            signature = dictionary.signatures[edge]
            assert (signature >= -1e-12).all()
            assert (dictionary.m_crt + signature <= 1 + 1e-12).all()

    def test_e_crt_is_m_plus_s(self, flow, bench_timing):
        model, defect, patterns, sims, clk, matrix = flow
        suspects = suspect_edges(sims, matrix)[:5]
        dictionary = build_dictionary(
            bench_timing, patterns, clk, suspects,
            model.dictionary_size_variable().samples, base_simulations=sims,
        )
        edge = suspects[0]
        assert np.allclose(
            dictionary.e_crt(edge),
            dictionary.m_crt + dictionary.signatures[edge],
        )

    def test_signature_zero_outside_fanout_cone(self, flow, bench_timing):
        model, defect, patterns, sims, clk, matrix = flow
        circuit = bench_timing.circuit
        suspects = suspect_edges(sims, matrix)[:10]
        dictionary = build_dictionary(
            bench_timing, patterns, clk, suspects,
            model.dictionary_size_variable().samples, base_simulations=sims,
        )
        for edge in suspects:
            cone_outputs = set(circuit.outputs_reachable_from(edge.sink))
            for row, output in enumerate(circuit.outputs):
                if output not in cone_outputs:
                    assert (dictionary.signatures[edge][row] == 0).all()

    def test_signature_matches_direct_resimulation(self, flow, bench_timing):
        """Spot-check one signature column against a from-scratch E - M."""
        model, defect, patterns, sims, clk, matrix = flow
        from repro.defects import population_error_matrix

        size = model.dictionary_size_variable().samples
        dictionary = build_dictionary(
            bench_timing, patterns, clk, [defect.edge], size,
            base_simulations=sims,
        )
        from repro.defects.model import InjectedDefect

        as_defect = InjectedDefect(
            defect.edge, bench_timing.edge_index[defect.edge], float(size.mean()), size
        )
        e_direct = population_error_matrix(bench_timing, patterns, clk, as_defect)
        m_direct = population_error_matrix(bench_timing, patterns, clk, None)
        assert np.allclose(
            dictionary.signatures[defect.edge], e_direct - m_direct, atol=1e-12
        )

    def test_size_sample_shape_validated(self, flow, bench_timing):
        model, defect, patterns, sims, clk, matrix = flow
        with pytest.raises(ValueError):
            build_dictionary(
                bench_timing, patterns, clk, [defect.edge], np.ones(3),
                base_simulations=sims,
            )

    def test_len(self, flow, bench_timing):
        model, defect, patterns, sims, clk, matrix = flow
        dictionary = build_dictionary(
            bench_timing, patterns, clk, [defect.edge],
            model.dictionary_size_variable().samples, base_simulations=sims,
        )
        assert len(dictionary) == 1


def _random_pairs(circuit, seed, count):
    rng = np.random.default_rng(seed)
    return [
        (
            rng.integers(0, 2, len(circuit.inputs)),
            rng.integers(0, 2, len(circuit.inputs)),
        )
        for _ in range(count)
    ]


def _adversarial_sizes(n_samples):
    """Mostly zeros, a few spikes, one small value and one negative."""
    sizes = np.zeros(n_samples)
    sizes[::7] = 40.0
    sizes[3] = 0.25
    sizes[5] = -0.5
    return sizes


def _adversarial_clocks(circuit, sims, sizes):
    """A median clock plus clocks exactly at ``base(o, s) + x(s)`` of live
    entries, where a replay's threshold decision is on a knife edge."""
    settles = [
        sim.stable[net]
        for sim in sims
        for net in circuit.outputs
        if sim.transitioned(net)
    ]
    clocks = [float(np.median(np.concatenate(settles)))]
    for index, row in enumerate(settles[:: max(1, len(settles) // 3)]):
        sample = [3, 5, 7][index % 3]
        clocks.append(float(row[sample] + sizes[sample]))
    return clocks


class TestDictionaryOracle:
    """Every signature entry equals ``E - M`` from full re-simulations
    (Definition E.1), so pruned replays can never change a bit."""

    @pytest.mark.parametrize("kernel", ["compiled", "reference"])
    @pytest.mark.parametrize("circuit_name", ["c17", "s27", "small_synth"])
    def test_signatures_match_full_resimulation(
        self, request, kernel, circuit_name
    ):
        """``compiled``: against full compiled simulations of each
        defective circuit; ``reference``: against the oracle dictionary."""
        circuit = request.getfixturevalue(circuit_name)
        timing = CircuitTiming(circuit, SampleSpace(n_samples=48, seed=3))
        patterns = _random_pairs(circuit, 11, 6)
        sims = simulate_pattern_set(timing, patterns)
        sizes = _adversarial_sizes(timing.space.n_samples)
        clocks = _adversarial_clocks(circuit, sims, sizes)
        dictionary = build_multi_clock_dictionary(
            timing, patterns, clocks, list(circuit.edges), sizes,
            base_simulations=sims,
        )

        def error_matrix(simulations):
            return np.concatenate(
                [
                    np.stack(
                        [sim.error_vector(clk) for sim in simulations], axis=1
                    )
                    for clk in clocks
                ],
                axis=1,
            )

        if kernel == "reference":
            m_crt, signatures = oracle_dictionary(
                timing, patterns, clocks, list(circuit.edges), sizes
            )
        else:
            m_crt = error_matrix(sims)
            signatures = [
                error_matrix([
                    simulate_transition(timing, v1, v2, extra_delay={index: sizes})
                    for v1, v2 in patterns
                ]) - m_crt
                for index in range(len(circuit.edges))
            ]
        assert np.array_equal(dictionary.m_crt, m_crt)
        for edge, signature in zip(circuit.edges, signatures):
            assert np.array_equal(dictionary.signatures[edge], signature), edge

    @pytest.mark.parametrize("kernel", ["compiled", "reference"])
    def test_replay_sizes_identical_on_non_candidate_edges(
        self, small_timing, kernel
    ):
        """A replay on a pin outside the schedule reproduces the base rows:
        through the batched compiled replay, and through the oracle."""
        circuit = small_timing.circuit
        sizes = _adversarial_sizes(small_timing.space.n_samples)
        # Compiled bases carry the schedule that names the candidate pins.
        compiled = [
            simulate_transition(small_timing, v1, v2)
            for v1, v2 in _random_pairs(circuit, 5, 4)
        ]
        checked = 0
        for sim in compiled:
            candidates = sim.kernel_state.edge_pos
            for index, edge in enumerate(circuit.edges):
                if index in candidates:
                    continue
                cone = circuit.fanout_cone(edge.sink)
                nets = [net for net in cone if net in circuit.outputs] + [
                    edge.sink
                ]
                if kernel == "reference":
                    replayed = [
                        np.stack([
                            resimulate_with_extra_reference(
                                sim, {index: x}, affected=cone
                            ).stable[net]
                            for net in nets
                        ])
                        for x in (sizes, 2 * sizes)
                    ]
                else:
                    replayed = replay_cones(
                        sim, [index, index], np.stack([sizes, 2 * sizes]),
                        [cone, cone], [nets, nets],
                    ).reshape(2, len(nets), -1)
                base_rows = np.stack([sim.stable[net] for net in nets])
                assert np.array_equal(replayed[0], base_rows)
                assert np.array_equal(replayed[1], base_rows)
                checked += 1
        assert checked
