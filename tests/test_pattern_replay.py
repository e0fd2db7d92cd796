"""Per-pattern cone replay: every suspect of one pattern in one pass.

Plain dictionary builds restrict and replay all live suspects of a
pattern column at once (:func:`repro.timing.dynamic.replay_cones`).  These
tests pin that batch to the per-(suspect, pattern) loop it replaced —
byte for byte, signed zeros included, and counter for counter — pin the
n-cone restriction to n one-cone restrictions, and pin the cut of each
cone to its live gates to a walk from the definition
(:mod:`tests.cone_walk`).
"""

import numpy as np
import pytest

from repro import obs
from repro.atpg import generate_path_tests
from repro.circuits import load_benchmark
from repro.core import ParallelConfig, build_multi_clock_dictionary
from repro.core.dictionary import (
    _output_thresholds,
    _sink_plans,
    _transition_matrix,
)
from repro.defects import SingleDefectModel
from repro.timing import (
    CircuitTiming,
    SampleSpace,
    diagnosis_clock,
    simulate_pattern_set,
    simulate_transition,
)
from repro.timing.dynamic import (
    prepare_cones,
    replay_cones,
    resimulate_with_extra,
)
from repro.timing.reference import resimulate_with_extra_reference

from .cone_walk import live_gates

#: Counters the batch must keep per copy.  ``kernel.reductions`` counts
#: the cut plans' edges instead: the loop replays whole cones.
COUNTERS = (
    "dynamic.resimulations",
    "dynamic.nets_recomputed",
    "kernel.replays_skipped",
)


def _names(circuit, rows):
    """Net names of the net rows of a builder plan."""
    order = circuit.topological_order
    return [order[row] for row in rows]


def _rows(stable, nets):
    take = getattr(stable, "take_rows", None)
    if take is not None:
        return take(nets)
    return np.stack([stable[net] for net in nets])


def _loop_signatures(timing, sims, clocks, suspects, sizes,
                     replay=resimulate_with_extra):
    """One ``replay`` per (suspect, live pattern) over the builder's own
    activity plans, thresholded per clock — the plain chunk body before
    per-pattern batching."""
    circuit = timing.circuit
    n_patterns = len(sims)
    transitioned = _transition_matrix(circuit, sims)
    m_crt, live = _output_thresholds(
        circuit, sims, transitioned, tuple(clocks), sizes
    )
    plans = _sink_plans(
        circuit, transitioned, live, {edge.sink for edge in suspects}
    )
    signatures = []
    for edge in suspects:
        cone, activity = plans[edge.sink]
        cone = _names(circuit, cone)
        signature = np.zeros(m_crt.shape)
        for column, rows, nets in activity:
            stacked = _rows(
                replay(
                    sims[column], {timing.edge_index[edge]: sizes},
                    affected=cone,
                ).stable,
                _names(circuit, nets),
            )
            for block, clk in enumerate(clocks):
                col = block * n_patterns + column
                errs = (stacked > clk).mean(axis=1)
                signature[rows, col] = errs - m_crt[rows, col]
        signatures.append(signature)
    return np.stack(signatures)


def _column_copies(timing, sims, clocks, suspects, sizes):
    """Pattern column -> its copies ``(edge index, cone, nets)``, as the
    plain builder groups them (one chunk)."""
    circuit = timing.circuit
    transitioned = _transition_matrix(circuit, sims)
    _m_crt, live = _output_thresholds(
        circuit, sims, transitioned, tuple(clocks), sizes
    )
    plans = _sink_plans(
        circuit, transitioned, live, {edge.sink for edge in suspects}
    )
    copies = {}
    for edge in suspects:
        cone, activity = plans[edge.sink]
        for column, _rows, nets in activity:
            copies.setdefault(column, []).append(
                (timing.edge_index[edge], _names(circuit, cone),
                 _names(circuit, nets))
            )
    return copies


def _chip_inputs(name, seed):
    """A Section I chip's inputs: site patterns, base runs, two clocks and
    every pin of every fifth gate as suspects (so sinks are shared)."""
    circuit = load_benchmark(name, seed=0)
    timing = CircuitTiming(circuit, SampleSpace(n_samples=64, seed=seed))
    model = SingleDefectModel(timing)
    rng = np.random.default_rng(seed)
    for _attempt in range(10):
        defect = model.draw(rng)
        patterns, _ = generate_path_tests(
            timing, defect.edge, n_paths=6, rng_seed=seed
        )
        if len(patterns) >= 3:
            break
    else:
        pytest.fail(f"no testable site on {name}")
    sims = simulate_pattern_set(timing, list(patterns))
    clk = diagnosis_clock(
        timing, list(patterns), 0.85,
        simulations=sims, targets=patterns.target_observations(),
    )
    index = circuit.topological_index
    suspects = [
        edge for edge in circuit.edges if index[edge.sink] % 5 == 0
    ]
    sizes = model.dictionary_size_variable().samples
    return timing, list(patterns), sims, [clk, 0.9 * clk], suspects, sizes


@pytest.fixture(scope="module", params=[("s1196", 3), ("s5378", 5)],
                ids=["s1196", "s5378"])
def chip(request):
    name, seed = request.param
    timing, patterns, sims, clocks, suspects, sizes = _chip_inputs(name, seed)
    with obs.use_recorder(obs.Recorder()) as recorder:
        expected = _loop_signatures(timing, sims, clocks, suspects, sizes)
    counts = {name: recorder.counter_value(name) for name in COUNTERS}
    counts["uncut reductions"] = recorder.counter_value("kernel.reductions")
    counts["kernel.reductions"] = sum(
        live_gates(sims[column], edge, cone, nets)[1]
        for column, copies in _column_copies(
            timing, sims, clocks, suspects, sizes
        ).items()
        for edge, cone, nets in copies
    )
    return timing, patterns, sims, clocks, suspects, sizes, expected, counts


def _build(chip, parallel=None):
    timing, patterns, sims, clocks, suspects, sizes, _expected, _ = chip
    return build_multi_clock_dictionary(
        timing, patterns, clocks, suspects, sizes,
        base_simulations=sims, parallel=parallel,
    )


class TestPlainDictionaryMatchesLoop:
    def test_inputs_cover_the_batch_cases(self, chip):
        timing, _patterns, sims, _clocks, suspects, _sizes, _e, counts = chip
        sinks = [edge.sink for edge in suspects]
        assert len(set(sinks)) < len(sinks)  # suspects share sinks
        assert counts["kernel.replays_skipped"] > 0  # non-candidate pins
        assert counts["dynamic.resimulations"] > 0
        # Some column replays several suspects at once.
        candidates = [
            sum(timing.edge_index[edge] in sim.kernel_state.edge_pos
                for edge in suspects)
            for sim in sims
        ]
        assert max(candidates) > 1

    def test_bytes_and_counters_equal(self, chip):
        expected, counts = chip[6], chip[7]
        with obs.use_recorder(obs.Recorder()) as recorder:
            dictionary = _build(chip)
        assert dictionary.signature_stack().tobytes() == expected.tobytes()
        for name in COUNTERS + ("kernel.reductions",):
            assert recorder.counter_value(name) == counts[name], name
        assert counts["kernel.reductions"] < counts["uncut reductions"]

    def test_chunking_splits_a_sink(self, chip):
        suspects, expected = chip[4], chip[6]
        chunk = 3
        split = [
            index for index in range(chunk, len(suspects), chunk)
            if suspects[index - 1].sink == suspects[index].sink
        ]
        assert split, "no sink straddles a chunk boundary"
        dictionary = _build(chip, ParallelConfig("serial", chunk_size=chunk))
        assert dictionary.signature_stack().tobytes() == expected.tobytes()

    def test_process_backend(self, chip):
        dictionary = _build(
            chip, ParallelConfig("process", n_workers=2, chunk_size=16)
        )
        assert dictionary.signature_stack().tobytes() == chip[6].tobytes()

    def test_reference_kernel(self, chip):
        """The per-(suspect, pattern) loop through the reference oracle
        gives the build's bytes."""
        timing, _patterns, sims, clocks, suspects, sizes = chip[:6]
        with obs.use_recorder(obs.Recorder()) as recorder:
            oracle = _loop_signatures(
                timing, sims, clocks, suspects, sizes,
                replay=resimulate_with_extra_reference,
            )
        assert _build(chip).signature_stack().tobytes() == oracle.tobytes()
        # The oracle replay has no candidate-pin shortcut or reductions;
        # it replays the same (suspect, pattern) pairs.
        assert recorder.counter_value("dynamic.resimulations") == (
            chip[7]["dynamic.resimulations"]
            + chip[7]["kernel.replays_skipped"]
        )


def _cones_and_copies(timing, sim):
    """Copies over every edge of the circuit: shared sinks, repeated cones
    and non-candidate pins, each asking for its cone's outputs + sink."""
    circuit = timing.circuit
    outputs = set(circuit.outputs)
    edges, cones, nets = [], [], []
    for index, edge in enumerate(circuit.edges):
        cone = circuit.fanout_cone(edge.sink)
        edges.append(index)
        cones.append(cone)
        nets.append([net for net in cone if net in outputs] + [edge.sink])
    return edges, cones, nets


class TestReplayCones:
    @pytest.mark.parametrize("kernel", ["compiled", "reference"])
    def test_rows_and_counters_equal_per_copy_loop(self, small_timing, kernel):
        """The batch equals a per-copy loop through the compiled replay,
        counters included, and through the reference oracle."""
        replay = {
            "compiled": resimulate_with_extra,
            "reference": resimulate_with_extra_reference,
        }[kernel]
        circuit = small_timing.circuit
        rng = np.random.default_rng(4)
        sizes = rng.normal(2.0, 1.0, small_timing.space.n_samples)
        sims = [
            simulate_transition(
                small_timing,
                rng.integers(0, 2, len(circuit.inputs)),
                rng.integers(0, 2, len(circuit.inputs)),
            )
            for _ in range(4)
        ]
        for sim in sims:
            edges, cones, nets = _cones_and_copies(small_timing, sim)
            with obs.use_recorder(obs.Recorder()) as loop_recorder:
                expected = np.concatenate([
                    _rows(replay(sim, {edge: sizes}, affected=cone).stable,
                          group)
                    for edge, cone, group in zip(edges, cones, nets)
                ])
            with obs.use_recorder(obs.Recorder()) as recorder:
                got = replay_cones(sim, edges, sizes, cones, nets)
            assert got.tobytes() == expected.tobytes()
            counts = {name: recorder.counter_value(name) for name in COUNTERS}
            if kernel == "reference":
                # The oracle replays every copy, skippable pins included.
                assert loop_recorder.counter_value(
                    "dynamic.resimulations"
                ) == (counts["dynamic.resimulations"]
                      + counts["kernel.replays_skipped"])
                continue
            for name in COUNTERS:
                assert counts[name] == loop_recorder.counter_value(name), name
            assert recorder.counter_value("kernel.reductions") == sum(
                live_gates(sim, edge, cone, group)[1]
                for edge, cone, group in zip(edges, cones, nets)
            )

    def test_no_copies(self, small_timing):
        circuit = small_timing.circuit
        sim = simulate_transition(
            small_timing, [0] * len(circuit.inputs), [1] * len(circuit.inputs)
        )
        got = replay_cones(sim, [], np.zeros(100), [], [])
        assert got.shape == (0, small_timing.space.n_samples)


def _flatten(cone, copy):
    """One copy of a restriction as comparable per-row tables: its overlay
    rows' gates, min flags and edge segments, and per edge its index,
    source and (copy-local) recomputed driver."""
    copy_edges = np.flatnonzero(cone.edge_copy == copy)
    overlay_rows = np.sort(cone.overlay_of[copy][cone.overlay_of[copy] >= 0])
    local = {int(row): index for index, row in enumerate(overlay_rows)}
    n_edges = len(cone.edges)
    inside = np.full(n_edges, -1, dtype=np.int64)
    group_start = np.empty(cone.n_overlay, dtype=np.int64)
    is_min = np.zeros(cone.n_overlay, dtype=bool)
    for (lo, _hi, starts, inside_pos, inside_src, out_lo, out_hi,
            _neg_rows, neg_groups) in cone.steps:
        if inside_pos is not None:
            inside[inside_pos] = inside_src
        group_start[out_lo:out_hi] = lo + starts
        is_min[out_lo : out_lo + neg_groups] = True
    group_end = np.append(group_start[1:], n_edges)
    # Overlay rows of a copy's groups, and copy-local edge offsets.
    offsets = np.cumsum(
        [0] + [int(group_end[r] - group_start[r]) for r in overlay_rows]
    )
    return dict(
        out_rows=cone.out_rows[overlay_rows].tolist(),
        is_min=is_min[overlay_rows].tolist(),
        segments=offsets.tolist(),
        edges=cone.edges[copy_edges].tolist(),
        sources=cone.sources[copy_edges].tolist(),
        inside=[local.get(int(row), -1) for row in inside[copy_edges]],
    )


class TestRestriction:
    def test_n_cones_equal_n_one_cone_restrictions(self, bench_timing):
        circuit = bench_timing.circuit
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(4):
            sim = simulate_transition(
                bench_timing,
                rng.integers(0, 2, len(circuit.inputs)),
                rng.integers(0, 2, len(circuit.inputs)),
            )
            schedule = sim.kernel_state
            sinks = [
                circuit.edges[int(edge)].sink
                for edge in schedule.all_edges[::3]
            ]
            # A repeated cone and an empty one ride along.
            rows = circuit.rows
            cones = [rows.cone(rows.index[sink]) for sink in sinks]
            cones += [cones[0], np.empty(0, dtype=np.int64)]
            batch = schedule.restrict(cones)
            for copy, cone in enumerate(cones):
                single = schedule.restrict([cone])
                assert _flatten(batch, copy) == _flatten(single, 0)
                # One copy recomputes its cone's transitioning gates in
                # replay order.
                assert sorted(single.out_rows.tolist()) == sorted(
                    row for row in cone.tolist()
                    if schedule.compact_rows[row] < schedule.n_groups
                )
                checked += bool(single.n_overlay)
        assert checked > 8


def _kept_pairs(prepared):
    """The (caller copy, gate) pairs a prepared replay recomputes."""
    cone = prepared.cone
    if cone is None:
        return set()
    replayed = np.flatnonzero(prepared.slot >= 0)
    return {
        (int(replayed[copy]), int(row))
        for copy, row in zip(cone.pair_copy, cone.out_rows)
    }


def _plan(prepared):
    """Every table of a prepared replay, as comparable lists."""
    plan = {
        name: getattr(prepared, name).tolist()
        for name in ("edge_indices", "entry_rows", "counts", "candidate",
                     "cone_sizes", "slot")
    }
    cone = prepared.cone
    if cone is None:
        return plan
    for name in ("edges", "sources", "edge_copy", "inside", "pair_copy",
                 "pair_seg", "lens", "out_rows", "overlay_of"):
        plan[name] = getattr(cone, name).tolist()
    plan["steps"] = [
        [None if part is None else np.asarray(part).tolist() for part in step]
        for step in cone.steps
    ]
    for name in ("hit", "hit_copy", "entries", "overlay_rows"):
        plan[name] = getattr(prepared, name).tolist()
    return plan


class TestLiveCut:
    """Each copy keeps exactly its live gates (:mod:`tests.cone_walk`),
    and cutting the rest changes no byte of any requested row."""

    def test_kept_pairs_equal_definition_and_rows_equal_uncut(self, chip):
        timing, _patterns, sims, clocks, suspects, sizes = chip[:6]
        rng = np.random.default_rng(11)
        columns = _column_copies(timing, sims, clocks, suspects, sizes)
        rows = timing.circuit.rows
        cut = 0
        for column, copies in columns.items():
            edges, cones, nets = zip(*copies)
            sim = sims[column]
            prepared = prepare_cones(sim, edges, cones, nets)
            expected = set()
            for copy, (edge, cone, group) in enumerate(copies):
                live, _n_edges = live_gates(sim, edge, cone, group)
                expected.update((copy, rows.index[net]) for net in live)
            assert _kept_pairs(prepared) == expected
            # One size row per copy; the uncut per-copy loop replays each
            # whole cone.
            draws = rng.normal(1.5, 1.0, (len(copies), len(sizes)))
            uncut = np.concatenate([
                _rows(resimulate_with_extra(
                    sim, {edge: draw}, affected=cone
                ).stable, group)
                for (edge, cone, group), draw in zip(copies, draws)
            ])
            assert prepared.replay(draws).tobytes() == uncut.tobytes()
            cut += sum(
                len(sim.kernel_state.restrict([rows.rows_of(cone)]).edges)
                for cone in cones
            ) - (0 if prepared.cone is None else len(prepared.cone.edges))
        assert len(columns) > 1 and max(map(len, columns.values())) > 1
        assert cut > 0

    def test_slice_equals_fresh_replay(self, chip):
        timing, _patterns, sims, clocks, suspects, sizes = chip[:6]
        columns = _column_copies(timing, sims, clocks, suspects, sizes)
        rng = np.random.default_rng(12)
        sliced = 0
        for column, copies in columns.items():
            # Two size rows per copy, as a fixed-round sampled cell takes.
            copies = [copy for copy in copies for _round in range(2)]
            if len(copies) < 6:
                continue
            edges, cones, nets = zip(*copies)
            sim = sims[column]
            prepared = prepare_cones(sim, edges, cones, nets)
            for keep in ([0, 1], list(range(1, len(copies), 3)),
                         list(range(2, len(copies)))):
                part = prepared.slice(keep)
                fresh = prepare_cones(
                    sim, [edges[k] for k in keep], [cones[k] for k in keep],
                    [nets[k] for k in keep],
                )
                assert _plan(part) == _plan(fresh)
                draws = rng.normal(1.5, 1.0, (len(keep), len(sizes)))
                assert part.replay(draws).tobytes() == (
                    fresh.replay(draws).tobytes()
                )
                # A slice of a slice is a slice too.
                assert _plan(part.slice([len(keep) - 1])) == _plan(
                    prepared.slice([keep[-1]])
                )
                sliced += 1
        assert sliced >= 3
