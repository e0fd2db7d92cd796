"""Sampled dictionary builds: pinned outputs and the per-cell oracle.

Importance-sampled builds run every (suspect, clock) cell allocator of a
chunk in lockstep: each step replays one pattern column for all active
cells at once (:func:`repro.timing.dynamic.replay_cones` with one size
vector per copy).  These tests pin that schedule to the sequential
per-cell loop it replaced -- signatures byte for byte, the whole
``sampling_report`` and the replay counters -- and pin the vectorized
allocator to one :class:`~repro.obs.convergence.ConvergenceStat` per
entry.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import obs
from repro.atpg import generate_path_tests
from repro.circuits import load_benchmark
from repro.core import ParallelConfig, SamplerConfig, build_multi_clock_dictionary
from repro.core.dictionary import (
    _output_thresholds,
    _sink_plans,
    _transition_matrix,
)
from repro.defects import SingleDefectModel
from repro.obs.convergence import ConvergenceStat
from repro.sampling import CellAllocator, SizeDistribution, estimate_tail_probabilities
from repro.timing import (
    CircuitTiming,
    SampleSpace,
    diagnosis_clock,
    simulate_pattern_set,
)
from repro.timing.dynamic import resimulate_with_extra
from repro.timing.reference import resimulate_with_extra_reference

from .cone_walk import live_gates

SAMPLERS = {
    "adaptive": SamplerConfig(
        mode="adaptive", ci_abs=2e-3, ci_rel=0.5, min_rounds=2,
        max_rounds=12, alpha=0.1, ess_floor=0.3,
    ),
    "is": SamplerConfig(mode="is", is_rounds=3, alpha=0.2),
}

#: Counters a lockstep build must keep per (suspect, pattern, round).
#: ``kernel.reductions`` counts the cut plans' edges instead
#: (:func:`_cut_reductions`): the sequential loop replays whole cones.
COUNTERS = (
    "dynamic.resimulations",
    "dynamic.nets_recomputed",
    "kernel.replays_skipped",
)


def _sampled_inputs():
    """An s1196 chip's inputs: site patterns, base runs, two clocks and
    every pin of every seventh gate as suspects (sinks are shared, some
    suspects are dead and some pins are non-candidates)."""
    circuit = load_benchmark("s1196", seed=0)
    timing = CircuitTiming(circuit, SampleSpace(n_samples=48, seed=4))
    model = SingleDefectModel(timing)
    rng = np.random.default_rng(4)
    for _attempt in range(10):
        defect = model.draw(rng)
        patterns, _ = generate_path_tests(
            timing, defect.edge, n_paths=5, rng_seed=4
        )
        if len(patterns) >= 3:
            break
    else:
        pytest.fail("no testable site on s1196")
    sims = simulate_pattern_set(timing, list(patterns))
    clk = diagnosis_clock(
        timing, list(patterns), 0.85,
        simulations=sims, targets=patterns.target_observations(),
    )
    index = circuit.topological_index
    suspects = [edge for edge in circuit.edges if index[edge.sink] % 7 == 0]
    return dict(
        timing=timing,
        patterns=list(patterns),
        sims=sims,
        clocks=[clk, 0.92 * clk],
        suspects=suspects,
        sizes=model.dictionary_size_variable().samples,
        distribution=model.dictionary_size_distribution(),
    )


@pytest.fixture(scope="module")
def case():
    return _sampled_inputs()


def _build(case, sampler, parallel=None):
    return build_multi_clock_dictionary(
        case["timing"], case["patterns"], case["clocks"], case["suspects"],
        case["sizes"], base_simulations=case["sims"],
        parallel=parallel or ParallelConfig(), sampler=sampler,
        size_distribution=case["distribution"],
    )


def _digest(dictionary):
    h = hashlib.sha256()
    h.update(dictionary.m_crt.tobytes())
    for edge in dictionary.suspects:
        h.update(dictionary.signatures[edge].tobytes())
    h.update(json.dumps(dictionary.sampling_report, sort_keys=True).encode())
    return h.hexdigest()


class TestPinnedSampledDigest:
    """Small ``adaptive`` and ``is`` builds, hashed: ``m_crt``, every
    signature and the full ``sampling_report``.  Any change to a draw, a
    replay, a commit or the stopping rule moves the digest."""

    PINNED = {
        "adaptive": "f11d6187b33d64924cbbb51b11e40f6081e99fc9bed506a228c665cb977f4dd0",
        "is": "27cb52e3c2d116fec2c3b8328fda2dbb4a431e890e4b3823ac7436227b8e8980",
    }

    @pytest.mark.parametrize("mode", sorted(SAMPLERS))
    def test_digest(self, case, mode):
        assert _digest(_build(case, SAMPLERS[mode])) == self.PINNED[mode]


def _rows(stable, nets):
    take = getattr(stable, "take_rows", None)
    if take is not None:
        return take(nets)
    return np.stack([stable[net] for net in nets])


def _plans(case):
    """``M_crt`` and the builder's per-sink activity plans."""
    timing, sims, clocks = case["timing"], case["sims"], tuple(case["clocks"])
    circuit = timing.circuit
    transitioned = _transition_matrix(circuit, sims)
    m_crt, live = _output_thresholds(circuit, sims, transitioned, clocks, None)
    plans = _sink_plans(
        circuit, transitioned, live, {edge.sink for edge in case["suspects"]}
    )
    # The plans hold net rows; the loops below walk net names.
    order = circuit.topological_order
    return m_crt, {
        sink: (
            [order[row] for row in cone],
            [(column, rows, [order[row] for row in nets])
             for column, rows, nets in activity],
        )
        for sink, (cone, activity) in plans.items()
    }


def _cut_reductions(case, report):
    """``kernel.reductions`` of a build from the definition of the cut:
    every round of a suspect replays the live gates of each of its
    pattern columns once (:func:`tests.cone_walk.live_gates`)."""
    timing, sims = case["timing"], case["sims"]
    _m_crt, plans = _plans(case)
    total = 0
    for edge, rounds in zip(case["suspects"], report["rounds_per_suspect"]):
        cone, activity = plans[edge.sink]
        total += rounds * sum(
            live_gates(sims[column], timing.edge_index[edge], cone, nets)[1]
            for column, _rows, nets in activity
        )
    return total


def _sequential_build(case, sampler, replay=resimulate_with_extra):
    """The sampled chunk body before lockstep allocation: suspect by
    suspect and clock by clock, one cell runs alone to its stopping rule,
    replaying each (pattern, round) through ``replay``.  Returns the
    signature stack and the ``sampling_report``."""
    timing, sims, clocks = case["timing"], case["sims"], tuple(case["clocks"])
    n_patterns = len(sims)
    m_crt, plans = _plans(case)
    fixed_rounds = sampler.is_rounds if sampler.mode == "is" else None
    signatures, samples, rounds, degenerate, ess, converged = (
        [], [], [], [], [], []
    )
    for index, edge in enumerate(case["suspects"]):
        cone, activity = plans[edge.sink]
        signature = np.zeros(m_crt.shape)
        signatures.append(signature)
        totals = [0, 0, 0, 1.0, True]
        if activity:
            min_median = min(
                float(np.median(_rows(sims[column].stable, nets), axis=1).min())
                for column, _rows_, nets in activity
            )
            n_entries = sum(len(rows) for _column, rows, _nets in activity)
        for clk_index, clk in enumerate(clocks):
            if not activity:
                break
            cell = CellAllocator(
                sampler, case["distribution"], clk - min_median,
                seed=timing.space.seed, suspect_index=index,
                clk_index=clk_index, n_entries=n_entries,
                round_size=timing.space.n_samples,
            )

            def late(x, clk=clk):
                return np.concatenate([
                    _rows(replay(
                        sims[column], {timing.edge_index[edge]: x},
                        affected=cone,
                    ).stable, nets) > clk
                    for column, _rows_, nets in activity
                ])

            if fixed_rounds is not None:
                draws = [cell.draw(r) for r in range(fixed_rounds)]
                blocks = [late(x) for x, _w in draws]
                for (_x, weights), block in zip(draws, blocks):
                    cell.commit(weights, block)
            else:
                while True:
                    x, weights = cell.draw(cell.rounds)
                    cell.commit(weights, late(x))
                    if cell.should_stop():
                        break
            estimates = cell.estimates()
            offset = 0
            for column, rows, _nets in activity:
                col = clk_index * n_patterns + column
                signature[rows, col] = np.maximum(
                    estimates[offset : offset + len(rows)] - m_crt[rows, col],
                    0.0,
                )
                offset += len(rows)
            report = cell.report()
            totals[0] += report.samples_spent
            totals[1] += report.rounds
            totals[2] += report.degenerate_rounds
            totals[3] = min(totals[3], report.ess_fraction)
            totals[4] = totals[4] and report.converged
        for values, total in zip(
            (samples, rounds, degenerate, ess, converged), totals
        ):
            values.append(total)
    report = {
        "mode": sampler.mode,
        "round_size": timing.space.n_samples,
        "samples_per_suspect": samples,
        "rounds_per_suspect": rounds,
        "total_samples": int(sum(samples)),
        "degenerate_rounds": int(sum(degenerate)),
        "min_ess_fraction": float(min(ess, default=1.0)),
        "all_converged": all(converged),
    }
    return np.stack(signatures), report


@pytest.fixture(scope="module", params=sorted(SAMPLERS))
def oracle(request, case):
    sampler = SAMPLERS[request.param]
    with obs.use_recorder(obs.Recorder()) as recorder:
        signatures, report = _sequential_build(case, sampler)
    counts = {name: recorder.counter_value(name) for name in COUNTERS}
    counts["kernel.reductions"] = _cut_reductions(case, report)
    assert counts["kernel.reductions"] < recorder.counter_value(
        "kernel.reductions"
    )
    return sampler, signatures, report, counts


def _assert_matches(dictionary, signatures, report):
    built = np.stack([dictionary.signatures[e] for e in dictionary.suspects])
    assert built.tobytes() == signatures.tobytes()
    assert dictionary.sampling_report == report


class TestLockstepMatchesSequentialCells:
    def test_inputs_cover_the_cases(self, case, oracle):
        sampler, signatures, report, counts = oracle
        rounds = report["rounds_per_suspect"]
        assert 0 in rounds  # dead suspects
        if sampler.mode == "adaptive":
            assert len(set(rounds)) > 2  # cells stop at different steps
        assert report["degenerate_rounds"] > 0
        assert counts["kernel.replays_skipped"] > 0
        assert signatures.any()

    @pytest.mark.parametrize("chunk_size", [None, 3])
    def test_serial_bytes_report_and_counters(
        self, case, oracle, chunk_size
    ):
        sampler, signatures, report, counts = oracle
        with obs.use_recorder(obs.Recorder()) as recorder:
            built = _build(case, sampler, ParallelConfig(chunk_size=chunk_size))
        _assert_matches(built, signatures, report)
        for name, value in counts.items():
            assert recorder.counter_value(name) == value, name
        # Every replayed copy either restricts its cone or reuses one (a
        # slice's copies included); a fixed-round cell replays once, so
        # only adaptive builds reuse.
        reuse = recorder.counter_value("kernel.cone_reuse")
        assert reuse + recorder.counter_value("kernel.cone_schedules") == (
            counts["dynamic.resimulations"]
        )
        assert (reuse > 0) == (sampler.mode == "adaptive")

    def test_process_backend(self, case, oracle):
        sampler, signatures, report, _counts = oracle
        built = _build(case, sampler, ParallelConfig(
            backend="process", n_workers=2, chunk_size=40
        ))
        _assert_matches(built, signatures, report)

    def test_reference_kernel(self, case, oracle):
        """The sequential cells replaying through the reference oracle
        give the lockstep build's bytes and report."""
        sampler = oracle[0]
        signatures, report = _sequential_build(
            case, sampler, replay=resimulate_with_extra_reference
        )
        _assert_matches(_build(case, sampler), signatures, report)


# ----------------------------------------------------------------------
# the vectorized allocator against one ConvergenceStat per entry
# ----------------------------------------------------------------------
def _stat_converged(config, allocator, stats):
    """The per-entry stopping rule over ``ConvergenceStat`` objects."""
    rule_of_three = (
        3.0 * allocator.max_weight if allocator.proposal.is_identity else 0.0
    )
    for stat in stats:
        if stat.count < 2:
            return False
        half_width = config.z * stat.std_error
        if stat.mean == 0.0:
            half_width = max(half_width, rule_of_three / stat.count)
        if half_width > config.ci_abs + config.ci_rel * abs(stat.mean):
            return False
    return True


TAIL = SizeDistribution(mean=1.5, sigma=0.6, floor=0.0)
NARROW = SizeDistribution(mean=1.0, sigma=0.2, floor=0.0)
WIDE = SizeDistribution(mean=1.0, sigma=0.5, floor=0.0)

#: ``estimate_tail_probabilities`` cases of ``tests/test_sampling.py``.
TAIL_CASES = {
    "adaptive": (SamplerConfig(mode="adaptive", ci_abs=0.01, ci_rel=0.1),
                 TAIL, [1.2, 2.5, 3.5], 5, 200),
    "plain_mc": (SamplerConfig(mode="adaptive", importance=False,
                               ci_abs=0.02, ci_rel=0.1),
                 TAIL, [1.2, 2.5, 3.5], 9, 200),
    "is": (SamplerConfig(mode="is", is_rounds=3), TAIL, [1.2, 2.5, 3.5], 2, 100),
    "rule_of_three": (SamplerConfig(mode="adaptive", importance=False,
                                    ci_abs=0.02, ci_rel=0.0, min_rounds=2,
                                    max_rounds=40),
                      NARROW, [3.0], 4, 50),
    "ess_guard": (SamplerConfig(mode="adaptive", alpha=0.05, ess_floor=0.5,
                                ci_abs=0.5, ci_rel=1.0, min_rounds=4,
                                max_rounds=6),
                  WIDE, [6.0], 13, 100),
    "no_entries": (SamplerConfig(mode="adaptive"), TAIL, [], 3, 50),
}


@pytest.mark.parametrize("name", sorted(TAIL_CASES))
def test_allocator_matches_per_entry_stats(name):
    config, dist, thresholds, seed, round_size = TAIL_CASES[name]
    thresholds = np.asarray(thresholds, dtype=float)
    estimates, expected = estimate_tail_probabilities(
        config, dist, thresholds, seed=seed, round_size=round_size
    )
    # Replay the same protocol, shadowing every entry with its own stat.
    gap = float(thresholds.max()) if thresholds.size else dist.mean
    allocator = CellAllocator(
        config, dist, gap, seed=seed, suspect_index=0, clk_index=0,
        n_entries=thresholds.size, round_size=round_size,
    )
    stats = [ConvergenceStat() for _ in thresholds]
    while True:
        x, w = allocator.draw(allocator.rounds)
        indicators = x[None, :] > thresholds[:, None]
        allocator.commit(w, indicators)
        for stat, row in zip(stats, indicators):
            stat.update(np.asarray(row, dtype=float) * w)
        assert np.array_equal(
            allocator.estimates(clip=False),
            np.array([stat.mean for stat in stats]),
        )
        assert np.array_equal(
            allocator.half_widths(),
            np.array([config.z * stat.std_error for stat in stats]),
        )
        assert allocator.converged() == _stat_converged(
            config, allocator, stats
        )
        if config.mode == "is":
            if allocator.rounds >= config.is_rounds:
                break
        elif allocator.should_stop():
            break
    assert allocator.report() == expected.report()
    assert np.array_equal(allocator.estimates(), estimates)


def test_nan_entries_resolve_like_per_entry_stats():
    # An infinite weight turns every entry's running mean into inf or NaN;
    # the stopping rule must read NaN half-widths exactly as the
    # per-entry comparisons did (a NaN never fails the target).
    config = SamplerConfig(mode="adaptive", importance=False, ci_abs=0.5)
    allocator = CellAllocator(
        config, TAIL, 2.0, seed=0, suspect_index=0, clk_index=0,
        n_entries=3, round_size=4,
    )
    stats = [ConvergenceStat() for _ in range(3)]
    indicators = np.array([[1, 1, 1, 1], [0, 0, 0, 0], [1, 0, 1, 0]], bool)
    for weights in ([1.0, 1.0, 1.0, 1.0], [1.0, np.inf, 1.0, 1.0]) * 2:
        weights = np.array(weights)
        with np.errstate(invalid="ignore"):
            allocator.commit(weights, indicators)
            for stat, row in zip(stats, indicators):
                stat.update(np.asarray(row, dtype=float) * weights)
            assert allocator.converged() == _stat_converged(
                config, allocator, stats
            )
        assert np.array_equal(
            allocator.estimates(clip=False),
            np.array([stat.mean for stat in stats]), equal_nan=True,
        )
    assert np.isnan(allocator.half_widths()).any()
