"""The probabilistic fault dictionary (paper Sections C-1, E; Definition E.1).

For the defect-free model the dictionary holds ``M_crt = Err_M(C, TP, clk)``;
for every suspect fault ``i`` it holds the signature probability matrix

    ``S_crt(i) = Err_M(D_i(C), TP, clk) - M_crt``

the suspect's *additional contribution* to each output/pattern critical
probability.  Construction cost is dominated by the per-suspect dynamic
re-simulations; four structural facts keep it tractable:

* logic values never change under a delay defect, so only settle times in
  the suspect edge's fanout cone need re-evaluation
  (:func:`repro.timing.dynamic.resimulate_with_extra`),
* a suspect can only affect patterns that launch a transition through its
  edge, and only outputs in its fanout cone — other entries are copied
  from ``M_crt`` without simulation,
* within that cone a replay recomputes only the *live* gates: those the
  suspect edge reaches through recomputed drivers and that reach an entry
  the build reads.  Any other gate re-reduces its base operands, so it
  equals its base row bit for bit, or is never read
  (:class:`repro.timing.kernel.ConeReplay`),
* settle times are min/max-plus functions of the edge delays, so adding
  ``x(s)`` to one edge moves every settle time by at most ``|x(s)|``, in
  the direction of ``x(s)`` (the 1-Lipschitz crossing bound).  An output
  whose base samples all sit farther than that from every clock keeps
  every threshold decision, so plain builds never replay for it
  (:data:`CROSSING_TOL` absorbs float rounding).

On top of that, construction exploits four scaling levers (all
preserving bit-exact results):

* **cone batching** — suspects sharing a sink net share their fanout
  cone, their affected-output set, and the per-pattern transition gating;
  that per-sink activity plan is computed once and reused by every
  suspect (and every clock of a sweep) on the cone,
* **pattern batching** — a plain build works pattern column by pattern
  column: every live suspect of a chunk that the column reaches is
  restricted and replayed in one level-ordered pass
  (:class:`repro.timing.kernel.ConeReplay`) and all of their entries
  are thresholded at once per clock.  Each entry is the same reduction
  over the same operands, then the same exact count over the same width,
  as a replay of that suspect alone.  A sampled build does the same per
  allocation round: its cells advance in lockstep, so one pass per
  column replays the next round of every cell still sampling,
* **parallel fan-out** — suspects are independent, so signature chunks
  fan out across worker processes (:mod:`repro.core.parallel`); results
  reassemble in suspect order, making parallel builds bit-identical to
  serial ones,
* **content-addressed caching** — the finished ``M_crt`` + signatures
  can be persisted keyed on everything they depend on
  (:mod:`repro.core.cache`), so clock sweeps, repeated diagnoses and the
  Section I protocol skip rebuilds entirely.

The monotonicity ``err_ij >= crt_ij`` noted in the paper holds *exactly*
per Monte-Carlo sample here (extra delay can only increase settle times),
so signatures are non-negative by construction.

Construction is instrumented through :mod:`repro.obs` (spans
``dictionary.build`` > ``dictionary.signatures`` > ``parallel.map``,
``dictionary.*`` counters and convergence meters); with no recorder
installed every hook is a no-op and the build is bit-identical either way.
"""

from __future__ import annotations

import mmap
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.netlist import Circuit, Edge
from ..timing.critical import simulate_pattern_set
from ..timing.dynamic import TransitionSimResult
from ..timing.kernel import ConeReplay
from ..timing.instance import CircuitTiming
from ..atpg.patterns import PatternPairSet
from ..sampling import (
    AllocationReport,
    CellAllocator,
    SamplerConfig,
    SizeDistribution,
    resolve_sampler,
)
from .. import obs
from .cache import DictionaryStore, dictionary_cache_key, resolve_cache
from .parallel import ParallelConfig, map_chunked, resolve_parallel

__all__ = [
    "ProbabilisticFaultDictionary",
    "build_dictionary",
    "build_multi_clock_dictionary",
]

#: Slack of the crossing bound, relative to ``max(1, |clk|)``.  A replay
#: rounds ``delay + x`` once and each cone level's ``settle + delay``
#: once, so a replayed settle time can overshoot ``base + x`` by a few
#: ulps per level; 1e-9 is many orders of magnitude above that for any
#: cone depth, so pruning by the bound never drops a crossing sample.
CROSSING_TOL = 1e-9


@dataclass
class ProbabilisticFaultDictionary:
    """Per-suspect signature matrices plus the defect-free error matrix.

    ``m_crt`` is ``|O| x |TP|``; ``signatures[edge]`` has the same shape.
    ``size_samples`` records the defect-size population assumed while
    building (the diagnosis has to guess the unknown size distribution;
    Definition D.8's discussion, point 4).
    """

    timing: CircuitTiming
    clk: float
    m_crt: np.ndarray
    suspects: List[Edge]
    signatures: Dict[Edge, np.ndarray]
    size_samples: np.ndarray
    #: Per-suspect allocation accounting when built with a non-plain
    #: sampler (mode, round size, samples/rounds per suspect, degeneracy
    #: events); ``None`` for plain builds and cache-served results.
    sampling_report: Optional[Dict] = None
    #: Prebuilt ``(n_suspects, n_outputs, n_cols)`` signature stack —
    #: populated zero-copy when the dictionary was served from an mmap
    #: :class:`~repro.core.cache.DictionaryStore`; lazily stacked
    #: otherwise.  Batched diagnosis reads suspects through this.
    _signature_stack: Optional[np.ndarray] = None

    @property
    def circuit(self) -> Circuit:
        return self.timing.circuit

    def signature(self, edge: Edge) -> np.ndarray:
        return self.signatures[edge]

    def e_crt(self, edge: Edge) -> np.ndarray:
        """``Err_M(D_s(C), TP, clk)`` for one suspect."""
        return self.m_crt + self.signatures[edge]

    def signature_stack(self) -> np.ndarray:
        """All signatures as one ``(n_suspects, n_out, n_cols)`` array.

        Row ``i`` is bit-identical to ``signatures[suspects[i]]``.  The
        stack is what the vectorized batch scorer
        (:func:`repro.core.diagnosis.diagnose_batch`) broadcasts against;
        store-served dictionaries return the mmapped pages themselves
        (zero copy), built ones stack once and memoize.
        """
        if self._signature_stack is None:
            if self.suspects:
                stack = np.stack(
                    [self.signatures[edge] for edge in self.suspects]
                )
            else:
                stack = np.zeros((0,) + self.m_crt.shape, self.m_crt.dtype)
            stack.setflags(write=False)
            self._signature_stack = stack
        return self._signature_stack

    def __len__(self) -> int:
        return len(self.suspects)


# ----------------------------------------------------------------------
# the signature kernel
# ----------------------------------------------------------------------
#: Per-sink activity plan: the fanout cone's net rows plus, per pattern
#: column that toggles the sink, the outputs that can carry the suspect's
#: effect (positions in ``circuit.outputs``, and their net rows).  Shared
#: by every suspect on the sink.
_SinkPlan = Tuple[np.ndarray, List[Tuple[int, np.ndarray, np.ndarray]]]


@dataclass
class _SignatureJob:
    """Everything a worker needs to compute signature chunks.

    Shipped to each worker process once (pool initializer), after which
    task messages carry only suspect-index ranges.
    """

    base_simulations: Sequence[TransitionSimResult]
    clks: Tuple[float, ...]
    size_samples: np.ndarray
    suspects: List[Edge]
    edge_indices: List[int]
    m_crt: np.ndarray
    plan_by_sink: Dict[str, _SinkPlan]


def _transition_matrix(
    circuit: Circuit, base_simulations: Sequence[TransitionSimResult]
) -> np.ndarray:
    """``(n_sims, n_nets)`` bool: did net (topological index) toggle?

    Reads each simulation's compiled schedule, whose per-net transition
    vector is in net-row (= topological) order already.
    """
    matrix = np.empty(
        (len(base_simulations), len(circuit.topological_order)), dtype=bool
    )
    for row, sim in enumerate(base_simulations):
        matrix[row] = sim.kernel_state.transitions
    return matrix


def _base_rows(sim: TransitionSimResult, net_rows) -> np.ndarray:
    """The base settle rows of ``net_rows``, stacked: one gather from a
    simulation's compact matrix."""
    return sim.stable.matrix[sim.kernel_state.compact_rows[net_rows]]


def _output_thresholds(
    circuit: Circuit,
    base_simulations: Sequence[TransitionSimResult],
    transitioned: np.ndarray,
    clks: Tuple[float, ...],
    size_samples: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """``M_crt`` and the ``(n_patterns, n_outputs)`` bool mask of live entries.

    One gather of each simulation's transitioning output rows serves every
    clock.  ``M_crt`` is bit-identical to stacking
    :meth:`TransitionSimResult.error_vector` per clock: the same bool
    means over the same rows.  An output is live when it transitions (a
    delay defect never changes logic, so a quiet output stays quiet).

    With ``size_samples`` (plain builds), an entry also has to pass the
    crossing bound: adding ``x(s)`` to one edge of the min/max-plus
    network moves every settle time by at most ``x(s)``, in the direction
    of its sign.  If no sample of the output can cross any clock, every
    replay thresholds to exactly the base decision and the signature
    entry is ``+0.0``, so it is dropped from the live mask.
    """
    outputs = circuit.outputs
    output_rows = circuit.rows.output_rows
    n_patterns = len(base_simulations)
    live = transitioned[:, output_rows]
    m_crt = np.zeros((len(outputs), n_patterns * len(clks)))
    if size_samples is not None:
        rise = np.maximum(size_samples, 0.0)
        fall = np.minimum(size_samples, 0.0)
    recorder = obs.get_recorder()
    for column, sim in enumerate(base_simulations):
        rows = np.flatnonzero(live[column])
        if not rows.size:
            continue
        settles = _base_rows(sim, output_rows[rows])
        if recorder.enabled:
            recorder.observe("dynamic.settle", settles.ravel())
        if size_samples is not None:
            crossable = np.zeros(rows.size, dtype=bool)
            late_max = settles + rise
            early_min = settles + fall
        for block, clk in enumerate(clks):
            late = settles > clk
            m_crt[rows, block * n_patterns + column] = late.mean(axis=1)
            if size_samples is not None:
                tol = CROSSING_TOL * max(1.0, abs(clk))
                # Written as "the decision provably stays", so a NaN
                # settle time or size counts as crossable.
                stays = np.where(
                    late, early_min - tol > clk, late_max + tol <= clk
                )
                crossable |= ~stays.all(axis=1)
        if size_samples is not None:
            live[column, rows] = crossable
    return m_crt, live


def _sink_plans(
    circuit: Circuit,
    transitioned: np.ndarray,
    live: np.ndarray,
    sinks: Sequence[str],
) -> Dict[str, _SinkPlan]:
    """The shared activity plan of every suspect sink.

    ``transitioned`` is the :func:`_transition_matrix` of the base
    simulations and ``live`` the :func:`_output_thresholds` mask.  The
    defect only matters when the test launches a transition through the
    defective segment's sink gate, so one ``(n_sinks, n_patterns)`` mask
    of "the sink toggles and some output is live" settles most sinks at
    once; each remaining sink takes one 2-D probe of its cone outputs.
    """
    table = circuit.rows
    sinks = list(sinks)
    sink_rows = table.rows_of(sinks)
    toggles = transitioned[:, sink_rows].T
    candidate = (toggles & live.any(axis=1)).any(axis=1)
    plans: Dict[str, _SinkPlan] = {}
    for sink, row, sink_toggles, any_live in zip(
        sinks, sink_rows.tolist(), toggles, candidate.tolist()
    ):
        activity: List[Tuple[int, np.ndarray, np.ndarray]] = []
        if any_live:
            out_rows = table.cone_outputs(row)
            columns = np.flatnonzero(sink_toggles)
            mask = live[columns[:, None], out_rows]
            hit = mask.any(axis=1)
            for column, entry in zip(columns[hit], mask[hit]):
                rows = out_rows[entry]
                activity.append(
                    (int(column), rows, table.output_rows[rows])
                )
        plans[sink] = (table.cone(row), activity)
    return plans


def _pruned_entries(
    circuit: Circuit,
    transitioned: np.ndarray,
    plan_by_sink: Dict[str, _SinkPlan],
    sink_suspects: Counter,
) -> int:
    """Transitioning (suspect, pattern, output) entries the crossing bound
    dropped from the plans (a ``dictionary.entries_pruned`` count)."""
    table = circuit.rows
    toggling_outputs = transitioned[:, table.output_rows]
    pruned = 0
    for sink, (_cone, activity) in plan_by_sink.items():
        row = table.index[sink]
        columns = transitioned[:, row]
        cone_rows = table.cone_outputs(row)
        toggling = int(toggling_outputs[columns][:, cone_rows].sum())
        kept = sum(len(rows) for _column, rows, _nets in activity)
        pruned += (toggling - kept) * sink_suspects[sink]
    return pruned


def _signatures_for_chunk(
    job: _SignatureJob, indices: Sequence[int]
) -> List[np.ndarray]:
    """Signature matrices for one chunk of suspect indices (worker body).

    Works per pattern column rather than per suspect: every live suspect
    of the chunk that the column reaches is one copy of
    :class:`~repro.timing.kernel.ConeReplay`, so the column restricts
    and replays all of their cones in one pass and thresholds all of
    their entries at once per clock.  Every entry is the same count over
    the same width as a per-suspect replay would threshold, so the
    grouping never changes a bit.
    """
    n_patterns = len(job.base_simulations)
    plans = [job.plan_by_sink[job.suspects[index].sink] for index in indices]
    live = [k for k, (_cone, activity) in enumerate(plans) if activity]
    stack = _signature_block(job, len(live))
    # Pattern column -> its copies: (slot, edge index, cone, rows, nets).
    copies: Dict[int, List[Tuple]] = {}
    for slot, k in enumerate(live):
        cone, activity = plans[k]
        edge_index = job.edge_indices[indices[k]]
        for column, rows, nets in activity:
            copies.setdefault(column, []).append(
                (slot, edge_index, cone, rows, nets)
            )
    for column, column_copies in copies.items():
        slots, edge_indices, cones, rows, nets = zip(*column_copies)
        settles = ConeReplay(
            job.base_simulations[column], edge_indices, cones, nets
        ).replay(job.size_samples)
        out_rows = np.concatenate(rows)
        owners = np.repeat(slots, [len(part) for part in rows])
        for block, clk in enumerate(job.clks):
            col = block * n_patterns + column
            stack[owners, out_rows, col] = (
                (settles > clk).mean(axis=1) - job.m_crt[out_rows, col]
            )
    results = [_shared_zero(job)] * len(indices)
    for slot, k in enumerate(live):
        results[k] = stack[slot]
    return results


def _signature_block(job: _SignatureJob, n_live: int) -> np.ndarray:
    """A zeroed ``(n_live,) + m_crt.shape`` block for live signatures.

    Live suspects' signatures are views of it: the per-suspect cost is a
    view instead of an allocate-and-memset of a matrix whose cells are
    mostly never written.  The block is an anonymous mapping, so a page
    becomes resident only when written; numpy would advise huge pages for
    a large block, and then one sparse write makes 2 MB resident.
    """
    shape = (n_live,) + job.m_crt.shape
    size = int(np.prod(shape)) * job.m_crt.itemsize
    if not size:
        return np.zeros(shape, dtype=job.m_crt.dtype)
    block = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(block, dtype=job.m_crt.dtype).reshape(shape)


def _shared_zero(job: _SignatureJob) -> np.ndarray:
    """The signature of every suspect of a chunk that no pattern toggles.

    Such a signature is identically zero, so they all share one
    read-only matrix — a dictionary over every edge of a large circuit
    is mostly dead suspects, so this dominates allocation.
    """
    zero = np.zeros(job.m_crt.shape, dtype=job.m_crt.dtype)
    zero.setflags(write=False)
    return zero


@dataclass
class _SampledSignatureJob:
    """The plain signature job plus everything the sampled path adds."""

    job: _SignatureJob
    sampler: SamplerConfig
    distribution: SizeDistribution
    seed: int
    round_size: int


def _min_medians(
    job: _SignatureJob, activities: Sequence[List[Tuple]]
) -> List[float]:
    """Each suspect's smallest median base settle over its tracked entries.

    Clock-independent: the proposal shift for a clock targets the defect
    size a median chip instance needs to push the cell's hardest entry
    past it.  A row's median does not depend on the other rows, so one
    ``np.median(axis=1)`` per pattern column, over every output row the
    chunk tracks there, serves every suspect.
    """
    tracked: Dict[int, Dict[int, int]] = {}
    for activity in activities:
        for column, rows, nets in activity:
            tracked.setdefault(column, {}).update(
                zip(rows.tolist(), nets.tolist())
            )
    medians: Dict[int, np.ndarray] = {}
    for column, net_rows in tracked.items():
        medians[column] = np.empty(job.m_crt.shape[0])
        medians[column][list(net_rows)] = np.median(
            _base_rows(job.base_simulations[column], list(net_rows.values())),
            axis=1,
        )
    return [
        min(float(medians[column][rows].min()) for column, rows, _ in activity)
        for activity in activities
    ]


def _sampled_signatures_for_chunk(
    sampled_job: _SampledSignatureJob, indices: Sequence[int]
) -> List[Tuple[np.ndarray, List[AllocationReport]]]:
    """Importance-sampled signatures for one chunk of suspect indices,
    each with its cells' allocation reports in clock order.

    One :class:`~repro.sampling.CellAllocator` per (suspect, clock) cell
    group covers every entry the suspect can touch at that clock; all
    entries of a cell share each round's defect-size draw (common random
    numbers across patterns, exactly like the plain path shares
    ``size_samples``).  RNG streams are keyed by global suspect index,
    clock index and round, so chunking and backend never change a draw.

    Per clock, the cells of all live suspects advance in lockstep: each
    step, every active cell draws its next round, and per pattern column
    the active cells that reach it are the copies of one
    :class:`~repro.timing.kernel.ConeReplay`, each with its own
    sizes.  Each cell joins its parts in its own activity order, commits,
    and leaves the active set once it stops.  A column's copies change
    only when one of its cells stops, so its restriction is prepared once
    and then sliced (:meth:`~repro.timing.kernel.ConeReplay.slice`): the
    stopped cell's copies drop out of the plan, which equals a fresh
    restriction of the remaining copies.  Every cell sees exactly the
    draws, replayed entries and commits of a cell run alone, so lockstep
    never changes a bit.
    Fixed-round ``is`` cells draw all their rounds up front with the
    initial proposal: one step, one copy per round.

    Sampled signatures are clipped at 0: the plain path's structural
    invariant ``err >= crt`` holds per sample there, and projecting the
    noisy estimate onto that constraint only reduces its error.
    """
    job = sampled_job.job
    sampler = sampled_job.sampler
    fixed = sampler.mode == "is"
    per_step = sampler.is_rounds if fixed else 1
    sinks = [job.plan_by_sink[job.suspects[index].sink] for index in indices]
    live = [k for k, (_cone, activity) in enumerate(sinks) if activity]
    activities = [sinks[k][1] for k in live]
    min_medians = _min_medians(job, activities)
    # Pattern column -> its live suspects: (slot, edge index, cone, nets).
    # Ascending columns hand every cell its parts in activity order.
    members: Dict[int, List[Tuple]] = {}
    for slot, k in enumerate(live):
        for column, _rows, nets in activities[slot]:
            members.setdefault(column, []).append(
                (slot, job.edge_indices[indices[k]], sinks[k][0], nets)
            )
    columns = sorted(members)
    # Each cell's entries in its activity order: output rows, columns.
    entries = [
        (np.concatenate([rows for _c, rows, _n in activity]),
         np.concatenate([[c] * len(rows) for c, rows, _n in activity]))
        for activity in activities
    ]
    stack = _signature_block(job, len(live))
    reports: List[List[AllocationReport]] = [[] for _ in live]
    for clk_index, clk in enumerate(job.clks):
        cells = [
            CellAllocator(
                sampler,
                sampled_job.distribution,
                clk - min_medians[slot],
                seed=sampled_job.seed,
                suspect_index=indices[k],
                clk_index=clk_index,
                n_entries=len(entries[slot][0]),
                round_size=sampled_job.round_size,
            )
            for slot, k in enumerate(live)
        ]
        active = list(range(len(live)))
        # Column -> (its active copies, their prepared replay); a stopped
        # cell's copies are sliced out of its columns' plans.
        replays: Dict[int, Tuple[List[Tuple], object]] = {}
        for column in columns:
            _slots, edges, cones, nets = (
                [item for item in field for _ in range(per_step)]
                for field in zip(*members[column])
            )
            replays[column] = (members[column], ConeReplay(
                job.base_simulations[column], edges, cones, nets
            ))
        while active:
            draws = {
                slot: [
                    cells[slot].draw(cells[slot].rounds + r)
                    for r in range(per_step)
                ]
                for slot in active
            }
            parts = {slot: [[] for _ in range(per_step)] for slot in active}
            for copies, prepared in replays.values():
                late = prepared.replay(np.stack([
                    x for copy in copies for x, _weights in draws[copy[0]]
                ])) > clk
                offset = 0
                for slot, _edge, _cone, group in copies:
                    for part in parts[slot]:
                        part.append(late[offset : offset + len(group)])
                        offset += len(group)
            for slot in active:
                for (_x, weights), part in zip(draws[slot], parts[slot]):
                    cells[slot].commit(weights, np.concatenate(part, axis=0))
            active = [] if fixed else [
                slot for slot in active if not cells[slot].should_stop()
            ]
            alive = set(active)
            for column, (copies, prepared) in list(replays.items()):
                keep = [i for i, copy in enumerate(copies) if copy[0] in alive]
                if not keep:
                    del replays[column]
                elif len(keep) < len(copies):
                    kept = [i * per_step + r for i in keep
                            for r in range(per_step)]
                    replays[column] = (
                        [copies[i] for i in keep], prepared.slice(kept)
                    )
        for slot, cell in enumerate(cells):
            rows, cols = entries[slot]
            cols = clk_index * len(job.base_simulations) + cols
            stack[slot, rows, cols] = np.maximum(
                cell.estimates() - job.m_crt[rows, cols], 0.0
            )
            reports[slot].append(cell.report())
    results = [(_shared_zero(job), [])] * len(indices)
    for slot, k in enumerate(live):
        results[k] = (stack[slot], reports[slot])
    return results


def build_multi_clock_dictionary(
    timing: CircuitTiming,
    patterns: Union[PatternPairSet, Sequence],
    clks: Sequence[float],
    suspects: Sequence[Edge],
    size_samples: np.ndarray,
    base_simulations: Optional[Sequence[TransitionSimResult]] = None,
    parallel: Optional[Union[ParallelConfig, str]] = None,
    cache: Optional[Union[DictionaryStore, str]] = None,
    clk_attribute: Optional[float] = None,
    sampler: Optional[Union[SamplerConfig, str]] = None,
    size_distribution: Optional[SizeDistribution] = None,
) -> ProbabilisticFaultDictionary:
    """The shared construction kernel behind single-clock dictionaries and
    clock sweeps.

    ``m_crt`` and every signature are laid out clock-major: column block
    ``b`` holds all patterns thresholded at ``clks[b]``.  ``clk_attribute``
    sets the metadata ``clk`` field of the result (defaults to the
    tightest clock).  ``parallel`` picks the execution backend
    (:func:`repro.core.parallel.resolve_parallel` semantics) and ``cache``
    an optional dictionary cache (:func:`repro.core.cache.resolve_cache`
    semantics); both default to the ``REPRO_*`` environment.

    ``sampler`` selects the signature estimator
    (:func:`repro.sampling.resolve_sampler` semantics — a config, a mode
    name, or the ``REPRO_SAMPLER`` environment; default ``plain``).  The
    plain path is untouched — same code, same cache keys, bit-identical
    results.  Non-plain modes estimate signatures by importance sampling
    with adaptive per-suspect allocation and require
    ``size_distribution``, the nominal defect-size law the likelihood
    ratios are exact against; ``m_crt`` is computed exactly either way
    (it never depends on defect sizes).  Non-plain cache keys include the
    sampler configuration; cache-served results drop the
    ``sampling_report``.
    """
    circuit = timing.circuit
    sampler_config = resolve_sampler(sampler)
    sampled = not sampler_config.is_plain
    if sampled and size_distribution is None:
        raise ValueError(
            "sampler mode %r requires a size_distribution (the nominal "
            "defect-size law the likelihood ratios are exact against); "
            "pass e.g. SingleDefectModel.dictionary_size_distribution()"
            % sampler_config.mode
        )
    size_samples = np.asarray(size_samples, dtype=float)
    if size_samples.shape != (timing.space.n_samples,):
        raise ValueError("size_samples must cover the full sample space")
    if not clks:
        raise ValueError("need at least one clock")
    clks = tuple(float(clk) for clk in clks)
    if clk_attribute is None:
        clk_attribute = min(clks)
    suspects = list(suspects)
    pattern_list = list(patterns)

    def _assemble(
        m_crt: np.ndarray,
        signature_list: Sequence[np.ndarray],
        sampling_report: Optional[Dict] = None,
        signature_stack: Optional[np.ndarray] = None,
    ) -> ProbabilisticFaultDictionary:
        return ProbabilisticFaultDictionary(
            timing=timing,
            clk=clk_attribute,
            m_crt=m_crt,
            suspects=suspects,
            signatures=dict(zip(suspects, signature_list)),
            size_samples=size_samples,
            sampling_report=sampling_report,
            _signature_stack=signature_stack,
        )

    recorder = obs.get_recorder()
    with recorder.span("dictionary.build"):
        store = resolve_cache(cache)
        key = None
        if store is not None:
            with recorder.span("dictionary.cache_lookup"):
                key = dictionary_cache_key(
                    timing,
                    pattern_list,
                    clks,
                    suspects,
                    size_samples,
                    sampler_token=(
                        sampler_config.cache_token(size_distribution)
                        if sampled
                        else None
                    ),
                )
                served = store.load(key)
            if served is not None:
                recorder.count("dictionary.cache_served")
                # The store hands the signature stack over zero-copy (rows
                # 1.. of its mmapped payload); batch diagnosis then scores
                # straight off the shared pages.
                return _assemble(
                    served[0], served[1:], signature_stack=served[1:]
                )

        if base_simulations is None:
            with recorder.span("dictionary.base_simulation"):
                base_simulations = simulate_pattern_set(timing, pattern_list)
        if len(base_simulations) != len(pattern_list):
            raise ValueError("one base simulation per pattern required")

        n_patterns = len(pattern_list)
        transitioned = _transition_matrix(circuit, base_simulations)
        with recorder.span("dictionary.m_crt"):
            # Sampled builds estimate every transitioning entry, so only
            # the plain path prunes by the crossing bound.
            m_crt, live = _output_thresholds(
                circuit, base_simulations, transitioned, clks,
                None if sampled else size_samples,
            )

        recorder.count("dictionary.builds")
        recorder.count("dictionary.suspects", len(suspects))
        recorder.count("dictionary.patterns", n_patterns)
        recorder.count("dictionary.clocks", len(clks))

        sink_suspects = Counter(edge.sink for edge in suspects)
        plan_by_sink = _sink_plans(circuit, transitioned, live, sink_suspects)
        if recorder.enabled and not sampled:
            pruned = _pruned_entries(
                circuit, transitioned, plan_by_sink, sink_suspects
            )
            if pruned:
                recorder.count("dictionary.entries_pruned", pruned)
        job = _SignatureJob(
            base_simulations=base_simulations,
            clks=clks,
            size_samples=size_samples,
            suspects=suspects,
            edge_indices=[timing.edge_index[edge] for edge in suspects],
            m_crt=m_crt,
            plan_by_sink=plan_by_sink,
        )
        sampling_report: Optional[Dict] = None
        if sampled:
            sampled_job = _SampledSignatureJob(
                job=job,
                sampler=sampler_config,
                distribution=size_distribution,
                seed=timing.space.seed,
                round_size=timing.space.n_samples,
            )
            with recorder.span("dictionary.signatures"):
                records = map_chunked(
                    _sampled_signatures_for_chunk, sampled_job, len(suspects),
                    resolve_parallel(parallel),
                    work_per_item=n_patterns * timing.space.n_samples,
                )
            signature_list = [signature for signature, _cells in records]
            cells = [reports for _signature, reports in records]
            every = [report for reports in cells for report in reports]
            samples_per_suspect = [
                sum(r.samples_spent for r in reports) for reports in cells
            ]
            sampling_report = {
                "mode": sampler_config.mode,
                "round_size": timing.space.n_samples,
                "samples_per_suspect": samples_per_suspect,
                "rounds_per_suspect": [
                    sum(r.rounds for r in reports) for reports in cells
                ],
                "total_samples": int(sum(samples_per_suspect)),
                "degenerate_rounds": int(
                    sum(r.degenerate_rounds for r in every)
                ),
                "min_ess_fraction": float(
                    min([1.0] + [r.ess_fraction for r in every])
                ),
                "all_converged": all(r.converged for r in every),
            }
            if recorder.enabled:
                recorder.count(
                    "sampling.samples_spent", sampling_report["total_samples"]
                )
                recorder.count(
                    "sampling.rounds",
                    sum(sampling_report["rounds_per_suspect"]),
                )
                recorder.count(
                    "sampling.degenerate_rounds",
                    sampling_report["degenerate_rounds"],
                )
                recorder.gauge(
                    "sampling.round_size", timing.space.n_samples
                )
                if samples_per_suspect:
                    recorder.observe(
                        "sampling.samples_per_suspect",
                        np.array(samples_per_suspect, dtype=float),
                    )
        else:
            with recorder.span("dictionary.signatures"):
                # The cost hint makes auto-chunking work-aware: chunks
                # carry at least MIN_CHUNK_WORK of suspects × patterns ×
                # samples, so a small build is not split into many
                # dispatch-dominated tasks.
                signature_list = map_chunked(
                    _signatures_for_chunk, job, len(suspects),
                    resolve_parallel(parallel),
                    work_per_item=n_patterns * timing.space.n_samples,
                )
        if recorder.enabled:
            # Estimator-quality meters: the distribution of the per-entry
            # critical-probability estimates and of the per-suspect extra
            # signature mass, plus the sample count behind each entry.
            recorder.observe("dictionary.m_crt", m_crt.ravel())
            if signature_list:
                recorder.observe(
                    "dictionary.signature_mass",
                    np.array([s.sum() for s in signature_list]),
                )
            recorder.gauge("dictionary.n_samples", timing.space.n_samples)
        if store is not None and key is not None:
            with recorder.span("dictionary.cache_store"):
                store.store(key, m_crt, signature_list)
        return _assemble(m_crt, signature_list, sampling_report)


def build_dictionary(
    timing: CircuitTiming,
    patterns: PatternPairSet,
    clk: float,
    suspects: Sequence[Edge],
    size_samples: np.ndarray,
    base_simulations: Optional[Sequence[TransitionSimResult]] = None,
    parallel: Optional[Union[ParallelConfig, str]] = None,
    cache: Optional[Union[DictionaryStore, str]] = None,
    sampler: Optional[Union[SamplerConfig, str]] = None,
    size_distribution: Optional[SizeDistribution] = None,
) -> ProbabilisticFaultDictionary:
    """Build the dictionary for the given suspect set.

    ``size_samples`` is the Monte-Carlo materialization of the assumed
    defect-size random variable (shared across suspects: common random
    numbers keep the suspect comparison noise-free).  Pass precomputed
    ``base_simulations`` (from :func:`simulate_pattern_set`) to reuse the
    defect-free runs.  ``parallel`` / ``cache`` opt into the worker-pool
    and on-disk-cache layers; both produce bit-identical dictionaries to
    a plain serial build.  ``sampler`` / ``size_distribution`` select the
    variance-reduced signature estimator
    (:func:`build_multi_clock_dictionary` semantics for both).
    """
    return build_multi_clock_dictionary(
        timing,
        patterns,
        [clk],
        suspects,
        size_samples,
        base_simulations=base_simulations,
        parallel=parallel,
        cache=cache,
        clk_attribute=clk,
        sampler=sampler,
        size_distribution=size_distribution,
    )
