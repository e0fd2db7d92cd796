"""Compiled levelized NumPy kernel for dynamic timing simulation.

The only evaluator behind :mod:`repro.timing.dynamic`.  The settle rule's
per-gate decision depends only on the *logic* values of the pattern —
which are sample-independent — so the whole simulation factors into
three stages with very different change rates:

1. **Circuit lowering** (once per circuit): the circuit's row table
   (:mod:`repro.circuits.rows`) — opcodes, fanin rows, each gate's first
   edge index and topological levels.  Net names disappear; a net is a
   row index in topological order.  :func:`compile_circuit` adds only
   the kernel's gate mask and the circuit's schedule cache.
2. **Pattern scheduling** (once per two-vector test, cached per circuit):
   evaluate the logic, classify every transitioning gate as controlled-min
   or transitioning-max exactly like the reference oracle's
   ``_gate_settle_time`` (:mod:`repro.timing.reference`), and emit per
   topological level two edge groups (one per reduction kind) laid out for
   ``np.minimum.reduceat`` / ``np.maximum.reduceat``.  The schedule also
   maps every net row to a row of a *compact* settle-time matrix: one
   row per transitioning non-input gate, in replay order, plus one shared
   zero row for every net that is stable from t=0 (primary inputs and
   quiet nets), so a simulation stores ``(n_transitioning + 1, width)``
   floats, not ``(n_nets, width)``.
3. **Evaluation** (per call): gather ``delay[edge]`` for the whole
   schedule in one fancy index, then level by level gather
   ``stable[source]`` rows for all Monte-Carlo samples at once and
   segment-reduce ``stable[source] + delay`` straight into the level's
   contiguous slice of the compact matrix, which is read-only afterwards.
   Nothing in this stage is per-gate Python.

Cone-restricted replay filters a pattern schedule down to a suspect's
fanout cone and evaluates it into a small ``(n_recomputed, width)``
overlay on top of the base result; the replayed slice is tiny compared to
the circuit.  One routine, :meth:`PatternSchedule.restrict`, builds the
slices of one cone or of many, given as net rows: each cone is a *copy* with its own overlay
rows, and the copies' groups are laid out plan by plan, so one fused
reduction per plan replays every copy.  Both dictionary builders replay
all live suspects of a pattern that way in one pass
(:class:`ConeReplay`): a suspect's cone is ~12 edges over ~6
levels, so a per-suspect replay is bound by per-call numpy overhead, not
arithmetic.  A :class:`ConeReplay` also knows each copy's suspect edge
and the settle rows its caller reads, so it keeps only the *live* part of
every cone: gates the suspect edge reaches through recomputed drivers and
that reach a requested row.  Every other gate of the cone would re-reduce
its base operands or never be read.  Each copy takes its own size vector
when the sizes come one row per copy, so the sampled builder replays one
allocation round of every active suspect in the same pass; it keeps the
restriction between rounds and slices stopped copies out of it
(:meth:`ConeReplay.slice`) instead of restricting again.  The one-copy,
uncut case serves :func:`resimulate_with_extra_compiled`, which returns
every net of the cone.  A replay whose extra delay sits only on
non-candidate pins of the pattern (edges missing from the schedule)
cannot change a settle time, so it reads the base result without
touching a cone at all.

Bit-identity with the reference oracle is a hard contract
(``tests/test_kernel.py``): min/max reductions are exact selections, and
every floating-point addition here pairs the same operands in the same
order as the reference closures (``stable[fanin] + (delay + extra)``), so
the two agree to the last bit, not just to a tolerance.  At most
:data:`SCHEDULE_CACHE_SIZE` pattern schedules stay cached per circuit
(LRU); cone restrictions are not cached.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.netlist import Circuit
from ..circuits.rows import OP_INPUT, RowTable
from ..logic.simulator import FrameValues, evaluate_two_frame
from .. import obs
from .dynamic import ExtraDelay, TransitionSimResult
from .instance import CircuitTiming

__all__ = [
    "CompiledCircuit",
    "PatternSchedule",
    "StableTimes",
    "ConeStableTimes",
    "compile_circuit",
    "simulate_transition_compiled",
    "resimulate_with_extra_compiled",
    "ConeReplay",
]

#: Cap on cached pattern schedules per circuit (LRU).
SCHEDULE_CACHE_SIZE = 512


#: Packed two-frame value (``v1 | v2 << 1``) -> did the net toggle?
_TOGGLES = (False, True, True, False)

#: Opcode -> controlling input value, -1 for none (AND/NAND 0, OR/NOR 1).
_CONTROLLING = (-1, -1, -1, 0, 0, 1, 1, -1, -1, -1)


def _toggled(values: bytes) -> np.ndarray:
    """:data:`_TOGGLES` over a whole packed value vector."""
    codes = np.frombuffer(values, dtype=np.uint8)
    return (codes & 1) != (codes >> 1)


class StableTimes(Mapping):
    """Mapping view of a compact, read-only settle-time matrix.

    ``matrix`` has one row per transitioning gate of the pattern schedule
    (replay order) plus a last, all-zero row that every other net shares;
    ``compact_rows`` maps a net row to its matrix row.  Preserves the
    ``result.stable[net]`` API of a per-net dict over every net:
    indexing returns the net's row, a read-only view.
    """

    __slots__ = ("matrix", "net_rows", "compact_rows")

    def __init__(
        self,
        matrix: np.ndarray,
        net_rows: Dict[str, int],
        compact_rows: np.ndarray,
    ) -> None:
        # The zero row is shared by every quiet net: one write through
        # ``stable[net]`` would corrupt all of them.
        matrix.flags.writeable = False
        self.matrix = matrix
        self.net_rows = net_rows
        self.compact_rows = compact_rows

    def __getitem__(self, net: str) -> np.ndarray:
        return self.matrix[self.compact_rows[self.net_rows[net]]]

    def take_rows(self, nets: Iterable[str]) -> np.ndarray:
        """Rows for ``nets`` stacked into one ``(len(nets), width)`` array."""
        rows = self.net_rows
        return self.matrix[self.compact_rows[[rows[net] for net in nets]]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.net_rows)

    def __len__(self) -> int:
        return len(self.net_rows)

    def __reduce__(self):
        # Rebuild through ``__init__`` so an unpickled matrix is read-only.
        return (StableTimes, (self.matrix, self.net_rows, self.compact_rows))


class ConeStableTimes(Mapping):
    """Settle times after a cone-restricted replay.

    Recomputed nets live in a small overlay matrix; every other net falls
    through to the base simulation's matrix, so a re-simulation never
    copies the full circuit's settle times.  ``overlay_of`` maps a net
    row to its overlay row, -1 for a net the replay did not recompute.
    """

    __slots__ = ("base", "overlay", "overlay_of")

    def __init__(
        self,
        base: StableTimes,
        overlay: np.ndarray,
        overlay_of: np.ndarray,
    ) -> None:
        self.base = base
        self.overlay = overlay
        self.overlay_of = overlay_of

    def __getitem__(self, net: str) -> np.ndarray:
        base = self.base
        row = base.net_rows[net]
        slot = self.overlay_of[row]
        if slot >= 0:
            return self.overlay[slot]
        return base.matrix[base.compact_rows[row]]

    def take_rows(self, nets: Iterable[str]) -> np.ndarray:
        """Rows for ``nets`` stacked into one ``(len(nets), width)`` array."""
        base = self.base
        index = base.net_rows
        rows = np.array([index[net] for net in nets], dtype=np.int64)
        slots = self.overlay_of[rows]
        out = base.matrix[base.compact_rows[rows]]
        recomputed = slots >= 0
        out[recomputed] = self.overlay[slots[recomputed]]
        return out

    def __iter__(self) -> Iterator[str]:
        return iter(self.base)

    def __len__(self) -> int:
        return len(self.base)


def _plans(seg: np.ndarray, lens: np.ndarray) -> List[Tuple]:
    """The fused reduction batches of a group table.

    ``seg`` is each group's segment id (``2 * plan`` for a min group,
    ``2 * plan + 1`` for a max group; non-decreasing) and ``lens`` its
    edge count; groups and their edges are laid out back to back.  Per
    plan: ``(s, e, lo, hi, starts, neg_rows, neg_groups)`` — its groups
    ``s:e``, their edges ``lo:hi``, each group's first edge relative to
    ``lo`` (strictly increasing, as ``ufunc.reduceat`` needs: every
    group has >= 1 edge), and the leading min groups and their edges.

    Controlled-min and transitioning-max gates share one
    ``np.maximum.reduceat`` call: the first ``neg_groups`` groups (their
    candidates are rows ``[0, neg_rows)``) are min reductions evaluated as
    ``-max(-x)``.  Negation is an exact sign-bit flip and NumPy's
    ``minimum``/``maximum`` resolve both ties and NaNs the same way (the
    second operand on ties, the first NaN otherwise), so the fused form
    selects bit-identical results while halving the number of reductions
    per level.
    """
    if not len(lens):
        return []
    starts = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    bounds = np.flatnonzero(np.diff(seg >> 1)) + 1
    seg_lo = np.concatenate(([0], bounds))
    seg_hi = np.concatenate((bounds, [len(lens)]))
    edge_lo = starts[seg_lo]
    edge_hi = starts[seg_hi - 1] + lens[seg_hi - 1]
    # Within a plan every min group precedes every max group.
    neg = (seg & 1) == 0
    neg_groups = np.add.reduceat(neg, seg_lo)
    neg_rows = np.add.reduceat(lens * neg, seg_lo)
    return [
        (s, e, lo, hi, starts[s:e] - lo, neg_row, neg_group)
        for s, e, lo, hi, neg_row, neg_group in zip(
            seg_lo.tolist(), seg_hi.tolist(), edge_lo.tolist(),
            edge_hi.tolist(), neg_rows.tolist(), neg_groups.tolist(),
        )
    ]


class _ConeSchedule:
    """A pattern schedule filtered to one or more fanout cones.

    Each cone is a *copy*: copy ``c`` recomputes the transitioning gates of
    its own cone into its own overlay rows, reading its own recomputed
    drivers, so copies that overlap never see each other's rows.  Kept
    (copy, group) *pairs* are ordered by (plan, min-before-max, copy,
    group): one step per plan reduces every copy's groups at once, with
    one negation prefix covering all of their min groups.  With one copy
    that order is the plain group (replay) order.  Pair ``p`` writes
    overlay row ``p``.

    Per pair: ``pair_copy``, ``pair_seg`` (the group's
    :attr:`PatternSchedule.group_seg`), ``lens`` (its edge count) and
    ``out_rows`` (its gate's net row).  Per edge, pair-major: ``edges``,
    ``sources`` (compact rows), ``edge_copy`` and ``inside`` (the overlay
    row of the driver when the same copy recomputes it, else -1: read the
    base row).  ``overlay_of[c, r]`` is copy ``c``'s overlay row for
    compact row ``r``, -1 when the copy does not recompute it.

    :meth:`select` drops pairs (and copies) without restricting again:
    the order of what stays is the order a fresh restriction would give.
    ``steps`` (built on first use) holds per-plan tuples
    ``(lo, hi, starts, inside_pos, inside_src, out_lo, out_hi, neg_rows,
    neg_groups)``: ``lo:hi`` slices the edge arrays, ``inside_pos`` marks
    the rows to re-sum from the overlay rows ``inside_src``,
    ``out_lo:out_hi`` is the (contiguous) overlay destination, and the
    leading ``neg_rows`` rows / ``neg_groups`` groups are the fused min
    reductions (see :func:`_plans`).
    """

    __slots__ = ("edges", "sources", "edge_copy", "inside", "pair_copy",
                 "pair_seg", "lens", "out_rows", "overlay_of", "_steps")

    def __init__(self, edges, sources, edge_copy, inside, pair_copy,
                 pair_seg, lens, out_rows, overlay_of):
        self.edges = edges
        self.sources = sources
        self.edge_copy = edge_copy
        self.inside = inside
        self.pair_copy = pair_copy
        self.pair_seg = pair_seg
        self.lens = lens
        #: net row of every overlay row.
        self.out_rows = out_rows
        self.overlay_of = overlay_of
        self._steps = None

    @property
    def n_overlay(self) -> int:
        return len(self.out_rows)

    @property
    def steps(self) -> List[Tuple]:
        """The per-plan replay steps (see the class docstring)."""
        steps = self._steps
        if steps is not None:
            return steps
        steps = self._steps = []
        inside_all = np.flatnonzero(self.inside >= 0)
        inside_src_all = self.inside[inside_all]
        for s, e, lo, hi, starts, neg_rows, neg_groups in _plans(
            self.pair_seg, self.lens
        ):
            i0, i1 = np.searchsorted(inside_all, [lo, hi])
            if i1 > i0:
                inside_pos = inside_all[i0:i1]
                inside_src = inside_src_all[i0:i1]
            else:
                inside_pos = None
                inside_src = None
            steps.append((lo, hi, starts, inside_pos, inside_src, s, e,
                          neg_rows, neg_groups))
        return steps

    def live(self, hits: np.ndarray, entries: Tuple[np.ndarray, np.ndarray]
             ) -> np.ndarray:
        """Bool per pair: can it differ from the base *and* reach a
        requested entry?

        ``hits[c]`` is the edge that takes copy ``c``'s extra delay and
        ``entries`` the ``(copy, compact row)`` pairs its caller reads.  A
        pair the hit edge does not reach through recomputed drivers
        re-reduces exactly the base operands, so it equals its base row
        bit for bit; a pair no requested entry reads through recomputed
        drivers is never read.  Drivers sit in strictly earlier plans, so
        one forward and one backward sweep over the plans settle both.
        """
        n = len(self.lens)
        plans = _plans(self.pair_seg, self.lens)
        inside = self.inside
        hit = self.edges == hits[self.edge_copy]
        # Index -1 (a base driver) reads the trailing False slot.
        reached = np.zeros(n + 1, dtype=bool)
        for s, e, lo, hi, starts, _neg_rows, _neg_groups in plans:
            reached[s:e] = np.logical_or.reduceat(
                hit[lo:hi] | reached[inside[lo:hi]], starts
            )
        needed = np.zeros(n + 1, dtype=bool)
        needed[self.overlay_of[entries]] = True
        needed[n] = False
        edge_pair = np.repeat(np.arange(n, dtype=np.int64), self.lens)
        for s, e, lo, hi, _starts, _neg_rows, _neg_groups in reversed(plans):
            needed[inside[lo:hi][needed[edge_pair[lo:hi]]]] = True
            needed[n] = False
        return (reached & needed)[:n]

    def select(self, keep: np.ndarray,
               copies: Optional[np.ndarray] = None) -> "_ConeSchedule":
        """The pairs ``keep`` (bool per pair) of this plan, in the same
        order; ``copies`` (ascending, covering every kept pair's copy)
        renumbers the copies to their positions in it.

        A recomputed driver that is dropped is read from the base row,
        which is only exact when it equals the base (see :meth:`live`).
        """
        overlay_of = self.overlay_of
        pair_copy = self.pair_copy
        edge_copy = self.edge_copy
        if copies is not None:
            renumber = np.full(len(overlay_of), -1, dtype=np.int64)
            renumber[copies] = np.arange(len(copies), dtype=np.int64)
            pair_copy = renumber[pair_copy]
            edge_copy = renumber[edge_copy]
            overlay_of = overlay_of[copies]
        # Old overlay row -> new one; index -1 reads the trailing -1.
        remap = np.full(len(keep) + 1, -1, dtype=np.int64)
        kept = np.flatnonzero(keep)
        remap[kept] = np.arange(len(kept), dtype=np.int64)
        edge_keep = np.repeat(keep, self.lens)
        return _ConeSchedule(
            self.edges[edge_keep], self.sources[edge_keep],
            edge_copy[edge_keep], remap[self.inside[edge_keep]],
            pair_copy[kept], self.pair_seg[kept], self.lens[kept],
            self.out_rows[kept], remap[overlay_of],
        )


class PatternSchedule:
    """The per-(v1, v2) reduction schedule over a circuit's row table.

    Holds the circuit's :class:`~repro.circuits.rows.RowTable` (``rows``),
    the settled logic values of both frames packed one byte per net
    row (:func:`repro.logic.simulator.evaluate_two_frame`; ``val1`` and
    ``val2`` are read-only name-keyed views of it) and one flat group
    table: group ``g`` is transitioning gate ``group_out[g]``, whose
    candidate edges (pin order) sit at ``group_start[g] : +group_len[g]``
    in ``all_edges``, with their drivers' compact rows in ``all_sources``.
    ``group_seg[g]`` is ``2 * plan`` for a controlled-min group and ``2 *
    plan + 1`` for a transitioning-max group; a plan is one topological
    level, min groups first, and ``steps`` are its fused reductions
    (:func:`_plans`).  Sample-independent: one schedule serves every
    Monte-Carlo width, every ``extra_delay`` and every cone replay of the
    same pattern.

    Settle times live in a compact matrix: row ``g`` belongs to group
    ``g`` and the last row, ``n_groups``, is the zero row shared by every
    net that does not transition or is a primary input.  ``compact_rows``
    maps each net row to its matrix row (int32).
    """

    __slots__ = ("rows", "values", "transitions", "n_net_transitions",
                 "compact_rows", "all_edges", "all_sources", "group_out",
                 "group_len", "group_seg", "group_start", "steps",
                 "_edge_pos")

    def __init__(self, rows, values, compact_rows, all_edges, all_sources,
                 group_out, group_len, group_seg):
        self.rows = rows
        #: ``value1 | value2 << 1`` per net row (= topological order).
        self.values = values
        #: bool per net row: did the net toggle?  Consumers (the
        #: dictionary builder's activity planner, transition and error
        #: queries on results) read this instead of the value views.
        transitions = self.transitions = _toggled(values)
        self.n_net_transitions = int(transitions.sum())
        self.compact_rows = compact_rows
        self.all_edges = all_edges
        self.all_sources = all_sources
        self.group_out = group_out
        self.group_len = group_len
        self.group_seg = group_seg
        self.group_start = np.zeros(len(group_len), dtype=np.int64)
        np.cumsum(group_len[:-1], out=self.group_start[1:])
        self.steps = _plans(group_seg, group_len)
        self._edge_pos: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    @property
    def val1(self) -> FrameValues:
        """Settled ``v1`` values by net name (a read-only view)."""
        return FrameValues(self.values, self.rows.index, 0)

    @property
    def val2(self) -> FrameValues:
        """Settled ``v2`` values by net name (a read-only view)."""
        return FrameValues(self.values, self.rows.index, 1)

    @property
    def n_groups(self) -> int:
        """Transitioning gates, i.e. the index of the shared zero row."""
        return len(self.group_out)

    @property
    def edge_pos(self) -> Dict[int, int]:
        """Edge index -> position in ``all_edges`` (built on first use)."""
        pos = self._edge_pos
        if pos is None:
            pos = self._edge_pos = {
                int(edge): index for index, edge in enumerate(self.all_edges)
            }
        return pos

    def restrict(
        self,
        cones: Sequence[np.ndarray],
        hits: Optional[Sequence[int]] = None,
        entries: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> _ConeSchedule:
        """The schedule slices recomputing each of ``cones`` (net rows),
        one copy per cone, in one vectorized pass (see
        :class:`_ConeSchedule`).

        With ``hits`` (the edge that takes copy ``c``'s extra delay) and
        ``entries`` (the ``(copy, compact row)`` pairs its caller reads),
        only the live pairs are kept (:meth:`_ConeSchedule.live`): a cut
        pair either equals its base row bit for bit or is never read.
        Liveness is decided per copy, so a :meth:`_ConeSchedule.select`
        of some copies is exactly the cut of those copies alone.
        """
        n_groups = self.n_groups
        n_copies = len(cones)
        sizes = [len(cone) for cone in cones]
        # A transitioning gate's compact row is its group index, so a
        # copy's kept groups are its nets' compact rows below the zero row.
        rows = np.concatenate(cones) if cones else np.empty(0, np.int64)
        kept = np.zeros((n_copies, n_groups + 1), dtype=bool)
        kept[np.repeat(np.arange(n_copies), sizes),
             self.compact_rows[rows]] = True
        copy, group = np.nonzero(kept[:, :n_groups])
        # (copy, group) order -> (plan, min-before-max, copy, group) order;
        # with one copy the segment ids are already non-decreasing.
        order = np.argsort(self.group_seg[group], kind="stable")
        copy = copy[order]
        group = group[order]
        n_kept = len(group)
        # (copy, compact row) -> overlay row.  Each copy's groups keep
        # their replay order, so a recomputed source (strictly lower level,
        # hence an earlier plan) is always assigned before any group that
        # reads it — a single global pass suffices.
        overlay_of = np.full((n_copies, n_groups + 1), -1, dtype=np.int64)
        overlay_of[copy, group] = np.arange(n_kept, dtype=np.int64)
        lens = self.group_len[group]
        new_starts = np.zeros(n_kept, dtype=np.int64)
        np.cumsum(lens[:-1], out=new_starts[1:])
        # Vectorized gather of the kept groups' edge segments: output
        # position new_starts[k] + j must read global position
        # group_start[group[k]] + j.
        take = np.repeat(self.group_start[group] - new_starts, lens)
        take += np.arange(len(take), dtype=np.int64)
        sources = self.all_sources[take]
        edge_copy = np.repeat(copy, lens)
        cone = _ConeSchedule(
            self.all_edges[take], sources, edge_copy,
            overlay_of[edge_copy, sources], copy, self.group_seg[group],
            lens, self.group_out[group], overlay_of,
        )
        if hits is None or not n_kept:
            return cone
        live = cone.live(np.asarray(hits, dtype=np.int64), entries)
        return cone if live.all() else cone.select(live)

    # ------------------------------------------------------------------
    def __getstate__(self):
        # The edge-position index and the steps are cheap to rebuild;
        # keep worker pickles lean.
        return (self.rows, self.values, self.compact_rows, self.all_edges,
                self.all_sources, self.group_out, self.group_len,
                self.group_seg)

    def __setstate__(self, state):
        self.__init__(*state)


class CompiledCircuit:
    """The kernel's view of a circuit: its row table plus the kernel's
    extras — which rows are gates, and the circuit's pattern schedules,
    cached LRU-bounded and keyed by the raw test-vector bytes.

    Held by the circuit (:func:`compile_circuit`); holds no reference to
    it, and its schedules hold only the table, so nothing here forms a
    reference cycle.
    """

    __slots__ = ("rows", "is_gate", "_schedule_cache")

    def __init__(self, rows: RowTable) -> None:
        self.rows = rows
        self.is_gate = np.frombuffer(rows.opcodes, dtype=np.uint8) != OP_INPUT
        self._schedule_cache: "OrderedDict[bytes, PatternSchedule]" = OrderedDict()

    # ------------------------------------------------------------------
    def schedule_for(self, v1: np.ndarray, v2: np.ndarray) -> PatternSchedule:
        """The (cached) reduction schedule for normalized vectors (v1, v2)."""
        key = v1.tobytes() + b"|" + v2.tobytes()
        cache = self._schedule_cache
        schedule = cache.get(key)
        recorder = obs.get_recorder()
        if schedule is not None:
            cache.move_to_end(key)
            if recorder.enabled:
                recorder.count("kernel.schedule_reuse")
            return schedule
        schedule = self._build_schedule(v1, v2)
        cache[key] = schedule
        if len(cache) > SCHEDULE_CACHE_SIZE:
            cache.popitem(last=False)
        if recorder.enabled:
            recorder.count("kernel.schedules_built")
        return schedule

    def _build_schedule(self, v1: np.ndarray, v2: np.ndarray) -> PatternSchedule:
        table = self.rows
        values = evaluate_two_frame(table, v1.tolist(), v2.tolist())
        active = np.flatnonzero(_toggled(values) & self.is_gate)
        # Stable sort keeps topological order within each level — not
        # required for correctness (levels are strict) but deterministic.
        levels = table.levels
        active = active[np.argsort(levels[active], kind="stable")]
        opcodes = table.opcodes
        fanins = table.fanins
        fanin_starts = table.fanin_starts
        # The group table in replay order: per level, min groups first
        # (see _plans); sources as net rows until every group has its
        # compact row.
        group_out: List[int] = []
        group_len: List[int] = []
        group_seg: List[int] = []
        edges: List[int] = []
        sources: List[int] = []
        active_levels = levels[active].tolist()
        active = active.tolist()
        index = 0
        plan = 0
        while index < len(active):
            level = active_levels[index]
            kinds: Tuple[List, List] = ([], [])  # (min, max) groups
            while index < len(active) and active_levels[index] == level:
                row = active[index]
                index += 1
                fanin_rows = fanins[row]
                controlling = _CONTROLLING[opcodes[row]]
                pins = None
                if controlling >= 0:
                    pins = [
                        pin for pin, src in enumerate(fanin_rows)
                        if values[src] >> 1 == controlling
                    ]
                if pins:
                    kinds[0].append((row, pins))
                    continue
                pins = [
                    pin for pin, src in enumerate(fanin_rows)
                    if _TOGGLES[values[src]]
                ]
                # Mirror the reference fallback for degenerate
                # transitioning gates with no transitioning input.
                kinds[1].append((row, pins or list(range(len(fanin_rows)))))
            for is_max, kind in enumerate(kinds):
                for row, pins in kind:
                    base = fanin_starts[row]
                    fanin_rows = fanins[row]
                    group_out.append(row)
                    group_len.append(len(pins))
                    group_seg.append(2 * plan + is_max)
                    edges.extend(base + pin for pin in pins)
                    sources.extend(fanin_rows[pin] for pin in pins)
            plan += 1
        # Every active gate gets one compact row, in group order; every
        # other net reads the shared zero row after them.
        compact_rows = np.full(len(table), len(group_out), dtype=np.int32)
        compact_rows[group_out] = np.arange(len(group_out), dtype=np.int32)
        return PatternSchedule(
            table, values, compact_rows,
            np.array(edges, dtype=np.int64),
            compact_rows[np.array(sources, dtype=np.int64)],
            np.array(group_out, dtype=np.int64),
            np.array(group_len, dtype=np.int64),
            np.array(group_seg, dtype=np.int64),
        )


    def __reduce__(self):
        # The schedule cache can hold hundreds of unrelated patterns; a
        # worker only needs the schedules its shipped results reference
        # (pickle memoization carries those through TransitionSimResult).
        return (CompiledCircuit, (self.rows,))


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile ``circuit`` (memoized in its kernel slot: at most one
    compilation per circuit)."""
    compiled = circuit._kernel
    if compiled is None:
        recorder = obs.get_recorder()
        with recorder.span("kernel.compile"):
            compiled = circuit._kernel = CompiledCircuit(circuit.rows)
        if recorder.enabled:
            recorder.count("kernel.compiles")
    return compiled


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def _gather_delays(
    delays: np.ndarray,
    edges: np.ndarray,
    edge_pos: Dict[int, int],
    extra_delay: Optional[ExtraDelay],
) -> np.ndarray:
    """``delay[edge]`` rows for a whole schedule, with extra delay applied.

    The addition pairs operands exactly like the reference ``delay_of``
    closure (``delays[edge] + extra[edge]``) to preserve bit-identity.
    Extra delay on an edge outside the schedule (a non-candidate pin) is
    ignored, as it is by the reference oracle.
    """
    rows = delays[edges]
    if extra_delay:
        for edge_index, value in extra_delay.items():
            pos = edge_pos.get(int(edge_index))
            if pos is not None:
                rows[pos] = rows[pos] + np.asarray(value)
    return rows


def simulate_transition_compiled(
    timing: CircuitTiming,
    v1: np.ndarray,
    v2: np.ndarray,
    extra_delay: Optional[ExtraDelay] = None,
    sample_index: Optional[int] = None,
) -> TransitionSimResult:
    """Compiled-kernel implementation of
    :func:`repro.timing.dynamic.simulate_transition` (bit-identical)."""
    circuit = timing.circuit
    compiled = compile_circuit(circuit)
    v1 = np.asarray(v1).astype(int).ravel()
    v2 = np.asarray(v2).astype(int).ravel()
    if v1.shape[0] != len(circuit.inputs) or v2.shape[0] != len(circuit.inputs):
        raise ValueError("test vectors must cover every primary input")
    schedule = compiled.schedule_for(v1, v2)

    if sample_index is None:
        delays = timing.delays
        width = timing.space.n_samples
    else:
        delays = timing.delays[:, sample_index : sample_index + 1]
        width = 1

    n_groups = schedule.n_groups
    stable = np.empty((n_groups + 1, width))
    stable[n_groups] = 0.0
    if n_groups:
        dl = _gather_delays(
            delays, schedule.all_edges,
            schedule.edge_pos if extra_delay else {}, extra_delay,
        )
        sources = schedule.all_sources
        for s, e, lo, hi, starts, neg_rows, neg_groups in schedule.steps:
            rows = stable[sources[lo:hi]] + dl[lo:hi]
            if neg_rows:
                seg = rows[:neg_rows]
                np.negative(seg, out=seg)
            out = stable[s:e]
            np.maximum.reduceat(rows, starts, axis=0, out=out)
            if neg_groups:
                seg = out[:neg_groups]
                np.negative(seg, out=seg)

    recorder = obs.get_recorder()
    if recorder.enabled:
        recorder.count("dynamic.transition_sims")
        recorder.count("dynamic.net_transitions", schedule.n_net_transitions)
        recorder.count("kernel.reductions", len(schedule.all_edges))
    return TransitionSimResult(
        timing,
        v1,
        v2,
        schedule.val1,
        schedule.val2,
        StableTimes(stable, schedule.rows.index, schedule.compact_rows),
        width,
        sample_index,
        kernel_state=schedule,
    )


def _replay_steps(cone: _ConeSchedule, rows: np.ndarray, dl: np.ndarray,
                  overlay: np.ndarray) -> None:
    """Reduce ``rows`` (``base[source] + dl`` for every cone edge) into
    ``overlay``, one fused ``np.maximum.reduceat`` per step.

    Rows whose driver is recomputed get re-summed from the overlay inside
    the loop, once that overlay row exists (drivers sit at strictly lower
    levels, i.e. in earlier steps).
    """
    for (lo, hi, starts, inside_pos, inside_src, out_lo, out_hi,
            neg_rows, neg_groups) in cone.steps:
        if inside_pos is not None:
            rows[inside_pos] = overlay[inside_src] + dl[inside_pos]
        if neg_rows:
            seg = rows[lo : lo + neg_rows]
            np.negative(seg, out=seg)
        np.maximum.reduceat(
            rows[lo:hi], starts, axis=0, out=overlay[out_lo:out_hi]
        )
        if neg_groups:
            seg = overlay[out_lo : out_lo + neg_groups]
            np.negative(seg, out=seg)


def _replay_delays(base: TransitionSimResult) -> np.ndarray:
    """The delay rows a replay of ``base`` reads (its sample slice)."""
    delays = base.timing.delays
    if base.sample_index is None:
        return delays
    return delays[:, base.sample_index : base.sample_index + 1]


def _compiled_parts(
    base: TransitionSimResult,
) -> Tuple[PatternSchedule, StableTimes]:
    """``base``'s schedule and compact settle matrix, type-checked."""
    schedule = base.kernel_state
    if not isinstance(schedule, PatternSchedule):
        raise TypeError("base result does not carry a compiled-kernel schedule")
    base_stable = base.stable
    if not isinstance(base_stable, StableTimes):
        raise TypeError("compiled re-simulation requires a compiled base result")
    return schedule, base_stable


def resimulate_with_extra_compiled(
    base: TransitionSimResult,
    extra_delay: ExtraDelay,
    affected: Optional[Iterable[str]] = None,
) -> TransitionSimResult:
    """Cone-restricted schedule replay behind
    :func:`repro.timing.dynamic.resimulate_with_extra` (bit-identical)."""
    schedule, base_stable = _compiled_parts(base)
    recorder = obs.get_recorder()
    # Extra delay on a pin that is not a candidate of its gate's reduction
    # never enters the schedule (nor the reference ``_gate_settle_time``),
    # so such a replay reproduces the base bit-for-bit: skip the cone.
    edge_pos = schedule.edge_pos
    if not any(int(edge_index) in edge_pos for edge_index in extra_delay):
        if recorder.enabled:
            recorder.count("kernel.replays_skipped")
        return base
    timing = base.timing
    table = schedule.rows
    # The one name -> row translation of a replay.
    if affected is None:
        edges = timing.circuit.edges
        affected_rows = np.unique(np.concatenate([
            table.cone(table.index[edges[edge_index].sink])
            for edge_index in extra_delay
        ]))
    else:
        affected_rows = table.rows_of(affected)
        if not affected_rows.size:
            return base
    if recorder.enabled:
        recorder.count("dynamic.resimulations")
        recorder.count("dynamic.nets_recomputed", len(affected_rows))
        recorder.count("kernel.cone_schedules")

    cone = schedule.restrict([affected_rows])
    overlay = np.empty((cone.n_overlay, base.width))
    if cone.n_overlay:
        dl = _replay_delays(base)[cone.edges]
        for edge_index, value in extra_delay.items():
            # An edge is one (sink, pin) pair: at most one row of a cone.
            pos = np.flatnonzero(cone.edges == int(edge_index))
            dl[pos] = dl[pos] + np.asarray(value)
        # Candidate rows for the whole cone in one shot.
        rows = base_stable.matrix[cone.sources]
        rows += dl
        _replay_steps(cone, rows, dl, overlay)
        if recorder.enabled:
            recorder.count("kernel.reductions", len(cone.edges))

    overlay_of = np.full(len(table), -1, dtype=np.int64)
    overlay_of[cone.out_rows] = np.arange(cone.n_overlay)
    stable = ConeStableTimes(base_stable, overlay, overlay_of)
    # ``kernel_state`` stays None: a replay of a replay would need the
    # overlay folded back into a full matrix, so it raises TypeError in
    # ``_compiled_parts`` instead of dropping this replay's extra delay.
    return TransitionSimResult(
        timing,
        base.v1,
        base.v2,
        base.val1,
        base.val2,
        stable,
        base.width,
        base.sample_index,
    )


class ConeReplay:
    """One pattern's replays for many suspect edges, in one pass.

    Copy ``c`` adds a size vector to edge ``edge_indices[c]`` and
    recomputes (the live part of) ``cones[c]``; :meth:`replay` returns the
    settle rows of every ``nets[c]``, stacked in copy order.  Cones and
    nets are int arrays of net rows (:func:`repro.timing.dynamic.prepare_cones`
    takes them by name).  Every copy
    is restricted in one :meth:`PatternSchedule.restrict` call when the
    object is built, cut to the gates that the copy's edge reaches and
    that reach one of its ``nets`` (a cut gate equals its base row or is
    never read), and all of them replay in one level-ordered pass per
    :meth:`replay`.  So the per-call numpy overhead is paid per plan
    instead of per (copy, plan), and a caller that replays the same
    copies with fresh sizes (the sampled dictionary path, once per
    allocation round) restricts once and :meth:`slice` s stopped copies
    out.  Each requested entry is the same reduction over the same
    ``base[source] + (delay + size)`` operands, in the same order, as
    :func:`resimulate_with_extra_compiled` computes for that copy alone,
    so the rows are bit-identical to the per-copy loop.  Counters stay
    per copy: ``dynamic.resimulations``, ``dynamic.nets_recomputed`` (the
    whole cone) and ``kernel.replays_skipped`` equal the loop's, while
    ``kernel.reductions`` counts the cut plan's edges.
    ``kernel.cone_schedules`` counts each restricted copy once,
    ``kernel.cone_reuse`` each copy of every replay after the first
    (a slice's replays included).
    """

    __slots__ = ("base_matrix", "delays", "edge_indices", "entry_rows",
                 "counts", "candidate", "cone_sizes", "slot", "replays",
                 "cone", "hit", "hit_copy", "entries", "overlay_rows")

    def __init__(
        self,
        base: TransitionSimResult,
        edge_indices: Sequence[int],
        cones: Sequence[np.ndarray],
        nets: Sequence[np.ndarray],
    ) -> None:
        schedule, base_stable = _compiled_parts(base)
        # Only index tables are kept: a column's copies can hold megabytes
        # of delay and settle rows, gathered again per replay instead.
        self.base_matrix = base_stable.matrix
        self.delays = _replay_delays(base)
        self.edge_indices = np.asarray(edge_indices, dtype=np.int64)
        self.counts = np.array([len(group) for group in nets], dtype=np.int64)
        # Compact row of every requested (copy, net) entry, copy-major;
        # every entry starts from its base row and recomputed ones are
        # overwritten.
        self.entry_rows = schedule.compact_rows[
            np.concatenate(nets) if nets else np.empty(0, np.int64)
        ]
        # A copy whose edge is not a candidate pin replays to the base rows
        # (see resimulate_with_extra_compiled); so does an empty cone.
        edge_pos = schedule.edge_pos
        self.candidate = np.array(
            [int(edge) in edge_pos for edge in edge_indices], dtype=bool
        )
        self.cone_sizes = np.array(
            [len(cone) for cone in cones], dtype=np.int64
        )
        replayed = np.flatnonzero(self.candidate & (self.cone_sizes > 0))
        self.slot = np.full(len(cones), -1, dtype=np.int64)
        self.slot[replayed] = np.arange(len(replayed), dtype=np.int64)
        self.replays = 0
        recorder = obs.get_recorder()
        if recorder.enabled and replayed.size:
            recorder.count("kernel.cone_schedules", int(replayed.size))
        cone = None
        if replayed.size:
            entries, slots = self._requested()
            cone = schedule.restrict(
                [cones[c] for c in replayed],
                hits=self.edge_indices[replayed],
                entries=(slots, self.entry_rows[entries]),
            )
        self._bind(cone)

    def _requested(self) -> Tuple[np.ndarray, np.ndarray]:
        """The positions of the replayed copies' entries in
        ``entry_rows``, and each one's copy in the restriction."""
        entry_slot = np.repeat(self.slot, self.counts)
        entries = np.flatnonzero(entry_slot >= 0)
        return entries, entry_slot[entries]

    def _bind(self, cone: Optional[_ConeSchedule]) -> None:
        """Adopt ``cone`` (``None``: nothing to recompute) and locate the
        hit edges and recomputed entries in it."""
        self.cone = cone if cone is not None and cone.n_overlay else None
        if self.cone is None:
            return
        # Each copy's own suspect edge takes the extra delay, in that copy
        # only; ``hit_copy`` is the caller's copy index of each hit.
        replayed = np.flatnonzero(self.slot >= 0)
        self.hit = np.flatnonzero(
            cone.edges == self.edge_indices[replayed][cone.edge_copy]
        )
        self.hit_copy = replayed[cone.edge_copy[self.hit]]
        entries, slots = self._requested()
        overlay_rows = cone.overlay_of[slots, self.entry_rows[entries]]
        recomputed = overlay_rows >= 0
        self.entries = entries[recomputed]
        self.overlay_rows = overlay_rows[recomputed]

    def slice(self, keep: Sequence[int]) -> "ConeReplay":
        """This replay over copies ``keep`` only (ascending copy indices,
        renumbered in that order): equal to a fresh one over those copies,
        plan included, but selected out of this plan instead of restricted
        again.  Its copies were restricted here, so every replay of the
        slice counts as ``kernel.cone_reuse``."""
        keep = np.asarray(keep, dtype=np.int64)
        part = ConeReplay.__new__(ConeReplay)
        part.base_matrix = self.base_matrix
        part.delays = self.delays
        part.edge_indices = self.edge_indices[keep]
        part.entry_rows = self.entry_rows[
            np.repeat(np.isin(np.arange(len(self.slot)), keep), self.counts)
        ]
        part.counts = self.counts[keep]
        part.candidate = self.candidate[keep]
        part.cone_sizes = self.cone_sizes[keep]
        slots = self.slot[keep]
        part.slot = np.full(len(keep), -1, dtype=np.int64)
        part.slot[slots >= 0] = np.arange(
            int((slots >= 0).sum()), dtype=np.int64
        )
        part.replays = max(self.replays, 1)
        cone = self.cone
        if cone is not None:
            replayed = slots[slots >= 0]
            cone = cone.select(np.isin(cone.pair_copy, replayed), replayed)
        part._bind(cone)
        return part

    def replay(self, sizes: np.ndarray) -> np.ndarray:
        """The stacked entry rows after adding ``sizes`` to every copy's
        edge: ``(width,)`` for all copies, ``(n_copies, width)`` for one
        row per copy."""
        recorder = obs.get_recorder()
        if recorder.enabled:
            skipped = int((~self.candidate).sum())
            if skipped:
                recorder.count("kernel.replays_skipped", skipped)
            replayed = self.slot >= 0
            n_copies = int(replayed.sum())
            if n_copies:
                recorder.count("dynamic.resimulations", n_copies)
                recorder.count(
                    "dynamic.nets_recomputed",
                    int(self.cone_sizes[replayed].sum()),
                )
                if self.replays:
                    recorder.count("kernel.cone_reuse", n_copies)
        self.replays += 1
        out = self.base_matrix[self.entry_rows]
        cone = self.cone
        if cone is None:
            return out
        sizes = np.asarray(sizes)
        dl = self.delays[cone.edges]
        hit = self.hit
        dl[hit] = dl[hit] + (sizes if sizes.ndim == 1 else sizes[self.hit_copy])
        rows = self.base_matrix[cone.sources]
        rows += dl
        overlay = np.empty((cone.n_overlay, rows.shape[1]))
        _replay_steps(cone, rows, dl, overlay)
        if recorder.enabled:
            recorder.count("kernel.reductions", len(cone.edges))
        out[self.entries] = overlay[self.overlay_rows]
        return out
