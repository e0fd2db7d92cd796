"""Compiled levelized NumPy kernel for dynamic timing simulation.

The reference kernel in :mod:`repro.timing.dynamic` walks the netlist
gate-by-gate in Python, with string-keyed dicts and a per-pin closure.  Its
per-gate decision, however, depends only on the *logic* values of the
pattern — which are sample-independent — so the whole simulation factors
into three stages with very different change rates:

1. **Circuit compilation** (once per circuit, :func:`compile_circuit`):
   lower the :class:`~repro.circuits.netlist.Circuit` into flat integer
   arrays — per-gate fanin blocks resolved to edge indices and source net
   rows, controlling values, topological levels.  Net names disappear; a
   net is a row index in topological order.
2. **Pattern scheduling** (once per two-vector test, cached per circuit):
   evaluate the logic, classify every transitioning gate as controlled-min
   or transitioning-max exactly like ``_gate_settle_time``, and emit per
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

Cone-restricted replay (:func:`resimulate_with_extra_compiled`) filters a
pattern schedule down to the suspect's fanout cone and evaluates it into a
small ``(n_recomputed, width)`` overlay on top of the base result — the
fault-dictionary builder's innermost loop re-simulates one suspect against
one pattern, so the replayed slice is tiny compared to the circuit.  Cone
restrictions are cached per schedule, keyed by the identity of the
(read-only, memoized) cone list the dictionary builder passes, so the
steady-state replay does no set building and no per-edge scans at all.
A replay whose extra delay sits only on non-candidate pins of the pattern
(edges missing from the schedule) cannot change a settle time, so it
returns the base result without touching a cone at all.

Bit-identity with the reference kernel is a hard contract
(``tests/test_kernel.py``): min/max reductions are exact selections, and
every floating-point addition here pairs the same operands in the same
order as the reference closures (``stable[fanin] + (delay + extra)``), so
the two kernels agree to the last bit, not just to a tolerance.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from collections.abc import Mapping
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.library import CONTROLLING_VALUE, GateType
from ..circuits.netlist import Circuit
from ..logic.simulator import FrameValues, evaluate_two_frame
from .. import obs
from .dynamic import ExtraDelay, TransitionSimResult, edge_offsets
from .instance import CircuitTiming

__all__ = [
    "CompiledCircuit",
    "PatternSchedule",
    "StableTimes",
    "ConeStableTimes",
    "compile_circuit",
    "simulate_transition_compiled",
    "resimulate_with_extra_compiled",
    "replay_cone_sizes_compiled",
    "SCHEDULE_CACHE_ENV",
    "CONE_CACHE_ENV",
]

#: Cap on cached pattern schedules per circuit (LRU, env-overridable).
SCHEDULE_CACHE_ENV = "REPRO_KERNEL_SCHEDULE_CACHE"
_SCHEDULE_CACHE_DEFAULT = 512

#: Cap on cached cone restrictions per pattern schedule (LRU).
CONE_CACHE_ENV = "REPRO_KERNEL_CONE_CACHE"
_CONE_CACHE_DEFAULT = 1024


#: Packed two-frame value (``v1 | v2 << 1``) -> did the net toggle?
_TOGGLES = (False, True, True, False)


def _toggled(values: bytes) -> np.ndarray:
    """:data:`_TOGGLES` over a whole packed value vector."""
    codes = np.frombuffer(values, dtype=np.uint8)
    return (codes & 1) != (codes >> 1)


def _cache_cap(env: str, default: int) -> int:
    raw = os.environ.get(env, "").strip()
    if not raw:
        return default
    value = int(raw)
    if value < 1:
        raise ValueError(f"{env} must be a positive integer, got {value}")
    return value


class StableTimes(Mapping):
    """Mapping view of a compact, read-only settle-time matrix.

    ``matrix`` has one row per transitioning gate of the pattern schedule
    (replay order) plus a last, all-zero row that every other net shares;
    ``compact_rows`` maps a net row to its matrix row.  Preserves the
    ``result.stable[net]`` API of the reference kernel over every net:
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
    copies the full circuit's settle times.
    """

    __slots__ = ("base", "overlay", "overlay_rows")

    def __init__(
        self,
        base: StableTimes,
        overlay: np.ndarray,
        overlay_rows: Dict[str, int],
    ) -> None:
        self.base = base
        self.overlay = overlay
        self.overlay_rows = overlay_rows

    def __getitem__(self, net: str) -> np.ndarray:
        row = self.overlay_rows.get(net)
        if row is not None:
            return self.overlay[row]
        return self.base[net]

    def take_rows(self, nets: Iterable[str]) -> np.ndarray:
        """Rows for ``nets`` stacked into one ``(len(nets), width)`` array."""
        rows = self.overlay_rows
        index = [rows.get(net) for net in nets]
        if None not in index:
            return self.overlay[index]
        return np.stack([self[net] for net in nets])

    def __iter__(self) -> Iterator[str]:
        return iter(self.base)

    def __len__(self) -> int:
        return len(self.base)


class _GroupPlan:
    """One fused reduction batch: every transitioning gate of one level.

    ``edges[starts[g] : starts[g+1]]`` (sentinel: end of array) are gate
    ``out_rows[g]``'s candidate edges in pin order; ``sources`` holds the
    matching drivers' compact-matrix rows (see :class:`PatternSchedule`).
    Every group has >= 1 edge, so ``starts`` is strictly increasing —
    exactly what ``ufunc.reduceat`` needs.  ``lo:hi`` is this plan's slice
    of the schedule-wide concatenated edge array (one delay gather per call
    instead of one per plan), ``row_lo:row_hi`` the compact-matrix rows
    its groups write, in group order.

    Controlled-min and transitioning-max gates share one
    ``np.maximum.reduceat`` call: the first ``neg_groups`` groups (their
    candidates are rows ``[0, neg_rows)``) are min reductions evaluated as
    ``-max(-x)``.  Negation is an exact sign-bit flip and NumPy's
    ``minimum``/``maximum`` resolve both ties and NaNs the same way (the
    second operand on ties, the first NaN otherwise), so the fused form
    selects bit-identical results while halving the number of reductions
    per level.
    """

    __slots__ = ("edges", "starts", "sources", "out_rows", "lo", "hi",
                 "row_lo", "row_hi", "neg_rows", "neg_groups")

    def __init__(self, edges, starts, sources, out_rows, lo, row_lo,
                 neg_rows, neg_groups):
        self.edges = edges
        self.starts = starts
        self.sources = sources
        self.out_rows = out_rows
        self.lo = lo
        self.hi = lo + len(edges)
        self.row_lo = row_lo
        self.row_hi = row_lo + len(out_rows)
        self.neg_rows = neg_rows
        self.neg_groups = neg_groups

    def __getstate__(self):
        return (self.edges, self.starts, self.sources, self.out_rows,
                self.lo, self.row_lo, self.neg_rows, self.neg_groups)

    def __setstate__(self, state):
        self.__init__(*state)


class _ConeSchedule:
    """A pattern schedule filtered to one fanout cone.

    ``steps`` holds per-level tuples
    ``(lo, hi, starts, inside_pos, inside_src, out_lo, out_hi, neg_rows,
    neg_groups)``: ``lo:hi`` slices the cone-wide ``edges``/``sources``
    concatenation, ``inside_pos`` marks candidate rows whose driver was
    itself recomputed (at a lower level) and must be re-summed from the
    overlay rows in ``inside_src``, ``out_lo:out_hi`` is the (contiguous,
    in replay order) overlay destination, and the leading ``neg_rows``
    rows / ``neg_groups`` groups are the fused min reductions (see
    :class:`_GroupPlan`).
    """

    __slots__ = ("edges", "sources", "steps", "n_overlay", "overlay_rows",
                 "_edge_pos")

    def __init__(self, edges, sources, steps, n_overlay, overlay_rows):
        self.edges = edges
        self.sources = sources
        self.steps = steps
        self.n_overlay = n_overlay
        #: net name -> overlay row, for the recomputed transitioning gates.
        self.overlay_rows = overlay_rows
        self._edge_pos: Optional[Dict[int, int]] = None

    @property
    def edge_pos(self) -> Dict[int, int]:
        """Edge index -> row in ``edges`` (built on first use; an edge is
        one (sink, pin) pair so it appears at most once per cone)."""
        pos = self._edge_pos
        if pos is None:
            pos = self._edge_pos = {
                int(edge): index for index, edge in enumerate(self.edges)
            }
        return pos


class PatternSchedule:
    """The per-(v1, v2) reduction schedule over a compiled circuit.

    Holds the settled logic values of both frames packed one byte per net
    row (:func:`repro.logic.simulator.evaluate_two_frame`; ``val1`` and
    ``val2`` are read-only name-keyed views of it) and, per topological
    level, up to two :class:`_GroupPlan` batches (controlled-min,
    transitioning-max) in evaluation order, plus the concatenation of
    every plan's edges for one-shot delay gathering.  Sample-independent:
    one schedule serves every Monte-Carlo width, every ``extra_delay`` and
    every cone replay of the same pattern.

    Settle times live in a compact matrix: row ``g`` belongs to group
    ``g`` (gate ``group_out[g]``) and the last row, ``n_groups``, is the
    zero row shared by every net that does not transition or is a primary
    input.  ``compact_rows`` maps each net row to its matrix row; plan and
    cone sources are stored already mapped.
    """

    __slots__ = ("compiled", "values", "transitions",
                 "n_net_transitions", "plans", "compact_rows", "all_edges",
                 "all_sources", "group_out", "group_plan", "group_start",
                 "group_len", "group_neg", "_edge_pos", "_cone_cache",
                 "_cone_cap")

    def __init__(self, compiled, values, plans, compact_rows):
        self.compiled = compiled
        #: ``value1 | value2 << 1`` per net row (= topological order).
        self.values = values
        #: bool per net row: did the net toggle?  Consumers (the
        #: dictionary builder's activity planner, transition and error
        #: queries on results) read this instead of the value views.
        transitions = self.transitions = _toggled(values)
        self.n_net_transitions = int(transitions.sum())
        self.plans = plans
        #: net row -> compact-matrix row (int32).
        self.compact_rows = compact_rows
        empty = np.empty(0, dtype=np.int64)
        if plans:
            self.all_edges = np.concatenate([p.edges for p in plans])
            self.all_sources = np.concatenate([p.sources for p in plans])
            # Flat group table across all plans, for one-pass cone
            # restriction: group g is gate ``group_out[g]``, its candidate
            # edges sit at ``group_start[g] : +group_len[g]`` in
            # ``all_edges``, it belongs to ``plans[group_plan[g]]`` and is
            # a fused-min group iff ``group_neg[g]``.
            self.group_out = np.concatenate([p.out_rows for p in plans])
            self.group_plan = np.concatenate([
                np.full(len(p.out_rows), i, dtype=np.int64)
                for i, p in enumerate(plans)
            ])
            self.group_neg = np.concatenate([
                np.arange(len(p.out_rows), dtype=np.int64) < p.neg_groups
                for p in plans
            ])
            starts = []
            lens = []
            for p in plans:
                ends = np.empty(len(p.out_rows), dtype=np.int64)
                ends[:-1] = p.starts[1:]
                ends[-1] = len(p.edges)
                starts.append(p.lo + p.starts)
                lens.append(ends - p.starts)
            self.group_start = np.concatenate(starts)
            self.group_len = np.concatenate(lens)
        else:
            self.all_edges = empty
            self.all_sources = empty
            self.group_out = empty
            self.group_plan = empty
            self.group_start = empty
            self.group_len = empty
            self.group_neg = np.empty(0, dtype=bool)
        self._edge_pos: Optional[Dict[int, int]] = None
        self._cone_cache: "OrderedDict" = OrderedDict()
        self._cone_cap = _cache_cap(CONE_CACHE_ENV, _CONE_CACHE_DEFAULT)

    # ------------------------------------------------------------------
    @property
    def val1(self) -> FrameValues:
        """Settled ``v1`` values by net name (a read-only view)."""
        return FrameValues(self.values, self.compiled.net_rows, 0)

    @property
    def val2(self) -> FrameValues:
        """Settled ``v2`` values by net name (a read-only view)."""
        return FrameValues(self.values, self.compiled.net_rows, 1)

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

    def cone_for(self, affected: Iterable[str]) -> _ConeSchedule:
        """The schedule slice recomputing (at most) ``affected``, cached.

        Keyed by the identity of ``affected`` when it is reused verbatim
        across calls — the dictionary builder passes the memoized
        ``Circuit.fanout_cone`` list for every (suspect, pattern) pair, so
        the steady state is one dict probe.  The cache holds a strong
        reference to the keyed object (no id recycling); callers must
        treat ``affected`` as immutable once passed.
        """
        cache = self._cone_cache
        key = id(affected)
        entry = cache.get(key)
        recorder = obs.get_recorder()
        if entry is not None and entry[0] is affected:
            cache.move_to_end(key)
            if recorder.enabled:
                recorder.count("kernel.cone_reuse")
            return entry[1]
        cone = self._restrict(affected)
        cache[key] = (affected, cone)
        if len(cache) > self._cone_cap:
            cache.popitem(last=False)
        if recorder.enabled:
            recorder.count("kernel.cone_schedules")
        return cone

    def _restrict(self, affected) -> _ConeSchedule:
        compiled = self.compiled
        net_rows = compiled.net_rows
        n_groups = self.n_groups
        # A transitioning gate's compact row is its group index, so the
        # kept groups are the affected nets' compact rows below the zero
        # row; a mask over the groups sorts them into replay order.
        rows = np.fromiter((net_rows[net] for net in affected), dtype=np.int64)
        kept = np.zeros(n_groups + 1, dtype=bool)
        kept[self.compact_rows[rows]] = True
        keep = np.flatnonzero(kept[:n_groups])
        empty = np.empty(0, dtype=np.int64)
        if not keep.size:
            return _ConeSchedule(empty, empty, [], 0, {})
        out_rows = self.group_out[keep]
        # Compact row -> overlay row.  Groups keep their replay order, so a
        # recomputed source (strictly lower level) is always assigned
        # before any group that reads it — a single global pass suffices.
        overlay_of = np.full(n_groups + 1, -1, dtype=np.int64)
        overlay_of[keep] = np.arange(len(keep), dtype=np.int64)
        lens = self.group_len[keep]
        new_starts = np.zeros(len(keep), dtype=np.int64)
        np.cumsum(lens[:-1], out=new_starts[1:])
        # Vectorized gather of the kept groups' edge segments: output
        # position new_starts[g] + j must read global position
        # group_start[g] + j.
        take = np.repeat(self.group_start[keep] - new_starts, lens)
        take += np.arange(len(take), dtype=np.int64)
        edges = self.all_edges[take]
        sources = self.all_sources[take]
        inside_all = np.flatnonzero(overlay_of[sources] >= 0)
        inside_src_all = overlay_of[sources[inside_all]]

        # Split the kept groups back into steps wherever the owning plan
        # changes (plan ids are non-decreasing in group order).  Within a
        # fused plan min groups precede max groups, so the kept subset
        # keeps that layout; running counts of min groups/rows give each
        # step its negation boundary.
        plan_ids = self.group_plan[keep]
        neg_flags = self.group_neg[keep]
        neg_group_cum = np.concatenate(([0], np.cumsum(neg_flags)))
        neg_row_cum = np.concatenate(([0], np.cumsum(lens * neg_flags)))
        bounds = np.flatnonzero(np.diff(plan_ids)) + 1
        seg_lo = np.concatenate(([0], bounds))
        seg_hi = np.concatenate((bounds, [len(keep)]))
        steps = []
        for s, e in zip(seg_lo, seg_hi):
            lo = int(new_starts[s])
            hi = int(new_starts[e - 1] + lens[e - 1])
            i0, i1 = np.searchsorted(inside_all, [lo, hi])
            if i1 > i0:
                inside_pos = inside_all[i0:i1]
                inside_src = inside_src_all[i0:i1]
            else:
                inside_pos = None
                inside_src = None
            steps.append((
                lo,
                hi,
                new_starts[s:e] - lo,
                inside_pos,
                inside_src,
                int(s),
                int(e),
                int(neg_row_cum[e] - neg_row_cum[s]),
                int(neg_group_cum[e] - neg_group_cum[s]),
            ))
        names = compiled.net_names
        overlay_rows = {
            names[int(row)]: index for index, row in enumerate(out_rows)
        }
        return _ConeSchedule(edges, sources, steps, len(keep), overlay_rows)

    # ------------------------------------------------------------------
    def __getstate__(self):
        # Cone restrictions and the edge-position index are cheap to
        # rebuild and access-pattern specific; keep worker pickles lean.
        return (self.compiled, self.values, self.plans, self.compact_rows)

    def __setstate__(self, state):
        self.__init__(*state)


class CompiledCircuit:
    """Flat-array lowering of a frozen :class:`Circuit` (pattern-free part).

    Nets become rows (topological order); gates carry their fanin net rows,
    the edge index of their first fanin pin (``circuit.edges`` order, so
    edge ``(gate, pin)`` is ``fanin_base[row] + pin``), their controlling
    value (-1 when none) and their topological level.  Pattern schedules
    are cached here, LRU-bounded, keyed by the raw test-vector bytes.
    """

    __slots__ = ("circuit", "net_rows", "net_names", "fanin_rows",
                 "fanin_base", "controlling", "is_input", "level",
                 "output_rows", "_schedule_cache")

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        order = circuit.topological_order
        self.net_names: List[str] = list(order)
        self.net_rows: Dict[str, int] = {
            name: row for row, name in enumerate(order)
        }
        offsets = edge_offsets(circuit)
        levels = circuit.levels
        n = len(order)
        self.fanin_rows: List[Tuple[int, ...]] = [()] * n
        self.fanin_base = np.zeros(n, dtype=np.int64)
        self.controlling = np.full(n, -1, dtype=np.int8)
        self.is_input = np.zeros(n, dtype=bool)
        self.level = np.zeros(n, dtype=np.int64)
        for row, name in enumerate(order):
            gate = circuit.gates[name]
            self.fanin_rows[row] = tuple(
                self.net_rows[fanin] for fanin in gate.fanins
            )
            self.fanin_base[row] = offsets[name]
            controlling = CONTROLLING_VALUE[gate.gate_type]
            if controlling is not None:
                self.controlling[row] = controlling
            self.is_input[row] = gate.gate_type is GateType.INPUT
            self.level[row] = levels[name]
        #: net row of each primary output, in ``circuit.outputs`` order.
        self.output_rows = np.array(
            [self.net_rows[net] for net in circuit.outputs], dtype=np.int64
        )
        self._schedule_cache: "OrderedDict[bytes, PatternSchedule]" = OrderedDict()

    @property
    def n_nets(self) -> int:
        return len(self.net_names)

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
        if len(cache) > _cache_cap(SCHEDULE_CACHE_ENV, _SCHEDULE_CACHE_DEFAULT):
            cache.popitem(last=False)
        if recorder.enabled:
            recorder.count("kernel.schedules_built")
        return schedule

    def _build_schedule(self, v1: np.ndarray, v2: np.ndarray) -> PatternSchedule:
        values = evaluate_two_frame(self.circuit, v1.tolist(), v2.tolist())
        active = np.flatnonzero(_toggled(values) & ~self.is_input)
        # Stable sort keeps topological order within each level — not
        # required for correctness (levels are strict) but deterministic.
        active = active[np.argsort(self.level[active], kind="stable")]

        plans: List[_GroupPlan] = []
        offset = 0
        index = 0
        n_active = len(active)
        # Every active gate gets one compact row, in group order; every
        # other net reads the shared zero row after them.  Sources sit at
        # strictly lower levels, so their rows exist when a level maps them.
        compact_rows = np.full(self.n_nets, n_active, dtype=np.int32)
        while index < n_active:
            current_level = self.level[active[index]]
            builders = {True: ([], [], [], []), False: ([], [], [], [])}
            while index < n_active and self.level[active[index]] == current_level:
                row = int(active[index])
                index += 1
                fanin_rows = self.fanin_rows[row]
                base = int(self.fanin_base[row])
                controlling = int(self.controlling[row])
                pins = None
                is_min = False
                if controlling >= 0:
                    pins = [
                        pin for pin, src in enumerate(fanin_rows)
                        if values[src] >> 1 == controlling
                    ]
                    is_min = bool(pins)
                if not is_min:
                    pins = [
                        pin for pin, src in enumerate(fanin_rows)
                        if _TOGGLES[values[src]]
                    ]
                    if not pins:
                        # Mirror the reference fallback for degenerate
                        # transitioning gates with no transitioning input.
                        pins = list(range(len(fanin_rows)))
                edges, starts, sources, out_rows = builders[is_min]
                starts.append(len(edges))
                edges.extend(base + pin for pin in pins)
                sources.extend(fanin_rows[pin] for pin in pins)
                out_rows.append(row)
            # Fuse the level's min and max groups into one plan, min
            # groups first: their rows/outputs are sign-flipped around a
            # single maximum.reduceat (see _GroupPlan).
            min_edges, min_starts, min_sources, min_outs = builders[True]
            max_edges, max_starts, max_sources, max_outs = builders[False]
            edges = min_edges + max_edges
            starts = min_starts + [len(min_edges) + s for s in max_starts]
            out_rows = np.asarray(min_outs + max_outs, dtype=np.int64)
            row_lo = index - len(out_rows)
            compact_rows[out_rows] = np.arange(
                row_lo, index, dtype=np.int32
            )
            plans.append(_GroupPlan(
                np.asarray(edges, dtype=np.int64),
                np.asarray(starts, dtype=np.int64),
                compact_rows[min_sources + max_sources],
                out_rows,
                offset,
                row_lo,
                len(min_edges),
                len(min_outs),
            ))
            offset += len(edges)
        return PatternSchedule(self, values, plans, compact_rows)

    # ------------------------------------------------------------------
    def __getstate__(self):
        # The schedule cache can hold hundreds of unrelated patterns; a
        # worker only needs the schedules its shipped results reference
        # (pickle memoization carries those through TransitionSimResult).
        return (self.circuit, self.net_rows, self.net_names, self.fanin_rows,
                self.fanin_base, self.controlling, self.is_input, self.level,
                self.output_rows)

    def __setstate__(self, state):
        (self.circuit, self.net_rows, self.net_names, self.fanin_rows,
         self.fanin_base, self.controlling, self.is_input, self.level,
         self.output_rows) = state
        self._schedule_cache = OrderedDict()


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile ``circuit`` (memoized: at most one compilation per circuit)."""
    compiled = getattr(circuit, "_compiled_kernel", None)
    if compiled is None:
        recorder = obs.get_recorder()
        with recorder.span("kernel.compile"):
            compiled = CompiledCircuit(circuit)
        if recorder.enabled:
            recorder.count("kernel.compiles")
        circuit._compiled_kernel = compiled  # type: ignore[attr-defined]
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
    ignored, as it is by the reference kernel.
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
        for plan in schedule.plans:
            rows = stable[plan.sources] + dl[plan.lo : plan.hi]
            if plan.neg_rows:
                seg = rows[: plan.neg_rows]
                np.negative(seg, out=seg)
            out = stable[plan.row_lo : plan.row_hi]
            np.maximum.reduceat(rows, plan.starts, axis=0, out=out)
            if plan.neg_groups:
                seg = out[: plan.neg_groups]
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
        StableTimes(stable, compiled.net_rows, schedule.compact_rows),
        width,
        sample_index,
        kernel_state=schedule,
    )


def resimulate_with_extra_compiled(
    base: TransitionSimResult,
    extra_delay: ExtraDelay,
    affected: Optional[Iterable[str]] = None,
) -> TransitionSimResult:
    """Cone-restricted schedule replay behind
    :func:`repro.timing.dynamic.resimulate_with_extra` (bit-identical)."""
    schedule = base.kernel_state
    if not isinstance(schedule, PatternSchedule):
        raise TypeError("base result does not carry a compiled-kernel schedule")
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
    circuit = timing.circuit

    if affected is None:
        affected = set()
        edges = circuit.edges
        for edge_index in extra_delay:
            affected.update(circuit.fanout_cone(edges[edge_index].sink))
        if not affected:
            return base
        affected = frozenset(affected)
    elif not affected:
        return base
    elif not hasattr(affected, "__len__"):
        affected = set(affected)
        if not affected:
            return base
    if recorder.enabled:
        recorder.count("dynamic.resimulations")
        recorder.count("dynamic.nets_recomputed", len(affected))

    cone = schedule.cone_for(affected)
    delays = (
        timing.delays
        if base.sample_index is None
        else timing.delays[:, base.sample_index : base.sample_index + 1]
    )
    base_stable = base.stable
    if not isinstance(base_stable, StableTimes):
        raise TypeError("compiled re-simulation requires a compiled base result")
    base_matrix = base_stable.matrix

    overlay = np.empty((cone.n_overlay, base.width))
    if cone.steps:
        dl = delays[cone.edges]
        if extra_delay:
            edge_pos = cone.edge_pos
            for edge_index, value in extra_delay.items():
                pos = edge_pos.get(int(edge_index))
                if pos is not None:
                    dl[pos] = dl[pos] + np.asarray(value)
        # Candidate rows for the whole cone in one shot; rows whose driver
        # is recomputed get re-summed from the overlay inside the step
        # loop, once that overlay row exists (drivers sit at strictly
        # lower levels, i.e. in earlier steps).
        rows = base_matrix[cone.sources]
        rows += dl
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
        if recorder.enabled:
            recorder.count("kernel.reductions", len(cone.edges))

    stable = ConeStableTimes(base_stable, overlay, cone.overlay_rows)
    # ``kernel_state`` stays None: a replay of a replay would need the
    # overlay folded back into a full matrix; the reference path handles
    # that rare case instead (bit-identically).
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


def replay_cone_sizes_compiled(
    base: TransitionSimResult,
    edge_index: int,
    size_vectors: Sequence[np.ndarray],
    affected: Iterable[str],
    nets: Sequence[str],
) -> np.ndarray:
    """Batched cone replays for one suspect edge.

    Returns the ``(len(size_vectors), len(nets), width)`` settle rows of
    ``nets`` after adding each vector of ``size_vectors`` to the edge.
    The sampling subsystem re-simulates the same (suspect, pattern) cone
    once per allocation round; this hoists the cone schedule lookup, the
    delay gather and the candidate-row gather across the whole batch
    instead of paying them per round.  Bit-identical to calling
    :func:`resimulate_with_extra_compiled` once per vector and stacking
    ``stable.take_rows(nets)``.
    """
    schedule = base.kernel_state
    if not isinstance(schedule, PatternSchedule):
        raise TypeError("base result does not carry a compiled-kernel schedule")
    timing = base.timing
    if not hasattr(affected, "__len__"):
        affected = set(affected)
    nets = list(nets)
    size_vectors = list(size_vectors)
    out = np.empty((len(size_vectors), len(nets), base.width))
    if not affected or not size_vectors:
        return out

    base_stable = base.stable
    if not isinstance(base_stable, StableTimes):
        raise TypeError("compiled re-simulation requires a compiled base result")
    recorder = obs.get_recorder()
    if schedule.edge_pos.get(int(edge_index)) is None:
        # Not a candidate pin under this pattern: every vector replays to
        # the base rows (see resimulate_with_extra_compiled).
        if recorder.enabled:
            recorder.count("kernel.replays_skipped", len(size_vectors))
        out[:] = base_stable.take_rows(nets)
        return out
    cone = schedule.cone_for(affected)
    overlay_rows = cone.overlay_rows
    row_index = [overlay_rows.get(net) for net in nets]

    if recorder.enabled:
        recorder.count("dynamic.resimulations", len(size_vectors))
        recorder.count(
            "dynamic.nets_recomputed", len(affected) * len(size_vectors)
        )

    if not cone.steps:
        # Nothing recomputed in this cone: every requested net falls
        # through to the base rows for every vector.
        if nets:
            out[:] = np.stack([base_stable[net] for net in nets])
        return out

    delays = (
        timing.delays
        if base.sample_index is None
        else timing.delays[:, base.sample_index : base.sample_index + 1]
    )
    dl0 = delays[cone.edges]
    src0 = base_stable.matrix[cone.sources]
    pos = cone.edge_pos.get(int(edge_index))
    overlay = np.empty((cone.n_overlay, base.width))
    base_rows = {
        net: base_stable[net]
        for net, row in zip(nets, row_index)
        if row is None
    }
    for vector, sizes in enumerate(size_vectors):
        dl = dl0
        if pos is not None:
            dl = dl0.copy()
            dl[pos] = dl0[pos] + np.asarray(sizes)
        rows = src0 + dl
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
        for column, (net, row) in enumerate(zip(nets, row_index)):
            out[vector, column] = (
                overlay[row] if row is not None else base_rows[net]
            )
    if recorder.enabled:
        recorder.count("kernel.reductions", len(cone.edges) * len(size_vectors))
    return out
