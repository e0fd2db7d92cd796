"""Statistical *dynamic* timing simulation (Definition D.5, dynamic half).

Given a two-vector delay test ``(v1, v2)`` this module computes, for every
net, the time at which the net settles to its final value — simultaneously
for all Monte-Carlo samples (all circuit instances).  The per-output settle
times of transitioning outputs are exactly the arrival-time random variables
``Ar(o_i)`` on the induced circuit ``Induced(Path_v)`` of Definition D.7:
outputs without a sensitized transition are never at risk and get critical
probability 0, matching the paper's convention.

Model (standard transition-mode timed simulation):

* every net makes at most one transition between the settled ``v1`` state
  and the settled ``v2`` state; static hazards/glitches on nets whose two
  logic values coincide are ignored (documented simplification),
* a gate whose final output value is *controlled* settles when its earliest
  controlling-final input settles: ``min`` over those inputs of
  (input settle time + pin-to-pin delay),
* otherwise the gate settles with its latest *transitioning* input:
  ``max`` over transitioning inputs of (settle + delay); if no input
  transitions the output cannot transition either and is stable from t=0.

Because logic values are sample-independent, a delay defect (extra delay on
one edge) changes settle times only inside the defect's fanout cone —
:func:`resimulate_with_extra` exploits this to make probabilistic fault
dictionary construction (hundreds of suspects) cheap.

The compiled kernel (:mod:`repro.timing.kernel`) evaluates these rules:
the circuit's row table (:mod:`repro.circuits.rows`) plus a
per-pattern reduction schedule evaluated level by level with segment
min/max reductions across all Monte-Carlo samples at once.  Its
bit-exact test oracle is the gate-by-gate Python walk in
:mod:`repro.timing.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from ..circuits.netlist import Circuit
from .. import obs
from .instance import CircuitTiming
from .randvars import RandomVariable

__all__ = [
    "TransitionSimResult",
    "simulate_transition",
    "resimulate_with_extra",
    "prepare_cones",
    "replay_cones",
    "edge_offsets",
]

ExtraDelay = Mapping[int, Union[float, np.ndarray]]


def edge_offsets(circuit: Circuit) -> Dict[str, int]:
    """First edge index of each gate's fanin block in ``circuit.edges`` order.

    Memoized on the circuit's row table (its ``fanin_starts`` by net
    name): the reference oracle, the event simulator and the suspect
    extractor ask for the same table on every call.  Treat it as
    read-only.
    """
    return circuit.rows.net_starts


@dataclass
class TransitionSimResult:
    """Settle times and logic values for one two-vector test.

    ``stable[net]`` has shape ``(width,)`` where ``width`` is the number of
    simulated samples (the full sample space, or 1 for an instance-level
    simulation).  ``val1``/``val2`` are the settled logic values — identical
    across samples since delays never change logic; simulations hold
    read-only views of the schedule's packed values
    (:class:`repro.logic.simulator.FrameValues`), oracle results
    (:mod:`repro.timing.reference`) plain dicts.

    ``stable`` is a mapping from net name to settle-time vector.  A
    simulation backs it with one read-only ``(n_transitioning + 1,
    width)`` matrix: a row per transitioning non-input gate plus one zero
    row every other net shares (:class:`repro.timing.kernel.StableTimes`);
    a replay overlays its recomputed cone on the base matrix
    (:class:`repro.timing.kernel.ConeStableTimes`); an oracle result is
    a plain dict of per-net arrays.  ``kernel_state`` carries the
    compiled pattern schedule that cone-restricted re-simulation replays.
    It is ``None`` for replay and oracle results, which is why the
    transition and error queries below keep a value-dict path, and why a
    replay of a replay raises ``TypeError``.
    """

    timing: CircuitTiming
    v1: np.ndarray
    v2: np.ndarray
    val1: Mapping[str, int]
    val2: Mapping[str, int]
    stable: Mapping[str, np.ndarray]
    width: int
    sample_index: Optional[int] = None
    kernel_state: Optional[object] = field(default=None, repr=False, compare=False)

    def transitioned(self, net: str) -> bool:
        """True iff the test launches a transition onto ``net``."""
        state = self.kernel_state
        if state is not None:
            return bool(state.transitions[state.rows.index[net]])
        return self.val1[net] != self.val2[net]

    def _live_outputs(self) -> np.ndarray:
        """Positions in ``circuit.outputs`` of the outputs that transition.

        Compiled results read the schedule's transition vector instead of
        two value lookups per output.
        """
        state = self.kernel_state
        if state is not None:
            return np.flatnonzero(state.transitions[state.rows.output_rows])
        val1, val2 = self.val1, self.val2
        return np.array(
            [
                index for index, net in enumerate(self.timing.circuit.outputs)
                if val1[net] != val2[net]
            ],
            dtype=np.int64,
        )

    def arrival(self, net: str) -> RandomVariable:
        """``Ar(net)`` on the induced circuit (full-width results only)."""
        if self.width != self.timing.space.n_samples:
            raise ValueError("arrival() requires a full-sample-space simulation")
        return RandomVariable(self.stable[net], self.timing.space)

    def error_vector(self, clk: float) -> np.ndarray:
        """``Err(C, v, clk)`` of Definition D.7: per-output critical probability."""
        outputs = self.timing.circuit.outputs
        recorder = obs.get_recorder()
        vector = np.zeros(len(outputs))
        take = getattr(self.stable, "take_rows", None)
        if take is not None and not recorder.enabled:
            # Matrix-backed (compiled-kernel) results: one gather of the
            # transitioning output rows and one vectorized threshold pass.
            # Bit-identical to the per-net loop — the bool sums along
            # axis 1 are exact integers, divided by the same width.
            live = self._live_outputs()
            if live.size:
                stacked = take([outputs[i] for i in live])
                vector[live] = (stacked > clk).mean(axis=1)
            return vector
        for index, net in enumerate(outputs):
            if self.transitioned(net):
                vector[index] = float(np.mean(self.stable[net] > clk))
                if recorder.enabled:
                    # The raw Monte-Carlo samples behind this estimate:
                    # the meter tracks running mean/variance/SE/ESS of the
                    # output settle-time population.
                    recorder.observe("dynamic.settle", self.stable[net])
        return vector

    def output_failures(self, clk: float) -> np.ndarray:
        """Boolean ``(|O|, width)``: which outputs fail on which sample."""
        outputs = self.timing.circuit.outputs
        failures = np.zeros((len(outputs), self.width), dtype=bool)
        for index in self._live_outputs():
            failures[index] = self.stable[outputs[index]] > clk
        return failures


def simulate_transition(
    timing: CircuitTiming,
    v1: np.ndarray,
    v2: np.ndarray,
    extra_delay: Optional[ExtraDelay] = None,
    sample_index: Optional[int] = None,
) -> TransitionSimResult:
    """Timed simulation of the two-vector test ``(v1, v2)``.

    ``extra_delay`` maps edge indices to additional delay (scalar or
    per-sample vector) — the defect-injection hook.  ``sample_index``
    restricts the simulation to one Monte-Carlo sample, i.e. simulates a
    single :class:`CircuitInstance`; the result then has ``width == 1``.

    Runs the compiled kernel (:mod:`repro.timing.kernel`).
    """
    from .kernel import simulate_transition_compiled

    return simulate_transition_compiled(
        timing, v1, v2, extra_delay=extra_delay, sample_index=sample_index
    )


def resimulate_with_extra(
    base: TransitionSimResult,
    extra_delay: ExtraDelay,
    affected: Optional[Iterable[str]] = None,
) -> TransitionSimResult:
    """Re-evaluate settle times after adding delay to a few edges.

    Only the union of the affected edges' sink fanout cones is recomputed;
    every other net shares the base result's arrays.  Logic values are
    reused verbatim (a delay defect never changes settled logic).  The base
    must be a full-width simulation of the same timing model.

    ``affected`` optionally supplies that cone union precomputed, so a
    caller that replays one suspect many times skips the cone traversal;
    the cone is restricted afresh on every call.  It must cover (at least)
    the fanout cones of every edge in ``extra_delay``.  Every net of the
    cone is recomputed, since the result answers ``stable[net]`` for any
    of them.  Dictionary builds replay all suspects of one pattern at once
    through :func:`replay_cones` instead, which recomputes only what the
    requested rows read.

    The replay runs the cone-restricted slice of the base's compiled
    schedule, so the base must come from :func:`simulate_transition`: a
    replay result carries no schedule, and replaying it raises
    ``TypeError``.
    """
    from .kernel import resimulate_with_extra_compiled

    return resimulate_with_extra_compiled(base, extra_delay, affected)


def prepare_cones(
    base: TransitionSimResult,
    edge_indices: Sequence[int],
    cones: Sequence[Sequence[str]],
    nets: Sequence[Sequence[str]],
):
    """The sizes-independent half of :func:`replay_cones`.

    Returns an object whose ``replay(sizes)`` equals ``replay_cones(base,
    edge_indices, sizes, cones, nets)``, so a caller that replays the
    same copies with many size draws (the sampled dictionary path, once
    per allocation round) restricts their cones once, and whose
    ``slice(keep)`` drops copies without restricting again: a
    :class:`repro.timing.kernel.ConeReplay`, which takes the cones and
    nets as net rows (translated here, once).
    """
    from .kernel import ConeReplay

    rows = base.timing.circuit.rows
    return ConeReplay(
        base,
        edge_indices,
        [rows.rows_of(cone) for cone in cones],
        [rows.rows_of(group) for group in nets],
    )


def replay_cones(
    base: TransitionSimResult,
    edge_indices: Sequence[int],
    sizes: np.ndarray,
    cones: Sequence[Sequence[str]],
    nets: Sequence[Sequence[str]],
) -> np.ndarray:
    """Batched :func:`resimulate_with_extra` over many suspect edges of
    one pattern.

    Copy ``c`` adds ``sizes`` — or ``sizes[c]`` when ``sizes`` is
    ``(n_copies, width)`` — to edge ``edge_indices[c]`` with
    ``affected=cones[c]``; the result stacks the settle rows of every
    ``nets[c]`` in copy order into one ``(sum(len(nets[c])), width)``
    array.  Dictionary builders threshold every entry of a pattern column
    in one pass over it; two copies may name the same edge with different
    sizes (two allocation rounds of one suspect).  Every copy is
    restricted, cut to the gates that can change a requested row, and
    replayed in one level-ordered pass, bit-identical to the per-copy
    :func:`resimulate_with_extra` loop.
    """
    return prepare_cones(base, edge_indices, cones, nets).replay(sizes)
