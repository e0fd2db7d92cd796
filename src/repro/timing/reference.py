"""The reference timing kernel: the bit-exact oracle of the compiled one.

A gate-by-gate Python walk of the settle rules of Definition D.5 (see
:mod:`repro.timing.dynamic`), with string-keyed dicts and a per-pin
closure — slow, but obviously right.  Production code runs the compiled
kernel only (:mod:`repro.timing.kernel`); this module exists so tests and
the ``repro profile`` run can check it.  The two agree to the last bit:
min/max reductions are exact selections and every addition pairs the
same operands in the same order (``stable[fanin] + (delay + extra)``).

:func:`oracle_dictionary` builds the ``M_crt`` and ``E - M`` signatures
of a plain dictionary straight from Definition E.1 on top of these
simulations.  Lint rule ``D106`` keeps this module out of production
code: only ``timing/`` and ``tests/`` may import it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.library import CONTROLLING_VALUE, GateType
from ..circuits.netlist import Edge
from .. import obs
from .dynamic import ExtraDelay, TransitionSimResult, edge_offsets
from .instance import CircuitTiming

__all__ = [
    "simulate_transition_reference",
    "resimulate_with_extra_reference",
    "oracle_dictionary",
]


def _gate_settle_time(
    gate_type: GateType,
    fanins: Sequence[str],
    val1: Dict[str, int],
    val2: Dict[str, int],
    stable_of,
    delay_of,
) -> np.ndarray:
    """Apply the controlled-min / transitioning-max settle rule for one gate."""
    controlling = CONTROLLING_VALUE[gate_type]
    if controlling is not None:
        controlled = [
            (fanin, pin)
            for pin, fanin in enumerate(fanins)
            if val2[fanin] == controlling
        ]
        if controlled:
            candidates = [stable_of(f) + delay_of(p) for f, p in controlled]
            return np.minimum.reduce(candidates)
    transitioning = [
        (fanin, pin)
        for pin, fanin in enumerate(fanins)
        if val1[fanin] != val2[fanin]
    ]
    if not transitioning:
        # The output transition must then come from nowhere — callers only
        # invoke this for transitioning outputs, which implies at least one
        # transitioning input except in degenerate const-redundant cases.
        transitioning = list((fanin, pin) for pin, fanin in enumerate(fanins))
    candidates = [stable_of(f) + delay_of(p) for f, p in transitioning]
    return np.maximum.reduce(candidates)


def simulate_transition_reference(
    timing: CircuitTiming,
    v1: np.ndarray,
    v2: np.ndarray,
    extra_delay: Optional[ExtraDelay] = None,
    sample_index: Optional[int] = None,
) -> TransitionSimResult:
    """The reference (gate-by-gate Python) form of
    :func:`repro.timing.dynamic.simulate_transition`: the bit-exact oracle
    the compiled kernel is validated against."""
    circuit = timing.circuit
    v1 = np.asarray(v1).astype(int).ravel()
    v2 = np.asarray(v2).astype(int).ravel()
    if v1.shape[0] != len(circuit.inputs) or v2.shape[0] != len(circuit.inputs):
        raise ValueError("test vectors must cover every primary input")

    val1 = circuit.evaluate({net: int(v1[i]) for i, net in enumerate(circuit.inputs)})
    val2 = circuit.evaluate({net: int(v2[i]) for i, net in enumerate(circuit.inputs)})

    if sample_index is None:
        delays = timing.delays
        width = timing.space.n_samples
    else:
        delays = timing.delays[:, sample_index : sample_index + 1]
        width = 1

    # One conversion per extra edge, not one per (gate, pin) closure call.
    extra = {
        int(index): np.asarray(value)
        for index, value in (extra_delay or {}).items()
    }
    offsets = edge_offsets(circuit)
    zeros = np.zeros(width)
    stable: Dict[str, np.ndarray] = {}

    for name in circuit.topological_order:
        gate = circuit.gates[name]
        if gate.gate_type is GateType.INPUT or val1[name] == val2[name]:
            stable[name] = zeros
            continue
        base = offsets[name]

        def delay_of(pin: int, _base: int = base) -> np.ndarray:
            edge_index = _base + pin
            d = delays[edge_index]
            if edge_index in extra:
                d = d + extra[edge_index]
            return d

        stable[name] = _gate_settle_time(
            gate.gate_type, gate.fanins, val1, val2, stable.__getitem__, delay_of
        )
    recorder = obs.get_recorder()
    if recorder.enabled:
        recorder.count("dynamic.transition_sims")
        recorder.count(
            "dynamic.net_transitions",
            sum(1 for name in val1 if val1[name] != val2[name]),
        )
    return TransitionSimResult(
        timing, v1, v2, val1, val2, stable, width, sample_index
    )


def resimulate_with_extra_reference(
    base: TransitionSimResult,
    extra_delay: ExtraDelay,
    affected: Optional[Iterable[str]] = None,
) -> TransitionSimResult:
    """The reference cone re-simulation: the oracle of
    :func:`repro.timing.dynamic.resimulate_with_extra`.  Accepts any base
    result, a replay result included."""
    timing = base.timing
    circuit = timing.circuit
    edges = circuit.edges

    if affected is None:
        affected = set()
        for edge_index in extra_delay:
            affected.update(circuit.fanout_cone(edges[edge_index].sink))
    elif not isinstance(affected, set):
        affected = set(affected)
    if not affected:
        return base
    recorder = obs.get_recorder()
    if recorder.enabled:
        # Counted like the compiled replay, so tests can compare counters.
        recorder.count("dynamic.resimulations")
        recorder.count("dynamic.nets_recomputed", len(affected))

    delays = (
        timing.delays
        if base.sample_index is None
        else timing.delays[:, base.sample_index : base.sample_index + 1]
    )
    offsets = edge_offsets(circuit)
    zeros = np.zeros(base.width)
    stable = dict(base.stable)
    # One conversion per extra edge, not one per recomputed gate.
    extra = {int(index): np.asarray(value) for index, value in extra_delay.items()}

    for name in circuit.topological_order:
        if name not in affected:
            continue
        gate = circuit.gates[name]
        if gate.gate_type is GateType.INPUT or base.val1[name] == base.val2[name]:
            stable[name] = zeros
            continue
        base_offset = offsets[name]

        def delay_of(pin: int, _base: int = base_offset) -> np.ndarray:
            edge_index = _base + pin
            d = delays[edge_index]
            if edge_index in extra:
                d = d + extra[edge_index]
            return d

        stable[name] = _gate_settle_time(
            gate.gate_type, gate.fanins, base.val1, base.val2,
            stable.__getitem__, delay_of,
        )
    return TransitionSimResult(
        timing, base.v1, base.v2, base.val1, base.val2, stable, base.width,
        base.sample_index,
    )


def oracle_dictionary(
    timing: CircuitTiming,
    patterns: Sequence[Tuple[np.ndarray, np.ndarray]],
    clks: Sequence[float],
    suspects: Sequence[Edge],
    size_samples: np.ndarray,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """``M_crt`` and every suspect's ``E - M`` signature of a plain
    dictionary, from Definition E.1 with oracle simulations.

    Column block ``b`` holds every pattern thresholded at ``clks[b]``, the
    layout of :func:`repro.core.dictionary.build_multi_clock_dictionary`.
    Every suspect replays every pattern with ``size_samples`` on its edge:
    no transition gating, cone batching or crossing bound, so a plain
    build that skips a replay it needed disagrees here.
    """
    bases = [
        simulate_transition_reference(timing, v1, v2) for v1, v2 in patterns
    ]

    def error_matrix(sims: Sequence[TransitionSimResult]) -> np.ndarray:
        return np.concatenate([
            np.stack([sim.error_vector(clk) for sim in sims], axis=1)
            for clk in clks
        ], axis=1)

    m_crt = error_matrix(bases)
    signatures = []
    for edge in suspects:
        extra = {timing.edge_index[edge]: size_samples}
        defective = [resimulate_with_extra_reference(base, extra) for base in bases]
        signatures.append(error_matrix(defective) - m_crt)
    return m_crt, signatures
