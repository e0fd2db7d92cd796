"""Longest-path selection through a fault site (paper Section H-4).

The experiments select the "longest" paths through the injected fault site
using false-path-aware statistical STA [17]; the tests for those paths are
then what the diagnosis observes.  We implement:

* :func:`k_longest_paths_through` — exact K-longest (by mean delay) paths
  through a given edge or net, via top-K dynamic programming on prefixes
  (PI -> site) and suffixes (site -> PO) and a best-combination merge.
  A net's prefix table depends only on its fanin cone and its suffix
  table only on its fanout cone, so the DP runs over just
  ``fanin_cone(site source)`` and ``fanout_cone(site sink)`` — a few
  percent of the nets of a large circuit — and yields exactly the
  whole-circuit entries for those nets.  Nothing is cached between calls:
  the tables depend on the delays, and rebuilding a cone is cheaper than
  keeping every site's tables alive,
* :func:`k_longest_paths` — K-longest paths overall (used for clock-path
  studies and the pattern-quality example),
* :func:`rank_statistically` — re-rank candidate paths by statistical
  criticality ``Prob(TL(p) > clk)`` instead of mean length, the [16]-style
  refinement.

"False-path awareness" in the paper means selected paths are checked for
sensitizability; callers get that by attempting ATPG on each returned path
and discarding untestable ones — exactly what
:func:`repro.atpg.patterns.generate_path_tests` does.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.library import GateType
from ..circuits.netlist import Circuit, Edge
from ..timing.dynamic import edge_offsets
from ..timing.instance import CircuitTiming
from .model import Path

__all__ = ["k_longest_paths_through", "k_longest_paths", "rank_statistically"]

#: A scored partial path: (delay, nets tuple).
_Scored = Tuple[float, Tuple[str, ...]]


def _mean_edge_delays(timing: CircuitTiming) -> np.ndarray:
    return timing.delays.mean(axis=1)


def _site_ends(site: Union[Edge, str]) -> Tuple[str, str]:
    """(net the prefixes end at, net the suffixes start at) for a site."""
    if isinstance(site, Edge):
        return site.source, site.sink
    return site, site


def _merge_top_k(candidates: List[_Scored], k: int) -> List[_Scored]:
    """Keep the k best-scoring entries, deduplicating identical net tuples."""
    seen = set()
    unique: List[_Scored] = []
    for score, nets in sorted(candidates, key=lambda item: -item[0]):
        if nets not in seen:
            seen.add(nets)
            unique.append((score, nets))
        if len(unique) == k:
            break
    return unique


def _top_k_prefixes(
    circuit: Circuit, delays: np.ndarray, k: int, cone: Sequence[str]
) -> Dict[str, List[_Scored]]:
    """Top-k longest PI->net partial paths for every net of ``cone``
    (forward DP).  ``cone`` must be in topological order and closed under
    fanins: the whole circuit, or a fanin cone."""
    offsets = edge_offsets(circuit)
    prefixes: Dict[str, List[_Scored]] = {}
    for name in cone:
        gate = circuit.gates[name]
        if gate.gate_type is GateType.INPUT:
            prefixes[name] = [(0.0, (name,))]
            continue
        candidates: List[_Scored] = []
        base = offsets[name]
        for pin, fanin in enumerate(gate.fanins):
            delay = float(delays[base + pin])
            for score, nets in prefixes[fanin]:
                candidates.append((score + delay, nets + (name,)))
        prefixes[name] = _merge_top_k(candidates, k)
    return prefixes


def _top_k_suffixes(
    circuit: Circuit, delays: np.ndarray, k: int, cone: Sequence[str]
) -> Dict[str, List[_Scored]]:
    """Top-k longest net->PO partial paths for every net of ``cone``
    (backward DP).  ``cone`` must be in topological order and closed under
    fanouts: the whole circuit, or a fanout cone."""
    offsets = edge_offsets(circuit)
    output_set = set(circuit.outputs)
    suffixes: Dict[str, List[_Scored]] = {}
    for name in reversed(cone):
        candidates: List[_Scored] = []
        if name in output_set:
            candidates.append((0.0, (name,)))
        for edge in circuit.fanouts[name]:
            delay = float(delays[offsets[edge.sink] + edge.pin])
            for score, nets in suffixes.get(edge.sink, []):
                # stored suffixes start at edge.sink; prepend this net
                candidates.append((score + delay, (name,) + nets))
        suffixes[name] = _merge_top_k(candidates, k)
    return suffixes


def k_longest_paths_through(
    timing: CircuitTiming,
    site: Union[Edge, str],
    k: int = 5,
) -> List[Path]:
    """The ``k`` longest (mean-delay) complete paths through ``site``.

    ``site`` may be an :class:`Edge` (segment defect site, Definition D.9)
    or a net name (all paths through the net).  Exact: combines top-k
    prefixes of the site's source with top-k suffixes of its sink, each
    table built over that net's cone only.
    """
    circuit = timing.circuit
    delays = _mean_edge_delays(timing)
    source, sink = _site_ends(site)
    prefixes = _top_k_prefixes(circuit, delays, k, circuit.fanin_cone(source))
    suffixes = _top_k_suffixes(circuit, delays, k, circuit.fanout_cone(sink))

    combos: List[_Scored] = []
    if isinstance(site, Edge):
        edge_delay = float(delays[edge_offsets(circuit)[site.sink] + site.pin])
        for pre_score, pre in prefixes.get(site.source, []):
            for suf_score, suf in suffixes.get(site.sink, []):
                combos.append(
                    (pre_score + edge_delay + suf_score, pre + suf)
                )
    else:
        # Through a net: prefix ends at the net, suffix starts at it.
        for pre_score, pre in prefixes.get(site, []):
            for suf_score, suf in suffixes.get(site, []):
                combos.append((pre_score + suf_score, pre + suf[1:]))
    best = _merge_top_k(combos, k)
    return [Path(nets) for _, nets in best if len(nets) >= 2]


def k_longest_paths(timing: CircuitTiming, k: int = 5) -> List[Path]:
    """The ``k`` longest (mean-delay) input-to-output paths in the circuit."""
    circuit = timing.circuit
    delays = _mean_edge_delays(timing)
    prefixes = _top_k_prefixes(circuit, delays, k, circuit.topological_order)
    combos: List[_Scored] = []
    for output in circuit.outputs:
        combos.extend(prefixes.get(output, []))
    best = _merge_top_k(combos, k)
    return [Path(nets) for _, nets in best if len(nets) >= 2]


def longest_delay_tables(
    timing: CircuitTiming,
    site: Optional[Union[Edge, str]] = None,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-net longest mean-delay from any PI / to any PO.

    Guidance tables for the randomized path sampler: ``prefix[net]`` is the
    longest mean delay of any PI->net partial path, ``suffix[net]`` of any
    net->PO partial path (``-inf`` for nets that reach no output).  With a
    ``site``, only the nets :func:`sample_path_through` can visit for it
    get entries — ``prefix`` over the fanin cone of the site's source,
    ``suffix`` over the fanout cone of its sink — with the same values as
    the whole-circuit tables.
    """
    circuit = timing.circuit
    delays = _mean_edge_delays(timing)
    offsets = edge_offsets(circuit)
    if site is None:
        prefix_nets = suffix_nets = circuit.topological_order
    else:
        source, sink = _site_ends(site)
        prefix_nets = circuit.fanin_cone(source)
        suffix_nets = circuit.fanout_cone(sink)

    prefix: Dict[str, float] = {}
    for name in prefix_nets:
        gate = circuit.gates[name]
        if gate.gate_type is GateType.INPUT:
            prefix[name] = 0.0
            continue
        base = offsets[name]
        prefix[name] = max(
            prefix[fanin] + float(delays[base + pin])
            for pin, fanin in enumerate(gate.fanins)
        )
    suffix: Dict[str, float] = {}
    output_set = set(circuit.outputs)
    for name in reversed(suffix_nets):
        best = 0.0 if name in output_set else float("-inf")
        for edge in circuit.fanouts[name]:
            delay = float(delays[offsets[edge.sink] + edge.pin])
            candidate = suffix.get(edge.sink, float("-inf")) + delay
            if candidate > best:
                best = candidate
        suffix[name] = best
    return prefix, suffix


def sample_path_through(
    timing: CircuitTiming,
    site: Union[Edge, str],
    rng,
    bias: float = 0.8,
    tables: Optional[Tuple[Dict[str, float], Dict[str, float]]] = None,
) -> Path:
    """One random complete path through ``site``, biased toward long paths.

    With probability ``bias`` each backward/forward step takes the
    longest-scoring continuation, otherwise a uniform random one.  ``bias=1``
    reproduces *the* longest path; ``bias=0`` is a uniform random walk —
    lowering the bias is how the ATPG escapes clusters of false long paths
    while keeping tests as long as it can (Section G's "select long paths to
    sensitize the faults").  ``tables`` may be passed in from
    :func:`longest_delay_tables`, for the whole circuit or for this site.
    """
    circuit = timing.circuit
    prefix, suffix = (
        tables if tables is not None else longest_delay_tables(timing, site)
    )

    if isinstance(site, Edge):
        back_start, forward_start = site.source, site.sink
        middle = [site.source, site.sink]
    else:
        back_start = forward_start = site
        middle = [site]

    nets_backward: List[str] = []
    current = back_start
    while circuit.gates[current].gate_type is not GateType.INPUT:
        fanins = circuit.gates[current].fanins
        if rng.random() < bias:
            chosen = max(fanins, key=lambda f: prefix[f])
        else:
            chosen = fanins[int(rng.random() * len(fanins))]
        nets_backward.append(chosen)
        current = chosen

    nets_forward: List[str] = []
    current = forward_start
    output_set = set(circuit.outputs)
    while True:
        candidates = [
            e.sink for e in circuit.fanouts[current] if suffix[e.sink] > float("-inf")
        ]
        if current in output_set and (not candidates or rng.random() < 0.5):
            break
        if not candidates:
            break
        if rng.random() < bias:
            chosen = max(candidates, key=lambda s: suffix[s])
        else:
            chosen = candidates[int(rng.random() * len(candidates))]
        nets_forward.append(chosen)
        current = chosen

    return Path(tuple(reversed(nets_backward)) + tuple(middle) + tuple(nets_forward))


def rank_statistically(
    paths: Sequence[Path], timing: CircuitTiming, clk: Optional[float] = None
) -> List[Tuple[Path, float]]:
    """Rank paths by statistical criticality.

    With ``clk`` given, the score is ``Prob(TL(p) > clk)`` (the critical
    probability of Definition D.6 applied to the path's timing length);
    otherwise the mean timing length.  Returns (path, score) pairs sorted
    by decreasing score.
    """
    scored = []
    for path in paths:
        length = path.timing_length(timing)
        score = length.critical_probability(clk) if clk is not None else length.mean
        scored.append((path, float(score)))
    return sorted(scored, key=lambda item: -item[1])
