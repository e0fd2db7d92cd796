"""Pattern-set containers and the diagnostic pattern-generation flow.

:class:`PatternPairSet` is the two-vector test-set object every downstream
tool consumes (dynamic simulation, dictionary construction, defect
simulation).  :func:`generate_path_tests` implements the paper's H-4 recipe:

    "For the injected fault and circuit instance, we find a set of 'longest'
    paths through the fault site and generate path delay tests for them ...
    robust or non-robust patterns derived without considering timing."

plus a random two-vector fallback so a usable pattern set always exists
(mirroring the paper's observation that pattern quality bounds diagnosis
quality — the fallback produces deliberately mediocre patterns and is used
by the pattern-quality ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.netlist import Circuit, Edge
from ..rng import RngLike, coerce_rng
from ..paths.enumerate import (
    k_longest_paths_through,
    longest_delay_tables,
    sample_path_through,
)
from ..paths.model import Path
from ..paths.sensitization import Sensitization
from ..timing.instance import CircuitTiming
from .justify import Justifier
from .pathdelay import PathTest, generate_test_for_path

__all__ = ["PatternPairSet", "generate_path_tests", "random_pattern_pairs"]


@dataclass
class PatternPairSet:
    """An ordered set of two-vector delay tests.

    ``pairs`` has shape ``(n_tests, 2, n_inputs)``; ``sources`` records per
    test where it came from (the targeted path, or ``None`` for random
    fill-ins).  Duplicate vector pairs are rejected at ``append`` time.
    """

    circuit: Circuit
    pairs: np.ndarray = None  # type: ignore[assignment]
    sources: List[Optional[Path]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.pairs is None:
            self.pairs = np.zeros((0, 2, len(self.circuit.inputs)), dtype=np.int8)
        self.pairs = np.asarray(self.pairs, dtype=np.int8)
        if self.pairs.ndim != 3 or self.pairs.shape[1] != 2:
            raise ValueError("pairs must have shape (n, 2, n_inputs)")
        if len(self.sources) != self.pairs.shape[0]:
            self.sources = list(self.sources) + [None] * (
                self.pairs.shape[0] - len(self.sources)
            )

    def __len__(self) -> int:
        return self.pairs.shape[0]

    def __iter__(self):
        for index in range(len(self)):
            yield self.pair(index)

    def pair(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.pairs[index, 0], self.pairs[index, 1]

    def append(self, v1: Sequence[int], v2: Sequence[int], source: Optional[Path] = None) -> bool:
        """Add a test; returns False (and skips) when it is a duplicate."""
        candidate = np.asarray([v1, v2], dtype=np.int8).reshape(1, 2, -1)
        if candidate.shape[2] != len(self.circuit.inputs):
            raise ValueError("vector width does not match the circuit inputs")
        if len(self) and (self.pairs == candidate).all(axis=(1, 2)).any():
            return False
        self.pairs = np.concatenate([self.pairs, candidate], axis=0)
        self.sources.append(source)
        return True

    def target_observations(self) -> List[Tuple[int, str]]:
        """(pattern index, output net) endpoints of the targeted paths.

        These are the observation points diagnosis clock calibration should
        be tightened against; random fill-in patterns contribute none.
        """
        return [
            (index, source.nets[-1])
            for index, source in enumerate(self.sources)
            if source is not None
        ]

    def extend_random(self, count: int, rng: np.random.Generator) -> int:
        """Append ``count`` random two-vector tests; returns how many stuck."""
        added = 0
        guard = 0
        while added < count and guard < 20 * count + 20:
            guard += 1
            v1 = rng.integers(0, 2, len(self.circuit.inputs))
            v2 = rng.integers(0, 2, len(self.circuit.inputs))
            if self.append(v1, v2):
                added += 1
        return added


def generate_path_tests(
    timing: CircuitTiming,
    site: Union[Edge, str],
    n_paths: int = 10,
    criterion: Sensitization = Sensitization.ROBUST,
    rng_seed: int = 0,
    pad_random: int = 0,
    justifier: Optional[Justifier] = None,
    rng: Optional[RngLike] = None,
) -> Tuple[PatternPairSet, List[PathTest]]:
    """Pattern set for the ``n_paths`` longest paths through ``site``.

    Per path: try the requested criterion first, fall back to non-robust
    (paper: "robust or non-robust patterns").  Untestable (false) paths are
    skipped — the false-path-aware selection of [17].  ``pad_random`` extra
    random pairs can be appended (used by ablations, not the main flow).

    ``rng`` threads an explicit stream through the search — pass
    ``space.child_rng(...)`` for parallel-safe generation; the default is
    the legacy ``CompatRandom(rng_seed)`` stream (bit-identical to the
    historical behavior).
    """
    circuit = timing.circuit
    pad_rng = (
        rng if isinstance(rng, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    rng = coerce_rng(rng, rng_seed)
    justifier = justifier or Justifier(circuit)
    pattern_set = PatternPairSet(circuit)
    tests: List[PathTest] = []
    attempted = set()

    def try_path(path: Path) -> None:
        # Cheap robust attempt first, a somewhat deeper non-robust fallback:
        # robust constraint sets on false-ish paths are usually UNSAT and
        # burn the whole backtrack budget, so keep that budget small.
        if path.nets in attempted:
            return
        attempted.add(path.nets)
        test = generate_test_for_path(
            circuit, path, criterion=criterion, rng=rng, justifier=justifier,
            backtrack_limit=30,
        )
        if test is None and criterion is Sensitization.ROBUST:
            test = generate_test_for_path(
                circuit,
                path,
                criterion=Sensitization.NON_ROBUST,
                rng=rng,
                justifier=justifier,
                backtrack_limit=80,
            )
        if test is not None and pattern_set.append(test.v1, test.v2, source=path):
            tests.append(test)

    # Phase 1: the longest paths through the site are frequently false
    # (untestable) — over-fetch exact candidates and keep what tests.
    for path in k_longest_paths_through(timing, site, k=max(2 * n_paths, 10)):
        if len(tests) >= n_paths:
            break
        try_path(path)

    # Phase 2: randomized longest-biased walks; the bias decays so repeated
    # failures fall back toward shorter, easier-to-sensitize paths.  This is
    # the practical realization of H-4's "find a set of longest [testable]
    # paths through the fault site".
    if len(tests) < n_paths:
        tables = longest_delay_tables(timing, site)
        max_attempts = 12 * n_paths
        for attempt in range(max_attempts):
            if len(tests) >= n_paths:
                break
            bias = max(0.0, 0.9 * (1.0 - attempt / max_attempts))
            path = sample_path_through(timing, site, rng, bias=bias, tables=tables)
            try_path(path)

    if pad_random:
        pattern_set.extend_random(pad_random, pad_rng)
    return pattern_set, tests


def random_pattern_pairs(
    circuit: Circuit, count: int, seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> PatternPairSet:
    """A purely random two-vector pattern set (baseline / ablation)."""
    pattern_set = PatternPairSet(circuit)
    pattern_set.extend_random(count, rng or np.random.default_rng(seed))
    return pattern_set
