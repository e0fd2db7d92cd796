"""Unit tests for broadside (launch-on-capture) test generation."""

import random

import pytest

from repro.atpg import (
    broadside_expand,
    generate_broadside_test,
    generate_test_for_path,
)
from repro.circuits import GateType, load_benchmark
from repro.paths import (
    Path,
    Sensitization,
    classify_path_sensitization,
    k_longest_paths_through,
)
from repro.timing import CircuitTiming, SampleSpace


@pytest.fixture(scope="module")
def s27_scan():
    return load_benchmark("s27")


@pytest.fixture(scope="module")
def s27_timing(s27_scan):
    return CircuitTiming(s27_scan, SampleSpace(50, 0))


class TestScanPairs:
    def test_s27_pairs_from_unroll(self, s27_scan):
        assert s27_scan.scan_pairs == [
            ("G5", "G10"), ("G6", "G11"), ("G7", "G13"),
        ]

    def test_synthetic_pairs_match_profile(self):
        from repro.circuits import PROFILES

        circuit = load_benchmark("s1196", seed=0)
        profile = PROFILES["s1196"]
        assert len(circuit.scan_pairs) == profile.published_dffs
        for ppi, ppo in circuit.scan_pairs:
            assert ppi in circuit.inputs
            assert ppo in circuit.outputs

    def test_combinational_circuit_has_no_pairs(self, c17):
        assert c17.scan_pairs == []


class TestExpansion:
    def test_structure(self, s27_scan):
        model = broadside_expand(s27_scan)
        expanded = model.expanded
        # frame0: all 7 inputs; frame1: only the 4 true PIs are free
        assert len(expanded.inputs) == 7 + 4
        assert len(expanded.outputs) == len(s27_scan.outputs)
        # captured state inputs are buffers of frame-0 next-state nets
        gate = expanded.gates[model.frame1("G5")]
        assert gate.gate_type is GateType.BUF
        assert gate.fanins == [model.frame0("G10")]

    def test_capture_relation_holds_functionally(self, s27_scan):
        import numpy as np

        from repro.logic import simulate

        model = broadside_expand(s27_scan)
        expanded = model.expanded
        rng = np.random.default_rng(0)
        patterns = rng.integers(0, 2, size=(32, len(expanded.inputs)))
        result = simulate(expanded, patterns)
        # f1:ppi always equals f0:ppo
        for ppi, ppo in s27_scan.scan_pairs:
            a = result.values(model.frame1(ppi))
            b = result.values(model.frame0(ppo))
            assert (a == b).all()

    def test_requires_scan_pairs(self, c17):
        with pytest.raises(ValueError, match="scan pairs"):
            broadside_expand(c17)


class TestGeneration:
    def test_tests_are_capture_consistent(self, s27_scan, s27_timing):
        model = broadside_expand(s27_scan)
        produced = 0
        for edge in s27_scan.edges:
            for path in k_longest_paths_through(s27_timing, edge, 3):
                test = generate_broadside_test(
                    s27_scan, path, Sensitization.NON_ROBUST, model=model
                )
                if test is None:
                    continue
                produced += 1
                settled = s27_scan.evaluate(dict(zip(s27_scan.inputs, test.v1)))
                for ppi, ppo in s27_scan.scan_pairs:
                    assert test.v2[s27_scan.inputs.index(ppi)] == settled[ppo]
                val2 = s27_scan.evaluate(dict(zip(s27_scan.inputs, test.v2)))
                achieved = classify_path_sensitization(
                    s27_scan, path, settled, val2
                )
                assert achieved.at_least(Sensitization.NON_ROBUST)
                break
        assert produced >= 10  # most s27 sites are broadside-testable

    def test_broadside_never_easier_than_skewed_load(self, s27_scan, s27_timing):
        """Broadside reachability is a subset of skewed-load reachability."""
        model = broadside_expand(s27_scan)
        rng = random.Random(0)
        for edge in s27_scan.edges[:10]:
            for path in k_longest_paths_through(s27_timing, edge, 2):
                broadside = generate_broadside_test(
                    s27_scan, path, Sensitization.NON_ROBUST, model=model
                )
                if broadside is not None:
                    skewed = generate_test_for_path(
                        s27_scan, path, Sensitization.NON_ROBUST,
                        rng=rng, backtrack_limit=300,
                    )
                    assert skewed is not None, str(path)

    def test_untestable_returns_none(self, s27_scan):
        # a path that is not even statically sensitizable broadside-wise:
        # use an arbitrary path and the ROBUST criterion with zero budget
        model = broadside_expand(s27_scan)
        path = Path(("G0", "G14", "G10"))
        result = generate_broadside_test(
            s27_scan, path, Sensitization.ROBUST, model=model, backtrack_limit=0
        )
        assert result is None or result.achieved.at_least(Sensitization.ROBUST)


class TestPinnedDigest:
    """``generate_broadside_test`` outputs, pinned.

    The ``k_longest_paths_through`` paths of strided edge sites on s27 and
    s1196, both criteria, each call on its own seeded stream; hashes each
    test's path, ``v1``, ``v2`` and achieved class (or its absence).  Any
    change to constraint mapping, justification, fill or the capture
    check moves the digest.
    """

    PINNED = {
        "s27": "59fa8518371f069ddfad381a439679302c7adec91015cb7142bf215d17a519cd",
        "s1196": "2622c7a449645c8d053438dbbf532e4db2e0d5aa9f2d72ec85a6cc9f7bc5e896",
    }
    STRIDES = {"s27": 5, "s1196": 97}

    @staticmethod
    def digest(name, stride, n_sites=6, k=3):
        import hashlib

        circuit = load_benchmark(name)
        timing = CircuitTiming(circuit, SampleSpace(n_samples=16, seed=0))
        model = broadside_expand(circuit)
        edges = circuit.edges
        h = hashlib.sha256()
        for i in range(n_sites):
            site = edges[(i * stride) % len(edges)]
            for j, path in enumerate(k_longest_paths_through(timing, site, k=k)):
                for criterion in (Sensitization.ROBUST, Sensitization.NON_ROBUST):
                    test = generate_broadside_test(
                        circuit, path, criterion, model=model,
                        rng=random.Random(1000 * i + j),
                    )
                    if test is None:
                        h.update(b"none")
                    else:
                        h.update(repr((
                            test.path.nets, test.v1, test.v2, test.achieved.name,
                        )).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("name", ["s27", "s1196"])
    def test_digest_is_pinned(self, name):
        assert self.digest(name, self.STRIDES[name]) == self.PINNED[name]
