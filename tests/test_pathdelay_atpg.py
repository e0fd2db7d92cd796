"""Unit tests for path-delay constraint construction and test generation."""

import random

import pytest

from repro.atpg import build_path_constraints, generate_test_for_path
from repro.circuits import Circuit, GateType
from repro.paths import Path, Sensitization, classify_path_sensitization


def and_or_chain():
    """a --AND(b)--> g1 --OR(c)--> g2 (PO)."""
    c = Circuit("aoc")
    for net in ("a", "b", "c"):
        c.add_input(net)
    c.add_gate("g1", GateType.AND, ["a", "b"])
    c.add_gate("g2", GateType.OR, ["g1", "c"])
    c.mark_output("g2")
    return c.freeze()


class TestConstraintBuilder:
    def test_robust_rising_through_and(self):
        c = and_or_chain()
        path = Path(("a", "g1", "g2"))
        variants = list(
            build_path_constraints(c, path, True, Sensitization.ROBUST)
        )
        assert len(variants) == 1
        cons = variants[0]
        # a rises (to the AND's non-controlling value): side input b must be
        # steady non-controlling (1,1).  g1 rises INTO the OR's controlling
        # value, so the Lin-Reddy X->nc rule applies to c: only the final
        # value is pinned, the first frame stays free.
        assert cons[("a", 0)] == 0 and cons[("a", 1)] == 1
        assert cons[("b", 0)] == 1 and cons[("b", 1)] == 1
        assert cons[("g1", 0)] == 0 and cons[("g1", 1)] == 1
        assert ("c", 0) not in cons
        assert cons[("c", 1)] == 0
        assert cons[("g2", 1)] == 1

    def test_non_robust_relaxes_first_frame(self):
        c = and_or_chain()
        path = Path(("a", "g1", "g2"))
        cons = next(
            iter(build_path_constraints(c, path, True, Sensitization.NON_ROBUST))
        )
        assert ("b", 0) not in cons  # only the final value is pinned
        assert cons[("b", 1)] == 1

    def test_transition_to_controlling_needs_only_final_nc(self):
        c = and_or_chain()
        path = Path(("a", "g1", "g2"))
        # falling launch: a 1->0 is a transition TO the AND's controlling
        # value, so b needs nc only in frame 2 even under ROBUST
        cons = next(
            iter(build_path_constraints(c, path, False, Sensitization.ROBUST))
        )
        assert ("b", 0) not in cons
        assert cons[("b", 1)] == 1
        # g1 falls: 1->0; OR side input c: g1's transition is to OR's
        # non-controlling value -> robust requires steady (0,0)
        assert cons[("c", 0)] == 0 and cons[("c", 1)] == 0

    def test_polarity_through_inverting_gate(self, c17):
        path = Path(("1", "10", "22"))
        cons = next(
            iter(build_path_constraints(c17, path, True, Sensitization.NON_ROBUST))
        )
        assert cons[("1", 1)] == 1
        assert cons[("10", 1)] == 0  # NAND inverts
        assert cons[("22", 1)] == 1  # inverted again

    def test_xor_produces_two_variants(self):
        c = Circuit("x")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("g", GateType.XOR, ["a", "b"])
        c.mark_output("g")
        c.freeze()
        variants = list(
            build_path_constraints(c, Path(("a", "g")), True, Sensitization.ROBUST)
        )
        assert len(variants) == 2
        phases = sorted(v[("b", 0)] for v in variants)
        assert phases == [0, 1]
        for v in variants:
            assert v[("b", 0)] == v[("b", 1)]  # steady side

    def test_direct_self_conflict_prunes_variant(self):
        # the on-path net itself reappears as a side input of a later
        # on-path gate with a contradictory requirement: the builder sees
        # the clash on the shared net directly and kills the variant.
        c = Circuit("conflict")
        c.add_input("a")
        c.add_gate("g1", GateType.AND, ["a", "a"])  # a feeds both pins
        c.add_gate("g2", GateType.AND, ["g1", "a"])  # 'a' again as side input
        c.mark_output("g2")
        c.freeze()
        # on-path a rising: (a,0)=0,(a,1)=1; at g2 the side input 'a' would
        # need steady nc (1,1) for robust propagation of g1's rise -> clash.
        variants = list(
            build_path_constraints(
                c, Path(("a", "g1", "g2")), True, Sensitization.ROBUST
            )
        )
        assert variants == []

    def test_logic_level_conflict_left_to_justifier(self):
        # a and NOT(a) conflict is invisible to the builder (different
        # nets) but the justifier proves it unsatisfiable.
        from repro.atpg import Justifier

        c = Circuit("conflict2")
        c.add_input("a")
        c.add_gate("inv", GateType.NOT, ["a"])
        c.add_gate("g1", GateType.AND, ["a", "inv"])
        c.mark_output("g1")
        c.freeze()
        variants = list(
            build_path_constraints(
                c, Path(("a", "g1")), True, Sensitization.ROBUST
            )
        )
        assert len(variants) == 1
        assert not Justifier(c).justify(variants[0]).success

    def test_bad_criterion_rejected(self, c17):
        with pytest.raises(ValueError):
            list(
                build_path_constraints(
                    c17, Path(("1", "10", "22")), True, Sensitization.FUNCTIONAL
                )
            )


class TestGeneration:
    def test_generated_test_achieves_criterion(self, c17):
        path = Path(("3", "11", "16", "23"))
        test = generate_test_for_path(c17, path, Sensitization.NON_ROBUST)
        assert test is not None
        val1 = c17.evaluate(dict(zip(c17.inputs, test.v1)))
        val2 = c17.evaluate(dict(zip(c17.inputs, test.v2)))
        achieved = classify_path_sensitization(c17, path, val1, val2)
        assert achieved.at_least(Sensitization.NON_ROBUST)
        assert test.achieved is achieved or achieved.at_least(test.achieved)

    def test_robust_when_possible(self, c17):
        path = Path(("1", "10", "22"))
        test = generate_test_for_path(c17, path, Sensitization.ROBUST)
        assert test is not None
        assert test.achieved is Sensitization.ROBUST

    def test_impossible_path_returns_none(self):
        c = Circuit("conflict")
        c.add_input("a")
        c.add_gate("inv", GateType.NOT, ["a"])
        c.add_gate("g1", GateType.AND, ["a", "inv"])
        c.mark_output("g1")
        c.freeze()
        assert (
            generate_test_for_path(c, Path(("a", "g1")), Sensitization.ROBUST)
            is None
        )

    def test_implication_rejects_counted(self, c17):
        """Constraint sets refuted before PODEM are counted."""
        from repro import obs

        conflict = Circuit("conflict")
        conflict.add_input("a")
        conflict.add_gate("inv", GateType.NOT, ["a"])
        conflict.add_gate("g1", GateType.AND, ["a", "inv"])
        conflict.mark_output("g1")
        conflict.freeze()
        cases = [
            (c17, Path(("1", "10", "22")), True),
            (conflict, Path(("a", "g1")), False),
        ]
        for circuit, path, testable in cases:
            with obs.use_recorder(obs.Recorder()) as recorder:
                test = generate_test_for_path(circuit, path, Sensitization.ROBUST)
            rejects = recorder.counter_value("atpg.implication_rejects")
            assert (test is not None) == testable
            assert rejects == 0 if testable else rejects >= 1

    def test_benchmark_paths(self, bench_timing):
        """Every generated test on a benchmark verifies against its claim.

        The globally longest paths of a reconvergent circuit are usually
        false, so sample moderately-biased random paths instead.
        """
        from repro.paths import longest_delay_tables, sample_path_through

        circuit = bench_timing.circuit
        rng = random.Random(0)
        tables = longest_delay_tables(bench_timing)
        produced = 0
        for attempt in range(15):
            edge = circuit.edges[(attempt * 61) % len(circuit.edges)]
            path = sample_path_through(
                bench_timing, edge, rng, bias=0.3, tables=tables
            )
            test = generate_test_for_path(
                circuit, path, Sensitization.NON_ROBUST, rng=rng
            )
            if test is None:
                continue
            produced += 1
            val1 = circuit.evaluate(dict(zip(circuit.inputs, test.v1)))
            val2 = circuit.evaluate(dict(zip(circuit.inputs, test.v2)))
            achieved = classify_path_sensitization(circuit, path, val1, val2)
            assert achieved.at_least(Sensitization.NON_ROBUST)
        assert produced >= 3

    def test_as_pair(self, c17):
        test = generate_test_for_path(
            c17, Path(("1", "10", "22")), Sensitization.NON_ROBUST
        )
        v1, v2 = test.as_pair()
        assert v1.shape == (5,) and v2.shape == (5,)


class TestPinnedDigest:
    """``generate_path_tests`` output and its settled values, pinned.

    Strided edge sites plus one net-name site on s1196 and s5378, hashed
    with the pairs, the sources, each test's achieved class and launch
    polarity, and both frames of every net under ``simulate_pattern_set``.
    Any change to path selection, constraint building, justification,
    fill or logic evaluation moves the digest.
    """

    PINNED = {
        "s1196": "a3ed9efc60007c6e06bc44dc80331264483600aab7d485b1796ae1c4fd8154cd",
        "s5378": "cfe9c0cc24f59eb9b0c1dec7a51e999c46a2203248e4a7d0e1ca9e85b04e3af1",
    }
    STRIDES = {"s1196": 97, "s5378": 331}

    @staticmethod
    def digest(name, stride, n_edge_sites=6):
        import hashlib

        from repro.atpg import generate_path_tests
        from repro.circuits import load_benchmark
        from repro.timing import CircuitTiming, SampleSpace
        from repro.timing.critical import simulate_pattern_set

        circuit = load_benchmark(name)
        timing = CircuitTiming(circuit, SampleSpace(n_samples=16, seed=0))
        edges = circuit.edges
        sites = [edges[(i * stride) % len(edges)] for i in range(n_edge_sites)]
        sites.append(edges[len(edges) // 2].sink)
        order = circuit.topological_order
        h = hashlib.sha256()
        for index, site in enumerate(sites):
            patterns, tests = generate_path_tests(
                timing, site, n_paths=3, rng_seed=index
            )
            h.update(repr(site).encode())
            h.update(patterns.pairs.tobytes())
            h.update(repr([
                None if source is None else source.nets
                for source in patterns.sources
            ]).encode())
            h.update(repr([
                (test.path.nets, test.achieved.name, test.rising_at_input)
                for test in tests
            ]).encode())
            for sim in simulate_pattern_set(timing, list(patterns)):
                h.update(bytes(sim.val1[net] for net in order))
                h.update(bytes(sim.val2[net] for net in order))
        return h.hexdigest()

    @pytest.mark.parametrize("name", ["s1196", "s5378"])
    def test_digest_is_pinned(self, name):
        assert self.digest(name, self.STRIDES[name]) == self.PINNED[name]
