"""Unit tests for path objects and longest-path selection."""

import numpy as np
import pytest

from repro.circuits import Edge
from repro.paths import (
    Path,
    k_longest_paths,
    k_longest_paths_through,
    longest_delay_tables,
    rank_statistically,
    sample_path_through,
)


def brute_force_paths(circuit):
    """All complete input->output paths, by DFS."""
    paths = []

    def extend(prefix):
        net = prefix[-1]
        if net in circuit.outputs:
            paths.append(tuple(prefix))
        for edge in circuit.fanouts[net]:
            extend(prefix + [edge.sink])

    for net in circuit.inputs:
        extend([net])
    return paths


class TestPathObject:
    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            Path(("a",))

    def test_edges_and_str(self, c17):
        path = Path(("1", "10", "22"))
        assert path.edges(c17) == [Edge("1", "10", 0), Edge("10", "22", 0)]
        assert str(path) == "1 -> 10 -> 22"
        assert len(path) == 3

    def test_non_adjacent_rejected(self, c17):
        with pytest.raises(ValueError, match="does not drive"):
            Path(("1", "22")).edges(c17)

    def test_validate(self, c17):
        Path(("1", "10", "22")).validate(c17)
        with pytest.raises(ValueError, match="primary input"):
            Path(("10", "22")).validate(c17)
        with pytest.raises(ValueError, match="primary output"):
            Path(("1", "10")).validate(c17)

    def test_timing_length_is_sum(self, c17_timing):
        path = Path(("1", "10", "22"))
        length = path.timing_length(c17_timing)
        expected = (
            c17_timing.delays[c17_timing.edge_index[Edge("1", "10", 0)]]
            + c17_timing.delays[c17_timing.edge_index[Edge("10", "22", 0)]]
        )
        assert np.allclose(length.samples, expected)

    def test_contains_edge(self, c17):
        path = Path(("1", "10", "22"))
        assert path.contains_edge(c17, Edge("1", "10", 0))
        assert not path.contains_edge(c17, Edge("3", "10", 1))


class TestKLongest:
    def test_matches_brute_force_on_c17(self, c17_timing):
        circuit = c17_timing.circuit
        all_paths = brute_force_paths(circuit)
        lengths = {
            nets: Path(nets).timing_length(c17_timing).mean for nets in all_paths
        }
        expected = sorted(lengths.values(), reverse=True)[:4]
        got = [p.nominal_length(c17_timing) for p in k_longest_paths(c17_timing, 4)]
        assert np.allclose(sorted(got, reverse=True), expected, rtol=1e-9)

    def test_through_edge_contains_edge(self, c17_timing):
        circuit = c17_timing.circuit
        edge = Edge("11", "16", 1)
        paths = k_longest_paths_through(c17_timing, edge, 3)
        assert paths
        for path in paths:
            path.validate(circuit)
            assert edge in path.edges(circuit)

    def test_through_edge_matches_brute_force(self, c17_timing):
        circuit = c17_timing.circuit
        edge = Edge("3", "11", 0)
        expected = sorted(
            (
                Path(nets).timing_length(c17_timing).mean
                for nets in brute_force_paths(circuit)
                if edge in Path(nets).edges(circuit)
            ),
            reverse=True,
        )[:3]
        got = sorted(
            (p.nominal_length(c17_timing) for p in
             k_longest_paths_through(c17_timing, edge, 3)),
            reverse=True,
        )
        assert np.allclose(got, expected, rtol=1e-9)

    def test_through_net(self, c17_timing):
        paths = k_longest_paths_through(c17_timing, "16", 3)
        for path in paths:
            assert "16" in path.nets

    def test_descending_order(self, small_timing):
        paths = k_longest_paths(small_timing, 6)
        lengths = [p.nominal_length(small_timing) for p in paths]
        assert all(a >= b - 1e-9 for a, b in zip(lengths, lengths[1:]))

    def test_no_duplicates(self, small_timing):
        paths = k_longest_paths(small_timing, 8)
        assert len({p.nets for p in paths}) == len(paths)


class TestSampler:
    def test_sampled_paths_valid_and_through_site(self, small_timing):
        import random

        circuit = small_timing.circuit
        rng = random.Random(0)
        tables = longest_delay_tables(small_timing)
        edge = circuit.edges[len(circuit.edges) // 2]
        for _ in range(20):
            path = sample_path_through(small_timing, edge, rng, bias=0.5, tables=tables)
            path.validate(circuit)
            assert edge in path.edges(circuit)

    def test_bias_one_gives_longest(self, small_timing):
        import random

        rng = random.Random(0)
        edge = small_timing.circuit.edges[10]
        exact = k_longest_paths_through(small_timing, edge, 1)[0]
        sampled = sample_path_through(small_timing, edge, rng, bias=1.0)
        assert sampled.nominal_length(small_timing) == pytest.approx(
            exact.nominal_length(small_timing), rel=1e-9
        )

    def test_tables_consistent_with_k_longest(self, c17_timing):
        prefix, suffix = longest_delay_tables(c17_timing)
        best = max(
            prefix[o] for o in c17_timing.circuit.outputs
        )
        longest = k_longest_paths(c17_timing, 1)[0]
        assert best == pytest.approx(longest.nominal_length(c17_timing), rel=1e-9)
        # suffix at an input equals longest full path from that input
        for net in c17_timing.circuit.inputs:
            assert suffix[net] >= 0.0


class TestConeRestrictedTables:
    """Cone-restricted DP tables equal the whole-circuit tables.

    A net's prefix entries depend only on its fanin cone and its suffix
    entries only on its fanout cone, so building over the site's cones
    must reproduce the whole-circuit entries exactly (same floats, same
    tie order), for edge and net-name sites alike.
    """

    K = 4

    @staticmethod
    def _sites(circuit, stride=1):
        edges = circuit.edges[::stride]
        nets = [e.sink for e in edges[:: max(1, len(edges) // 8)]]
        return list(edges) + nets

    def _check(self, timing, stride=1):
        from repro.paths.enumerate import (
            _mean_edge_delays,
            _site_ends,
            _top_k_prefixes,
            _top_k_suffixes,
        )

        circuit = timing.circuit
        delays = _mean_edge_delays(timing)
        order = circuit.topological_order
        prefixes = _top_k_prefixes(circuit, delays, self.K, order)
        suffixes = _top_k_suffixes(circuit, delays, self.K, order)
        prefix, suffix = longest_delay_tables(timing)
        for site in self._sites(circuit, stride):
            source, sink = _site_ends(site)
            fanin, fanout = circuit.fanin_cone(source), circuit.fanout_cone(sink)
            cone_prefixes = _top_k_prefixes(circuit, delays, self.K, fanin)
            cone_suffixes = _top_k_suffixes(circuit, delays, self.K, fanout)
            assert cone_prefixes == {net: prefixes[net] for net in fanin}
            assert cone_suffixes == {net: suffixes[net] for net in fanout}
            cone_prefix, cone_suffix = longest_delay_tables(timing, site)
            assert cone_prefix == {net: prefix[net] for net in fanin}
            assert cone_suffix == {net: suffix[net] for net in fanout}

    def test_every_edge_of_c17(self, c17_timing):
        self._check(c17_timing)

    def test_every_edge_of_s27(self, s27):
        from repro.timing import CircuitTiming, SampleSpace

        self._check(CircuitTiming(s27, SampleSpace(n_samples=30, seed=2)))

    def test_strided_edges_of_s1196(self, bench_timing):
        self._check(bench_timing, stride=37)

    def test_site_tables_drive_the_same_walks(self, bench_timing):
        import random

        circuit = bench_timing.circuit
        whole = longest_delay_tables(bench_timing)
        for site in self._sites(circuit, stride=97):
            for bias in (1.0, 0.5):
                walks = [
                    sample_path_through(
                        bench_timing, site, random.Random(7), bias=bias,
                        tables=tables,
                    )
                    for tables in (whole, None)
                ]
                assert walks[0] == walks[1]


class TestStatisticalRanking:
    def test_rank_by_mean_matches_nominal(self, c17_timing):
        paths = k_longest_paths(c17_timing, 4)
        ranked = rank_statistically(paths, c17_timing)
        scores = [score for _p, score in ranked]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert ranked[0][1] == pytest.approx(paths[0].nominal_length(c17_timing))

    def test_rank_by_criticality(self, c17_timing):
        paths = k_longest_paths(c17_timing, 4)
        clk = paths[0].timing_length(c17_timing).quantile(0.5)
        ranked = rank_statistically(paths, c17_timing, clk=clk)
        assert all(0.0 <= score <= 1.0 for _p, score in ranked)
        scores = [score for _p, score in ranked]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
