"""The observability layer: spans, counters, convergence, manifests.

Three properties carry the layer's whole value and are pinned here:

* correctness of the aggregation — span trees nest and merge exactly,
  counters are atomic under threads, convergence meters match numpy and
  merge shard-order-independently,
* the disabled mode is a true no-op — no state, no tree, shared span
  context, no clock read, no lock — so leaving instrumentation calls in
  hot paths is free,
* the run manifest is schema-stable — validated positively and
  negatively, and its *skeleton* (names only, no measured values) is
  pinned by a golden fixture so instrumentation drift fails loudly.
"""

import asyncio
import json
import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.parallel import ParallelConfig, map_chunked
from repro.lint import check_manifest

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "obs")
GOLDEN_MANIFEST = os.path.join(FIXTURE_DIR, "golden_manifest.json")

#: The deterministic workload the golden fixture pins (small => fast).
GOLDEN_ARGS = ["profile", "s27", "--samples", "60", "--seed", "0"]


def _scaled_indices(payload, indices):
    """Picklable chunk worker for the map_chunked tests."""
    return [payload * index for index in indices]


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_builds_a_tree(self):
        recorder = obs.Recorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
            with recorder.span("inner"):
                pass
        snap = recorder.snapshot()
        assert [node["name"] for node in snap["spans"]] == ["outer"]
        outer = snap["spans"][0]
        assert outer["count"] == 1
        (inner,) = outer["children"]
        assert (inner["name"], inner["count"]) == ("inner", 2)
        assert outer["total_s"] >= inner["total_s"] >= 0.0
        assert recorder.span_depth() == 2

    def test_same_name_at_different_depths_stays_separate(self):
        recorder = obs.Recorder()
        with recorder.span("a"):
            with recorder.span("a"):
                pass
        (root,) = recorder.snapshot()["spans"]
        assert root["count"] == 1 and root["children"][0]["count"] == 1

    def test_exception_still_closes_span(self):
        recorder = obs.Recorder()
        with pytest.raises(RuntimeError):
            with recorder.span("boom"):
                raise RuntimeError("x")
        (node,) = recorder.snapshot()["spans"]
        assert node["count"] == 1
        with recorder.span("after"):
            pass
        assert recorder.span_depth() == 1  # the stack was not corrupted

    def test_worker_thread_spans_attach_at_root(self):
        recorder = obs.Recorder()

        def work():
            with recorder.span("thread.work"):
                pass

        with recorder.span("main"):
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        names = {node["name"]: node for node in recorder.snapshot()["spans"]}
        # each thread nests from its own context: no cross-thread parenting
        assert set(names) == {"main", "thread.work"}
        assert names["thread.work"]["count"] == 4

    def test_concurrent_asyncio_tasks_do_not_nest(self):
        # Spans held across `await` on one thread must nest per task: the
        # service's request spans interleave exactly like this.
        recorder = obs.Recorder()

        async def serve():
            for _ in range(200):
                with recorder.span("service.request"):
                    await asyncio.sleep(0)

        async def main():
            await asyncio.gather(serve(), serve())

        asyncio.run(main())
        assert recorder.span_depth() == 1
        (node,) = recorder.snapshot()["spans"]
        assert (node["name"], node["count"]) == ("service.request", 400)


class TestCounters:
    def test_count_accumulates_and_gauge_overwrites(self):
        recorder = obs.Recorder()
        recorder.count("hits")
        recorder.count("hits", 2)
        recorder.gauge("workers", 4)
        recorder.gauge("workers", 8)
        snap = recorder.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["gauges"]["workers"] == 8.0
        assert recorder.counter_value("hits") == 3
        assert recorder.counter_value("missing") == 0

    def test_counter_atomic_under_threads(self):
        recorder = obs.Recorder()
        n_threads, per_thread = 8, 2000

        def bump():
            for _ in range(per_thread):
                recorder.count("shared")

        threads = [threading.Thread(target=bump) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert recorder.counter_value("shared") == n_threads * per_thread


# ----------------------------------------------------------------------
# convergence meters
# ----------------------------------------------------------------------
class TestConvergenceStat:
    def test_matches_numpy_moments(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(3.0, 2.0, size=500)
        stat = obs.ConvergenceStat()
        stat.update(samples)
        assert stat.count == 500
        assert stat.mean == pytest.approx(samples.mean())
        assert stat.variance == pytest.approx(samples.var(ddof=1))
        assert stat.std_error == pytest.approx(
            samples.std(ddof=1) / np.sqrt(500)
        )
        assert stat.ess == pytest.approx(500.0)

    def test_batched_equals_single_shot(self):
        rng = np.random.default_rng(1)
        samples = rng.exponential(1.5, size=301)
        whole = obs.ConvergenceStat()
        whole.update(samples)
        pieces = obs.ConvergenceStat()
        for chunk in np.array_split(samples, 7):
            pieces.update(chunk)
        assert pieces.count == whole.count
        assert pieces.mean == pytest.approx(whole.mean)
        assert pieces.variance == pytest.approx(whole.variance)

    def test_merge_equals_single_stream(self):
        rng = np.random.default_rng(2)
        a_samples, b_samples = rng.normal(size=200), rng.normal(size=130)
        merged = obs.ConvergenceStat()
        merged.update(a_samples)
        shard = obs.ConvergenceStat()
        shard.update(b_samples)
        merged.merge(shard.to_payload())  # via the snapshot wire format
        single = obs.ConvergenceStat()
        single.update(np.concatenate([a_samples, b_samples]))
        assert merged.count == single.count
        assert merged.mean == pytest.approx(single.mean)
        assert merged.variance == pytest.approx(single.variance)
        assert merged.std_error == pytest.approx(single.std_error)

    def test_skewed_weights_shrink_ess(self):
        values = np.arange(10.0)
        uniform = obs.ConvergenceStat()
        uniform.update(values, np.ones(10))
        skewed = obs.ConvergenceStat()
        skewed.update(values, np.array([100.0] + [0.01] * 9))
        assert uniform.ess == pytest.approx(10.0)
        assert skewed.ess < 1.1  # one dominant weight ~ one effective draw
        expected = float(
            (np.array([100.0] + [0.01] * 9) * values).sum()
            / np.array([100.0] + [0.01] * 9).sum()
        )
        assert skewed.mean == pytest.approx(expected)

    def test_degenerate_inputs(self):
        stat = obs.ConvergenceStat()
        stat.update(np.array([]))  # empty batch: no-op
        assert stat.count == 0 and stat.std_error == 0.0
        stat.update(5.0)  # scalar batch
        assert (stat.count, stat.mean) == (1, 5.0)
        assert stat.variance == 0.0  # single draw: no spread claim
        with pytest.raises(ValueError):
            stat.update(np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            stat.update(np.ones(3), np.array([1.0, -1.0, 1.0]))


# ----------------------------------------------------------------------
# merging across execution backends
# ----------------------------------------------------------------------
class TestBackendMerging:
    def _run(self, backend):
        recorder = obs.Recorder()
        config = ParallelConfig(backend=backend, n_workers=2, chunk_size=3)
        with obs.use_recorder(recorder):
            items = map_chunked(_scaled_indices, 10, 8, config=config)
        return items, recorder.snapshot()

    def test_items_identical_across_backends(self):
        expected = [10 * index for index in range(8)]
        for backend in ("serial", "process"):
            items, _snap = self._run(backend)
            assert items == expected, backend

    def test_serial_records_directly(self):
        _items, snap = self._run("serial")
        assert snap["counters"]["parallel.serial.chunks"] == 3
        assert snap["counters"]["parallel.serial.items"] == 8
        assert [node["name"] for node in snap["spans"]] == ["parallel.map"]

    def test_process_shards_merge_worker_snapshots(self):
        _items, snap = self._run("process")
        assert snap["counters"]["parallel.process.chunks"] == 3
        assert snap["counters"]["parallel.process.items"] == 8
        names = {node["name"]: node for node in snap["spans"]}
        # the worker-side span rode home in the shard and was merged
        assert names["parallel.chunk"]["count"] == 3
        assert snap["gauges"]["parallel.workers"] == 2.0

    def test_merge_is_additive_for_repeated_shards(self):
        recorder = obs.Recorder()
        shard = {
            "spans": [{"name": "x", "count": 1, "total_s": 0.5}],
            "counters": {"c": 2},
            "gauges": {"g": 1.0},
            "convergence": {},
        }
        recorder.merge(shard)
        recorder.merge(shard)
        snap = recorder.snapshot()
        assert snap["spans"][0]["count"] == 2
        assert snap["spans"][0]["total_s"] == pytest.approx(1.0)
        assert snap["counters"]["c"] == 4
        recorder.merge(None)  # tolerated: a shard with no metrics
        assert recorder.snapshot()["counters"]["c"] == 4


# ----------------------------------------------------------------------
# disabled mode
# ----------------------------------------------------------------------
class TestDisabledMode:
    def test_default_recorder_is_disabled(self):
        recorder = obs.get_recorder()
        assert isinstance(recorder, obs.NullRecorder)
        assert not recorder.enabled and not obs.enabled()

    def test_null_recorder_is_stateless_noop(self, monkeypatch):
        from repro.obs import recorder as recorder_module

        def no_clock():
            raise AssertionError("NullRecorder read the clock")

        # The disabled-cost contract, independent of machine speed: no
        # clock read, no lock, one shared span context.
        monkeypatch.setattr(recorder_module.time, "perf_counter", no_clock)
        recorder = obs.NullRecorder()
        span_a = recorder.span("a")
        span_b = recorder.span("b")
        assert span_a is span_b  # one shared context manager, no allocation
        with span_a:
            recorder.count("x", 5)
            recorder.gauge("y", 1.0)
            recorder.observe("z", np.ones(4))
        assert recorder.counter_value("x") == 0
        assert recorder.meter("z") is None
        assert recorder.span_depth() == 0
        assert recorder.snapshot() == {
            "spans": [], "counters": {}, "gauges": {}, "convergence": {},
        }
        assert not hasattr(recorder, "_lock")  # truly no state behind it

    def test_install_and_use_recorder_scoping(self):
        live = obs.install()
        assert obs.get_recorder() is live and obs.enabled()
        inner = obs.Recorder()
        with obs.use_recorder(inner):
            assert obs.get_recorder() is inner
        assert obs.get_recorder() is live
        obs.disable()
        assert not obs.enabled()

    def test_replay_pruning_counted_only_when_enabled(self, c17_timing):
        """Skipped replays and pruned entries are counted on a live
        recorder; the disabled build records nothing and is bit-identical."""
        from repro.core import build_multi_clock_dictionary
        from repro.timing import simulate_pattern_set

        circuit = c17_timing.circuit
        rng = np.random.default_rng(0)
        patterns = [
            (
                rng.integers(0, 2, len(circuit.inputs)),
                rng.integers(0, 2, len(circuit.inputs)),
            )
            for _ in range(20)
        ]
        sims = simulate_pattern_set(c17_timing, patterns)
        clk = float(np.median([
            sim.stable[net].max()
            for sim in sims
            for net in circuit.outputs
            if sim.transitioned(net)
        ]))

        def build():
            return build_multi_clock_dictionary(
                c17_timing, patterns, [clk, 1.02 * clk], list(circuit.edges),
                np.full(c17_timing.space.n_samples, 0.9),
                base_simulations=sims,
            )

        with obs.use_recorder(obs.Recorder()) as recorder:
            traced = build()
        assert recorder.counter_value("kernel.replays_skipped") > 0
        assert recorder.counter_value("dictionary.entries_pruned") > 0
        assert recorder.counter_value("dynamic.resimulations") > 0
        plain = build()
        assert obs.get_recorder().snapshot()["counters"] == {}
        assert np.array_equal(plain.m_crt, traced.m_crt)
        assert np.array_equal(plain.signature_stack(), traced.signature_stack())


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------
class TestManifest:
    def _manifest(self):
        recorder = obs.Recorder()
        with recorder.span("a"):
            with recorder.span("b"):
                recorder.count("hits", 3)
                recorder.observe("m", np.arange(5.0))
        return obs.build_manifest(
            command="test", workload="w", seed=7,
            config={"samples": 10}, metrics=recorder.snapshot(),
        )

    def test_build_manifest_validates(self):
        manifest = self._manifest()
        assert obs.validate_manifest(manifest) == []
        assert manifest["run"]["seed"] == 7
        assert manifest["tool"]["name"] == "repro"
        assert obs.span_tree_depth(manifest["metrics"]) == 2

    def test_roundtrip_through_disk(self, tmp_path):
        manifest = self._manifest()
        path = tmp_path / "m.json"
        obs.write_manifest(str(path), manifest)
        assert obs.load_manifest(str(path)) == json.loads(
            json.dumps(manifest)
        )

    def test_write_refuses_invalid(self, tmp_path):
        manifest = self._manifest()
        del manifest["environment"]
        with pytest.raises(ValueError, match="missing key 'environment'"):
            obs.write_manifest(str(tmp_path / "m.json"), manifest)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda m: m.pop("format"), "missing key 'format'"),
            (lambda m: m.update(format="nope"), "unknown format"),
            (lambda m: m.update(version=99), "unsupported version"),
            (lambda m: m["run"].update(status="crashed"), "status"),
            (lambda m: m["run"].update(seed="zero"), "seed"),
            (
                lambda m: m["metrics"]["spans"].append({"name": ""}),
                "non-empty 'name'",
            ),
            (
                lambda m: m["metrics"]["counters"].update(bad="NaN-ish"),
                "not a number",
            ),
            (
                lambda m: m["metrics"]["convergence"]["m"].pop("ess"),
                "'ess'",
            ),
        ],
    )
    def test_validation_catches_each_violation(self, mutate, fragment):
        manifest = self._manifest()
        mutate(manifest)
        problems = obs.validate_manifest(manifest)
        assert problems, "mutation should invalidate the manifest"
        assert any(fragment in problem for problem in problems), problems

    def test_validate_never_raises_on_garbage(self):
        assert obs.validate_manifest(None)
        assert obs.validate_manifest([1, 2])
        assert obs.validate_manifest({"metrics": "not-a-dict"})

    def test_skeleton_drops_values_keeps_names(self):
        manifest = self._manifest()
        skeleton = obs.stable_skeleton(manifest)
        assert skeleton["span_names"] == {"a": {"b": {}}}
        assert skeleton["counter_names"] == ["hits"]
        assert skeleton["convergence_names"] == ["m"]

        def leaves(node):
            if isinstance(node, dict):
                for value in node.values():
                    yield from leaves(value)
            elif isinstance(node, list):
                for value in node:
                    yield from leaves(value)
            else:
                yield node

        # key names survive; every measured value is gone — the only
        # numeric leaf left is the format version constant
        numeric = [v for v in leaves(skeleton) if isinstance(v, (int, float))]
        assert numeric == [obs.MANIFEST_VERSION]


# ----------------------------------------------------------------------
# S5xx manifest lint
# ----------------------------------------------------------------------
class TestManifestLint:
    def test_clean_manifest_has_no_findings(self, tmp_path):
        recorder = obs.Recorder()
        with recorder.span("a"):
            recorder.count("c")
        path = tmp_path / "m.json"
        obs.write_manifest(
            str(path),
            obs.build_manifest("test", metrics=recorder.snapshot()),
        )
        assert check_manifest(str(path)) == []

    def test_unreadable_is_s501(self, tmp_path):
        missing = check_manifest(str(tmp_path / "absent.json"))
        assert [d.rule for d in missing] == ["S501"]
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert [d.rule for d in check_manifest(str(garbage))] == ["S501"]

    def test_schema_violation_is_s502(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "nope"}))
        findings = check_manifest(str(path))
        assert findings and all(d.rule == "S502" for d in findings)
        assert all(d.severity.value == "error" for d in findings)

    def test_empty_metrics_is_s503_warning(self, tmp_path):
        path = tmp_path / "empty.json"
        obs.write_manifest(
            str(path),
            obs.build_manifest(
                "test", metrics=obs.NullRecorder().snapshot()
            ),
        )
        findings = check_manifest(str(path))
        assert [d.rule for d in findings] == ["S503"]
        assert findings[0].severity.value == "warning"


# ----------------------------------------------------------------------
# the profile CLI + the golden fixture
# ----------------------------------------------------------------------
class TestProfileCommand:
    def _profile(self, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "manifest.json"
        status = main(GOLDEN_ARGS + ["--metrics", str(path)])
        return status, obs.load_manifest(str(path))

    def test_emits_valid_manifest_with_acceptance_properties(self, tmp_path):
        status, manifest = self._profile(tmp_path)
        assert status == 0
        assert obs.validate_manifest(manifest) == []
        metrics = manifest["metrics"]
        assert obs.span_tree_depth(metrics) >= 3
        assert metrics["counters"]["cache.hit"] >= 1
        assert metrics["counters"]["cache.miss"] >= 1
        # the in-command determinism proofs: instrumented ==
        # uninstrumented, and the compiled dictionary == the oracle's
        assert metrics["gauges"]["profile.bit_identical"] == 1.0
        assert metrics["gauges"]["profile.kernels_bit_identical"] == 1.0
        assert manifest["run"]["status"] == "ok"
        assert manifest["run"]["workload"] == "s27"

    def test_oracle_proof_fails_on_a_mutated_compiled_result(
        self, tmp_path, monkeypatch
    ):
        """A drifting compiled replay fails the oracle comparison, and so
        the command: the runtime proof cannot decay into a no-op."""
        from repro.timing.kernel import ConeReplay

        replay = ConeReplay.replay
        # Every replayed entry settles early, so no suspect ever fails.
        monkeypatch.setattr(
            ConeReplay, "replay", lambda self, sizes: replay(self, sizes) - 1e3
        )
        status, manifest = self._profile(tmp_path)
        assert status == 1
        gauges = manifest["metrics"]["gauges"]
        # Both instrumented and uninstrumented builds drift alike; only
        # the oracle sees it.
        assert gauges["profile.bit_identical"] == 1.0
        assert gauges["profile.kernels_bit_identical"] == 0.0

    def test_matches_golden_skeleton(self, tmp_path):
        """Schema/naming drift gate: the manifest *structure* (key names,
        span-name tree, counter/gauge/meter names) must match the checked-
        in fixture exactly; measured values are free to change."""
        _status, manifest = self._profile(tmp_path)
        with open(GOLDEN_MANIFEST) as handle:
            golden = json.load(handle)
        assert obs.stable_skeleton(manifest) == golden

    def test_lint_accepts_emitted_manifest(self, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "manifest.json"
        assert main(GOLDEN_ARGS + ["--metrics", str(path)]) == 0
        assert main(["lint", "--manifest", str(path)]) == 0
