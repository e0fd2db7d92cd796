"""Shared fixtures: small circuits and timing models reused across tests."""

import numpy as np
import pytest

from repro.circuits import Circuit, GateType, load_benchmark
from repro.timing import CircuitTiming, SampleSpace


@pytest.fixture(scope="session")
def c17():
    """The genuine ISCAS85 c17 netlist (6 NANDs)."""
    return load_benchmark("c17")


@pytest.fixture(scope="session")
def s27():
    """The genuine ISCAS89 s27, scan-unrolled."""
    return load_benchmark("s27")


@pytest.fixture(scope="session")
def small_synth():
    """A small synthetic circuit (fast enough for exhaustive checks)."""
    from repro.circuits import GeneratorConfig, generate_circuit

    return generate_circuit(
        GeneratorConfig(n_inputs=6, n_outputs=3, n_gates=40, target_depth=6, seed=7)
    )


@pytest.fixture(scope="session")
def bench_synth():
    """A mid-size synthetic benchmark shared by integration-ish tests."""
    return load_benchmark("s1196", seed=1)


@pytest.fixture(scope="session")
def chain_circuit():
    """a -> buf chain (4) -> PO, plus a 1-level side path; hand-analyzable."""
    circuit = Circuit("chain")
    circuit.add_input("a")
    circuit.add_input("b")
    previous = "a"
    for index in range(4):
        net = f"n{index}"
        circuit.add_gate(net, GateType.BUF, [previous])
        previous = net
    circuit.add_gate("long", GateType.AND, [previous, "b"])
    circuit.add_gate("short", GateType.AND, ["a", "b"])
    circuit.mark_output("long")
    circuit.mark_output("short")
    return circuit.freeze()


@pytest.fixture()
def space():
    return SampleSpace(n_samples=100, seed=0)


@pytest.fixture()
def c17_timing(c17):
    return CircuitTiming(c17, SampleSpace(n_samples=100, seed=0))


@pytest.fixture()
def small_timing(small_synth):
    return CircuitTiming(small_synth, SampleSpace(n_samples=100, seed=0))


@pytest.fixture(scope="session")
def bench_timing(bench_synth):
    return CircuitTiming(bench_synth, SampleSpace(n_samples=120, seed=0))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def _isolated_execution_env(monkeypatch):
    """Keep every test hermetic w.r.t. the REPRO_* execution environment.

    The dictionary builder resolves its parallel backend and on-disk cache
    from ``REPRO_PARALLEL_*`` / ``REPRO_CACHE_DIR`` when not passed
    explicitly; a developer's shell (or a previous test) must never leak
    a cache directory or a process pool into unrelated tests.  This also
    keeps the suite pytest-xdist-clean: no worker ever shares an implicit
    cache directory with another.
    """
    for variable in (
        "REPRO_CACHE_DIR",
        "REPRO_CACHE_MAX_ENTRIES",
        "REPRO_PARALLEL_BACKEND",
        "REPRO_PARALLEL_WORKERS",
        "REPRO_PARALLEL_CHUNK",
        "REPRO_RETRY_MAX",
        "REPRO_RETRY_TIMEOUT",
        "REPRO_RETRY_BACKOFF",
        "REPRO_RETRY_NO_DEGRADE",
        "REPRO_CHAOS",
        "REPRO_SAMPLER",
    ):
        monkeypatch.delenv(variable, raising=False)


@pytest.fixture(autouse=True)
def _disabled_recorder():
    """Start (and leave) every test with the no-op metrics recorder.

    A test that installs a live :mod:`repro.obs` recorder and fails
    before restoring it must not leak instrumentation into the rest of
    the suite — determinism tests compare instrumented vs uninstrumented
    runs and depend on a known-disabled baseline.
    """
    from repro import obs

    obs.disable()
    yield
    obs.disable()


@pytest.fixture(autouse=True)
def _no_chaos_plan():
    """Never let an installed chaos plan outlive the test that set it."""
    from repro.resilience import chaos

    chaos.uninstall()
    yield
    chaos.uninstall()


@pytest.fixture()
def tmp_cache(tmp_path):
    """A per-test dictionary store in a private tmp dir (xdist-safe)."""
    from repro.core import DictionaryStore

    return DictionaryStore(tmp_path / "dict-cache")
