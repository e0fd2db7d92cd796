"""Unit tests for the synthetic circuit generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import GeneratorConfig, generate_circuit
from repro.lint import lint_circuit
from repro.circuits.generate import _signal_probability, _spread
from repro.circuits.library import GateType


class TestConfigValidation:
    def test_rejects_zero_inputs(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_inputs=0, n_outputs=1, n_gates=5)

    def test_rejects_zero_outputs(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_inputs=1, n_outputs=0, n_gates=5)

    def test_rejects_too_few_gates(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_inputs=2, n_outputs=5, n_gates=3)

    def test_rejects_tiny_depth(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_inputs=2, n_outputs=1, n_gates=5, target_depth=1)


class TestGeneration:
    def test_profile_respected(self):
        config = GeneratorConfig(n_inputs=10, n_outputs=4, n_gates=80, seed=3)
        c = generate_circuit(config)
        assert len(c.inputs) == 10
        assert len(c.outputs) == 4
        # merge gates may add a few beyond the budget
        assert c.num_gates() >= 80
        assert c.num_gates() <= 80 * 1.5

    def test_deterministic_in_seed(self):
        config = GeneratorConfig(n_inputs=8, n_outputs=3, n_gates=50, seed=11)
        a = generate_circuit(config)
        b = generate_circuit(config)
        assert list(a.gates) == list(b.gates)
        for name in a.gates:
            assert a.gates[name].fanins == b.gates[name].fanins
            assert a.gates[name].gate_type == b.gates[name].gate_type

    def test_different_seeds_differ(self):
        base = dict(n_inputs=8, n_outputs=3, n_gates=50)
        a = generate_circuit(GeneratorConfig(seed=1, **base))
        b = generate_circuit(GeneratorConfig(seed=2, **base))
        differs = any(
            a.gates[n].fanins != b.gates[n].fanins
            for n in a.gates
            if n in b.gates and a.gates[n].fanins
        )
        assert differs

    def test_fully_observable_and_controllable(self):
        config = GeneratorConfig(n_inputs=12, n_outputs=5, n_gates=120, seed=0)
        report = lint_circuit(generate_circuit(config))
        assert report.ok, report.format_text()

    def test_no_dangling_internal_nets(self):
        c = generate_circuit(GeneratorConfig(n_inputs=6, n_outputs=2, n_gates=40, seed=5))
        outputs = set(c.outputs)
        for name in c.gates:
            if name not in outputs:
                assert c.fanouts[name], f"{name} is dangling"

    def test_signal_probabilities_not_railed(self):
        """The balance heuristic keeps most nets usefully random."""
        import numpy as np

        from repro.logic import simulate

        c = generate_circuit(GeneratorConfig(n_inputs=16, n_outputs=8, n_gates=300, seed=2))
        rng = np.random.default_rng(0)
        res = simulate(c, rng.integers(0, 2, size=(256, len(c.inputs))))
        rates = np.array([res.values(n).mean() for n in c.gates])
        # fewer than 10% of nets may be near-constant
        assert float(((rates < 0.02) | (rates > 0.98)).mean()) < 0.10

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_any_seed_yields_valid_circuit(self, seed):
        config = GeneratorConfig(n_inputs=5, n_outputs=2, n_gates=25, seed=seed)
        c = generate_circuit(config)
        assert lint_circuit(c).ok

    def test_locality_zero_still_valid(self):
        config = GeneratorConfig(
            n_inputs=8, n_outputs=3, n_gates=60, seed=1, locality=0.0
        )
        assert lint_circuit(generate_circuit(config)).ok

    def test_locality_one_still_valid(self):
        config = GeneratorConfig(
            n_inputs=8, n_outputs=3, n_gates=60, seed=1, locality=1.0
        )
        assert lint_circuit(generate_circuit(config)).ok


class TestHelpers:
    def test_spread_sums_and_balances(self):
        assert sum(_spread(10, 3)) == 10
        assert _spread(10, 3) == [4, 3, 3]
        assert _spread(0, 2) == [0, 0]
        assert _spread(7, 7) == [1] * 7

    def test_signal_probability_and(self):
        assert _signal_probability(GateType.AND, [0.5, 0.5]) == pytest.approx(0.25)
        assert _signal_probability(GateType.NAND, [0.5, 0.5]) == pytest.approx(0.75)

    def test_signal_probability_or(self):
        assert _signal_probability(GateType.OR, [0.5, 0.5]) == pytest.approx(0.75)
        assert _signal_probability(GateType.NOR, [0.5, 0.5]) == pytest.approx(0.25)

    def test_signal_probability_xor(self):
        assert _signal_probability(GateType.XOR, [0.5, 0.5]) == pytest.approx(0.5)
        # XOR of a biased and a balanced signal is balanced
        assert _signal_probability(GateType.XOR, [0.9, 0.5]) == pytest.approx(0.5)

    def test_signal_probability_not(self):
        assert _signal_probability(GateType.NOT, [0.3]) == pytest.approx(0.7)


class TestS38417Preset:
    def test_preset_shape_and_pinned_seed(self):
        from repro.circuits import s38417_profile_config
        from repro.circuits.generate import S38417_PRESET_SEED

        config = s38417_profile_config()
        assert config.seed == S38417_PRESET_SEED
        assert config.n_inputs == 28 + 1636
        assert config.n_outputs == 106 + 1636
        assert config.n_gates > 20_000

    @pytest.mark.slow
    def test_full_size_generation_smoke(self):
        from repro.circuits import s38417_profile_config
        from repro.core.cache import circuit_fingerprint

        first = generate_circuit(s38417_profile_config())
        assert first.name == "s38417"
        assert len(first.inputs) == 1664
        assert len(first.outputs) == 1742
        assert len(first.topological_order) - len(first.inputs) > 20_000
        # deterministic: regeneration is the identical netlist
        second = generate_circuit(s38417_profile_config())
        assert circuit_fingerprint(first) == circuit_fingerprint(second)
