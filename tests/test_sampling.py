"""Statistical-accuracy harness for the variance-reduction subsystem.

The sampling estimators make quantitative claims — exact likelihood
ratios, unbiasedness, CI-targeted stopping, bit-reproducibility across
parallel backends — and every claim here is checked against a
closed-form oracle or an exact bit-level comparison, not against a
golden file:

* the floored-normal tail math (``Phi`` via ``erfc``, censoring atom),
* exact likelihood ratios: identity weights are *exactly* 1, mixture
  weights are bounded by ``1/alpha`` and average to 1 under the
  proposal (unbiasedness of the Radon-Nikodym derivative),
* allocator estimates agree with the exact survival function within the
  guaranteed target ``ci_abs + ci_rel * exact`` for plain-MC, IS and
  adaptive modes — and a seed sweep confirms the raw estimates are
  unbiased,
* the rule-of-three guard keeps plain MC honest on all-zero entries and
  is what the importance proposal beats for its sample reduction,
* the ESS degeneracy guard escalates ``alpha`` instead of letting the
  weights collapse,
* ``replay_cones`` with one size vector per copy (the batched kernel
  path the sampler drives) is bit-identical to the per-vector loop on
  either kernel,
* dictionary integration: ``--sampler plain`` is bit-identical to the
  legacy path, sampled builds are bit-identical across
  serial/process backends, a chain-circuit entry matches the
  exact conditional-exceedance oracle, and cache keys only change for
  non-plain configurations.
"""

import numpy as np
import pytest

from repro.core import (
    ParallelConfig,
    SamplerConfig,
    SizeDistribution,
    build_dictionary,
    build_sweep_dictionary,
    dictionary_cache_key,
    resolve_sampler,
)
from repro.sampling import (
    ENV_SAMPLER,
    MixtureProposal,
    boundary_proposal,
    conditional_exceedance,
    estimate_tail_probabilities,
    exact_tail_probability,
    standard_normal_cdf,
)
from repro.timing import simulate_pattern_set


# ----------------------------------------------------------------------
# exact tail math
# ----------------------------------------------------------------------
class TestDistributionMath:
    def test_standard_normal_cdf_scalar_and_array(self):
        assert standard_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        z = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        values = standard_normal_cdf(z)
        assert values.shape == z.shape
        # symmetry to machine precision
        assert np.allclose(values + standard_normal_cdf(-z), 1.0, atol=1e-15)
        # deep tails stay accurate (erfc, not 1 - Phi)
        assert standard_normal_cdf(-8.0) == pytest.approx(6.22096e-16, rel=1e-4)

    def test_survival_floored(self):
        dist = SizeDistribution(mean=1.0, sigma=0.5, floor=0.0)
        # below the floor every bit of mass (atom included) exceeds t
        assert dist.survival(-0.5) == 1.0
        # at and above the floor the atom never counts (strict inequality)
        assert dist.survival(0.0) == pytest.approx(
            1.0 - standard_normal_cdf(-2.0), abs=1e-15
        )
        assert dist.survival(1.0) == pytest.approx(0.5, abs=1e-15)
        assert dist.atom_mass == pytest.approx(standard_normal_cdf(-2.0))

    def test_materialize_respects_floor(self):
        dist = SizeDistribution(mean=0.2, sigma=1.0, floor=0.0)
        x = dist.materialize(np.random.default_rng(0), 2000)
        assert (x >= 0.0).all()
        assert (x == 0.0).any()  # the atom is really hit

    def test_exact_tail_probability_is_survival(self):
        dist = SizeDistribution(mean=1.0, sigma=0.5)
        t = np.array([0.5, 1.0, 2.0])
        assert np.array_equal(exact_tail_probability(dist, t), dist.survival(t))


# ----------------------------------------------------------------------
# likelihood ratios
# ----------------------------------------------------------------------
class TestProposalWeights:
    dist = SizeDistribution(mean=1.0, sigma=0.5, floor=0.0)

    def test_identity_weights_exactly_one(self):
        # alpha == 1 and shift == mean both degenerate to the nominal law;
        # the weights must be *exactly* 1.0, not within float noise.
        for proposal in (
            MixtureProposal(self.dist, self.dist.mean, 0.3),
            MixtureProposal(self.dist, 4.0, 1.0),
        ):
            assert proposal.is_identity
            x, w = proposal.draw(np.random.default_rng(3), 500)
            assert (w == 1.0).all()
            assert (proposal.weights(np.linspace(0, 5, 50)) == 1.0).all()

    def test_weights_bounded_by_inverse_alpha(self):
        alpha = 0.08
        proposal = MixtureProposal(self.dist, 4.0, alpha)
        x, w = proposal.draw(np.random.default_rng(1), 4000)
        assert (w > 0.0).all()
        assert (w <= 1.0 / alpha + 1e-12).all()

    def test_weight_mean_unbiased_under_proposal(self):
        # E_q[dp/dq] == 1 exactly; check the MC average with a CLT bound.
        proposal = MixtureProposal(self.dist, 3.0, 0.2)
        x, w = proposal.draw(np.random.default_rng(7), 40_000)
        half = 4.0 * w.std(ddof=1) / np.sqrt(w.size)
        assert abs(w.mean() - 1.0) <= half

    def test_atom_weight_is_exact_mass_ratio(self):
        # a floored draw carries the ratio of censoring atoms, not the
        # continuous density ratio
        dist = SizeDistribution(mean=0.3, sigma=1.0, floor=0.0)
        alpha = 0.25
        proposal = MixtureProposal(dist, 2.5, alpha)
        a0 = dist.atom_mass
        a1 = standard_normal_cdf((0.0 - 2.5) / 1.0)
        expected = a0 / (alpha * a0 + (1.0 - alpha) * a1)
        w = proposal.weights(np.array([0.0]))
        assert w[0] == pytest.approx(expected, rel=1e-12)

    def test_extreme_shift_does_not_overflow(self):
        proposal = MixtureProposal(SizeDistribution(1.0, 0.01), 50.0, 0.1)
        with np.errstate(over="raise"):
            w = proposal.weights(np.array([1.0, 50.0]))
        assert np.isfinite(w).all()

    def test_boundary_proposal_clamps(self):
        config = SamplerConfig(mode="is", alpha=0.1, shift_cap_sigmas=4.0)
        # gap below the nominal mean: no shift, identity proposal
        low = boundary_proposal(self.dist, 0.2, config)
        assert low.is_identity
        # gap beyond the cap: clamped to mean + cap * sigma
        high = boundary_proposal(self.dist, 100.0, config)
        assert high.shift_mean == pytest.approx(1.0 + 4.0 * 0.5)
        # importance disabled: identity regardless of the gap
        mc = SamplerConfig(mode="adaptive", importance=False)
        assert boundary_proposal(self.dist, 100.0, mc).is_identity

    def test_identity_and_shifted_consume_same_stream(self):
        # alpha escalation to 1 mid-run must not shift later rounds'
        # generator state: both cases consume uniform + normal draws.
        shifted = MixtureProposal(self.dist, 4.0, 0.2)
        identity = MixtureProposal(self.dist, 4.0, 1.0)
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        shifted.draw(rng_a, 64)
        identity.draw(rng_b, 64)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


# ----------------------------------------------------------------------
# allocator vs the closed-form oracle
# ----------------------------------------------------------------------
class TestAllocatorAccuracy:
    dist = SizeDistribution(mean=1.0, sigma=0.5, floor=0.0)
    # one mid-probability, one moderate-tail and one deep-tail entry
    thresholds = np.array([1.2, 2.5, 3.5])

    def exact(self):
        return exact_tail_probability(self.dist, self.thresholds)

    def assert_within_target(self, config, estimates):
        exact = self.exact()
        target = config.ci_abs + config.ci_rel * exact
        assert (np.abs(estimates - exact) <= target).all(), (estimates, exact)

    def test_adaptive_is_matches_oracle_and_is_deterministic(self):
        config = SamplerConfig(mode="adaptive", ci_abs=0.01, ci_rel=0.1)
        first, alloc = estimate_tail_probabilities(
            config, self.dist, self.thresholds, seed=5, round_size=200
        )
        self.assert_within_target(config, first)
        assert alloc.report().converged
        again, _ = estimate_tail_probabilities(
            config, self.dist, self.thresholds, seed=5, round_size=200
        )
        assert np.array_equal(first, again)

    def test_plain_mc_baseline_matches_oracle(self):
        config = SamplerConfig(
            mode="adaptive", importance=False, ci_abs=0.02, ci_rel=0.1
        )
        estimates, alloc = estimate_tail_probabilities(
            config, self.dist, self.thresholds, seed=9, round_size=200
        )
        exact = self.exact()
        target = config.ci_abs + config.ci_rel * exact
        assert (np.abs(estimates - exact) <= target).all()
        assert alloc.proposal.is_identity

    def test_is_mode_spends_exactly_fixed_rounds(self):
        config = SamplerConfig(mode="is", is_rounds=3)
        _, alloc = estimate_tail_probabilities(
            config, self.dist, self.thresholds, seed=2, round_size=100
        )
        assert alloc.rounds == 3
        assert alloc.samples_spent == 300

    def test_rule_of_three_keeps_plain_mc_honest(self):
        # An entry with essentially zero probability never fires; without
        # the guard zero empirical variance would declare convergence at
        # min_rounds.  With it, plain MC must spend >= 3/ci_abs draws.
        dist = SizeDistribution(mean=1.0, sigma=0.2, floor=0.0)
        config = SamplerConfig(
            mode="adaptive", importance=False,
            ci_abs=0.02, ci_rel=0.0, min_rounds=2, max_rounds=40,
        )
        estimates, alloc = estimate_tail_probabilities(
            config, dist, [3.0], seed=4, round_size=50
        )
        assert estimates[0] == 0.0
        assert alloc.samples_spent >= 3.0 / config.ci_abs  # 150 draws
        assert alloc.report().converged

    def test_importance_beats_plain_mc_on_tail_entries(self):
        # the variance-reduction claim in miniature: same CI target, same
        # deep-tail entry, strictly fewer samples with the shifted proposal
        dist = SizeDistribution(mean=1.0, sigma=0.2, floor=0.0)
        kwargs = dict(ci_abs=0.02, ci_rel=0.0, min_rounds=2, max_rounds=40)
        mc = SamplerConfig(mode="adaptive", importance=False, **kwargs)
        shifted = SamplerConfig(mode="adaptive", importance=True, **kwargs)
        _, mc_alloc = estimate_tail_probabilities(
            mc, dist, [3.0], seed=4, round_size=50
        )
        _, is_alloc = estimate_tail_probabilities(
            shifted, dist, [3.0], seed=4, round_size=50
        )
        assert is_alloc.report().converged
        assert is_alloc.samples_spent < mc_alloc.samples_spent

    def test_ess_guard_escalates_alpha(self):
        # a far shift with tiny defensive mass makes the weights bimodal
        # (~1/alpha or ~0) and crashes the ESS fraction; the guard must
        # mix back toward the nominal law rather than let it ride
        dist = SizeDistribution(mean=1.0, sigma=0.5, floor=0.0)
        config = SamplerConfig(
            mode="adaptive", alpha=0.05, ess_floor=0.5,
            ci_abs=0.5, ci_rel=1.0, min_rounds=4, max_rounds=6,
        )
        _, alloc = estimate_tail_probabilities(
            config, dist, [6.0], seed=13, round_size=100
        )
        assert alloc.degenerate_rounds >= 1
        assert alloc.alpha > config.alpha
        assert alloc.alpha <= 1.0
        # the defensive bound held throughout every committed round
        assert alloc.max_weight <= 1.0 / config.alpha + 1e-12

    def test_raw_estimates_can_exceed_clip_range(self):
        # estimates(clip=False) is the unbiased raw value; clip projects
        # into [0, 1] without ever increasing the error
        config = SamplerConfig(mode="is", is_rounds=2)
        _, alloc = estimate_tail_probabilities(
            config, self.dist, self.thresholds, seed=1, round_size=50
        )
        raw = alloc.estimates(clip=False)
        clipped = alloc.estimates(clip=True)
        assert (clipped >= 0.0).all() and (clipped <= 1.0).all()
        exact = self.exact()
        assert (np.abs(clipped - exact) <= np.abs(raw - exact) + 1e-15).all()

    @pytest.mark.slow
    @pytest.mark.parametrize("importance", [True, False])
    def test_seed_sweep_unbiased(self, importance):
        # average the *raw* estimates over independent seeds; the mean
        # must approach the exact value at the CLT rate
        config = SamplerConfig(
            mode="is", is_rounds=4, importance=importance, alpha=0.2
        )
        exact = self.exact()
        estimates = np.array([
            estimate_tail_probabilities(
                config, self.dist, self.thresholds, seed=seed, round_size=200
            )[1].estimates(clip=False)
            for seed in range(40)
        ])
        mean = estimates.mean(axis=0)
        clt = 4.0 * estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
        # an entry plain MC never hits has a degenerate empirical CLT
        # bound; rule-of-three over the pooled draws covers that case
        pooled = len(estimates) * config.is_rounds * 200
        assert (np.abs(mean - exact) <= clt + 3.0 / pooled).all(), (mean, exact)


# ----------------------------------------------------------------------
# batched cone replay (the kernel seam the sampler drives)
# ----------------------------------------------------------------------
class TestReplaySizes:
    """``replay_cones`` over copies of one cone, one size vector each."""

    def _case(self, c17):
        from repro.timing import CircuitTiming, SampleSpace, simulate_transition
        from repro.timing.dynamic import replay_cones

        def replay_sizes(base, edge_index, vectors, affected, nets):
            n = len(vectors)
            return replay_cones(
                base, [edge_index] * n, np.stack(vectors), [affected] * n,
                [nets] * n,
            ).reshape(n, len(nets), -1)

        timing = CircuitTiming(c17, SampleSpace(n_samples=50, seed=0))
        n = len(c17.inputs)
        v1, v2 = np.zeros(n, dtype=int), np.ones(n, dtype=int)
        base = simulate_transition(timing, v1, v2)
        edge = c17.edges[4]
        edge_index = timing.edge_index[edge]
        affected = c17.fanout_cone(edge.sink)
        nets = [net for net in c17.outputs if net in affected] or list(
            c17.outputs
        )
        rng = np.random.default_rng(21)
        vectors = [rng.uniform(0.0, 3.0, 50) for _ in range(4)]
        return timing, base, edge_index, vectors, affected, nets, replay_sizes

    @pytest.mark.parametrize("kernel", ["reference", "compiled"])
    def test_batched_matches_per_vector_loop(self, c17, kernel):
        """Against a per-vector loop through the compiled replay and
        through the reference oracle."""
        from repro.timing.dynamic import resimulate_with_extra
        from repro.timing.reference import resimulate_with_extra_reference

        replay = {
            "compiled": resimulate_with_extra,
            "reference": resimulate_with_extra_reference,
        }[kernel]
        (timing, base, edge_index, vectors, affected, nets,
         replay_sizes) = self._case(c17)
        batched = replay_sizes(base, edge_index, vectors, affected, nets)
        assert batched.shape == (len(vectors), len(nets), 50)
        for row, sizes in enumerate(vectors):
            patched = replay(base, {edge_index: sizes}, affected=affected)
            for column, net in enumerate(nets):
                assert np.array_equal(batched[row, column], patched.stable[net])

    def test_kernels_bit_identical(self, c17):
        """The batched compiled replay equals oracle replays of an oracle
        base simulation."""
        from repro.timing.reference import (
            resimulate_with_extra_reference,
            simulate_transition_reference,
        )

        (timing, base, edge_index, vectors, affected, nets,
         replay_sizes) = self._case(c17)
        oracle_base = simulate_transition_reference(timing, base.v1, base.v2)
        oracle = np.stack([
            np.stack([
                resimulate_with_extra_reference(
                    oracle_base, {edge_index: sizes}, affected=affected
                ).stable[net]
                for net in nets
            ])
            for sizes in vectors
        ])
        assert np.array_equal(
            oracle, replay_sizes(base, edge_index, vectors, affected, nets)
        )


# ----------------------------------------------------------------------
# dictionary integration
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sampled_case(request):
    """A c17 diagnosis case plus the nominal size law for sampled builds."""
    from repro.atpg import random_pattern_pairs
    from repro.timing import diagnosis_clock

    timing = request.getfixturevalue("c17_timing_module")
    patterns = random_pattern_pairs(timing.circuit, 4, seed=2)
    sims = simulate_pattern_set(timing, list(patterns))
    clk = diagnosis_clock(timing, list(patterns), 0.85, simulations=sims)
    suspects = timing.circuit.edges
    dist = SizeDistribution(mean=1.5, sigma=0.6, floor=0.0)
    sizes = dist.materialize(np.random.default_rng(7), timing.space.n_samples)
    return timing, patterns, clk, suspects, sizes, sims, dist


@pytest.fixture(scope="module")
def c17_timing_module(c17):
    from repro.timing import CircuitTiming, SampleSpace

    return CircuitTiming(c17, SampleSpace(n_samples=100, seed=0))


ADAPTIVE = SamplerConfig(mode="adaptive", ci_abs=0.02, ci_rel=0.1)


class TestDictionaryIntegration:
    def test_plain_arg_bit_identical_to_default(self, sampled_case):
        timing, patterns, clk, suspects, sizes, sims, dist = sampled_case
        legacy = build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims
        )
        plain = build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims,
            sampler="plain", size_distribution=dist,
        )
        assert plain.sampling_report is None
        assert np.array_equal(legacy.m_crt, plain.m_crt)
        for edge in suspects:
            assert np.array_equal(
                legacy.signatures[edge], plain.signatures[edge]
            )

    def test_env_variable_resolution(self, sampled_case, monkeypatch):
        timing, patterns, clk, suspects, sizes, sims, dist = sampled_case
        monkeypatch.setenv(ENV_SAMPLER, "is")
        from_env = build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims,
            size_distribution=dist,
        )
        monkeypatch.delenv(ENV_SAMPLER)
        explicit = build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims,
            sampler="is", size_distribution=dist,
        )
        assert from_env.sampling_report["mode"] == "is"
        for edge in suspects:
            assert np.array_equal(
                from_env.signatures[edge], explicit.signatures[edge]
            )

    def test_sampled_build_requires_distribution(self, sampled_case):
        timing, patterns, clk, suspects, sizes, sims, _dist = sampled_case
        with pytest.raises(ValueError, match="size_distribution"):
            build_dictionary(
                timing, patterns, clk, suspects, sizes,
                base_simulations=sims, sampler="adaptive",
            )

    def test_invalid_sampler_rejected(self):
        with pytest.raises(ValueError, match="unknown sampler mode"):
            resolve_sampler("bogus")
        with pytest.raises(TypeError):
            resolve_sampler(42)
        config = SamplerConfig(mode="is")
        assert resolve_sampler(config) is config
        assert resolve_sampler(None).is_plain

    def test_adaptive_bit_reproducible_across_backends(self, sampled_case):
        timing, patterns, clk, suspects, sizes, sims, dist = sampled_case
        reference, candidate = (
            build_dictionary(
                timing, patterns, clk, suspects, sizes,
                base_simulations=sims, sampler=ADAPTIVE,
                size_distribution=dist,
                parallel=ParallelConfig(backend, n_workers=2, chunk_size=3),
            )
            for backend in ("serial", "process")
        )
        assert reference.sampling_report["all_converged"]
        assert np.array_equal(reference.m_crt, candidate.m_crt)
        for edge in suspects:
            assert np.array_equal(
                reference.signatures[edge], candidate.signatures[edge]
            ), f"process signature mismatch at {edge}"
        # the allocation itself (not just the results) must replay
        assert (
            reference.sampling_report["samples_per_suspect"]
            == candidate.sampling_report["samples_per_suspect"]
        )

    def test_adaptive_report_accounting(self, sampled_case):
        timing, patterns, clk, suspects, sizes, sims, dist = sampled_case
        dictionary = build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims,
            sampler=ADAPTIVE, size_distribution=dist,
        )
        report = dictionary.sampling_report
        assert report["mode"] == "adaptive"
        assert report["round_size"] == timing.space.n_samples
        assert len(report["samples_per_suspect"]) == len(suspects)
        assert report["total_samples"] == sum(report["samples_per_suspect"])
        assert 0.0 < report["min_ess_fraction"] <= 1.0

    def test_sweep_dictionary_accepts_sampler(self, sampled_case):
        timing, patterns, clk, suspects, sizes, sims, dist = sampled_case
        sweep = build_sweep_dictionary(
            timing, patterns, [clk * 0.9, clk], suspects, sizes,
            base_simulations=sims, sampler=ADAPTIVE, size_distribution=dist,
        )
        assert sweep.sampling_report["mode"] == "adaptive"
        assert sweep.m_crt.shape[1] == 2 * len(list(patterns))

    def test_signatures_stay_in_unit_interval(self, sampled_case):
        timing, patterns, clk, suspects, sizes, sims, dist = sampled_case
        dictionary = build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims,
            sampler="is", size_distribution=dist,
        )
        for edge in suspects:
            e_crt = dictionary.e_crt(edge)
            assert (e_crt >= dictionary.m_crt - 1e-15).all()
            assert (e_crt <= 1.0 + 1e-15).all()

    def test_chain_entry_matches_conditional_oracle(self, chain_circuit):
        # the end-to-end statistical claim: on an additive single-path
        # entry the sampled e_crt equals the exact mean-of-Phi oracle
        # within the configured target
        from repro.timing import CircuitTiming, SampleSpace, simulate_transition

        timing = CircuitTiming(chain_circuit, SampleSpace(n_samples=80, seed=3))
        v1 = np.array([0, 1])  # a rises, b held: only the chain toggles
        v2 = np.array([1, 1])
        patterns = [(v1, v2)]
        sims = simulate_pattern_set(timing, patterns)
        settles = simulate_transition(timing, v1, v2).stable["long"]
        dist = SizeDistribution(mean=1.0, sigma=0.4, floor=0.0)
        sizes = dist.materialize(np.random.default_rng(5), 80)
        edge = next(e for e in chain_circuit.edges if e.sink == "n1")
        row = chain_circuit.outputs.index("long")
        config = SamplerConfig(mode="adaptive", ci_abs=0.01, ci_rel=0.05)
        for clk in (
            float(np.median(settles) + dist.mean),          # mid probability
            float(np.quantile(settles, 0.9) + dist.mean + 3.0 * dist.sigma),
        ):
            dictionary = build_dictionary(
                timing, patterns, clk, [edge], sizes, base_simulations=sims,
                sampler=config, size_distribution=dist,
            )
            exact = conditional_exceedance(dist, settles, clk)
            estimate = dictionary.e_crt(edge)[row, 0]
            target = config.ci_abs + config.ci_rel * exact
            assert abs(estimate - exact) <= target, (estimate, exact, clk)

    def test_cache_roundtrip_and_key_isolation(self, sampled_case, tmp_cache):
        timing, patterns, clk, suspects, sizes, sims, dist = sampled_case
        first = build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims,
            sampler=ADAPTIVE, size_distribution=dist, cache=tmp_cache,
        )
        assert first.sampling_report is not None
        served = build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims,
            sampler=ADAPTIVE, size_distribution=dist, cache=tmp_cache,
        )
        assert served.sampling_report is None  # cache hit drops accounting
        for edge in suspects:
            assert np.array_equal(
                first.signatures[edge], served.signatures[edge]
            )
        # a plain build through the same cache must not collide with the
        # sampled entry (different key), and m_crt is exact either way
        plain = build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims,
            cache=tmp_cache,
        )
        assert plain.sampling_report is None
        assert np.array_equal(plain.m_crt, first.m_crt)

    def test_cache_key_sampler_token(self, sampled_case):
        timing, patterns, clk, suspects, sizes, _sims, dist = sampled_case
        base_key = dictionary_cache_key(
            timing, list(patterns), [clk], suspects, sizes
        )
        plain_key = dictionary_cache_key(
            timing, list(patterns), [clk], suspects, sizes, sampler_token=None
        )
        assert base_key == plain_key  # plain keys predate the sampler
        sampled_key = dictionary_cache_key(
            timing, list(patterns), [clk], suspects, sizes,
            sampler_token=ADAPTIVE.cache_token(dist),
        )
        assert sampled_key != base_key
        other = SamplerConfig(mode="adaptive", ci_abs=0.05, ci_rel=0.1)
        assert (
            dictionary_cache_key(
                timing, list(patterns), [clk], suspects, sizes,
                sampler_token=other.cache_token(dist),
            )
            != sampled_key
        )
