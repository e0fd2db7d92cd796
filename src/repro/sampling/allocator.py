"""Adaptive per-(suspect, clock) sample allocation in fixed-size rounds.

One :class:`CellAllocator` owns the sampling state for a single
(suspect, clock) cell group — every dictionary entry that suspect can
touch at that clock.  Rounds are fixed at the sample-space width (one
defect size per materialized chip instance, so a round is exactly one
cone re-simulation per active pattern), and the estimator keeps
:class:`repro.obs.convergence.ConvergenceStat` moments:

* each tracked entry receives ``w * indicator`` under *unit* weights —
  its running ``mean`` is then the unnormalized (exactly unbiased)
  importance-sampling estimate and ``std_error`` its CI.  Entries share
  the count, so ``mean`` and ``m2`` are two float arrays, merged once per
  round by the Chan update a ``ConvergenceStat`` per entry would run
  (same IEEE operations, same order per element),
* a separate weight meter receives ``update(values=w, weights=w)`` —
  its ``ess`` is the effective sample size behind the degeneracy guard.

The guard is outcome-dependent but *target-independent*: when the ESS
fraction drops below ``ess_floor``, ``alpha`` doubles (mixing back toward
the nominal law) regardless of the CI target.  Together with per-round
spawn-key RNG this makes the draw sequence a pure function of
``(seed, suspect, clk, round)`` — so tightening the CI target can only
extend the round sequence, never change it (allocation is monotone), and
serial/process backends replay identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..obs.convergence import ConvergenceStat
from ..rng import spawn_generator
from .config import SAMPLER_SPAWN_KEY, SamplerConfig
from .distributions import SizeDistribution
from .proposal import MixtureProposal, boundary_proposal

__all__ = [
    "AllocationReport",
    "CellAllocator",
    "estimate_tail_probabilities",
]


@dataclass(frozen=True)
class AllocationReport:
    """What one cell's allocation spent and how healthy it was."""

    rounds: int
    samples_spent: int
    ess_fraction: float
    degenerate_rounds: int
    alpha_final: float
    converged: bool


class CellAllocator:
    """Round-based importance-sampling estimator for one cell group."""

    def __init__(
        self,
        config: SamplerConfig,
        distribution: SizeDistribution,
        gap: float,
        *,
        seed: int,
        suspect_index: int,
        clk_index: int,
        n_entries: int,
        round_size: int,
    ) -> None:
        self.config = config
        self.distribution = distribution
        self.seed = int(seed)
        self.suspect_index = int(suspect_index)
        self.clk_index = int(clk_index)
        self.round_size = int(round_size)
        self.alpha = 1.0 if not config.importance else config.alpha
        self.proposal: MixtureProposal = boundary_proposal(
            distribution, gap, config, alpha=self.alpha
        )
        #: Per-entry moments over ``n`` unit-weight draws.
        self.mean = np.zeros(int(n_entries))
        self.m2 = np.zeros(int(n_entries))
        self.n = 0
        self.weight_stat = ConvergenceStat()
        self.max_weight = 0.0
        self.rounds = 0
        self.degenerate_rounds = 0

    # -- the round protocol ---------------------------------------------

    def draw(self, round_index: int):
        """Sizes + exact weights for one round.

        A pure function of ``(seed, suspect, clk, round)`` and the current
        proposal — never of chunking or backend, so parallel builds replay
        the serial streams bit-for-bit.
        """
        rng = spawn_generator(
            self.seed,
            SAMPLER_SPAWN_KEY,
            self.suspect_index,
            self.clk_index,
            int(round_index),
        )
        return self.proposal.draw(rng, self.round_size)

    def commit(self, weights: np.ndarray, indicators: np.ndarray) -> None:
        """Fold one round in; ``indicators`` is ``(n_entries, round_size)``."""
        weights = np.asarray(weights, dtype=float)
        values = np.asarray(indicators, dtype=float) * weights
        if values.size:
            # ConvergenceStat's unit-weight update and Chan merge, one row
            # per entry; its weight sums are the counts, exact in floats.
            before, width = float(self.n), float(values.shape[1])
            total = before + width
            batch_mean = values.mean(axis=1)
            delta = batch_mean - self.mean
            self.m2 += ((values - batch_mean[:, None]) ** 2).sum(axis=1) + (
                delta * delta * before * width / total
            )
            self.mean += delta * width / total
            self.n += values.shape[1]
        self.weight_stat.update(weights, weights=weights)
        if weights.size:
            self.max_weight = max(self.max_weight, float(weights.max()))
        self.rounds += 1
        if self.ess_fraction < self.config.ess_floor:
            self.degenerate_rounds += 1
            if self.config.importance and self.alpha < 1.0:
                self.alpha = min(1.0, 2.0 * self.alpha)
                self.proposal = replace(self.proposal, alpha=self.alpha)

    def converged(self) -> bool:
        """Every tracked entry's CI half-width is inside the target.

        An all-zero entry has zero *empirical* variance, yet under an
        identity proposal (plain MC) its true probability can still be as
        large as ~3/n — the rule of three.  Without a guard plain MC
        would declare deep-tail entries converged at 0 after
        ``min_rounds``; with it, proving an entry is below ``ci_abs``
        costs plain MC ~``3/ci_abs`` draws.  Shifted proposals get no
        floor: they oversample the event region by construction, so an
        all-zero entry after n boundary-shifted rounds carries residual
        mass of at most ~``w(boundary) * 3/n``, far inside any practical
        target (the boundary weights are the tiny ones).
        """
        config = self.config
        if self.n < 2:
            return not self.mean.size
        rule_of_three = (
            3.0 * self.max_weight if self.proposal.is_identity else 0.0
        )
        floor = rule_of_three / self.n
        half = self.half_widths()
        # ``max(half, floor)`` on all-zero entries, resolving NaNs as
        # Python's ``max`` does; "no entry is provably outside", so a NaN
        # half-width never fails the target.
        half = np.where((self.mean == 0.0) & (floor > half), floor, half)
        bound = config.ci_abs + config.ci_rel * np.abs(self.mean)
        return not (half > bound).any()

    def should_stop(self) -> bool:
        """The adaptive stopping rule (fixed-round modes bypass this)."""
        config = self.config
        if self.rounds < config.min_rounds:
            return False
        if self.rounds >= config.max_rounds:
            return True
        return self.converged()

    # -- results ---------------------------------------------------------

    @property
    def samples_spent(self) -> int:
        return self.rounds * self.round_size

    @property
    def ess_fraction(self) -> float:
        count = self.weight_stat.count
        return float(self.weight_stat.ess / count) if count else 1.0

    def estimates(self, clip: bool = True) -> np.ndarray:
        """Per-entry critical-probability estimates.

        The raw unnormalized estimate is unbiased but can stray outside
        [0, 1] on finite samples; dictionary assembly clips, unbiasedness
        tests read the raw values.
        """
        values = self.mean.copy()
        if clip:
            np.clip(values, 0.0, 1.0, out=values)
        return values

    def half_widths(self) -> np.ndarray:
        """``z * std_error`` per entry.  Unit weights make a
        :class:`ConvergenceStat`'s ESS the count ``n`` and its variance
        denominator ``n - 1``, both exact in floats."""
        if self.n < 2:
            return np.zeros_like(self.mean)
        return self.config.z * np.sqrt(self.m2 / (self.n - 1.0) / self.n)

    def report(self) -> AllocationReport:
        return AllocationReport(
            rounds=self.rounds,
            samples_spent=self.samples_spent,
            ess_fraction=self.ess_fraction,
            degenerate_rounds=self.degenerate_rounds,
            alpha_final=self.alpha,
            converged=self.converged(),
        )


def estimate_tail_probabilities(
    config: SamplerConfig,
    distribution: SizeDistribution,
    thresholds,
    *,
    seed: int,
    round_size: int,
    suspect_index: int = 0,
    clk_index: int = 0,
):
    """Estimate ``P(X > t)`` per threshold with the full round protocol.

    The dictionary worker's loop minus the circuit: indicators are
    ``x > t``.  This is what the statistical test harness (and the
    benchmark's calibration) runs against the closed-form oracle
    :func:`repro.sampling.oracle.exact_tail_probability`.  Returns
    ``(estimates, allocator)`` so callers can also inspect raw estimates,
    half-widths and the allocation report.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    gap = float(thresholds.max()) if thresholds.size else distribution.mean
    allocator = CellAllocator(
        config,
        distribution,
        gap,
        seed=seed,
        suspect_index=suspect_index,
        clk_index=clk_index,
        n_entries=thresholds.size,
        round_size=round_size,
    )
    fixed_rounds = config.is_rounds if config.mode == "is" else None
    while True:
        x, w = allocator.draw(allocator.rounds)
        allocator.commit(w, x[None, :] > thresholds[:, None])
        if fixed_rounds is not None:
            if allocator.rounds >= fixed_rounds:
                break
        elif allocator.should_stop():
            break
    return allocator.estimates(), allocator
