"""Sampler configuration: modes, knobs, environment resolution, cache tokens.

Three modes select how dictionary critical probabilities are estimated:

* ``plain`` — the legacy common-random-numbers path, byte-identical to a
  build without any sampler (same code path, same cache key),
* ``is`` — importance sampling with a fixed number of rounds: every
  (suspect, clock) cell draws defect sizes from a defensive mixture
  shifted toward the clock boundary and reweights with exact likelihood
  ratios (:mod:`repro.sampling.proposal`),
* ``adaptive`` — importance sampling plus per-cell sample allocation:
  rounds continue until every tracked critical probability's confidence
  half-width falls below ``ci_abs + ci_rel * estimate``
  (:mod:`repro.sampling.allocator`).

Every sampled draw goes through
``spawn_generator(seed, SAMPLER_SPAWN_KEY, suspect, clk, round)`` so the
streams are a pure function of the sample-space seed and stable indices —
bit-identical across serial/process backends and independent of
chunking (see :mod:`repro.rng`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional, Union

__all__ = [
    "ENV_SAMPLER",
    "SAMPLER_MODES",
    "SAMPLER_SPAWN_KEY",
    "SamplerConfig",
    "resolve_sampler",
]

#: CLI / environment spelling of the three public modes.
SAMPLER_MODES = ("plain", "is", "adaptive")

#: Environment variable consulted when no explicit sampler is passed.
ENV_SAMPLER = "REPRO_SAMPLER"

#: Spawn-key namespace for sampler RNG streams.  Keeps them disjoint from
#: the base delay matrix (no spawn key) and every other subsystem's
#: ``child_rng`` streams.
SAMPLER_SPAWN_KEY = 777


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the importance-sampling / adaptive-allocation estimator.

    ``alpha`` is the defensive-mixture mass kept on the nominal size law:
    likelihood ratios are bounded by ``1/alpha`` no matter how far the
    proposal shifts.  ``shift_cap_sigmas`` caps the proposal mean at
    ``nominal.mean + cap * sigma``.  The adaptive stopping target is
    ``z * std_error <= ci_abs + ci_rel * |estimate|`` for *every* tracked
    entry, checked after each round; the relative term is what makes rare
    (deep-tail) probabilities expensive for plain Monte Carlo and cheap
    for the shifted proposal.  ``ess_floor`` is the minimum acceptable
    effective-sample-size fraction before the degeneracy guard doubles
    ``alpha`` (mixing back toward the nominal law).

    ``importance=False`` keeps the round/allocation machinery but pins the
    proposal to the nominal law (all weights exactly 1) — the plain-MC
    baseline the benchmark uses to measure sample counts at equal
    accuracy.
    """

    mode: str = "plain"
    alpha: float = 0.1
    shift_cap_sigmas: float = 12.0
    ci_abs: float = 0.01
    ci_rel: float = 0.1
    z: float = 1.96
    min_rounds: int = 2
    max_rounds: int = 64
    is_rounds: int = 4
    ess_floor: float = 0.2
    importance: bool = True

    def __post_init__(self) -> None:
        if self.mode not in SAMPLER_MODES:
            raise ValueError(
                "unknown sampler mode %r (expected one of %s)"
                % (self.mode, ", ".join(SAMPLER_MODES))
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1], got %r" % (self.alpha,))
        if not 0.0 < self.ess_floor <= 1.0:
            raise ValueError(
                "ess_floor must be in (0, 1], got %r" % (self.ess_floor,)
            )
        if self.min_rounds < 1 or self.max_rounds < self.min_rounds:
            raise ValueError("need 1 <= min_rounds <= max_rounds")
        if self.is_rounds < 1:
            raise ValueError("is_rounds must be positive")
        if self.ci_abs < 0.0 or self.ci_rel < 0.0 or self.z <= 0.0:
            raise ValueError("CI target parameters must be non-negative")

    @property
    def is_plain(self) -> bool:
        return self.mode == "plain"

    def cache_token(self, distribution) -> str:
        """A stable string folded into the dictionary cache key.

        Only non-plain builds append this token, so every plain cache key
        stays byte-identical to keys written before the sampler existed.
        """
        payload = {
            "sampling": 1,
            "mode": self.mode,
            "alpha": self.alpha,
            "shift_cap_sigmas": self.shift_cap_sigmas,
            "ci_abs": self.ci_abs,
            "ci_rel": self.ci_rel,
            "z": self.z,
            "min_rounds": self.min_rounds,
            "max_rounds": self.max_rounds,
            "is_rounds": self.is_rounds,
            "ess_floor": self.ess_floor,
            "importance": self.importance,
            "distribution": distribution.cache_token(),
        }
        return json.dumps(payload, sort_keys=True)


def resolve_sampler(
    sampler: Optional[Union[SamplerConfig, str]] = None,
) -> SamplerConfig:
    """Normalize a sampler argument, falling back to ``REPRO_SAMPLER``.

    Accepts a ready :class:`SamplerConfig`, a mode name, or ``None``
    (consult the environment, default ``plain``).
    """
    if isinstance(sampler, SamplerConfig):
        return sampler
    if sampler is None:
        sampler = os.environ.get(ENV_SAMPLER, "").strip() or "plain"
    if isinstance(sampler, str):
        return SamplerConfig(mode=sampler.strip().lower())
    raise TypeError("sampler must be a SamplerConfig, mode string or None")
