"""Analytic (moment-based) statistical STA — the Monte-Carlo cross-check.

The paper's framework [5, 17] is Monte-Carlo because analytic statistical
timing struggles with correlations.  This module provides the classic
analytic alternative for comparison and for fast estimates: arrival times
as Gaussian ``(mean, variance)`` pairs propagated with

* ``sum``: means and variances add (independence assumption),
* ``max``: Clark's moment-matching approximation [C. E. Clark, "The greatest
  of a finite set of random variables", Operations Research, 1961].

Correlation between the operands of each ``max`` can be supplied; the
circuit-level propagation assumes independence (the usual first-order
analytic compromise), which is exactly the error source the Monte-Carlo
framework avoids — quantified by :func:`compare_with_monte_carlo` and the
``analytic_vs_mc`` example/ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..circuits.library import GateType
from ..circuits.netlist import Circuit
from .dynamic import edge_offsets
from .instance import CircuitTiming
from .sta import analyze

__all__ = ["GaussianDelay", "clark_max", "analyze_analytic", "compare_with_monte_carlo"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(x: float) -> float:
    """Standard normal pdf."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _cap_phi(x: float) -> float:
    """Standard normal cdf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class GaussianDelay:
    """A delay random variable summarized by its first two moments."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.variance < 0:
            raise ValueError("variance must be non-negative")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def __add__(self, other: "GaussianDelay") -> "GaussianDelay":
        return GaussianDelay(self.mean + other.mean, self.variance + other.variance)

    def shifted(self, offset: float) -> "GaussianDelay":
        return GaussianDelay(self.mean + offset, self.variance)

    def critical_probability(self, clk: float) -> float:
        """``Prob(X > clk)`` under the Gaussian summary."""
        if self.variance == 0.0:
            return 1.0 if self.mean > clk else 0.0
        return 1.0 - _cap_phi((clk - self.mean) / self.std)

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        if self.variance == 0.0:
            return self.mean
        # inverse normal CDF via binary search (avoids scipy dependency)
        lo = self.mean - 10 * self.std
        hi = self.mean + 10 * self.std
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _cap_phi((mid - self.mean) / self.std) < q:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def clark_max(
    a: GaussianDelay, b: GaussianDelay, correlation: float = 0.0
) -> GaussianDelay:
    """Clark's Gaussian approximation of ``max(a, b)``.

    Exact first two moments of the max of two (possibly correlated) jointly
    Gaussian variables, re-interpreted as a Gaussian — the moment-matching
    step that makes analytic STA closed under ``max``.
    """
    if not -1.0 <= correlation <= 1.0:
        raise ValueError("correlation must be in [-1, 1]")
    theta_sq = a.variance + b.variance - 2.0 * correlation * a.std * b.std
    if theta_sq <= 1e-30:
        # (near-)perfectly correlated equal-variance operands: max is just
        # the larger-mean operand
        return a if a.mean >= b.mean else b
    theta = math.sqrt(theta_sq)
    alpha = (a.mean - b.mean) / theta
    cdf = _cap_phi(alpha)
    pdf = _phi(alpha)
    mean = a.mean * cdf + b.mean * (1.0 - cdf) + theta * pdf
    second_moment = (
        (a.mean**2 + a.variance) * cdf
        + (b.mean**2 + b.variance) * (1.0 - cdf)
        + (a.mean + b.mean) * theta * pdf
    )
    variance = max(second_moment - mean**2, 0.0)
    return GaussianDelay(mean, variance)


def analyze_analytic(
    timing: CircuitTiming,
    correlation: float = 0.0,
) -> Dict[str, GaussianDelay]:
    """Moment-based STA over the whole circuit.

    Edge moments are taken from the Monte-Carlo delay matrix (so both
    backends describe the same population); propagation assumes operand
    independence except for the constant pairwise ``correlation`` applied
    inside every ``max``.  Returns per-net Gaussian arrival summaries, plus
    the key ``"__circuit__"`` for the circuit delay.
    """
    circuit = timing.circuit
    edge_mean = timing.delays.mean(axis=1)
    edge_var = timing.delays.var(axis=1)

    offsets = edge_offsets(circuit)

    arrivals: Dict[str, GaussianDelay] = {}
    for name in circuit.topological_order:
        gate = circuit.gates[name]
        if gate.gate_type is GateType.INPUT:
            arrivals[name] = GaussianDelay(0.0, 0.0)
            continue
        base = offsets[name]
        best: Optional[GaussianDelay] = None
        for pin, fanin in enumerate(gate.fanins):
            edge = GaussianDelay(
                float(edge_mean[base + pin]), float(edge_var[base + pin])
            )
            candidate = arrivals[fanin] + edge
            best = candidate if best is None else clark_max(
                best, candidate, correlation
            )
        arrivals[name] = best if best is not None else GaussianDelay(0.0, 0.0)

    circuit_delay: Optional[GaussianDelay] = None
    for output in circuit.outputs:
        circuit_delay = (
            arrivals[output]
            if circuit_delay is None
            else clark_max(circuit_delay, arrivals[output], correlation)
        )
    arrivals["__circuit__"] = circuit_delay or GaussianDelay(0.0, 0.0)
    return arrivals


def compare_with_monte_carlo(
    timing: CircuitTiming, correlation: float = 0.0
) -> Dict[str, Tuple[float, float]]:
    """Per-output (mean error, std error) of analytic vs Monte-Carlo STA.

    Returns ``{output: (analytic_mean - mc_mean, analytic_std - mc_std)}``
    plus ``"__circuit__"``.  The systematic analytic bias (Clark + assumed
    independence vs the true correlated population) is the reproduction's
    concrete illustration of why the paper's framework is Monte-Carlo.
    """
    analytic = analyze_analytic(timing, correlation)
    mc = analyze(timing)
    comparison: Dict[str, Tuple[float, float]] = {}
    for output in timing.circuit.outputs:
        samples = mc.arrivals[output]
        comparison[output] = (
            analytic[output].mean - float(samples.mean()),
            analytic[output].std - float(samples.std()),
        )
    delay = mc.circuit_delay()
    comparison["__circuit__"] = (
        analytic["__circuit__"].mean - delay.mean,
        analytic["__circuit__"].std - delay.std,
    )
    return comparison
