"""Statistical timing substrate: random variables, cell library, STA,
dynamic (two-vector) timing simulation, circuit instances.

The reference timing oracle is not re-exported here: tests import it
from :mod:`repro.timing.reference`."""

from .randvars import SampleSpace, RandomVariable
from .celllib import CellLibrary, DEFAULT_BASE_DELAYS, nominal_edge_delay
from .interconnect import RCParameters, RCAwareCellLibrary, elmore_pin_delay
from .instance import CircuitTiming, CircuitInstance
from .sta import StaResult, analyze, suggest_clock
from .dynamic import (
    TransitionSimResult,
    simulate_transition,
    resimulate_with_extra,
    edge_offsets,
)
from .kernel import CompiledCircuit, PatternSchedule, compile_circuit
from .events import (
    Waveform,
    EventSimResult,
    simulate_events,
    event_behavior_matrix,
    compare_with_transition_mode,
)
from .io import save_timing, load_timing, save_dictionary, load_dictionary
from .analytic import (
    GaussianDelay,
    clark_max,
    analyze_analytic,
    compare_with_monte_carlo,
)
from .critical import (
    error_vector,
    error_matrix,
    simulate_pattern_set,
    pattern_set_delay,
    diagnosis_clock,
    PatternPair,
)

__all__ = [
    "SampleSpace",
    "RandomVariable",
    "CellLibrary",
    "DEFAULT_BASE_DELAYS",
    "nominal_edge_delay",
    "RCParameters",
    "RCAwareCellLibrary",
    "elmore_pin_delay",
    "CircuitTiming",
    "CircuitInstance",
    "StaResult",
    "analyze",
    "suggest_clock",
    "save_timing",
    "load_timing",
    "save_dictionary",
    "load_dictionary",
    "Waveform",
    "EventSimResult",
    "simulate_events",
    "event_behavior_matrix",
    "compare_with_transition_mode",
    "GaussianDelay",
    "clark_max",
    "analyze_analytic",
    "compare_with_monte_carlo",
    "TransitionSimResult",
    "simulate_transition",
    "resimulate_with_extra",
    "edge_offsets",
    "CompiledCircuit",
    "PatternSchedule",
    "compile_circuit",
    "error_vector",
    "error_matrix",
    "simulate_pattern_set",
    "pattern_set_delay",
    "diagnosis_clock",
    "PatternPair",
]
