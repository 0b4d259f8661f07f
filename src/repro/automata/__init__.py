"""Automata substrate: symbol sets, network IR, ANML I/O, and simulator.

This subpackage is a from-scratch functional model of the Micron AP's
NFA execution layer (paper Section II-B): STEs with 8-bit symbol sets,
threshold counters with count/reset ports, boolean elements, start and
reporting attributes, and a cycle-accurate vectorized simulator.
"""

from .anml import parse_anml, to_anml
from .optimize import OptimizeStats, merge_prefix_states, optimize, remove_unreachable
from .reference import reference_run
from .regex import RegexError, compile_regex, parse_regex
from .elements import (
    STE,
    BooleanElement,
    BooleanOp,
    Counter,
    CounterMode,
    StartMode,
)
from .network import AutomataNetwork, Edge, NetworkStats, ValidationError
from .simulator import CompiledSimulator, Report, SimulationResult, simulate
from .symbols import BIT0, BIT1, EOF, PAD, SOF, SymbolSet

__all__ = [
    "STE",
    "BooleanElement",
    "BooleanOp",
    "Counter",
    "CounterMode",
    "StartMode",
    "AutomataNetwork",
    "Edge",
    "NetworkStats",
    "ValidationError",
    "CompiledSimulator",
    "Report",
    "SimulationResult",
    "simulate",
    "OptimizeStats",
    "merge_prefix_states",
    "optimize",
    "remove_unreachable",
    "RegexError",
    "compile_regex",
    "parse_regex",
    "reference_run",
    "SymbolSet",
    "SOF",
    "EOF",
    "PAD",
    "BIT0",
    "BIT1",
    "parse_anml",
    "to_anml",
]
