"""Micron AP device model: hardware hierarchy, compiler, runtime, and the
Section VII architectural extensions."""

from .compiler import APCompiler, CompilationReport, CompileError, RoutingModel
from .device import GEN1, GEN2, APDeviceSpec, APGeneration
from .extensions import (
    CompoundedGains,
    bits_required,
    build_comparison_macro,
    build_counter_increment_macro,
    compounded_gains,
    counter_increment_speedup,
    dimension_packed_stream,
    ste_decomposition_savings,
    ste_decomposition_table,
)
from .runtime import APRuntime, BoardImage, RuntimeCounters

__all__ = [
    "APCompiler",
    "CompilationReport",
    "CompileError",
    "RoutingModel",
    "GEN1",
    "GEN2",
    "APDeviceSpec",
    "APGeneration",
    "CompoundedGains",
    "bits_required",
    "build_comparison_macro",
    "build_counter_increment_macro",
    "compounded_gains",
    "counter_increment_speedup",
    "dimension_packed_stream",
    "ste_decomposition_savings",
    "ste_decomposition_table",
    "APRuntime",
    "BoardImage",
    "RuntimeCounters",
]
