"""Competing-platform baselines: the CPU linear scan and the cycle-level
FPGA accelerator simulator (paper Section IV-C).  The GPU is priced by
its calibrated model, :data:`repro.perf.models.JETSON_MODEL` /
:data:`~repro.perf.models.TITANX_MODEL`."""

from .cpu import CPUHammingKnn, CPUSearchResult
from .fpga import FPGAExecutionStats, FPGAKnnAccelerator

__all__ = [
    "CPUHammingKnn",
    "CPUSearchResult",
    "FPGAExecutionStats",
    "FPGAKnnAccelerator",
]
