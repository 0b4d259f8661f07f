"""Micron AP device model: hierarchy, capacities, and generation parameters.

All structural constants come from Section II-B of the paper:

* a device = 4 ranks × 8 automata processors, each processor split into
  2 half cores (*AP cores*);
* a half core = 96 AP blocks; a block = 256 STEs, 4 counters, 12
  boolean elements, and at most 32 reporting STEs;
* an NFA cannot span half cores, so the largest automaton is 24,576
  states;
* the fabric runs at 133 MHz (one 8-bit symbol per 7.5 ns);
* host link: PCIe Gen 3 ×8 (the paper budgets 63 Gbps);
* partial reconfiguration: 45 ms on Gen 1 hardware, projected ~100×
  faster on Gen 2 (Section III-C).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["APGeneration", "APDeviceSpec", "GEN1", "GEN2"]


class APGeneration(enum.Enum):
    GEN1 = "gen1"
    GEN2 = "gen2"


@dataclass(frozen=True)
class APDeviceSpec:
    """Static description of one AP device (board)."""

    generation: APGeneration = APGeneration.GEN1
    ranks: int = 4
    processors_per_rank: int = 8
    half_cores_per_processor: int = 2
    blocks_per_half_core: int = 96
    stes_per_block: int = 256
    counters_per_block: int = 4
    booleans_per_block: int = 12
    reporting_stes_per_block: int = 32
    clock_hz: float = 133e6
    reconfiguration_latency_s: float = 45e-3
    pcie_bandwidth_gbps: float = 63.0
    process_nm: float = 50.0
    # Counter registers are finite; 12 bits comfortably covers the kNN
    # design's worst case (counts reach ~2d+L+2 ≈ 520 at d = 256).
    counter_bits: int = 12

    def __reduce__(self):
        # Device specs ride along in every PartitionTask a process pool
        # submits; the stock dataclass pickle walks all 15 fields per
        # task.  The well-known generation singletons serialize as a
        # name lookup instead — a few bytes and one dict hit — while
        # customized specs keep the by-value fallback.
        for name in ("GEN1", "GEN2"):
            if self == globals().get(name):
                return (_named_device_spec, (name,))
        from dataclasses import fields

        return (
            _rebuild_device_spec,
            (tuple(getattr(self, f.name) for f in fields(self)),),
        )

    # -- derived capacities -------------------------------------------

    @property
    def half_cores(self) -> int:
        return self.ranks * self.processors_per_rank * self.half_cores_per_processor

    @property
    def total_blocks(self) -> int:
        return self.half_cores * self.blocks_per_half_core

    @property
    def stes_per_half_core(self) -> int:
        return self.blocks_per_half_core * self.stes_per_block  # 24,576

    @property
    def total_stes(self) -> int:
        return self.total_blocks * self.stes_per_block  # 1,572,864

    @property
    def total_counters(self) -> int:
        return self.total_blocks * self.counters_per_block

    @property
    def total_booleans(self) -> int:
        return self.total_blocks * self.booleans_per_block

    @property
    def total_reporting_stes(self) -> int:
        return self.total_blocks * self.reporting_stes_per_block

    @property
    def max_nfa_states(self) -> int:
        """NFAs cannot span AP cores (Section II-B)."""
        return self.stes_per_half_core

    @property
    def max_counter_threshold(self) -> int:
        return (1 << self.counter_bits) - 1

    @property
    def cycle_time_s(self) -> float:
        return 1.0 / self.clock_hz


def _named_device_spec(name: str) -> "APDeviceSpec":
    """Pickle hook: resolve a generation singleton by name."""
    return globals()[name]


def _rebuild_device_spec(field_values: tuple) -> "APDeviceSpec":
    """Pickle hook: by-value fallback for customized specs."""
    return APDeviceSpec(*field_values)


GEN1 = APDeviceSpec(generation=APGeneration.GEN1, reconfiguration_latency_s=45e-3)
# Gen 2: reconfiguration projected two orders of magnitude (~100x) faster
# (Section III-C); the fabric itself is otherwise unchanged in the paper's
# Gen 2 estimates.
GEN2 = APDeviceSpec(generation=APGeneration.GEN2, reconfiguration_latency_s=45e-5)
