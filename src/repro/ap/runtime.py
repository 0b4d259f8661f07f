"""AP runtime: board configuration, symbol streaming, report collection.

This is the host-side driver layer of Fig. 1a — the piece that, on real
hardware, configures board images over PCIe, drives symbol streams, and
consumes reporting-state activations.  Here it wraps the cycle-accurate
simulator and keeps the accounting a physical run would produce:

* how many (re)configurations happened (→ reconfiguration latency),
* how many symbols were streamed (→ fabric busy time at 133 MHz),
* how many report records crossed the PCIe link (the quantity Section
  VI-C's statistical activation reduction targets).

Timing is *derived* from these counters by
:func:`repro.perf.models.ap_time`; the runtime itself only counts
events, so functional tests run fast and the timing model stays in one
place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..automata.network import AutomataNetwork
from .compiler import APCompiler, CompilationReport
from .device import APDeviceSpec, GEN1

if TYPE_CHECKING:
    from ..automata.simulator import CompiledSimulator, Report

__all__ = ["BoardImage", "RuntimeCounters", "APRuntime", "REPORT_RECORD_BITS"]


@dataclass
class BoardImage:
    """A compiled board configuration (precompiled offline, Section III-C)."""

    name: str
    network: AutomataNetwork
    simulator: CompiledSimulator
    compilation: CompilationReport
    metadata: dict = field(default_factory=dict)


@dataclass
class RuntimeCounters:
    """Event counters accumulated across a runtime session."""

    configurations: int = 0
    symbols_streamed: int = 0
    reports_received: int = 0
    report_payload_bits: int = 0
    # Board images served from a compile cache instead of recompiled.
    # Cache hits still pay the (re)configuration latency — only the
    # offline compile step is skipped — so they are counted separately.
    image_cache_hits: int = 0

    def merge(self, other: "RuntimeCounters") -> None:
        self.configurations += other.configurations
        self.symbols_streamed += other.symbols_streamed
        self.reports_received += other.reports_received
        self.report_payload_bits += other.report_payload_bits
        self.image_cache_hits += other.image_cache_hits


# The paper's report encoding estimate (Section VI-C): a sparse-vector
# encoding with 32-bit identifiers plus 32-bit offsets.
_REPORT_ID_BITS = 32
_REPORT_OFFSET_BITS = 32
# Bits per report record crossing the PCIe link; every back-end that
# accounts report_payload_bits must use this one constant.
REPORT_RECORD_BITS = _REPORT_ID_BITS + _REPORT_OFFSET_BITS


class APRuntime:
    """Drives board images against symbol streams with event accounting."""

    def __init__(self, device: APDeviceSpec = GEN1, compiler: APCompiler | None = None):
        self.device = device
        self.compiler = compiler or APCompiler(device)
        self.counters = RuntimeCounters()
        self._current: BoardImage | None = None

    # -- configuration -------------------------------------------------

    def build_image(self, network: AutomataNetwork, name: str | None = None,
                    **metadata) -> BoardImage:
        """Compile a network into a loadable board image (offline step).

        Compile time is deliberately not accounted: the paper excludes
        it because datasets are static and images are precompiled
        (Section IV-B).
        """
        from ..automata.simulator import CompiledSimulator

        report = self.compiler.compile(network)
        if not report.fits:
            raise ValueError(
                f"network needs {report.utilization:.1%} of the board; "
                "split the dataset into partitions first"
            )
        return BoardImage(
            name=name or network.name,
            network=network,
            # compile() has just validated this network
            simulator=CompiledSimulator(network, validate=False),
            compilation=report,
            metadata=metadata,
        )

    def configure(self, image: BoardImage) -> None:
        """Load a board image, paying one (re)configuration."""
        self._current = image
        self.counters.configurations += 1

    @property
    def current_image(self) -> BoardImage | None:
        return self._current

    # -- streaming -----------------------------------------------------

    def stream(self, symbols: np.ndarray) -> list[Report]:
        """Stream symbols through the configured image; return reports."""
        if self._current is None:
            raise RuntimeError("no board image configured; call configure() first")
        symbols = np.asarray(symbols)
        result = self._current.simulator.run(symbols)
        self.counters.symbols_streamed += int(symbols.shape[0])
        self.counters.reports_received += len(result.reports)
        self.counters.report_payload_bits += len(result.reports) * REPORT_RECORD_BITS
        return result.reports
