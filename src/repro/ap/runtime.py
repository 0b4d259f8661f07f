"""AP runtime: board configuration, symbol streaming, report collection.

This is the host-side driver layer of Fig. 1a — the piece that, on real
hardware, configures board images over PCIe, drives symbol streams, and
consumes reporting-state activations.  Here it wraps the cycle-accurate
simulator and keeps the accounting a physical run would produce:

* how many (re)configurations happened and their latency cost,
* how many symbols were streamed (→ fabric busy time at 133 MHz),
* how many report records crossed the PCIe link (→ report bandwidth,
  the quantity Section VI-C's statistical activation reduction targets).

Timing is *derived* from these counters by :mod:`repro.perf.models`;
the runtime itself only counts events, so functional tests run fast and
the timing model stays in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..automata.network import AutomataNetwork
from ..automata.simulator import CompiledSimulator, Report
from .compiler import APCompiler, BoardImageCache, CompilationReport
from .device import APDeviceSpec, GEN1

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

    def build_image_cached(
        self,
        network_factory,
        cache: "BoardImageCache | None" = None,
        key: tuple | None = None,
        name: str | None = None,
        **metadata,
    ) -> BoardImage:
        """Build a board image through an optional compile cache.

        ``network_factory`` is a zero-argument callable producing the
        :class:`~repro.automata.network.AutomataNetwork`; on a cache hit
        it is never invoked, so callers skip network construction *and*
        compilation.  Without ``cache``/``key`` this degrades to
        :meth:`build_image`.
        """
        if cache is not None and key is not None:
            image = cache.get(key)
            if image is not None:
                self.counters.image_cache_hits += 1
                return image
        image = self.build_image(network_factory(), name=name, **metadata)
        if cache is not None and key is not None:
            cache.put(key, image)
        return image

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

    # -- derived quantities ---------------------------------------------

    def fabric_busy_time_s(self) -> float:
        """Time the fabric spent consuming symbols (one per cycle)."""
        return self.counters.symbols_streamed * self.device.cycle_time_s

    def reconfiguration_time_s(self, include_first: bool = True) -> float:
        """Total time spent in (re)configuration.

        The paper's large-dataset model charges every partition a
        reconfiguration (n_partitions × 45 ms on Gen 1 reproduces the
        published 48.10 s for kNN-WordEmbed), so ``include_first``
        defaults to True; single-configuration (small dataset) runs are
        charged nothing when it is False.
        """
        n = self.counters.configurations
        if not include_first:
            n = max(0, n - 1)
        return n * self.device.reconfiguration_latency_s

    def report_bandwidth_gbps(self, window_s: float) -> float:
        """Average PCIe-bound report bandwidth over a time window."""
        if window_s <= 0:
            raise ValueError("window must be positive")
        return self.counters.report_payload_bits / window_s / 1e9
