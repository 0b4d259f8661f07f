"""Analytic run-time models for every evaluated platform (Tables I/III/IV).

The paper's evaluation mixes measured wall-clock (CPU/GPU), simulated
cycle counts (AP, FPGA), and analytic projections (AP Gen 2, Opt+Ext).
We reproduce the projections with the same modelling procedure, with
per-platform constants calibrated against the published tables (the
residuals are pinned by ``TABLE3_MS`` / ``TABLE4_S`` in
``tests/perf/test_models.py`` and printed by ``benchmarks/bench_table3.py``
/ ``bench_table4.py``):

* **CPU** (Xeon E5-2620, Cortex A15): linear scan is
  ``t = q (c + n (a + b d))`` — a per-query overhead, a per-candidate
  overhead, and a per-bit XOR/POPCOUNT cost; a and b back out of the
  large-dataset rows of Table IV at better than 2 %.
* **GPU** (Jetson TK1, Titan X): the paper observes GPU time is nearly
  independent of ``d`` ("poor blocking of the binarized data" — the
  1-bit-per-dimension codes make accesses latency-, not
  bandwidth-bound), so ``t = q (c_d + n g)`` with a per-query launch
  overhead ``c_d`` and a per-candidate constant ``g``.
* **FPGA** (Kintex-7): the streaming accelerator is fully pipelined:
  ``t = q (c_d + n d k_bit)`` with ``k_bit ≈ 6.7 ps per candidate bit``
  (≈ 800 candidate bits per 185 MHz cycle across its parallel query
  lanes).  The cycle-level simulator in :mod:`repro.baselines.fpga`
  derives the same throughput from its microarchitecture.
* **AP**: ``t = partitions × (t_reconfig + q d t_cycle)`` with one
  symbol per 7.5 ns cycle.  Per-query time is ``d`` cycles, not the
  full ``2d + L + 3`` block: the host drives non-blocking streams
  (Section IV-B) and the sort phase of one query overlaps the Hamming
  phase of the next board-resident query wave, so steady-state
  throughput is one query per ``d`` symbols.  Single-partition (small
  dataset) runs are preconfigured and pay no reconfiguration.  This
  reproduces Table III/IV AP rows to three significant figures
  (e.g. 1024 × (45 ms + 4096·64·7.5 ns) = 48.09 s vs the published
  48.10 s for Gen 1 kNN-WordEmbed).

Every AP event is priced in one place, :func:`ap_time`: configurations
at the generation's §III-C reconfiguration latency and streamed symbols
at one per cycle.  :class:`APModel`, :func:`pipeline_time` (the host
driver's partition pipeline, Section IV-B) and the Table V indexed model
(:func:`repro.index.search.indexed_runtime_model`) count events into a
:class:`~repro.ap.runtime.RuntimeCounters` and call it — the same
counters a served search reports in ``result.counters``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from ..ap.device import GEN1, GEN2, APDeviceSpec

if TYPE_CHECKING:
    from ..ap.runtime import RuntimeCounters
    from ..workloads.params import WorkloadParams

__all__ = [
    "PlatformSpec",
    "PLATFORMS",
    "CPUModel",
    "GPUModel",
    "FPGAModel",
    "APModel",
    "XEON",
    "CORTEX_A15",
    "JETSON_TK1",
    "TITAN_X",
    "KINTEX7",
    "AP_PLATFORM",
    "XEON_MODEL",
    "CORTEX_MODEL",
    "JETSON_MODEL",
    "TITANX_MODEL",
    "KINTEX_MODEL",
    "ap_gen1_model",
    "ap_gen2_model",
    "ap_opt_ext_model",
    "ap_time",
    "POLICIES",
    "PipelineTime",
    "pipeline_time",
]


@dataclass(frozen=True)
class PlatformSpec:
    """One row of Table I plus the calibrated dynamic power.

    ``dynamic_power_w`` is the load-minus-idle power the paper measures
    with a meter; for the AP it depends on the active workload
    (utilization), so :class:`APModel` carries its own table.
    """

    name: str
    kind: str  # "CPU" | "GPU" | "FPGA" | "AP"
    cores: int | None
    process_nm: int
    clock_mhz: float
    dynamic_power_w: float


XEON = PlatformSpec("Xeon E5-2620", "CPU", 6, 32, 2000, 52.5)
CORTEX_A15 = PlatformSpec("Cortex A15", "CPU", 4, 28, 2300, 8.0)
JETSON_TK1 = PlatformSpec("Jetson TK1", "GPU", 192, 28, 852, 1.2)
TITAN_X = PlatformSpec("Titan X", "GPU", 3072, 28, 1075, 49.4)
KINTEX7 = PlatformSpec("Kintex-7", "FPGA", None, 28, 185, 3.74)
AP_PLATFORM = PlatformSpec("Automata Processor", "AP", 64, 50, 133, 21.0)

PLATFORMS: dict[str, PlatformSpec] = {
    p.name: p for p in (XEON, CORTEX_A15, JETSON_TK1, TITAN_X, KINTEX7, AP_PLATFORM)
}


@dataclass(frozen=True)
class CPUModel:
    """``t = q (c + n (a + b d))`` — FLANN-style multithreaded linear scan."""

    platform: PlatformSpec
    a_s: float  # per-candidate overhead (s)
    b_s: float  # per-candidate-bit cost (s)
    c_s: float  # per-query overhead (s)
    threads: int = 1  # calibration already includes the platform's cores

    def runtime_s(self, n: int, q: int, d: int) -> float:
        return q * (self.c_s + n * (self.a_s + self.b_s * d))

    def single_thread_runtime_s(self, n: int, q: int, d: int) -> float:
        """Single-threaded variant (Table V's baseline normalization)."""
        cores = self.platform.cores or 1
        return self.runtime_s(n, q, d) * cores


@dataclass(frozen=True)
class GPUModel:
    """``t = q (c_d + n g)`` — latency-bound batched xor/popcount kernel."""

    platform: PlatformSpec
    launch_overhead_s: dict[int, float]  # per-query overhead by dimensionality
    default_overhead_s: float
    per_candidate_s: float
    per_candidate_bit_s: float = 0.0  # small d-dependence (Titan X)

    def runtime_s(self, n: int, q: int, d: int) -> float:
        c = self.launch_overhead_s.get(d, self.default_overhead_s)
        g = self.per_candidate_s + self.per_candidate_bit_s * d
        return q * (c + n * g)


@dataclass(frozen=True)
class FPGAModel:
    """``t = q (c_d + n d k)`` — fully pipelined streaming accelerator."""

    platform: PlatformSpec
    per_bit_s: float
    setup_overhead_s: dict[int, float]
    default_setup_s: float

    def runtime_s(self, n: int, q: int, d: int) -> float:
        c = self.setup_overhead_s.get(d, self.default_setup_s)
        return q * (c + n * d * self.per_bit_s)


def ap_time(counters: "RuntimeCounters", device: APDeviceSpec) -> tuple[float, float]:
    """Price a run's AP events as ``(reconfig_s, fabric_s)``.

    Every configuration pays the generation's partial-reconfiguration
    latency (Section III-C) and every streamed symbol one fabric cycle.
    This is the only place the AP's latency and clock turn into time.
    """
    return (
        counters.configurations * device.reconfiguration_latency_s,
        counters.symbols_streamed * device.cycle_time_s,
    )


def _counters(configurations: int, symbols: int) -> "RuntimeCounters":
    # Imported late: repro.ap's compiler imports repro.perf for metrics.
    from ..ap.runtime import RuntimeCounters

    return RuntimeCounters(configurations=configurations, symbols_streamed=symbols)


@dataclass(frozen=True)
class APModel:
    """AP run-time/energy model for any generation and optimization level.

    ``speedup_factor`` folds in the compounded optimization/extension
    gains of Table VIII (1.0 for the plain design); the corresponding
    ``power_factor`` is the technology-scaling density penalty the paper
    applies when projecting Opt+Ext energy (Section VII-D).
    """

    device: APDeviceSpec = GEN1
    speedup_factor: float = 1.0
    power_factor: float = 1.0
    # Dynamic power calibrated per dimensionality from Table III energy
    # rows (power grows with board utilization).
    dynamic_power_w: dict = field(
        default_factory=lambda: {64: 18.8, 128: 23.3, 256: 23.3}
    )
    default_power_w: float = 21.0

    def runtime_s(
        self, n: int, q: int, d: int, board_capacity: int
    ) -> float:
        partitions = -(-n // board_capacity)
        # a single partition is a preconfigured board: no reconfiguration
        configurations = 0 if partitions == 1 else partitions
        reconfig_s, fabric_s = ap_time(
            _counters(configurations, partitions * q * d), self.device
        )
        return (reconfig_s + fabric_s) / self.speedup_factor

    def power_w(self, d: int) -> float:
        return self.dynamic_power_w.get(d, self.default_power_w) * self.power_factor

    def runtime_for(self, workload: WorkloadParams, n: int, q: int) -> float:
        return self.runtime_s(n, q, workload.d, workload.board_capacity)


def ap_gen1_model() -> APModel:
    return APModel(device=GEN1)


def ap_gen2_model() -> APModel:
    return APModel(device=GEN2)


def ap_opt_ext_model(total_improvement: float, tech_scaling: float = 3.19) -> APModel:
    """Opt+Ext projection: Gen 2 divided by the Table VIII compounded gain.

    Energy efficiency improves by ``total_improvement / tech_scaling``
    because the added compute density costs proportional power
    (Section VII-D: ~73x performance but only ~23x energy).
    """
    return APModel(
        device=GEN2,
        speedup_factor=total_improvement,
        power_factor=tech_scaling,
    )


POLICIES = ("blocking", "async", "query-overlap")
# Host-side decode cost of one report record.
HOST_NS_PER_REPORT = 2.0


class PipelineTime(NamedTuple):
    """Modeled time of one partition pipeline (seconds)."""

    makespan_s: float
    device_busy_s: float
    host_busy_s: float

    @property
    def device_utilization(self) -> float:
        return self.device_busy_s / self.makespan_s


def pipeline_time(
    n_partitions: int,
    n_queries: int,
    d: int,
    block_length: int,
    reports_per_partition: int,
    device: APDeviceSpec = GEN1,
    policy: str = "async",
) -> PipelineTime:
    """The Section III-C partition flow on one device lane, in closed form.

    Every partition is configured, streams the query batch, and has its
    reports decoded on the host.  Per partition the device takes
    ``D = ap_time`` of one configuration plus the policy's symbols, and
    the host ``H = reports × 2 ns``.  The device runs partitions back to
    back while the host decodes the previous one — a two-stage pipeline:

    ``makespan = D + H + (P − 1)·max(D, H)``, device busy ``P·D``, host
    busy ``P·H``.

    * ``"async"`` — non-blocking API calls (Section IV-B): each query
      streams its full ``block_length``, so ``q·block`` symbols.
    * ``"query-overlap"`` — additionally overlaps one query's sort phase
      with the next query's Hamming phase: ``block + (q − 1)·d``
      symbols.  This reproduces the paper's AP rows
      (``partitions × (reconfig + q·d·cycle)``).
    * ``"blocking"`` — meant as the naive host program where every API
      call is a barrier.  **Known defect:** it is priced exactly as
      ``"async"``, because nothing delays the next device op until the
      host decode finishes; both read 50.25 s in the Gen 1 ablation.  A
      real blocking schedule, ``P·(D + H)``, would be ≈ 58.8 s there
      (1.22×), which breaks the ablation bench's ``< 1.10`` Gen 1 claim,
      so fixing it means revisiting that claim (ROADMAP item 12).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if n_partitions < 1 or n_queries < 1:
        raise ValueError("need at least one partition and one query")
    if min(d, block_length, reports_per_partition) < 0:
        raise ValueError("symbol and report counts must be non-negative")
    if policy == "query-overlap":
        # steady state: one query costs d symbols; the first query of a
        # partition still pays the full block (pipeline fill).
        symbols = block_length + (n_queries - 1) * d
    else:
        symbols = n_queries * block_length
    reconfig_s, fabric_s = ap_time(_counters(1, symbols), device)
    dev = reconfig_s + fabric_s
    host = reports_per_partition * HOST_NS_PER_REPORT * 1e-9
    return PipelineTime(
        makespan_s=dev + host + (n_partitions - 1) * max(dev, host),
        device_busy_s=n_partitions * dev,
        host_busy_s=n_partitions * host,
    )


# Calibrated instances (constants back-solved from Tables III and IV;
# tests/perf/test_models.py pins the residuals against the published rows).
XEON_MODEL = CPUModel(XEON, a_s=1.51e-9, b_s=4.88e-11, c_s=0.95e-6)
CORTEX_MODEL = CPUModel(CORTEX_A15, a_s=4.15e-9, b_s=3.32e-10, c_s=0.0)
JETSON_MODEL = GPUModel(
    JETSON_TK1,
    launch_overhead_s={64: 26.8e-6, 128: 34.2e-6, 256: 37.2e-6},
    default_overhead_s=33e-6,
    per_candidate_s=3.82e-9,
)
TITANX_MODEL = GPUModel(
    TITAN_X,
    launch_overhead_s={},
    default_overhead_s=2e-6,
    per_candidate_s=2.28e-10,
    per_candidate_bit_s=4.05e-14,
)
KINTEX_MODEL = FPGAModel(
    KINTEX7,
    per_bit_s=6.72e-12,
    setup_overhead_s={64: 20e-9, 128: 40e-9, 256: 180e-9},
    default_setup_s=50e-9,
)
