"""Process-wide metrics registry and per-request trace context.

The observability plane for the serving stack.  Three primitives —
:class:`Counter`, :class:`Gauge`, :class:`Histogram` (fixed log-scale
buckets) — live in a :class:`MetricsRegistry`; every layer of the stack
(admission router, worker-pool dispatch, board-image cache, RPC clients,
replica groups, shard servers) increments them at the same sites that
already feed the ad-hoc ``*Result`` diagnostic fields, so the registry
is the one source of truth for queue depths, coalescing ratios,
dispatch latencies, cache hits, failovers, and hedges.

Design contract — **attach-only, zero hot path**:

* Instrumentation never changes results (the bit-identity invariant
  holds with the registry enabled, disabled, or absent).
* A disabled registry costs a handful of attribute loads and integer
  compares per call site: every mutating method starts with
  ``if not self._registry.enabled: return``.  ``bench_observability.py``
  gates the enabled-vs-disabled overhead on the functional hot path
  at <2%.
* Counters/gauges are deterministic: two identical serial runs produce
  identical counter values (gated in the same bench).  Histogram
  *bucket* placement of wall-clock timings is inherently
  non-deterministic; the determinism gate covers counters and gauges.

Naming scheme (see README "Observability"): ``repro_<component>_<what>``
with Prometheus unit suffixes (``_seconds``, ``_bytes``, ``_total`` for
counters).  Label keys are fixed per metric at registration; the CI
``metrics-contract`` step diffs ``MetricsSnapshot.schema()`` against
``benchmarks/baselines/metrics_schema.json`` so renaming or dropping a
metric fails the PR the way a perf regression does.

Trace context: :func:`trace_request` opens a per-request
:class:`Trace`; :func:`stage` stamps ``admission -> dispatch ->
execute -> merge`` stage timings as :class:`Span`\\ s on the active
trace *and* into the ``repro_stage_duration_seconds{stage=...}``
histogram.  With no active trace and a disabled registry, ``stage`` is
a no-op that never reads the clock.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import math
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MetricsServer",
    "Span",
    "Trace",
    "current_trace",
    "default_bytes_buckets",
    "default_time_buckets",
    "get_registry",
    "set_enabled",
    "stage",
    "stage_histogram",
    "start_metrics_server",
    "fetch_snapshot",
    "validate_schema",
    "trace_request",
]


# -- bucket layouts --------------------------------------------------------


def default_time_buckets() -> tuple[float, ...]:
    """1-2-5 log-scale bounds from 1 microsecond to 10 seconds.

    22 finite bounds; observations above the last land in the implicit
    +Inf overflow bucket.  Chosen so one layout covers everything the
    stack times — pool dispatch (~us-ms), admission waits (~ms),
    RPC round trips (~ms-s), drains (~s).
    """
    return tuple(
        round(m * 10.0**e, 12) for e in range(-6, 1) for m in (1.0, 2.5, 5.0)
    ) + (10.0,)


def default_bytes_buckets() -> tuple[float, ...]:
    """Powers of 4 from 64 B to 1 GiB (13 bounds)."""
    return tuple(float(64 * 4**i) for i in range(13))


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name may not start with a digit: {name!r}")
    return name


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    """Prometheus sample value: integers render without a trailing .0."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared machinery: fixed label keys, per-metric lock, series map."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
    ):
        self._registry = registry
        self.name = _validate_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        for ln in self.labelnames:
            _validate_name(ln)
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], object] = {}

    def labels(self, *values: str, **kw: str):
        """The child series for one label-value tuple (created on first use).

        Children are cached: capture the child once outside a hot loop
        and call its mutators directly.
        """
        if kw:
            if values:
                raise ValueError("pass label values positionally or by name")
            try:
                values = tuple(kw[ln] for ln in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"unknown label {exc} for {self.name}") from exc
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        with self._lock:
            child = self._series.get(key)
            if child is None:
                child = self._make_child()
                self._series[key] = child
        return child

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _default_child(self):
        """The unlabeled series (only valid when labelnames is empty)."""
        return self.labels()

    def _reset(self) -> None:
        with self._lock:
            for child in self._series.values():
                child._zero()  # type: ignore[attr-defined]

    def _collect(self) -> list[dict]:
        with self._lock:
            return [
                {"labels": dict(zip(self.labelnames, key)), **child._values()}  # type: ignore[attr-defined]
                for key, child in sorted(self._series.items())
            ]


class _CounterChild:
    __slots__ = ("_lock", "_registry", "value")

    def __init__(self, lock: threading.Lock, registry: "MetricsRegistry"):
        self._lock = lock
        self._registry = registry
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def _zero(self) -> None:
        self.value = 0.0

    def _values(self) -> dict:
        return {"value": self.value}


class Counter(_Metric):
    """Monotonic counter.  ``inc()`` on the metric hits the () series."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self._lock, self._registry)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)


class _GaugeChild:
    __slots__ = ("_lock", "_registry", "value")

    def __init__(self, lock: threading.Lock, registry: "MetricsRegistry"):
        self._lock = lock
        self._registry = registry
        self.value = 0.0

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def _zero(self) -> None:
        self.value = 0.0

    def _values(self) -> dict:
        return {"value": self.value}


class Gauge(_Metric):
    """Settable value (queue depth, in-flight requests, breaker state)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock, self._registry)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)


class _HistogramChild:
    __slots__ = ("_lock", "_registry", "_bounds", "buckets", "sum", "count")

    def __init__(
        self,
        lock: threading.Lock,
        registry: "MetricsRegistry",
        bounds: tuple[float, ...],
    ):
        self._lock = lock
        self._registry = registry
        self._bounds = bounds
        # len(bounds)+1 slots: one per finite bound plus the +Inf overflow.
        self.buckets = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation.

        Edge semantics (test-covered):

        * NaN and negative values clamp to 0.0 — a monotonic-clock
          duration can legally be 0 but never negative, so a negative
          input is a measurement artifact, not a signal.
        * ``+inf`` lands in the overflow bucket and increments
          ``count`` but leaves ``sum`` unchanged, keeping the export
          JSON-serializable and finite.
        """
        if not self._registry.enabled:
            return
        v = float(value)
        if math.isnan(v) or v < 0.0:
            v = 0.0
        with self._lock:
            self.count += 1
            if math.isinf(v):
                self.buckets[-1] += 1
            else:
                self.buckets[bisect_left(self._bounds, v)] += 1
                self.sum += v

    def observe_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.observe(v)

    def _zero(self) -> None:
        self.buckets = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def _values(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "sum": self.sum,
            "count": self.count,
        }


class Histogram(_Metric):
    """Fixed-bucket log-scale histogram (Prometheus cumulative on export)."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ):
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(float(b) for b in (buckets or default_time_buckets()))
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.bounds = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self._registry, self.bounds)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def observe_many(self, values: Iterable[float]) -> None:
        self._default_child().observe_many(values)


# -- snapshot / export -----------------------------------------------------


@dataclass
class MetricsSnapshot:
    """A point-in-time copy of every registered series.

    ``metrics`` is sorted by name; series within a metric are sorted by
    label values — two snapshots of identical registry state serialize
    to identical JSON (the determinism gate relies on this).
    """

    metrics: list[dict] = field(default_factory=list)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps({"metrics": self.metrics}, indent=indent, sort_keys=True)

    def schema(self) -> list[dict]:
        """The contract view: names, types, label key sets — no values."""
        return [
            {
                "name": m["name"],
                "type": m["type"],
                "labels": sorted(m["labelnames"]),
            }
            for m in self.metrics
        ]

    def get(self, name: str, **labels: str) -> dict | None:
        """The series dict for ``name`` with exactly ``labels``, or None."""
        for m in self.metrics:
            if m["name"] != name:
                continue
            for s in m["series"]:
                if s["labels"] == labels:
                    return s
        return None

    def value(self, name: str, **labels: str) -> float | None:
        """Counter/gauge value shortcut (None when the series is absent)."""
        s = self.get(name, **labels)
        return None if s is None or "value" not in s else s["value"]

    def counter_values(self) -> dict[str, float]:
        """Flat ``name{k=v,...} -> value`` map of every counter and gauge.

        The determinism gate compares this across runs; histogram
        timings are excluded by construction.
        """
        out: dict[str, float] = {}
        for m in self.metrics:
            if m["type"] not in ("counter", "gauge"):
                continue
            for s in m["series"]:
                lbl = ",".join(f"{k}={v}" for k, v in sorted(s["labels"].items()))
                out[f"{m['name']}{{{lbl}}}"] = s["value"]
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for m in self.metrics:
            name = m["name"]
            lines.append(f"# HELP {name} {m['help']}")
            lines.append(f"# TYPE {name} {m['type']}")
            for s in m["series"]:
                base = [
                    f'{k}="{_escape_label(str(v))}"'
                    for k, v in s["labels"].items()
                ]
                if m["type"] == "histogram":
                    acc = 0
                    for bound, n in zip(
                        list(m["buckets"]) + ["+Inf"], s["buckets"]
                    ):
                        acc += n
                        le = "+Inf" if bound == "+Inf" else _fmt(float(bound))
                        lbl = ",".join(base + [f'le="{le}"'])
                        lines.append(f"{name}_bucket{{{lbl}}} {acc}")
                    suffix = f"{{{','.join(base)}}}" if base else ""
                    lines.append(f"{name}_sum{suffix} {_fmt(s['sum'])}")
                    lines.append(f"{name}_count{suffix} {s['count']}")
                else:
                    suffix = f"{{{','.join(base)}}}" if base else ""
                    lines.append(f"{name}{suffix} {_fmt(s['value'])}")
        return "\n".join(lines) + "\n"


# -- registry --------------------------------------------------------------


class MetricsRegistry:
    """Process-wide metric home.  Registration is idempotent by name."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def set_enabled(self, enabled: bool) -> None:
        self.enabled = bool(enabled)

    def _register(self, cls, name: str, help: str, labelnames, **kw) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(
                    labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}{existing.labelnames}"
                    )
                return existing
            metric = cls(self, name, help, labelnames, **kw)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._register(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames=(),
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, labelnames, buckets=buckets
        )  # type: ignore[return-value]

    def reset(self) -> None:
        """Zero every series; registrations (names/labels/buckets) stay."""
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            m._reset()

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            metrics = sorted(self._metrics.items())
        out = []
        for name, m in metrics:
            entry: dict = {
                "name": name,
                "type": m.kind,
                "help": m.help,
                "labelnames": list(m.labelnames),
                "series": m._collect(),
            }
            if isinstance(m, Histogram):
                entry["buckets"] = list(m.bounds)
            out.append(entry)
        return MetricsSnapshot(out)


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry every layer instruments against."""
    return _REGISTRY


def set_enabled(enabled: bool) -> None:
    _REGISTRY.set_enabled(enabled)


# -- trace context ---------------------------------------------------------


@dataclass
class Span:
    """One stage timing inside a request trace."""

    stage: str
    start_s: float
    duration_s: float


class Trace:
    """Per-request span collector.

    Spans also feed ``repro_stage_duration_seconds{stage=...}`` so the
    aggregate histogram exists even when nobody keeps the trace object.
    """

    def __init__(self, name: str, registry: MetricsRegistry | None = None):
        self.name = name
        self.registry = registry or get_registry()
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def record(self, stage_name: str, start_s: float, duration_s: float) -> None:
        with self._lock:
            self.spans.append(Span(stage_name, start_s, duration_s))
        _stage_histogram(self.registry).labels(stage=stage_name).observe(
            duration_s
        )

    @contextlib.contextmanager
    def stage(self, stage_name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record(stage_name, t0, time.perf_counter() - t0)

    def to_dict(self) -> dict:
        with self._lock:
            spans = list(self.spans)
        return {
            "name": self.name,
            "spans": [
                {"stage": s.stage, "start_s": s.start_s, "duration_s": s.duration_s}
                for s in spans
            ],
        }


def stage_histogram(registry: MetricsRegistry | None = None) -> Histogram:
    """The shared ``repro_stage_duration_seconds{stage=...}`` histogram."""
    return (registry or get_registry()).histogram(
        "repro_stage_duration_seconds",
        "Per-request stage timings (admission -> dispatch -> execute -> merge).",
        labelnames=("stage",),
    )


_stage_histogram = stage_histogram


_current_trace: contextvars.ContextVar[Trace | None] = contextvars.ContextVar(
    "repro_current_trace", default=None
)


def current_trace() -> Trace | None:
    return _current_trace.get()


@contextlib.contextmanager
def trace_request(name: str) -> Iterator[Trace]:
    """Open a per-request trace; nested :func:`stage` calls attach to it."""
    trace = Trace(name)
    token = _current_trace.set(trace)
    try:
        yield trace
    finally:
        _current_trace.reset(token)


@contextlib.contextmanager
def stage(stage_name: str) -> Iterator[None]:
    """Time a pipeline stage against the active trace (or just the
    aggregate histogram when no trace is open).

    With no active trace *and* a disabled registry this never reads the
    clock — the zero-hot-path contract.
    """
    trace = _current_trace.get()
    if trace is None:
        registry = get_registry()
        if not registry.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            _stage_histogram(registry).labels(stage=stage_name).observe(
                time.perf_counter() - t0
            )
        return
    with trace.stage(stage_name):
        yield


# -- HTTP exporter ---------------------------------------------------------


class MetricsServer:
    """Tiny stdlib HTTP exporter: ``/metrics`` (Prometheus text),
    ``/metrics.json`` (snapshot JSON).  Daemon-threaded; close() joins."""

    def __init__(self, port: int, registry: MetricsRegistry | None = None,
                 host: str = "0.0.0.0"):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        reg = registry or get_registry()

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API)
                path = self.path.split("?", 1)[0]
                if path in ("/metrics", "/"):
                    body = reg.snapshot().to_prometheus().encode()
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif path == "/metrics.json":
                    body = reg.snapshot().to_json(indent=2).encode()
                    ctype = "application/json"
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence per-request lines
                pass

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-http",
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start_metrics_server(
    port: int, registry: MetricsRegistry | None = None, host: str = "0.0.0.0"
) -> MetricsServer:
    """Start the exporter on ``port`` (0 picks an ephemeral port)."""
    return MetricsServer(port, registry=registry, host=host)


def fetch_snapshot(address: str, timeout_s: float = 5.0) -> dict:
    """GET ``/metrics.json`` from a ``host:port`` exporter (CLI helper)."""
    from urllib.request import urlopen

    if "://" not in address:
        address = f"http://{address}"
    with urlopen(f"{address}/metrics.json", timeout=timeout_s) as resp:
        return json.loads(resp.read().decode())


# -- schema contract helpers ----------------------------------------------


def validate_schema(
    snapshot_schema: Sequence[Mapping], baseline_schema: Sequence[Mapping]
) -> list[str]:
    """Diff a live schema against the committed contract.

    Returns human-readable violation strings (empty = contract holds).
    *New* metrics are allowed — the contract protects consumers of
    existing names; additions only require re-running ``--update``.
    """
    problems: list[str] = []
    live = {m["name"]: m for m in snapshot_schema}
    for want in baseline_schema:
        name = want["name"]
        got = live.get(name)
        if got is None:
            problems.append(f"metric {name!r} missing (renamed or dropped)")
            continue
        if got["type"] != want["type"]:
            problems.append(
                f"metric {name!r} changed type "
                f"{want['type']!r} -> {got['type']!r}"
            )
        if sorted(got["labels"]) != sorted(want["labels"]):
            problems.append(
                f"metric {name!r} changed labels "
                f"{sorted(want['labels'])} -> {sorted(got['labels'])}"
            )
    return problems
