"""Unit tests for the metrics registry, trace context, and exporters.

The registry underpins the CI metrics contract and the <2% overhead
gate, so its own semantics are pinned here: histogram edge cases
(zero/negative/inf/NaN), thread-safety under concurrent increments
(no lost counts), Prometheus text-format validity, deterministic
snapshots, idempotent registration, and the schema validator failing
on an injected rename — the exact failure mode the CI step exists to
catch.
"""

import json
import math
import threading
import urllib.request

import pytest

from repro.perf.metrics import (
    Counter,
    MetricsRegistry,
    current_trace,
    default_bytes_buckets,
    default_time_buckets,
    fetch_snapshot,
    get_registry,
    stage,
    stage_histogram,
    start_metrics_server,
    trace_request,
    validate_schema,
)


@pytest.fixture
def registry():
    """A private registry — tests must not pollute the process one."""
    return MetricsRegistry()


@pytest.fixture
def global_registry():
    """The process registry, restored (enabled + zeroed) after the test."""
    reg = get_registry()
    was_enabled = reg.enabled
    reg.set_enabled(True)
    reg.reset()
    yield reg
    reg.set_enabled(was_enabled)
    reg.reset()


# -- counters / gauges -----------------------------------------------------


class TestCountersAndGauges:
    def test_counter_increments_and_rejects_negative(self, registry):
        c = registry.counter("t_total", "help")
        c.inc()
        c.inc(2.5)
        assert registry.snapshot().value("t_total") == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self, registry):
        g = registry.gauge("t_depth", "help")
        g.set(7)
        g.inc(3)
        g.dec()
        assert registry.snapshot().value("t_depth") == 9.0

    def test_disabled_registry_mutates_nothing(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("t_total", "help")
        h = reg.histogram("t_seconds", "help")
        c.inc(5)
        h.observe(1.0)
        reg.set_enabled(True)
        snap = reg.snapshot()
        assert snap.value("t_total") == 0.0
        assert snap.get("t_seconds")["count"] == 0

    def test_labeled_children_are_cached_and_isolated(self, registry):
        c = registry.counter("t_total", "help", labelnames=("kind",))
        assert c.labels(kind="a") is c.labels(kind="a")
        c.labels(kind="a").inc()
        c.labels(kind="b").inc(2)
        snap = registry.snapshot()
        assert snap.value("t_total", kind="a") == 1.0
        assert snap.value("t_total", kind="b") == 2.0

    def test_wrong_labels_raise(self, registry):
        c = registry.counter("t_total", "help", labelnames=("kind",))
        with pytest.raises(ValueError):
            c.labels(other="x")
        with pytest.raises(ValueError):
            c.labels("a", "b")

    def test_registration_idempotent_and_kind_checked(self, registry):
        a = registry.counter("t_total", "help")
        assert registry.counter("t_total", "other help") is a
        with pytest.raises(ValueError):
            registry.gauge("t_total", "now a gauge")
        with pytest.raises(ValueError):
            registry.counter("t_total", "help", labelnames=("k",))

    def test_invalid_names_rejected(self, registry):
        for bad in ("", "has space", "has-dash", "1starts_digit"):
            with pytest.raises(ValueError):
                registry.counter(bad, "help")


# -- histogram edge cases --------------------------------------------------


class TestHistogramEdges:
    def test_zero_lands_in_first_bucket(self, registry):
        h = registry.histogram("t_seconds", "help", buckets=(0.1, 1.0))
        h.observe(0.0)
        s = registry.snapshot().get("t_seconds")
        assert s["buckets"] == [1, 0, 0]
        assert s["count"] == 1 and s["sum"] == 0.0

    def test_negative_and_nan_clamp_to_zero(self, registry):
        h = registry.histogram("t_seconds", "help", buckets=(0.1, 1.0))
        h.observe(-5.0)
        h.observe(float("nan"))
        s = registry.snapshot().get("t_seconds")
        assert s["buckets"] == [2, 0, 0]
        assert s["count"] == 2 and s["sum"] == 0.0

    def test_inf_counts_without_poisoning_sum(self, registry):
        h = registry.histogram("t_seconds", "help", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(float("inf"))
        s = registry.snapshot().get("t_seconds")
        assert s["buckets"] == [1, 0, 1]
        assert s["count"] == 2
        assert s["sum"] == 0.05 and math.isfinite(s["sum"])
        # the export stays JSON-serializable
        json.loads(registry.snapshot().to_json())

    def test_boundary_uses_le_semantics(self, registry):
        h = registry.histogram("t_seconds", "help", buckets=(0.1, 1.0))
        h.observe(0.1)   # == first bound -> first bucket (Prometheus le)
        h.observe(1.0)   # == last bound -> second bucket
        h.observe(1.01)  # above all bounds -> overflow
        s = registry.snapshot().get("t_seconds")
        assert s["buckets"] == [1, 1, 1]

    def test_bad_bucket_layouts_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("t_a", "help", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            registry.histogram("t_b", "help", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("t_c", "help", buckets=(1.0, float("inf")))

    def test_default_layouts_are_strictly_increasing(self):
        for bounds in (default_time_buckets(), default_bytes_buckets()):
            assert list(bounds) == sorted(set(bounds))
            assert all(math.isfinite(b) for b in bounds)


# -- thread safety ---------------------------------------------------------


class TestThreadSafety:
    def test_concurrent_increments_lose_nothing(self, registry):
        c = registry.counter("t_total", "help")
        h = registry.histogram("t_seconds", "help", buckets=(0.5,))
        n_threads, per_thread = 8, 2000

        def hammer():
            for _ in range(per_thread):
                c.inc()
                h.observe(0.1)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = registry.snapshot()
        total = n_threads * per_thread
        assert snap.value("t_total") == float(total)
        s = snap.get("t_seconds")
        assert s["count"] == total and s["buckets"][0] == total

    def test_concurrent_labels_create_one_child(self, registry):
        c = registry.counter("t_total", "help", labelnames=("k",))
        children = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            children.append(c.labels(k="x"))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(ch) for ch in children}) == 1


# -- snapshots / export ----------------------------------------------------


class TestSnapshot:
    def test_snapshot_is_deterministic(self, registry):
        # Register in non-sorted order with labels in mixed order.
        registry.counter("t_b_total", "help").inc(2)
        c = registry.counter("t_a_total", "help", labelnames=("k",))
        c.labels(k="z").inc()
        c.labels(k="a").inc()
        assert registry.snapshot().to_json() == registry.snapshot().to_json()
        names = [m["name"] for m in registry.snapshot().metrics]
        assert names == sorted(names)

    def test_counter_values_excludes_histograms(self, registry):
        registry.counter("t_total", "help").inc()
        registry.gauge("t_depth", "help").set(3)
        registry.histogram("t_seconds", "help").observe(0.2)
        values = registry.snapshot().counter_values()
        assert values == {"t_total{}": 1.0, "t_depth{}": 3.0}

    def test_reset_zeroes_but_keeps_registrations(self, registry):
        registry.counter("t_total", "help").inc(5)
        registry.reset()
        snap = registry.snapshot()
        assert snap.value("t_total") == 0.0
        assert [m["name"] for m in snap.metrics] == ["t_total"]

    def test_prometheus_text_format(self, registry):
        registry.counter("t_total", "a counter").inc(3)
        h = registry.histogram(
            "t_seconds", "a histogram", labelnames=("stage",),
            buckets=(0.1, 1.0),
        )
        h.labels(stage="execute").observe(0.05)
        h.labels(stage="execute").observe(5.0)
        text = registry.snapshot().to_prometheus()
        lines = text.strip().split("\n")
        assert "# HELP t_total a counter" in lines
        assert "# TYPE t_total counter" in lines
        assert "t_total 3" in lines
        assert "# TYPE t_seconds histogram" in lines
        # cumulative buckets, +Inf last, _sum/_count present
        assert 't_seconds_bucket{stage="execute",le="0.1"} 1' in lines
        assert 't_seconds_bucket{stage="execute",le="1"} 1' in lines
        assert 't_seconds_bucket{stage="execute",le="+Inf"} 2' in lines
        assert 't_seconds_count{stage="execute"} 2' in lines
        assert any(line.startswith("t_seconds_sum{") for line in lines)
        # every non-comment line is `name{labels} value` or `name value`
        for line in lines:
            if line.startswith("#"):
                continue
            name_part, _, value = line.rpartition(" ")
            assert name_part and (value == "+Inf" or float(value) is not None)
        assert text.endswith("\n")

    def test_label_values_escaped(self, registry):
        c = registry.counter("t_total", "help", labelnames=("k",))
        c.labels(k='with "quotes" and \\slash\n').inc()
        text = registry.snapshot().to_prometheus()
        assert '\\"quotes\\"' in text and "\\\\slash" in text
        assert "\\n" in text


# -- schema contract -------------------------------------------------------


class TestSchemaContract:
    def _schema(self, registry):
        registry.counter("t_requests_total", "help", labelnames=("type",))
        registry.histogram("t_wait_seconds", "help")
        return registry.snapshot().schema()

    def test_identical_schema_passes(self, registry):
        schema = self._schema(registry)
        assert validate_schema(schema, schema) == []

    def test_additions_allowed(self, registry):
        baseline = self._schema(registry)
        registry.counter("t_new_total", "added later")
        assert validate_schema(registry.snapshot().schema(), baseline) == []

    def test_injected_rename_fails(self, registry):
        """The acceptance criterion: a rename in a fixture must fail."""
        baseline = self._schema(registry)
        renamed = [
            {**m, "name": "t_queries_total"}
            if m["name"] == "t_requests_total" else m
            for m in baseline
        ]
        problems = validate_schema(renamed, baseline)
        assert len(problems) == 1
        assert "t_requests_total" in problems[0]
        assert "missing" in problems[0]

    def test_type_change_fails(self, registry):
        baseline = self._schema(registry)
        mutated = [
            {**m, "type": "gauge"} if m["name"] == "t_requests_total" else m
            for m in baseline
        ]
        problems = validate_schema(mutated, baseline)
        assert any("changed type" in p for p in problems)

    def test_label_set_change_fails(self, registry):
        baseline = self._schema(registry)
        mutated = [
            {**m, "labels": ["type", "extra"]}
            if m["name"] == "t_requests_total" else m
            for m in baseline
        ]
        problems = validate_schema(mutated, baseline)
        assert any("changed labels" in p for p in problems)


# -- trace context ---------------------------------------------------------


class TestTraceContext:
    def test_stage_records_span_and_histogram(self, global_registry):
        with trace_request("req") as trace:
            assert current_trace() is trace
            with stage("execute"):
                pass
        assert current_trace() is None
        assert [s.stage for s in trace.spans] == ["execute"]
        assert trace.spans[0].duration_s >= 0.0
        hist = global_registry.snapshot().get(
            "repro_stage_duration_seconds", stage="execute"
        )
        assert hist["count"] == 1

    def test_stage_without_trace_feeds_histogram(self, global_registry):
        with stage("merge"):
            pass
        hist = global_registry.snapshot().get(
            "repro_stage_duration_seconds", stage="merge"
        )
        assert hist["count"] == 1

    def test_stage_disabled_and_traceless_is_inert(self, global_registry):
        global_registry.set_enabled(False)
        with stage("execute"):
            pass
        global_registry.set_enabled(True)
        hist = global_registry.snapshot().get(
            "repro_stage_duration_seconds", stage="execute"
        )
        assert hist is None or hist["count"] == 0

    def test_trace_to_dict(self, global_registry):
        with trace_request("req") as trace:
            with stage("a"):
                pass
            with stage("b"):
                pass
        doc = trace.to_dict()
        assert doc["name"] == "req"
        assert [s["stage"] for s in doc["spans"]] == ["a", "b"]

    @pytest.mark.parametrize("name,params,n_devices", [
        ("knn", {"k": 3}, 1), ("knn", {"k": 3}, 2),
        ("jaccard", {"k": 3}, 1), ("range", {"radius": 4}, 2),
    ])
    def test_every_workload_emits_execute_and_merge_spans(
        self, global_registry, name, params, n_devices
    ):
        """The spans live in the one engine loop, so they are not a
        kNN-single-board privilege any more."""
        import numpy as np

        from repro.core.workload import WorkloadSearch

        rng = np.random.default_rng(0)
        data = rng.integers(0, 2, (40, 16), dtype=np.uint8)
        engine = WorkloadSearch(data, name, params, board_capacity=8,
                                n_devices=n_devices)
        with trace_request("req") as trace:
            engine.search(data[:2])
        assert [s.stage for s in trace.spans] == ["execute", "merge"]
        for stage_name in ("execute", "merge"):
            hist = global_registry.snapshot().get(
                "repro_stage_duration_seconds", stage=stage_name
            )
            assert hist["count"] == 1

    def test_stage_histogram_shared(self, global_registry):
        assert stage_histogram(global_registry) is stage_histogram(
            global_registry
        )


# -- HTTP exporter ---------------------------------------------------------


class TestMetricsServer:
    def test_serves_prometheus_and_json(self, registry):
        registry.counter("t_total", "help").inc(4)
        server = start_metrics_server(0, registry=registry, host="127.0.0.1")
        try:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as r:
                body = r.read().decode()
                assert "t_total 4" in body
                assert r.headers["Content-Type"].startswith("text/plain")
            snap = fetch_snapshot(f"127.0.0.1:{server.port}")
            names = [m["name"] for m in snap["metrics"]]
            assert names == ["t_total"]
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/nope", timeout=5)
        finally:
            server.close()

    def test_close_releases_port(self, registry):
        server = start_metrics_server(0, registry=registry, host="127.0.0.1")
        port = server.port
        server.close()
        reborn = start_metrics_server(port, registry=registry,
                                      host="127.0.0.1")
        reborn.close()
