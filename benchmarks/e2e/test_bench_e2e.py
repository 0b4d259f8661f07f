"""Smoke test of the request-path benchmark at ``--quick`` sizes.

Collected by tier-1 (``python -m pytest`` from the repo root).  It runs
every pass of every workload once in this process, so it checks the
harness — contract, correctness accounting, trace shape, clean-up — and
asserts nothing about speed.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from pathlib import Path

import pytest

from e2elib import cli, spec, tracing, workloads

REPO = Path(__file__).resolve().parents[2]
SEED = 7


def _run(name: str, trace: bool, seed: int = SEED) -> dict:
    return cli.run_pass(name, seed, cli.QUICK_SECONDS, trace, quick=True)


def _children() -> dict[int, str]:
    """Live child processes of this one (pid -> command line)."""
    me = os.getpid()
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            if ppid == me:
                with open(f"/proc/{entry}/cmdline") as f:
                    found[int(entry)] = f.read().replace("\0", " ")
        except (OSError, IndexError):
            continue  # raced with an exiting process
    return found


def _leftovers() -> tuple[set, set, set]:
    # multiprocessing's resource tracker is the interpreter's own
    # long-lived helper, not something a run leaves behind.
    children = {pid for pid, cmd in _children().items() if "resource_tracker" not in cmd}
    shm = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    temp = {p.name for p in cli.OUT.glob("tmp-*")} | {
        p.name for p in cli.OUT.rglob("*.pds")
    }
    return children, shm, temp


@pytest.fixture(scope="module")
def baseline():
    """Children, shm segments and temp files present before any run."""
    return _leftovers()


@pytest.fixture(scope="module")
def quick_results(baseline):
    """``{(workload, traced?): result}`` for all eight quick passes."""
    return {
        (name, trace): _run(name, trace)
        for name in spec.WORKLOAD_NAMES
        for trace in (False, True)
    }


def test_manifest_matches_spec():
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    assert manifest["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["run_seconds"] == spec.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == spec.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == spec.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == spec.PER_LAYER


def test_every_metric_present_with_its_unit(quick_results):
    for (name, trace), result in quick_results.items():
        units = spec.PER_LAYER_UNITS if trace else spec.END_TO_END_UNITS
        assert set(result["metrics"]) == set(units), (name, trace)
        for metric, cell in result["metrics"].items():
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric)
            assert cell["unit"] == units[metric]
            assert math.isfinite(cell["value"]), (name, metric)
            if not trace:
                assert cell["value"] > 0, (name, metric)
        assert result["correct"] and result["failed"] == 0, (name, trace)
        assert result["attempted"] >= 1


def test_workloads_sit_on_both_sides_of_the_compile_cache(quick_results):
    scan = quick_results["scan_inproc", True]["metrics"]
    router = quick_results["router_points", True]["metrics"]
    assert scan["compiler.cache_hit_ratio"]["value"] == 0.0
    assert scan["compiler.cache_evictions_per_search"]["value"] > 0
    assert router["compiler.cache_hit_ratio"]["value"] == 1.0
    assert router["compiler.cache_evictions_per_search"]["value"] == 0.0


@pytest.mark.parametrize("name", ["scan_inproc", "router_points"])
def test_cache_counts_repeat_exactly(quick_results, name):
    again = _run(name, trace=True)["metrics"]
    first = quick_results[name, True]["metrics"]
    for metric in ("compiler.cache_hit_ratio", "compiler.cache_evictions_per_search",
                   "engine.partitions_per_search"):
        assert again[metric]["value"] == first[metric]["value"]


def _load_spans(name: str) -> list[tracing.Span]:
    doc = json.loads((cli.OUT / f"trace_{name}.json").read_text())
    assert doc["columns"] == ["id", "name", "start_us", "end_us", "parent", "request"]
    return [
        tracing.Span(sid, doc["names"][n], start, end, parent, request)
        for sid, n, start, end, parent, request in doc["spans"]
    ]


def test_span_trees_are_well_formed(quick_results):
    for name in spec.WORKLOAD_NAMES:
        spans = _load_spans(name)
        assert spans, name
        assert tracing.tree_problems(spans) == []
        roots = [s for s in spans if s.parent is None]
        assert roots and all(s.name == "request" for s in roots), name
        layers = {s.layer for s in spans}
        # the wire and replication layers are crossed by the rack alone
        assert ({"rpc", "replication"} <= layers) == (name == "rack_2x2"), name
    wire = {name: quick_results[name, True]["metrics"]["rpc.wire_bytes_per_query"]["value"]
            for name in spec.WORKLOAD_NAMES}
    assert wire["rack_2x2"] > 0 and sum(wire.values()) == wire["rack_2x2"]


def test_wrong_answer_is_a_failed_operation(monkeypatch, capsys):
    from repro import APSimilaritySearch

    honest = APSimilaritySearch.search

    def shifted(self, queries_bits):
        result = honest(self, queries_bits)
        result.indices = result.indices + 1
        return result

    monkeypatch.setattr(APSimilaritySearch, "search", shifted)
    result = _run("scan_inproc", trace=False)
    assert result["failed"] > 0 and not result["correct"]
    code = cli.main(["--workload", "scan_inproc", "--trace", "0", "--quick"])
    assert code != 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["failed"] > 0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_runs_leave_nothing_behind(baseline, quick_results, monkeypatch):
    # eight clean passes have run by now, rack included; add one that dies
    def boom(self):
        raise RuntimeError("injected mid-workload failure")

    monkeypatch.setattr(workloads.Rack2x2, "trial", boom)
    with pytest.raises(RuntimeError, match="injected"):
        _run("rack_2x2", trace=False)
    children, shm, temp = _leftovers()
    assert children <= baseline[0], "a shard server outlived its run"
    assert shm <= baseline[1], "a /dev/shm segment outlived its run"
    assert temp <= baseline[2], "a temp .pds outlived its run"
