"""Dataset-store A/B: ArrayStore vs ShmStore vs MmapStore.

The PackedDataset refactor claims four things this benchmark measures
and the regression gate then holds, plus one it records:

* **bit identity** — the same data behind every store answers kNN /
  Jaccard / range queries byte-identically (the refactor's
  non-negotiable; recorded per store × workload);
* **out-of-core serving** — an engine over an mmap-backed ``.pds``
  shard must keep its peak-RSS *growth* under 25% of the packed
  payload size: digesting, compiling, and querying a file-backed
  shard never materializes the payload (measured in a fresh
  subprocess via ``ru_maxrss``; Linux-only — recorded as ``None``
  elsewhere so the gate skips it);
* **zero dataset bytes on the wire** — process workers attach the
  mmap store by path, so the measured IPC payload
  (``ipc_payload_bytes``) drops by the dataset's full size versus
  shipping array slices by value;
* **what each carrier costs in wall time** — cold (engine build +
  pool spawn + first search) and warm search time for the three ways
  a dataset reaches an out-of-process worker (by value, promoted shm
  slice refs, mmap slice refs) × ``process`` / ``pinned``: recorded,
  machine-relative, not gated beyond bit identity;
* **provisioning is a file copy** — standing up a second serving
  process from a ``.pds`` costs a copy + header validation, versus
  pickling and pushing the array (the old provisioning floor).

Results land in ``BENCH_dataset.json``.  Runs under pytest or
standalone: ``python benchmarks/bench_dataset_stores.py [--quick]``.
"""

import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.ap.compiler import BoardImageCache
from repro.core.dataset import (
    DatasetFormatError,
    PackedDataset,
    ShmStore,
    read_pds_header,
    write_pds,
)
from repro.core.engine import APSimilaritySearch
from repro.core.workload import WorkloadSearch
from repro.host.parallel import ParallelConfig
from repro.host.shm import shm_available


def _workload(n, d, n_queries, seed=2017):
    rng = np.random.default_rng(seed)
    data = (rng.random((n, d)) < 0.5).astype(np.uint8)
    queries = (rng.random((n_queries, d)) < 0.5).astype(np.uint8)
    return data, queries


def _arrays_equal(a, b) -> bool:
    import dataclasses

    fields = [
        f.name for f in dataclasses.fields(a)
        if isinstance(getattr(a, f.name), np.ndarray)
    ]
    return all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in fields
    )


# -- parity ------------------------------------------------------------------


def run_parity(n, d, q, cap, workdir):
    """Every store × workload, serial: identical to the array store."""
    data, queries = _workload(n, d, q)
    path = os.path.join(workdir, "parity.pds")
    write_pds(path, data)
    stores = {"array": data, "mmap": PackedDataset.open(path)}
    if shm_available():
        stores["shm"] = PackedDataset(ShmStore.export(data))
    rows = []
    for wl, params in [
        ("knn", {"k": 8}),
        ("jaccard", {"k": 8}),
        ("range", {"radius": d // 4}),
    ]:
        base = WorkloadSearch(
            data, wl, params, board_capacity=cap
        ).search(queries)
        for kind, ds in stores.items():
            res = WorkloadSearch(
                ds, wl, params, board_capacity=cap
            ).search(queries)
            rows.append({
                "workload": wl,
                "store": kind,
                "identical": _arrays_equal(base.value, res.value),
            })
    return rows


# -- format rejection --------------------------------------------------------


def run_format_rejection(n, d, workdir):
    data, _ = _workload(n, d, 1)
    path = os.path.join(workdir, "reject.pds")
    write_pds(path, data)
    blob = bytearray(open(path, "rb").read())

    def rejected(mutate):
        bad = os.path.join(workdir, "bad.pds")
        b = bytearray(blob)
        mutate(b)
        open(bad, "wb").write(bytes(b))
        try:
            read_pds_header(bad)
            return False
        except DatasetFormatError:
            return True

    checks = {
        "bad_magic": rejected(lambda b: b.__setitem__(0, b[0] ^ 0xFF)),
        "wrong_version": rejected(lambda b: b.__setitem__(8, 0x63)),
        "truncated_payload": rejected(lambda b: b.__delitem__(
            slice(len(b) - 64, len(b)))),
        "geometry_mismatch": rejected(lambda b: b.__setitem__(16, b[16] ^ 1)),
    }
    checks["all_rejected"] = all(checks.values())
    return checks


# -- provisioning ------------------------------------------------------------


def run_provisioning(n, d, workdir, rounds=3):
    """Standing up a new serving location: file copy vs pickle+push.

    The pickle round-trip is a *lower bound* on array provisioning (a
    real push adds the network); the ``.pds`` copy is the whole cost
    of mmap provisioning — the serving process then attaches by path.
    """
    data, _ = _workload(n, d, 1)
    src = os.path.join(workdir, "prov.pds")
    write_pds(src, data)

    t_copy = []
    for i in range(rounds):
        dst = os.path.join(workdir, f"prov_copy{i}.pds")
        t0 = time.perf_counter()
        shutil.copyfile(src, dst)
        read_pds_header(dst)  # the attach-time validation cost
        t_copy.append(time.perf_counter() - t0)

    t_pickle = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        blob = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)
        t_pickle.append(time.perf_counter() - t0)

    return {
        "payload_bytes": int(data.nbytes),
        "t_file_copy_s": min(t_copy),
        "t_pickle_roundtrip_s": min(t_pickle),
    }


# -- IPC accounting ----------------------------------------------------------


def _by_value_engine(data, parallel, **kw):
    """An engine whose out-of-process tasks carry ``dataset_bits`` by
    value — the platform-fallback carrier — whatever the dataset's
    size: built in-process (no promotion), then handed the pool."""
    engine = APSimilaritySearch(data, **kw)
    engine.parallel = parallel
    return engine


def run_ipc_accounting(n, d, q, cap, workdir):
    """Process backend, measured payloads: array slices by value on
    the wire vs mmap slice descriptors."""
    data, queries = _workload(n, d, q)
    path = os.path.join(workdir, "ipc.pds")
    write_pds(path, data)
    ref = APSimilaritySearch(data, k=8, board_capacity=cap).search(queries)
    out = {}
    with ParallelConfig(
        n_workers=2, backend="process", measure_ipc=True
    ) as pc:
        for label, engine in [
            ("array", _by_value_engine(data, pc, k=8, board_capacity=cap)),
            ("mmap", APSimilaritySearch(
                str(path), k=8, board_capacity=cap, parallel=pc)),
        ]:
            res = engine.search(queries)
            out[label] = {
                "ipc_payload_bytes": res.ipc_payload_bytes,
                "identical": bool(
                    np.array_equal(res.indices, ref.indices)
                    and np.array_equal(res.distances, ref.distances)
                ),
            }
    arr_b = out["array"]["ipc_payload_bytes"]
    mm_b = out["mmap"]["ipc_payload_bytes"]
    out["dataset_bytes"] = int(data.nbytes)
    out["dataset_bytes_removed"] = (
        arr_b - mm_b if arr_b is not None and mm_b is not None else None
    )
    out["payload_cut"] = (
        arr_b / mm_b if arr_b and mm_b else None
    )
    return out


# -- carrier wall time -------------------------------------------------------


def run_carrier_walls(n, d, q, cap, workdir, warm_rounds=5):
    """Cold and warm wall per dataset carrier × out-of-process backend.

    The three ways a dataset reaches a process/pinned worker: by value
    (the fallback when shared memory cannot carry it), slice refs into
    the shm segment the engine promotes an in-memory dataset to, and
    slice refs into a mapped ``.pds``.  Cold is engine build + pool
    spawn + first search on a fresh persistent pool — where dataset
    bytes move; warm is the median of ``warm_rounds`` later searches
    over a warm compile cache — where only queries and artifacts do.
    """
    data, queries = _workload(n, d, q)
    path = os.path.join(workdir, "walls.pds")
    write_pds(path, data)
    ref = APSimilaritySearch(
        data, k=8, board_capacity=cap, execution="functional"
    ).search(queries)
    partitions = -(-n // cap)
    carriers = [("array", _by_value_engine, data)]
    if shm_available():
        carriers.append(("shm", APSimilaritySearch, data))
    carriers.append(("mmap", APSimilaritySearch, str(path)))
    rows = []
    for backend in ("process", "pinned"):
        if backend == "pinned" and not shm_available():
            continue
        for label, build, src in carriers:
            with ParallelConfig(
                n_workers=2, backend=backend, persistent=True
            ) as pc:
                t0 = time.perf_counter()
                engine = build(
                    src, parallel=pc, k=8, board_capacity=cap,
                    execution="functional",
                    cache=BoardImageCache(max_entries=partitions),
                )
                res = engine.search(queries)
                t_cold = time.perf_counter() - t0
                warm = []
                for _ in range(warm_rounds):
                    t0 = time.perf_counter()
                    res = engine.search(queries)
                    warm.append(time.perf_counter() - t0)
            rows.append({
                "backend": backend,
                "store": label,
                "store_kind": engine.dataset.kind,
                "t_cold_s": t_cold,
                "t_warm_s": float(np.median(warm)),
                "identical": bool(
                    np.array_equal(res.indices, ref.indices)
                    and np.array_equal(res.distances, ref.distances)
                ),
            })
    return rows


# -- peak-RSS probe ----------------------------------------------------------

_RSS_PROBE = r"""
import resource, sys, json
import numpy as np
from repro.core.engine import APSimilaritySearch

path, d, n_q, cap = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
rng = np.random.default_rng(7)
queries = (rng.random((n_q, d)) < 0.5).astype(np.uint8)
# Baseline peak AFTER imports and query setup: everything from here on
# is the engine's footprint over the file-backed shard.
rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
engine = APSimilaritySearch(
    path, k=8, board_capacity=cap, execution="functional", cache=True
)
r1 = engine.search(queries)   # cold: digests + compiles + executes
r2 = engine.search(queries)   # warm: cache hits only
rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert (r1.indices == r2.indices).all()
scale = 1024 if sys.platform.startswith("linux") else 1
print(json.dumps({"rss_delta_bytes": (rss1 - rss0) * scale}))
"""


def run_rss_probe(n, d, cap, workdir, n_q=4):
    """Peak-RSS growth of a fresh process serving a ``.pds`` shard.

    Runs in a subprocess so the measurement starts from a clean
    ``ru_maxrss`` (a peak can never be un-peaked in-process).  Only
    meaningful where ``ru_maxrss`` tracks resident pages the way the
    acceptance budget assumes — recorded as ``None`` off Linux and the
    regression gate skips it there.
    """
    data, _ = _workload(n, d, 1)
    path = os.path.join(workdir, "rss.pds")
    write_pds(path, data)
    payload = int(data.nbytes)
    del data
    if not sys.platform.startswith("linux"):
        return {
            "payload_bytes": payload,
            "rss_delta_bytes": None,
            "rss_ratio": None,
            "within_budget": None,
            "budget": 0.25,
        }
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, path, str(d), str(n_q), str(cap)],
        capture_output=True, text=True, env=os.environ.copy(),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"rss probe failed:\n{proc.stderr}")
    delta = json.loads(proc.stdout)["rss_delta_bytes"]
    ratio = delta / payload
    return {
        "payload_bytes": payload,
        "rss_delta_bytes": int(delta),
        "rss_ratio": ratio,
        "within_budget": bool(ratio < 0.25),
        "budget": 0.25,
    }


# -- throughput --------------------------------------------------------------


def run_throughput(n, d, q, cap, workdir, rounds=3):
    """Warm serial query throughput per store (context, not gated)."""
    data, queries = _workload(n, d, q)
    path = os.path.join(workdir, "tp.pds")
    write_pds(path, data)
    rows = []
    for label, src in [("array", data), ("mmap", str(path))]:
        engine = APSimilaritySearch(
            src, k=8, board_capacity=cap, execution="functional", cache=True
        )
        engine.search(queries)  # warm the compile cache
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            engine.search(queries)
            times.append(time.perf_counter() - t0)
        best = min(times)
        rows.append({
            "store": label,
            "t_warm_s": best,
            "queries_per_s": q / best,
        })
    return rows


def run_all(quick=False):
    if quick:
        parity_n, parity_d = 1 << 12, 32
        big_n, big_d = 1 << 18, 128     # 32 MiB payload for the probes
        cap, q = 1 << 10, 16
        walls_n, walls_d = 1 << 15, 64  # 2 MiB: over the promotion floor
    else:
        parity_n, parity_d = 1 << 14, 64
        big_n, big_d = 1 << 19, 128     # 64 MiB payload
        cap, q = 1 << 10, 32
        walls_n, walls_d = 1 << 18, 128
    with tempfile.TemporaryDirectory(prefix="bench-dataset-") as workdir:
        parity = run_parity(parity_n, parity_d, 8, 256, workdir)
        rejection = run_format_rejection(256, 32, workdir)
        provisioning = run_provisioning(big_n, big_d, workdir)
        ipc = run_ipc_accounting(parity_n, parity_d, 8, 256, workdir)
        walls = run_carrier_walls(walls_n, walls_d, q, cap, workdir)
        rss = run_rss_probe(big_n, big_d, cap, workdir)
        throughput = run_throughput(parity_n, parity_d, q, 256, workdir)
    return {
        "quick": quick,
        "parity": parity,
        "format_rejection": rejection,
        "provisioning": provisioning,
        "ipc": ipc,
        "carrier_walls": walls,
        "rss": rss,
        "throughput": throughput,
    }


# -- pytest harness ----------------------------------------------------------


def test_dataset_stores_smoke(benchmark, report):
    results = benchmark.pedantic(
        lambda: run_all(quick=True), rounds=1, iterations=1
    )
    report(
        "Dataset stores (quick sizes)",
        ["Check", "Value"],
        [
            ["parity stores x workloads",
             f"{sum(r['identical'] for r in results['parity'])}"
             f"/{len(results['parity'])} identical"],
            ["pds rejects corruption",
             results["format_rejection"]["all_rejected"]],
            ["ipc payload cut (mmap)",
             f"{results['ipc']['payload_cut']:.1f}x"],
            ["rss delta / payload",
             (f"{results['rss']['rss_ratio']:.3f}"
              if results["rss"]["rss_ratio"] is not None else "skipped")],
        ],
    )
    assert all(r["identical"] for r in results["parity"])
    assert results["format_rejection"]["all_rejected"]
    assert results["ipc"]["array"]["identical"]
    assert results["ipc"]["mmap"]["identical"]
    assert results["ipc"]["payload_cut"] > 2.0
    assert all(r["identical"] for r in results["carrier_walls"])
    if results["rss"]["within_budget"] is not None:
        assert results["rss"]["within_budget"]


# -- standalone entry point --------------------------------------------------


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--out", default="BENCH_dataset.json",
                        help="write results to this JSON file")
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick)

    print("== store x workload parity (serial) ==")
    for r in results["parity"]:
        print(f"{r['workload']:>8} / {r['store']:<6} identical={r['identical']}")
    print("== .pds structural rejection ==")
    for name, ok in results["format_rejection"].items():
        print(f"{name:>20}: {'rejected' if ok else 'ACCEPTED (BUG)'}")

    prov = results["provisioning"]
    mib = prov["payload_bytes"] / (1 << 20)
    print(f"== provisioning a {mib:.0f} MiB shard ==")
    print(f"file copy + validate : {prov['t_file_copy_s'] * 1e3:8.2f} ms")
    print(f"pickle round-trip    : {prov['t_pickle_roundtrip_s'] * 1e3:8.2f} ms")

    ipc = results["ipc"]
    print("== process-worker IPC payload ==")
    print(f"array slices : {ipc['array']['ipc_payload_bytes']:>12} bytes")
    print(f"mmap refs    : {ipc['mmap']['ipc_payload_bytes']:>12} bytes "
          f"({ipc['payload_cut']:.1f}x cut, dataset "
          f"{ipc['dataset_bytes']} bytes off the wire)")

    print("== wall per dataset carrier x out-of-process backend ==")
    for r in results["carrier_walls"]:
        print(f"{r['backend']:>8} / {r['store']:<6} "
              f"cold {r['t_cold_s'] * 1e3:8.1f} ms   "
              f"warm {r['t_warm_s'] * 1e3:8.1f} ms   "
              f"identical={r['identical']}")

    rss = results["rss"]
    if rss["rss_ratio"] is not None:
        print(f"== peak-RSS growth serving a "
              f"{rss['payload_bytes'] / (1 << 20):.0f} MiB .pds shard ==")
        print(f"delta {rss['rss_delta_bytes'] / (1 << 20):.1f} MiB = "
              f"{rss['rss_ratio']:.3f} of payload "
              f"(budget {rss['budget']}) -> "
              f"{'OK' if rss['within_budget'] else 'OVER BUDGET'}")
    else:
        print("== peak-RSS probe skipped (non-Linux ru_maxrss semantics) ==")

    print("== warm serial throughput ==")
    for r in results["throughput"]:
        print(f"{r['store']:>6}: {r['queries_per_s']:10.1f} queries/s")

    with open(args.out, "w") as f:
        json.dump(results, f, indent=2)
    print(f"# results written to {args.out}")

    if not all(r["identical"] for r in results["parity"]):
        raise SystemExit("FAIL: store parity broken")
    if not results["format_rejection"]["all_rejected"]:
        raise SystemExit("FAIL: corrupt .pds accepted")
    if not (
        ipc["array"]["identical"] and ipc["mmap"]["identical"]
        and all(r["identical"] for r in results["carrier_walls"])
    ):
        raise SystemExit("FAIL: parallel results diverge from serial")
    if ipc["payload_cut"] is None or ipc["payload_cut"] < 2.0:
        raise SystemExit(
            f"FAIL: mmap IPC payload only {ipc['payload_cut']}x smaller"
        )
    if rss["within_budget"] is False:
        raise SystemExit(
            f"FAIL: RSS growth {rss['rss_ratio']:.3f} of payload exceeds "
            f"the {rss['budget']} out-of-core budget"
        )
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
