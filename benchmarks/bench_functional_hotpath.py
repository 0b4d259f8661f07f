"""Top-k-aware functional hot path: old vs new kernel + decode timings.

The functional back-end is the path the engine auto-selects at the
paper's large-``n`` scale, so its constant factors ARE the product's
latency.  This benchmark freezes the pre-PR hot path — full
``(q, n, w)`` broadcast with table popcounts, a stable argsort of the
*entire* report set per partition, a per-report Python
``decode_report_offset`` loop, and a per-query ``merge_topk`` loop —
and races it against the shipped path (column-wise ``np.bitwise_count``
kernel, narrow-key ``topk_block`` partition selection, one batched
cross-partition merge) at several ``n``:

* kernel rows: all-pairs Hamming cdist, old vs new, peak-bounded tiles;
* search rows: end-to-end ``APSimilaritySearch`` functional search,
  old engine loop vs new, with bit-identical result checks across
  old/new, tiled/untiled, and thread/process/sequential execution.

Timings land in ``BENCH_functional.json`` so CI records the perf
trajectory run over run.  Runs under the pytest-benchmark harness like
the other benchmarks, or standalone:
``python benchmarks/bench_functional_hotpath.py [--quick] [--out PATH]``.
"""

import json
import time

import numpy as np

# -- frozen pre-PR reference implementations ------------------------------
#
# Copied, not imported: these are the exact algorithms the engine ran
# before the top-k overhaul, kept verbatim so the speedup baseline
# cannot silently improve as the library evolves.

_POPCOUNT16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def _old_popcount_u64(words):
    lo = (words & np.uint64(0xFFFF)).astype(np.intp)
    m1 = ((words >> np.uint64(16)) & np.uint64(0xFFFF)).astype(np.intp)
    m2 = ((words >> np.uint64(32)) & np.uint64(0xFFFF)).astype(np.intp)
    hi = (words >> np.uint64(48)).astype(np.intp)
    return (
        _POPCOUNT16[lo].astype(np.int64)
        + _POPCOUNT16[m1]
        + _POPCOUNT16[m2]
        + _POPCOUNT16[hi]
    )


def _old_cdist(queries_packed, dataset_packed):
    """Pre-PR kernel: one full (q, n, w) int64 intermediate."""
    xored = queries_packed[:, None, :] ^ dataset_packed[None, :, :]
    return _old_popcount_u64(xored).sum(axis=-1)


def _old_functional_search(data, queries, k, cap):
    """Pre-PR engine loop: full report stream, stable argsort over all
    n reports per query, per-report Python decode, per-query merge."""
    from repro.core.functional import FunctionalKnnBoard
    from repro.core.macros import collector_tree_depth
    from repro.core.stream import StreamLayout, decode_report_offset
    from repro.util.topk import merge_topk

    d = data.shape[1]
    layout = StreamLayout(d, collector_tree_depth(d, 16))
    n_q = queries.shape[0]
    k_eff = min(k, data.shape[0])
    partials = [[] for _ in range(n_q)]
    for start in range(0, data.shape[0], cap):
        end = min(start + cap, data.shape[0])
        board = FunctionalKnnBoard(data[start:end], layout)
        q_idx, codes, cycles = board.query_reports(queries)
        codes = codes + start
        order = np.lexsort((codes, cycles, q_idx))
        q_sorted = q_idx[order]
        codes_sorted = codes[order]
        cycles_sorted = cycles[order]
        starts = np.searchsorted(q_sorted, np.arange(n_q), side="left")
        ends = np.searchsorted(q_sorted, np.arange(n_q), side="right")
        for qi in range(n_q):
            lo, hi = starts[qi], min(ends[qi], starts[qi] + k_eff)
            if hi <= lo:
                continue
            dists = np.array(
                [decode_report_offset(int(c), layout)[2]
                 for c in cycles_sorted[lo:hi]],
                dtype=np.int64,
            )
            partials[qi].append((codes_sorted[lo:hi], dists))
    indices = np.empty((n_q, k_eff), dtype=np.int64)
    distances = np.empty((n_q, k_eff), dtype=np.int64)
    for qi in range(n_q):
        idx, dist = merge_topk(partials[qi], k_eff)
        indices[qi] = idx
        distances[qi] = dist
    return indices, distances


# -- workload -------------------------------------------------------------


def _workload(n, d, n_queries, seed=2017):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, (n, d), dtype=np.uint8)
    queries = rng.integers(0, 2, (n_queries, d), dtype=np.uint8)
    return data, queries


def _time(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


# -- benchmark passes -----------------------------------------------------


def run_kernel_bench(ns, d=64, q=64):
    """Old broadcast kernel vs new tiled kernel at several n."""
    from repro.util.bitops import hamming_cdist_packed, pack_bits

    rows = []
    for n in ns:
        data, queries = _workload(n, d, q)
        dp, qp = pack_bits(data), pack_bits(queries)
        t_old, ref = _time(lambda: _old_cdist(qp, dp))
        t_new, got = _time(lambda: hamming_cdist_packed(qp, dp))
        t_tiled, got_tiled = _time(lambda: hamming_cdist_packed(qp, dp, tile_q=8))
        identical = bool((ref == got).all() and (ref == got_tiled).all())
        rows.append({
            "n": n, "d": d, "q": q,
            "t_old_s": t_old, "t_new_s": t_new, "t_new_tiled_s": t_tiled,
            "speedup": t_old / max(t_new, 1e-12),
            "identical": identical,
        })
    return rows


def run_search_bench(ns, d=64, q=64, k=10, cap=1024):
    """End-to-end functional search, pre-PR loop vs shipped engine."""
    from repro import APSimilaritySearch

    rows = []
    for n in ns:
        data, queries = _workload(n, d, q)
        t_old, (old_idx, old_dist) = _time(
            lambda: _old_functional_search(data, queries, k, cap)
        )
        eng = APSimilaritySearch(
            data, k=k, board_capacity=cap, execution="functional"
        )
        t_new, res = _time(lambda: eng.search(queries))
        identical = bool(
            (res.indices == old_idx).all() and (res.distances == old_dist).all()
        )
        rows.append({
            "n": n, "d": d, "q": q, "k": k, "cap": cap,
            "t_old_s": t_old, "t_new_s": t_new,
            "speedup": t_old / max(t_new, 1e-12),
            "identical": identical,
        })
    return rows


def run_backend_parity(n=4096, d=64, q=32, k=10, cap=512):
    """thread ≡ process ≡ sequential on the same workload."""
    from repro import APSimilaritySearch
    from repro.host.parallel import ParallelConfig

    data, queries = _workload(n, d, q)
    seq = APSimilaritySearch(
        data, k=k, board_capacity=cap, execution="functional"
    ).search(queries)
    out = {"n": n, "q": q, "k": k, "backends": {}}
    for backend in ("thread", "process"):
        t, res = _time(
            lambda: APSimilaritySearch(
                data, k=k, board_capacity=cap, execution="functional",
                parallel=ParallelConfig(n_workers=4, backend=backend),
            ).search(queries)
        )
        out["backends"][backend] = {
            "t_s": t,
            "n_workers": res.n_workers,
            "identical": bool(
                (res.indices == seq.indices).all()
                and (res.distances == seq.distances).all()
                and res.counters == seq.counters
            ),
        }
    return out


def run_all(quick=False):
    if quick:
        kernel_ns = [1 << 10, 1 << 12]
        search_ns = [1 << 10, 1 << 12]
        q, k = 16, 10
        parity = run_backend_parity(n=1024, q=8)
    else:
        kernel_ns = [1 << 14, 1 << 17]
        search_ns = [1 << 14, 1 << 17]  # acceptance point: n = 2**17
        q, k = 64, 10
        parity = run_backend_parity()
    return {
        "kernel": run_kernel_bench(kernel_ns, q=q),
        "search": run_search_bench(search_ns, q=q, k=k),
        "parity": parity,
        "quick": quick,
    }


# -- pytest harness -------------------------------------------------------


def test_functional_hotpath_speedup(benchmark, report):
    results = benchmark.pedantic(lambda: run_all(quick=True), rounds=1, iterations=1)
    report(
        "Functional hot path: pre-PR loop vs top-k path (quick sizes)",
        ["n", "t_old (s)", "t_new (s)", "Speedup", "Bit-identical"],
        [
            [r["n"], f"{r['t_old_s']:.3f}", f"{r['t_new_s']:.3f}",
             f"{r['speedup']:.1f}x", r["identical"]]
            for r in results["search"]
        ],
    )
    assert all(r["identical"] for r in results["search"])
    assert all(r["identical"] for r in results["kernel"])
    assert all(b["identical"] for b in results["parity"]["backends"].values())


# -- standalone entry point -----------------------------------------------


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--out", default="BENCH_functional.json",
                        help="write timing rows to this JSON file")
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick)

    print("== kernel: all-pairs Hamming cdist (old table+broadcast vs new) ==")
    print(f"{'n':>9} {'t_old_s':>9} {'t_new_s':>9} {'speedup':>8} {'identical':>10}")
    for r in results["kernel"]:
        print(f"{r['n']:>9} {r['t_old_s']:>9.3f} {r['t_new_s']:>9.3f} "
              f"{r['speedup']:>7.1f}x {r['identical']!s:>10}")

    print("== search: end-to-end functional kNN (pre-PR loop vs top-k path) ==")
    print(f"{'n':>9} {'t_old_s':>9} {'t_new_s':>9} {'speedup':>8} {'identical':>10}")
    for r in results["search"]:
        print(f"{r['n']:>9} {r['t_old_s']:>9.3f} {r['t_new_s']:>9.3f} "
              f"{r['speedup']:>7.1f}x {r['identical']!s:>10}")

    par = results["parity"]
    print("== backend parity (vs sequential) ==")
    for backend, row in par["backends"].items():
        print(f"{backend:>9}: {row['t_s']:.3f}s workers={row['n_workers']} "
              f"identical={row['identical']}")

    with open(args.out, "w") as f:
        json.dump(results, f, indent=2)
    print(f"# timings written to {args.out}")

    ok = (
        all(r["identical"] for r in results["kernel"])
        and all(r["identical"] for r in results["search"])
        and all(b["identical"] for b in par["backends"].values())
    )
    if not ok:
        raise SystemExit("FAIL: hot-path results diverge from the reference")
    if not args.quick:
        worst = min(r["speedup"] for r in results["search"])
        if worst < 3.0:
            raise SystemExit(
                f"FAIL: functional search speedup {worst:.2f}x < 3x acceptance"
            )
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
