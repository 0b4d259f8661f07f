"""Command-line interface: ``python -m repro.cli <command>``.

Downstream-user entry points over the library's main flows:

* ``search`` — similarity search over ``.npy`` binary datasets on the
  simulated AP: kNN by default, any registered workload via
  ``--workload`` (add ``--remote host:port,...`` to fan the batch out
  to running shard servers instead of loading a local dataset);
* ``serve`` — expose one shard of a dataset as a network shard
  service (``repro.host.rpc.ShardServer``), optionally restricted to
  named workloads;
* ``pack`` — convert a dataset into the mmap-able ``.pds`` packed-
  shard format (``repro.core.dataset``); ``search``/``serve`` accept
  ``.pds`` paths anywhere they accept ``.npy``, serving file-backed
  shards without loading the payload into RAM;
* ``stats`` — fetch and pretty-print the metrics snapshot of a running
  server's ``--metrics-port`` exporter (``repro stats host:port``);
* ``workloads`` — list the registered workloads;
* ``compile`` — PCRE -> ANML compilation (the AP programming model);
* ``simulate`` — run an ANML file against an input file and print the
  report records;
* ``tables`` — print the paper's Table I / Table II registries.
"""

from __future__ import annotations

import argparse
import signal
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Similarity search on (simulated) automata processors",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # The engine a search or a shard server runs: device, boards, pool.
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--device", type=_device, default="gen1",
                        metavar="{gen1,gen2}")
    engine.add_argument("--board-capacity", type=int, default=None)
    engine.add_argument("--devices", type=int, default=1,
                        help="fan the dataset (a server: its shard) out "
                             "across this many AP boards (multi-board "
                             "scale-out: balanced shards, one shared compile "
                             "cache, exact host-side merge, for every "
                             "workload; 1 = single board). Combine with "
                             "--workers/--backend to pick the host-side pool, "
                             "e.g. --devices 4 --workers 4 --backend thread")
    engine.add_argument("--workers", type=int, default=1,
                        help="worker lanes for sharded partition execution "
                             "(1 = sequential)")
    engine.add_argument("--backend", choices=["process", "thread"],
                        default="process",
                        help="worker pool flavor (with --workers > 1): "
                             "processes (stateless: they view a .pds or "
                             "shared-memory dataset or pack their own rows, "
                             "and never see the board cache) or threads (the "
                             "kernels release the GIL; share the board cache "
                             "with the parent directly)")

    s = sub.add_parser("search", parents=[engine],
                       help="similarity search over a binary dataset "
                            "(kNN by default; see --workload)")
    s.add_argument("dataset", help=".npy uint8 array of shape (n, d), values "
                              "0/1, or a .pds packed shard (mmap-served, "
                              "see `repro pack`); pass '-' with --remote "
                              "(the rack holds the data)")
    s.add_argument("queries", help=".npy uint8 array of shape (q, d)")
    s.add_argument("--remote", default=None, metavar="HOST:PORT,...",
                   help="comma-separated shard-server addresses: fan the "
                        "query batch out to running `repro serve` instances "
                        "and merge their replies (bit-identical to a local "
                        "search over the concatenated dataset); the local "
                        "dataset argument is ignored — pass '-'. Each "
                        "comma-separated slot may be a replica group "
                        "'host:port|host:port' of servers holding the SAME "
                        "shard: the group picks a primary by tracked "
                        "health, fails over on error, and hedges slow "
                        "requests instead of degrading to partial")
    s.add_argument("--timeout-s", type=float, default=10.0,
                   help="per-shard RPC timeout (with --remote)")
    s.add_argument("--retries", type=int, default=1,
                   help="per-shard reconnect-retries (with --remote)")
    s.add_argument("--hedge-delay-ms", type=float, default=None,
                   help="hedged-read delay for replica groups (with "
                        "--remote): re-issue a slow request to a second "
                        "replica after this many ms; default adapts to "
                        "~1.5x the observed p95 latency, 0 disables "
                        "hedging (failover still applies)")
    s.add_argument("--require-all-shards", action="store_true",
                   help="fail the batch if any shard (every replica of a "
                        "group) fails, instead of returning a flagged "
                        "partial merge (with --remote)")
    s.add_argument("-k", type=int, default=None,
                   help="neighbors per query (default: the workload's "
                        "own, 10 for knn and jaccard)")
    s.add_argument("--workload", default="knn", metavar="NAME",
                   help="registered workload to run (see `repro "
                        "workloads`): 'knn' (default, Hamming top-k), "
                        "'jaccard' (Jaccard-similarity top-k, uses -k), "
                        "'range' (all hits within --radius), or any "
                        "custom registered name")
    s.add_argument("--radius", type=int, default=None,
                   help="Hamming radius (required by --workload range)")
    s.add_argument("--batch", type=int, default=0,
                   help="route each query row through the BatchRouter "
                        "admission layer as its own concurrent caller, "
                        "coalescing up to this many rows per partition "
                        "pass (serving-path demo; results stay "
                        "bit-identical; 0 = direct batch search)")
    s.add_argument("--batch-wait-ms", type=float, default=2.0,
                   help="longest the admission layer waits for more "
                        "callers after a batch opens (with --batch); a "
                        "cap, not a delay: a batch is dispatched as soon "
                        "as every concurrent caller has joined it")
    s.add_argument("--cache-size", type=int, default=0,
                   help="LRU board-image cache capacity (0 = no cache); "
                        "sequential runs and thread workers use it in "
                        "place; process workers (--workers > 1) have none")
    s.add_argument("--out", default=None,
                   help="save every result array (indices, distances, "
                        "similarities, ...: the workload's wire fields) "
                        "to this file as one .npz")

    v = sub.add_parser("serve", parents=[engine],
                       help="serve one dataset shard over TCP "
                            "(network-transparent shard service)")
    v.add_argument("dataset", help=".npy uint8 array of shape (n, d), "
                              "values 0/1, or a .pds packed shard (served "
                              "from disk via mmap without loading the "
                              "payload) — the FULL dataset; --shard "
                              "selects this server's balanced slice")
    v.add_argument("--shard", default="0/1", metavar="I/N",
                   help="serve balanced shard I of N (default 0/1 = the "
                        "whole dataset); every server in a rack must be "
                        "pointed at the same dataset file so offsets line "
                        "up, e.g. --shard 0/4 ... --shard 3/4")
    v.add_argument("--host", default="127.0.0.1",
                   help="bind address (default loopback; the protocol is "
                        "unauthenticated — see the README trust model "
                        "before exposing it beyond a trusted network)")
    v.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = let the OS pick; the bound port is "
                        "printed at startup)")
    v.add_argument("--cache-size", type=int, default=0,
                   help="LRU board-image cache capacity (0 = default size; "
                        "the server always caches, for sequential runs "
                        "and thread workers; process workers have none)")
    v.add_argument("--workload", action="append", default=None,
                   dest="workloads", metavar="NAME",
                   help="serve only the named workload (repeatable: "
                        "--workload knn --workload range); default = every "
                        "registered workload")
    v.add_argument("--drain-timeout-s", type=float, default=5.0,
                   help="SIGTERM drain bound: stop accepting, let in-flight "
                        "requests finish for up to this long, then close — "
                        "rolling restarts never drop an accepted request; "
                        "drain progress (remaining in-flight count) is logged "
                        "while it runs")
    v.add_argument("--metrics-port", type=int, default=None,
                   help="expose the process metrics registry over HTTP on "
                        "this port: /metrics (Prometheus text format) and "
                        "/metrics.json (snapshot JSON, what `repro stats` "
                        "reads); 0 picks an ephemeral port (printed at "
                        "startup); omit to run without an exporter")

    t = sub.add_parser("stats", help="fetch and pretty-print a running "
                                     "server's metrics snapshot")
    t.add_argument("address", metavar="HOST:PORT",
                   help="a `repro serve --metrics-port` exporter address")
    t.add_argument("--json", action="store_true",
                   help="dump the raw snapshot JSON instead of the summary")
    t.add_argument("--timeout-s", type=float, default=5.0)

    g = sub.add_parser("pack", help="pack a dataset into the mmap-able "
                                    ".pds shard format")
    g.add_argument("src", help=".npy uint8 (n, d) binary array — or an "
                              "existing .pds to re-shard/inspect")
    g.add_argument("out", nargs="?", default=None,
                   help="output .pds path (default: src with a .pds "
                        "suffix; required when src is already .pds "
                        "unless --info/--verify)")
    g.add_argument("--shard", default=None, metavar="I/N",
                   help="pack only balanced shard I of N — provisioning "
                        "a shard host becomes copying just its slice")
    g.add_argument("--info", action="store_true",
                   help="print the validated .pds header of SRC and exit "
                        "(no output file)")
    g.add_argument("--verify", action="store_true",
                   help="hash every payload chunk of SRC against its chunk "
                        "table and the rows against the header digest; "
                        "exit 1 naming the first bad chunk (no output file)")

    sub.add_parser("workloads",
                   help="list registered workloads (the --workload names)")

    c = sub.add_parser("compile", help="compile a PCRE pattern to ANML")
    c.add_argument("pattern", help="PCRE pattern (subset; see repro.automata.regex)")
    c.add_argument("--report-code", type=int, default=0)
    c.add_argument("--anchored", action="store_true")
    c.add_argument("--out", default=None, help="write ANML here (default stdout)")
    c.add_argument("--optimize", action="store_true",
                   help="run prefix merging before emitting")

    r = sub.add_parser("simulate", help="run an ANML file over an input file")
    r.add_argument("anml", help="ANML network file")
    r.add_argument("input", help="file whose bytes form the symbol stream")
    r.add_argument("--limit", type=int, default=20,
                   help="print at most this many reports (0 = all)")

    sub.add_parser("tables", help="print the paper's Table I / II registries")
    return p


def _device(name: str):
    """``--device`` -> the AP generation's device spec."""
    from repro.ap.device import GEN1, GEN2

    devices = {"gen1": GEN1, "gen2": GEN2}
    if name not in devices:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from 'gen1', 'gen2')"
        )
    return devices[name]


def _parse_shard(spec: str) -> tuple[int, int] | None:
    """``--shard I/N`` as ``(I, N)``, or None after printing the error."""
    try:
        index, _, count = spec.partition("/")
        return int(index), int(count)
    except ValueError:
        print(f"error: --shard must be I/N, got {spec!r}", file=sys.stderr)
        return None


def _load_dataset(path: str):
    """A search/serve ``dataset`` argument as an engine-ready object:
    ``.pds`` opens as a file-backed handle (mmap, payload never loads),
    anything else loads as saved — the engine validates it as 0/1
    before narrowing to uint8."""
    from repro.core.dataset import PDS_SUFFIX, PackedDataset

    if path.endswith(PDS_SUFFIX):
        return PackedDataset.open(path)
    return np.load(path)


def _hedge_from_args(args):
    """``--hedge-delay-ms`` -> a HedgePolicy (None = adaptive default)."""
    from repro.host.replication import HedgePolicy

    delay_ms = getattr(args, "hedge_delay_ms", None)
    if delay_ms is None:
        return None
    if delay_ms <= 0:
        return HedgePolicy(enabled=False)
    return HedgePolicy(fixed_delay_s=delay_ms / 1000.0)


class _CliError(Exception):
    """A usage/runtime failure carrying the process exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _local_engine(args, params: dict):
    """The one local path: any workload, any ``--devices``."""
    from repro.core.workload import WorkloadSearch
    from repro.host.parallel import ParallelConfig

    if args.dataset == "-":
        raise _CliError("dataset '-' is only valid with --remote", 2)
    if args.devices < 1:
        raise _CliError(f"--devices must be >= 1, got {args.devices}", 2)
    dataset = _load_dataset(args.dataset)
    if args.devices > dataset.shape[0]:
        raise _CliError(
            f"--devices ({args.devices}) exceeds the dataset's "
            f"{dataset.shape[0]} vectors (every device needs a non-empty "
            "shard)", 2)
    try:
        return WorkloadSearch(
            dataset,
            args.workload,
            params,
            board_capacity=args.board_capacity,
            parallel=ParallelConfig(
                n_workers=args.workers, backend=args.backend
            ),
            cache=args.cache_size,  # <= 0 disables caching
            device=args.device,
            n_devices=args.devices,
        )
    except ValueError as exc:  # e.g. --workload range without --radius
        raise _CliError(str(exc), 2) from exc


def _remote_engine(args, params: dict):
    """The one remote path: fan out to running shard servers."""
    from repro.host.rpc import RemoteShardError, RemoteWorkloadSearch

    if args.dataset != "-":
        print(f"# note: --remote serves the dataset; local file "
              f"{args.dataset!r} is not loaded (pass '-' to silence this)",
              file=sys.stderr)
    addresses = [a.strip() for a in args.remote.split(",") if a.strip()]
    try:
        return RemoteWorkloadSearch(
            addresses,
            args.workload,
            params,
            timeout_s=args.timeout_s,
            retries=args.retries,
            allow_partial=not args.require_all_shards,
            hedge=_hedge_from_args(args),
        )
    except (RemoteShardError, OSError) as exc:
        raise _CliError(f"cannot reach shard rack: {exc}", 1) from exc
    except ValueError as exc:  # malformed params / inconsistent rack
        raise _CliError(str(exc), 2) from exc


def _print_rows(value, limit: int = 10) -> None:
    """Per-query result lines for any workload value: ragged hit lists
    (``counts``), similarity top-k, or plain index:distance top-k."""
    counts = getattr(value, "counts", None)
    similarities = getattr(value, "similarities", None)
    for qi in range(min(value.indices.shape[0], limit)):
        if counts is not None:
            c = int(counts[qi])
            pairs = " ".join(
                f"{i}:{d}" for i, d in
                zip(value.indices[qi][:c], value.distances[qi][:c])
            )
            print(f"q{qi} ({c} hit(s)): {pairs}")
        elif similarities is not None:
            pairs = " ".join(
                f"{i}:{s:.4f}" for i, s in
                zip(value.indices[qi], similarities[qi])
            )
            print(f"q{qi}: {pairs}")
        else:
            pairs = " ".join(
                f"{i}:{d}" for i, d in
                zip(value.indices[qi], value.distances[qi])
            )
            print(f"q{qi}: {pairs}")
    more = value.indices.shape[0] - limit
    if more > 0:
        print(f"# … {more} more row(s); --out saves them all")


def _cmd_search(args) -> int:
    from repro.core.workload import get_workload

    try:
        get_workload(args.workload)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    # A request carries only the parameters given: a workload refuses a
    # key it does not take (-k for range, --radius for knn).
    params = {}
    if args.k is not None:
        params["k"] = args.k
    if args.radius is not None:
        params["radius"] = int(args.radius)
    try:
        engine = (_remote_engine if args.remote else _local_engine)(
            args, params
        )
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    try:
        return _search_and_report(engine, args, params)
    finally:
        if args.remote:
            engine.close()


def _search_and_report(engine, args, params: dict) -> int:
    """Run the batch on a local or remote engine and print the report."""
    from repro.core.workload import normalize_queries
    from repro.host.rpc import RemoteShardError

    try:
        queries = normalize_queries(np.load(args.queries), engine.d)
    except ValueError as exc:
        print(f"error: {args.queries}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.batch > 0:
            result = _batched_search(engine, queries, args)
        else:
            result = engine.search(queries)
    except RemoteShardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    counters = result.counters
    # The request as the workload understood it (k clipped to n, ...).
    kept = engine.workload.validate_params(params, engine.n, engine.d)
    asked = ", ".join(
        f"{name}={kept[name]}" for name in ("k", "radius") if name in kept
    )
    head = f"# {queries.shape[0]} queries, {asked}, workload={result.workload}"
    if args.remote:
        failed = result.failed_shards
        print(f"{head}, {engine.n_shards - len(failed)}/{engine.n_shards} "
              f"shard(s) answered, n={engine.n}, mode={result.execution}, "
              f"transport=rpc"
              + (f", PARTIAL (failed: {', '.join(failed)})" if failed else ""))
    else:
        passes = (f"{result.n_devices} device(s), "
                  f"{result.n_partitions} partition pass(es)"
                  if result.n_devices > 1
                  else f"{result.n_partitions} partition(s)")
        print(f"{head}, {passes}, mode={result.execution}, "
              f"workers={result.n_workers}, transport={result.transport}")
    print(f"# board loads={counters.configurations} "
          f"symbols={counters.symbols_streamed} "
          f"reports={counters.reports_received}")
    if args.remote:
        sent, received = engine.pool.wire_bytes
        print(f"# wire traffic: {sent} bytes out, {received} bytes back")
        if result.failovers or result.hedges:
            print(f"# replication: {result.failovers} failover(s), "
                  f"{result.hedges} hedged read(s)")
    else:
        if engine.cache is not None:
            st = engine.cache.stats
            recompiles = counters.configurations - counters.image_cache_hits
            print(f"# image cache: {len(engine.cache)} entries, "
                  f"{st.hits} hits / {st.misses} misses, "
                  f"{st.evictions} evictions, "
                  f"{recompiles} recompile(s) this run")
        est = engine.estimated_runtime_s(queries.shape[0])
        print(f"# estimated {args.device.generation.value} device time: "
              f"{est * 1e3:.3f} ms")
    _print_rows(result.value)
    if args.out:
        fields = engine.workload.wire_fields
        with open(args.out, "wb") as f:  # np.savez would append ".npz"
            np.savez(f, **{name: getattr(result.value, name) for name in fields})
        print(f"# {', '.join(fields)} saved to {args.out} as one .npz")
    return 0


def _cmd_workloads(args) -> int:
    from repro.core.workload import available_workloads

    for name, wl in available_workloads().items():
        print(f"{name:10s} {wl.description}")
    return 0


def _cmd_pack(args) -> int:
    from repro.core.dataset import (
        PDS_SUFFIX,
        DatasetFormatError,
        PackedDataset,
        read_pds_header,
        verify_pds,
        write_pds,
    )

    if args.info or args.verify:
        try:
            hdr = (verify_pds if args.verify else read_pds_header)(args.src)
        except DatasetFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.verify:
            print(f"{args.src}: ok — {hdr.n_chunks} chunk(s) and the header "
                  f"digest {hdr.digest} match the payload")
            return 0
        payload_mib = hdr.payload_nbytes / (1 << 20)
        print(f"{args.src}: .pds v{hdr.version}, layout {hdr.layout}, "
              f"n={hdr.n}, d={hdr.d}, "
              f"payload={hdr.payload_nbytes} bytes ({payload_mib:.1f} MiB, "
              f"{hdr.row_nbytes / hdr.d:g} stored bytes per bit) "
              f"at offset {hdr.payload_offset}, "
              f"{hdr.n_chunks} chunk(s) of {hdr.chunk_rows} rows, "
              f"digest={hdr.digest}")
        return 0
    out = args.out
    if out is None:
        if args.src.endswith(PDS_SUFFIX):
            print("error: packing a .pds onto itself — pass an explicit "
                  "output path (or --info to inspect)", file=sys.stderr)
            return 2
        root = args.src[:-4] if args.src.endswith(".npy") else args.src
        out = root + PDS_SUFFIX
    try:
        dataset = PackedDataset.ensure(_load_dataset(args.src))
    except (DatasetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.shard is not None:
        shard = _parse_shard(args.shard)
        if shard is None:
            return 2
        shard_index, n_shards = shard
        if not 0 <= shard_index < n_shards or n_shards > dataset.n:
            print(f"error: --shard needs 0 <= I < N <= n ({dataset.n}), "
                  f"got {args.shard}", file=sys.stderr)
            return 2
        from repro.core.workload import balanced_shard_bounds

        bounds = balanced_shard_bounds(dataset.n, n_shards)
        dataset = dataset.slice_rows(
            int(bounds[shard_index]), int(bounds[shard_index + 1])
        )
    try:
        hdr = write_pds(out, dataset)
    except DatasetFormatError as exc:  # a corrupt chunk of a .pds source
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# packed {hdr.n} x {hdr.d} ({hdr.payload_nbytes} payload "
          f"bytes) -> {out}, digest={hdr.digest}")
    return 0


class _Sigterm(BaseException):
    """Raised by ``repro serve``'s SIGTERM handler to unwind the accept
    loop.  A ``BaseException`` like ``KeyboardInterrupt``: socketserver
    wraps ``process_request`` in ``except Exception`` and would log a
    plain ``Exception`` landing there as a request error and keep
    accepting — the rolling restart would hang."""


def _cmd_serve(args) -> int:
    from repro.host.parallel import ParallelConfig
    from repro.host.rpc import serve_shard

    shard = _parse_shard(args.shard)
    if shard is None:
        return 2
    shard_index, n_shards = shard
    if args.workloads is not None:
        from repro.core.workload import get_workload

        try:
            for name in args.workloads:
                get_workload(name)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    dataset = _load_dataset(args.dataset)
    if not 0 <= shard_index < n_shards:
        print(f"error: --shard needs 0 <= I < N, got {args.shard}",
              file=sys.stderr)
        return 2
    if n_shards > dataset.shape[0]:
        print(f"error: --shard N ({n_shards}) exceeds the dataset's "
              f"{dataset.shape[0]} vectors", file=sys.stderr)
        return 2
    server = serve_shard(
        dataset,
        shard_index,
        n_shards,
        host=args.host,
        port=args.port,
        n_devices=args.devices,
        workloads=args.workloads,
        device=args.device,
        board_capacity=args.board_capacity,
        parallel=ParallelConfig(
            n_workers=args.workers, backend=args.backend,
            persistent=args.workers > 1,
        ),
        # A shard server always caches: it is long-lived.
        cache=args.cache_size if args.cache_size > 0 else True,
    )
    host, port = server.address
    serving = (", ".join(server.workloads)
               if server.workloads is not None else "all workloads")
    print(f"# serving shard {shard_index}/{n_shards} "
          f"(n={server.n}, d={server.d}, offset={server.offset}) "
          f"on {host}:{port} [{serving}]", flush=True)
    metrics_server = None
    if args.metrics_port is not None:
        from repro.perf.metrics import start_metrics_server

        metrics_server = start_metrics_server(args.metrics_port)
        print(f"# metrics on {host}:{metrics_server.port} "
              f"(/metrics for Prometheus, /metrics.json for `repro stats`)",
              flush=True)

    # SIGTERM (the rolling-restart signal) drains instead of dying
    # mid-request: the handler may only raise — calling
    # server.shutdown() here would deadlock, since serve_forever() is
    # parked in this very thread — so the drain runs after the accept
    # loop unwinds.
    def _on_sigterm(signum, frame):
        raise _Sigterm

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not the main thread (embedded use): abrupt close only
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("# shutting down", file=sys.stderr)
    except _Sigterm:
        print(f"# SIGTERM: draining in-flight requests "
              f"(bounded {args.drain_timeout_s:g}s)", file=sys.stderr,
              flush=True)

        def _drain_progress(in_flight, sessions, remaining_s):
            print(f"# draining: {in_flight} in-flight across {sessions} "
                  f"session(s), {remaining_s:.1f}s left",
                  file=sys.stderr, flush=True)

        drained = server.drain(args.drain_timeout_s,
                               progress=_drain_progress)
        print("# drain complete" if drained
              else "# drain timed out: cutting stragglers",
              file=sys.stderr, flush=True)
    finally:
        if metrics_server is not None:
            metrics_server.close()
        server.close()
    return 0


def _cmd_stats(args) -> int:
    import json as _json

    from repro.perf.metrics import fetch_snapshot

    try:
        snap = fetch_snapshot(args.address, timeout_s=args.timeout_s)
    except (OSError, ValueError) as exc:
        print(f"error: cannot fetch metrics from {args.address}: {exc}",
              file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(snap, indent=2, sort_keys=True))
        return 0

    def _suffix(labels):
        if not labels:
            return ""
        inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        return "{" + inner + "}"

    by_kind: dict[str, list[str]] = {}
    for metric in snap.get("metrics", []):
        for s in metric.get("series", []):
            name = f"{metric['name']}{_suffix(s.get('labels'))}"
            if metric["type"] == "histogram":
                count, total = s["count"], s["sum"]
                mean = total / count if count else 0.0
                line = f"  {name} = {count:g} / {total:g} / {mean:g}"
            else:
                line = f"  {name} = {s['value']:g}"
            by_kind.setdefault(metric["type"], []).append(line)
    for kind, header in (("counter", "# counters"),
                         ("gauge", "# gauges"),
                         ("histogram", "# histograms (count / sum / mean)")):
        if by_kind.get(kind):
            print(header)
            print("\n".join(by_kind[kind]))
    return 0


def _batched_search(engine, queries, args):
    """Serving-path demo: every query row becomes one concurrent caller
    admitted through the engine's BatchRouter; the router coalesces
    them into merged partition passes and the per-caller slices
    reassemble into the result a direct search would produce."""
    from concurrent.futures import ThreadPoolExecutor
    from dataclasses import replace

    from repro.ap.runtime import RuntimeCounters

    n_q = queries.shape[0]
    if n_q == 0:
        # Nothing to admit: the direct path already handles an empty
        # batch, and a zero-worker thread pool would not.
        return engine.search(queries)
    router = engine.batched(
        max_batch=args.batch, max_wait_ms=args.batch_wait_ms
    )
    with router:
        with ThreadPoolExecutor(max_workers=min(32, n_q)) as pool:
            outs = list(pool.map(
                lambda qi: router.search(queries[qi]), range(n_q)
            ))
    # Each coalesced batch ran once and its envelope (counters,
    # failover/hedge counts) is shared by every caller it served:
    # aggregate unique batches only.
    batches = list({id(o.counters): o for o in outs}.values())
    counters = RuntimeCounters()
    for o in batches:
        counters.merge(o.counters)
    stats = router.stats
    print(f"# {n_q} queries as {stats.calls} concurrent caller(s) -> "
          f"{stats.batches} coalesced pass(es), "
          f"largest batch {stats.max_batch_rows} row(s), "
          f"coalescing {stats.coalescing_ratio:.1f}x")
    workload = engine.workload
    return replace(
        outs[0].result,
        value=workload.result_type(*(
            _stack_rows([getattr(o.result.value, f) for o in outs])
            for f in workload.wire_fields
        )),
        counters=counters,
        failed_shards=tuple(sorted({s for o in outs for s in o.failed_shards})),
        failovers=sum(o.failovers for o in batches),
        hedges=sum(o.hedges for o in batches),
    )


def _stack_rows(blocks: list, pad: int = -1) -> np.ndarray:
    """Row-concatenate per-caller blocks; ragged widths (range hits)
    pad out to the widest with the workloads' shared pad value."""
    if blocks[0].ndim == 1:
        return np.concatenate(blocks)
    width = max(b.shape[1] for b in blocks)
    return np.vstack([
        np.pad(b, ((0, 0), (0, width - b.shape[1])), constant_values=pad)
        for b in blocks
    ])


def _cmd_compile(args) -> int:
    from repro.automata.anml import to_anml
    from repro.automata.optimize import optimize
    from repro.automata.regex import compile_regex

    net = compile_regex(
        args.pattern, report_code=args.report_code, anchored=args.anchored
    )
    if args.optimize:
        net, stats = optimize(net)
        print(f"# optimized: {stats.stes_before} -> {stats.stes_after} STEs",
              file=sys.stderr)
    text = to_anml(net)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        print(f"# ANML written to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_simulate(args) -> int:
    from repro.automata.anml import parse_anml
    from repro.automata.simulator import CompiledSimulator

    with open(args.anml) as f:
        net = parse_anml(f.read())
    with open(args.input, "rb") as f:
        stream = f.read()
    res = CompiledSimulator(net).run(stream)
    print(f"# {len(net.elements)} elements, {res.n_cycles} cycles, "
          f"{len(res.reports)} reports")
    shown = res.reports if args.limit == 0 else res.reports[: args.limit]
    for r in shown:
        print(f"cycle={r.cycle} code={r.code}")
    if args.limit and len(res.reports) > args.limit:
        print(f"... ({len(res.reports) - args.limit} more)")
    return 0


def _cmd_tables(args) -> int:
    from repro.perf.models import PLATFORMS
    from repro.workloads.params import LARGE_N, N_QUERIES, WORKLOADS

    print("Table I: evaluated platforms")
    for p in PLATFORMS.values():
        cores = p.cores if p.cores is not None else "N/A"
        print(f"  {p.name:20s} {p.kind:5s} cores={cores!s:5s} "
              f"{p.process_nm}nm {p.clock_mhz:.0f}MHz")
    print(f"\nTable II: workloads ({N_QUERIES} queries, large n = {LARGE_N})")
    for w in WORKLOADS.values():
        print(f"  {w.name:15s} d={w.d:4d} k={w.k:3d} small_n={w.small_n:5d} "
              f"board_capacity={w.board_capacity}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "search": _cmd_search,
        "serve": _cmd_serve,
        "stats": _cmd_stats,
        "pack": _cmd_pack,
        "workloads": _cmd_workloads,
        "compile": _cmd_compile,
        "simulate": _cmd_simulate,
        "tables": _cmd_tables,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
