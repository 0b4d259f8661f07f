"""CI metrics-contract gate: the registry schema is a public API.

Dashboards, alerts, and the learned control plane consume metric
*names*, *types*, and *label sets* — renaming ``repro_router_wait_seconds``
or dropping the ``stage`` label breaks them as surely as an RPC schema
change breaks a client.  This gate makes such changes fail the PR:

* a **smoke run** exercises every instrumented layer in-process
  (sequential cached search with a trace, a thread-parallel run, the
  batch router, a loopback ShardServer + RemoteShard round trip, and a
  ReplicaGroup) so each metric family registers;
* the live ``MetricsSnapshot.schema()`` is validated against the
  committed ``benchmarks/baselines/metrics_schema.json`` with
  :func:`repro.perf.metrics.validate_schema`: a missing/renamed
  metric, a type change, or a label-set change fails (exit 1).
  *Additions* pass — the contract protects existing consumers.

Intentional changes re-baseline the same way perf changes do::

    python benchmarks/check_metrics_contract.py --update

then commit the refreshed ``metrics_schema.json`` alongside the rename
that justified it.  ``--dump PATH`` writes the full snapshot JSON (CI
uploads it as an artifact so a red run shows exactly what the process
exported).
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

BASELINE = Path(__file__).parent / "baselines" / "metrics_schema.json"


def smoke_run():
    """Exercise every instrumented layer so all families register."""
    from repro.core.engine import APSimilaritySearch
    from repro.host.parallel import ParallelConfig
    from repro.host.replication import ReplicaGroup
    from repro.host.rpc import ShardServer
    from repro.perf import metrics

    rng = np.random.default_rng(2017)
    data = rng.integers(0, 2, (2048, 64), dtype=np.uint8)
    queries = rng.integers(0, 2, (8, 64), dtype=np.uint8)

    reg = metrics.get_registry()
    reg.set_enabled(True)

    # 1. Sequential cached search under a trace: cache + stage metrics.
    engine = APSimilaritySearch(
        data, k=5, board_capacity=512, cache=True
    )
    with metrics.trace_request("contract-smoke"):
        engine.search(queries)

    # 2. Thread-parallel run: dispatch latency/queue-depth/payload.
    APSimilaritySearch(
        data, k=5, board_capacity=512,
        parallel=ParallelConfig(n_workers=2, backend="thread"),
    ).search(queries)

    # 3. Batch router: families register at construction.
    router = engine.batched(max_batch=8, max_wait_ms=1.0)
    with router:
        router.search(queries[0])

    # 4. Loopback server + client + replica group: rpc/server/replica
    #    families (ReplicaGroup wraps a RemoteShard internally).
    server = ShardServer(data).start()
    try:
        address = "{}:{}".format(*server.address)
        with ReplicaGroup(address, retries=0) as group:
            group.search(queries, k=5)
    finally:
        server.close()


def main(argv=None) -> int:
    from repro.perf import metrics

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=BASELINE, type=Path,
                        help="committed schema contract")
    parser.add_argument("--update", action="store_true",
                        help="write the live schema over the baseline "
                             "(intentional change: commit the result)")
    parser.add_argument("--dump", type=Path, default=None,
                        help="also write the full snapshot JSON here "
                             "(CI artifact)")
    args = parser.parse_args(argv)

    smoke_run()
    snap = metrics.get_registry().snapshot()
    schema = snap.schema()

    if args.dump is not None:
        args.dump.write_text(snap.to_json(indent=2))
        print(f"# snapshot dumped to {args.dump}")

    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(schema, indent=2) + "\n")
        print(f"re-baselined {args.baseline} ({len(schema)} metrics)")
        return 0

    if not args.baseline.exists():
        print(f"missing baseline {args.baseline} — run with --update and "
              f"commit the result", file=sys.stderr)
        return 1
    baseline = json.loads(args.baseline.read_text())
    problems = metrics.validate_schema(schema, baseline)
    for p in problems:
        print(f"  [FAIL] {p}")
    if problems:
        print(f"\nmetrics contract: {len(problems)} violation(s) against "
              f"{args.baseline}", file=sys.stderr)
        print("if this change is intentional, re-baseline: "
              "`python benchmarks/check_metrics_contract.py --update` "
              "and commit the refreshed schema", file=sys.stderr)
        return 1
    extra = len(schema) - len(baseline)
    print(f"metrics contract: {len(baseline)} metrics match "
          f"{args.baseline.name}"
          + (f" (+{extra} new, allowed)" if extra > 0 else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
