"""Tests for generic workloads over the RPC shard service.

Covers the wire codec (request/response framing, the extended dtype
whitelist and its rejection paths), server-side workload admission, and
the acceptance shape: Jaccard and range search fanned out across one
real two-process rack, bit-identical to a single local engine.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.multiboard import balanced_shard_bounds
from repro.core.workload import WorkloadSearch, get_workload
from repro.host.rpc import (
    MSG_WL_SEARCH,
    MSG_WL_SEARCH_REQ,
    RemoteShard,
    RemoteShardError,
    RemoteShardPool,
    RemoteWorkloadSearch,
    RpcProtocolError,
    ShardServer,
    _ARRAY_HEAD,
    pack_array,
    pack_frame,
    pack_workload_request,
    pack_workload_response,
    serve_shard,
    unpack_array,
    unpack_workload_request,
)

ALL_PARAMS = [("knn", {"k": 8}), ("jaccard", {"k": 8}), ("range", {"radius": 11})]


def _data(n=180, d=32, n_queries=6, seed=9):
    rng = np.random.default_rng(seed)
    return (
        (rng.random((n, d)) < 0.4).astype(np.uint8),
        (rng.random((n_queries, d)) < 0.4).astype(np.uint8),
    )


def _start_rack(data, n_shards, **server_kwargs):
    servers = [
        serve_shard(data, i, n_shards, **server_kwargs).start()
        for i in range(n_shards)
    ]
    addresses = [f"{h}:{p}" for h, p in (s.address for s in servers)]
    return servers, addresses


def _assert_value_equal(workload, a, b):
    for f in workload.wire_fields:
        fa, fb = np.asarray(getattr(a, f)), np.asarray(getattr(b, f))
        assert fa.shape == fb.shape, (workload.name, f, fa.shape, fb.shape)
        assert (fa == fb).all(), (workload.name, f)


class TestDtypeWhitelist:
    """Satellite: the wire admits exactly uint8/int64/float64."""

    def test_float64_roundtrips(self):
        arr = np.array([[0.25, -1.0], [1.0, 0.5]])
        back, end = unpack_array(pack_array(arr))
        assert back.dtype == np.float64
        assert (back == arr).all()
        assert end == len(pack_array(arr))

    @pytest.mark.parametrize(
        "arr",
        [
            np.zeros(3, dtype=np.float32),
            np.zeros(3, dtype=np.int32),
            np.zeros(3, dtype=np.uint64),
            np.zeros(3, dtype=np.float16),
            np.array(["x"], dtype=object),
        ],
        ids=["float32", "int32", "uint64", "float16", "object"],
    )
    def test_non_whitelisted_dtypes_rejected_on_pack(self, arr):
        with pytest.raises(RpcProtocolError, match="not wire-encodable"):
            pack_array(arr)

    def test_unknown_code_rejected_on_unpack(self):
        payload = _ARRAY_HEAD.pack(9, 1) + (8).to_bytes(8, "big") + b"\0" * 64
        with pytest.raises(RpcProtocolError, match="unknown wire dtype"):
            unpack_array(payload)

    def test_all_builtin_wire_fields_are_whitelisted(self):
        # every built-in workload's result must survive the codec
        data, queries = _data(n=40)
        for name, params in ALL_PARAMS:
            workload = get_workload(name)
            res = WorkloadSearch(data, name, params).search(queries)
            _assert_value_equal(
                workload, res.value, workload.unpack(workload.pack(res.value))
            )


class TestWorkloadRequestCodec:
    def test_roundtrip(self):
        q = np.ones((3, 8), dtype=np.uint8)
        payload = pack_workload_request("range", {"radius": 4}, q)
        name, params, queries = unpack_workload_request(payload)
        assert name == "range"
        assert params == {"radius": 4}
        assert (queries == q).all()

    def test_params_json_is_canonical(self):
        q = np.zeros((1, 4), dtype=np.uint8)
        a = pack_workload_request("knn", {"k": 3, "a": 1}, q)
        b = pack_workload_request("knn", {"a": 1, "k": 3}, q)
        assert a == b

    def test_trailing_bytes_rejected(self):
        payload = pack_workload_request(
            "knn", {"k": 1}, np.zeros((1, 4), dtype=np.uint8)
        )
        with pytest.raises(RpcProtocolError, match="trailing"):
            unpack_workload_request(payload + b"\x00")

    def test_truncation_rejected(self):
        payload = pack_workload_request(
            "knn", {"k": 1}, np.zeros((1, 4), dtype=np.uint8)
        )
        with pytest.raises(RpcProtocolError):
            unpack_workload_request(payload[:5])

    def test_malformed_json_rejected(self):
        from repro.host.rpc import _WL_REQ_HEAD

        bad = b"{not json"
        payload = (
            _WL_REQ_HEAD.pack(3, len(bad)) + b"knn" + bad
            + pack_array(np.zeros((1, 4), dtype=np.uint8))
        )
        with pytest.raises(RpcProtocolError, match="malformed"):
            unpack_workload_request(payload)

    def test_non_object_params_rejected(self):
        from repro.host.rpc import _WL_REQ_HEAD

        bad = b"[1,2]"
        payload = (
            _WL_REQ_HEAD.pack(3, len(bad)) + b"knn" + bad
            + pack_array(np.zeros((1, 4), dtype=np.uint8))
        )
        with pytest.raises(RpcProtocolError, match="JSON object"):
            unpack_workload_request(payload)

    def test_bad_name_rejected_on_pack(self):
        with pytest.raises(RpcProtocolError, match="bad workload name"):
            pack_workload_request("", {}, np.zeros((1, 4), dtype=np.uint8))


class TestRemoteWorkloads:
    """Racks beyond the oracle's plain and replicated cells
    (``tests/integration/test_bit_identity.py``): under a second
    topology layer (multi-device servers, the router in front), the
    exact wire traffic, and what the client refuses."""

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    def test_rack_multi_device_servers_bit_identical(self, name, params):
        """``n_devices`` is server configuration and shapes every
        admitted workload's partitioning (it used to reach kNN only)."""
        data, queries = _data()
        local = WorkloadSearch(data, name, params,
                               board_capacity=32).search(queries)
        servers, addresses = _start_rack(
            data, 3, board_capacity=32, n_devices=2
        )
        try:
            with RemoteWorkloadSearch(addresses, name, params) as remote:
                res = remote.search(queries)
                assert res.transport == "rpc"
                assert res.n_workers == 3
                assert not res.partial
                _assert_value_equal(
                    get_workload(name), res.value, local.value
                )
            for server in servers:
                served = [e for e in server._engines.values()
                          if e.workload.name == name]
                assert served and all(
                    len(e.per_device_partitions) == 2 for e in served
                )
        finally:
            for s in servers:
                s.close()

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    def test_batched_remote_rows_match_direct(self, name, params):
        from concurrent.futures import ThreadPoolExecutor

        data, queries = _data()
        servers, addresses = _start_rack(data, 2)
        try:
            with RemoteWorkloadSearch(addresses, name, params) as remote:
                direct = remote.search(queries)
                workload = get_workload(name)
                with remote.batched(max_batch=6, max_wait_ms=20.0) as router:
                    with ThreadPoolExecutor(max_workers=6) as pool:
                        outs = list(pool.map(
                            lambda qi: router.search(queries[qi]),
                            range(queries.shape[0]),
                        ))
                for qi, out in enumerate(outs):
                    got, exp = out.result.value, workload.split(
                        direct.value, qi, qi + 1
                    )
                    counts = getattr(exp, "counts", None)
                    if counts is None:
                        _assert_value_equal(workload, got, exp)
                    else:
                        c = int(counts[0])
                        assert int(got.counts[0]) == c
                        assert got.indices[0, :c].tolist() == \
                            exp.indices[0, :c].tolist()
        finally:
            for s in servers:
                s.close()

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    def test_warm_batch_wire_bytes_are_exactly_the_codec(self, name, params):
        """Wire traffic is deterministic: a warm batch moves one request
        frame out and one response frame back per shard, byte for byte
        what the public codec produces for that shard's local result."""
        data, queries = _data()
        workload = get_workload(name)
        bounds = balanced_shard_bounds(data.shape[0], 2)
        # The execution tag travels in the response.
        shard_results = [
            WorkloadSearch(data[lo:hi], name, params).search(queries)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        out = len(shard_results) * len(pack_frame(
            MSG_WL_SEARCH_REQ, pack_workload_request(name, params, queries)
        ))
        back = sum(
            len(pack_frame(
                MSG_WL_SEARCH, pack_workload_response(result, workload)
            ))
            for result in shard_results
        )
        servers, addresses = _start_rack(data, 2)
        try:
            with RemoteWorkloadSearch(addresses, name, params) as remote:
                remote.search(queries)  # handshake + shard compiles
                sent0, received0 = remote.pool.wire_bytes
                assert not remote.search(queries).partial
                sent1, received1 = remote.pool.wire_bytes
        finally:
            for s in servers:
                s.close()
        assert (sent1 - sent0, received1 - received0) == (out, back)

    def test_unknown_workload_rejected_over_wire(self):
        data, _ = _data(n=40)
        server = ShardServer(data).start()
        addr = "{}:{}".format(*server.address)
        try:
            shard = RemoteShard(addr)
            with pytest.raises(KeyError, match="unknown workload"):
                # client-side registry rejects before anything is sent
                shard.search_workload(
                    np.zeros((1, data.shape[1]), dtype=np.uint8),
                    "no-such", {},
                )
            # a raw frame naming an unknown workload gets a server error
            payload = pack_workload_request(
                "knn", {"k": 1},
                np.zeros((1, data.shape[1]), dtype=np.uint8),
            ).replace(b"knn", b"nop", 1)
            with pytest.raises(RemoteShardError, match="unknown workload"):
                shard._round_trip(MSG_WL_SEARCH_REQ, payload)
            shard.close()
        finally:
            server.close()

    def test_bad_params_fail_fast_client_side(self):
        data, _ = _data(n=40)
        server = ShardServer(data).start()
        addr = "{}:{}".format(*server.address)
        try:
            with pytest.raises(ValueError, match="radius"):
                RemoteWorkloadSearch([addr], "range", {})
        finally:
            server.close()


class TestWorkloadAdmission:
    """``workloads=`` restricts what a shard serves; legacy kNN counts."""

    def test_restricted_server_serves_only_admitted(self):
        data, queries = _data(n=60)
        server = ShardServer(data, workloads=("jaccard",)).start()
        addr = "{}:{}".format(*server.address)
        try:
            ok = RemoteWorkloadSearch([addr], "jaccard", {"k": 3})
            res = ok.search(queries)
            assert not res.partial
            ok.close()

            denied = RemoteWorkloadSearch([addr], "range", {"radius": 5},
                                          allow_partial=False)
            with pytest.raises(RemoteShardError, match="failed"):
                denied.search(queries)
            denied.close()

            # the legacy kNN wire is admission-checked as "knn"
            pool = RemoteShardPool([addr], allow_partial=False)
            with pytest.raises(RemoteShardError):
                pool.search(queries, 3)
            pool.close()
        finally:
            server.close()

    def test_degraded_partial_on_admission_failure(self):
        data, queries = _data(n=60)
        server = ShardServer(data, workloads=("jaccard",)).start()
        addr = "{}:{}".format(*server.address)
        try:
            remote = RemoteWorkloadSearch([addr], "range", {"radius": 5})
            res = remote.search(queries)
            assert res.partial
            assert res.failed_shards == (addr,)
            assert (res.value.counts == 0).all()
            remote.close()
        finally:
            server.close()

    def test_unknown_admission_name_rejected_at_construction(self):
        data, _ = _data(n=40)
        with pytest.raises(KeyError, match="unknown workload"):
            ShardServer(data, workloads=("knn", "no-such"))

    @pytest.mark.parametrize("execution", ["auto", "bogus", "functional"])
    def test_bad_execution_rejected_at_construction(self, execution):
        """Deployment settings are checked before the socket binds, not
        on the first query, and ``execution`` is no setting at all: a
        server runs the one functional engine."""
        data, _ = _data(n=40)
        with pytest.raises(TypeError, match=r"unknown engine settings \['execution'\]"):
            ShardServer(data, execution=execution)


def _serve_workload_shard(data, shard_index, n_shards, address_queue):
    """Child-process entry: serve one shard forever (parent terminates)."""
    server = serve_shard(data, shard_index, n_shards)
    address_queue.put((shard_index, "{}:{}".format(*server.address)))
    server.serve_forever()


class TestServerProcesses:
    """The acceptance shape: one rack of two ShardServer *processes*
    serves every workload."""

    def test_two_process_rack_bit_identical(self):
        data, queries = _data(n=140, d=32, n_queries=6, seed=21)
        ctx = multiprocessing.get_context()
        address_queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_serve_workload_shard,
                args=(data, i, 2, address_queue),
                daemon=True,
            )
            for i in range(2)
        ]
        for p in procs:
            p.start()
        try:
            got = dict(address_queue.get(timeout=30) for _ in range(2))
            addresses = [got[0], got[1]]
            for name, params in (("jaccard", {"k": 7}), ("range", {"radius": 11})):
                local = WorkloadSearch(data, name, params).search(queries)
                with RemoteWorkloadSearch(addresses, name, params) as remote:
                    res = remote.search(queries)
                    assert not res.partial
                    assert res.n_workers == 2
                    _assert_value_equal(
                        get_workload(name), res.value, local.value
                    )
        finally:
            for p in procs:
                p.terminate()
            for p in procs:
                p.join(timeout=10)


class TestDegradedWorkloadMerges:
    """Satellite (PR 9): partial merges across ALL workloads — jaccard
    top-k and hamming range, not just the legacy kNN wire — when a
    shard dies mid-rack.  Oracle: a rack of only the answering shards
    (same servers, same global offsets) must produce the identical
    value, so the degraded merge is exact over the answering subset and
    correctly flagged."""

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    def test_mid_rack_death_flagged_and_exact_over_answering(
        self, name, params
    ):
        data, queries = _data(n=120)
        servers, addresses = _start_rack(data, 3)
        try:
            with RemoteWorkloadSearch(
                [addresses[0], addresses[2]], name, params
            ) as oracle_rack:
                oracle = oracle_rack.search(queries)
            # shard 1 dies: accept loop gone AND live sessions cut
            servers[1].drain(0.0)
            servers[1].close()
            with RemoteWorkloadSearch(
                addresses, name, params,
                connect_timeout_s=0.5, retries=0,
            ) as remote:
                res = remote.search(queries)
            assert res.partial
            assert res.failed_shards == (addresses[1],)
            _assert_value_equal(get_workload(name), res.value, oracle.value)
        finally:
            for s in servers:
                s.close()

    def test_range_counts_shrink_by_exactly_the_dead_shards_hits(self):
        # ragged merge accounting: the partial counts must differ from
        # the full rack's by the dead shard's own hit counts, per query
        data, queries = _data(n=120)
        params = {"radius": 11}
        full = WorkloadSearch(data, "range", params).search(queries)
        servers, addresses = _start_rack(data, 3)
        try:
            lost = servers[1]
            shard_rows = data[lost.offset: lost.offset + lost.n]
            lost_hits = (
                WorkloadSearch(shard_rows, "range", params)
                .search(queries).value.counts
            )
            servers[1].drain(0.0)
            servers[1].close()
            with RemoteWorkloadSearch(
                addresses, "range", params,
                connect_timeout_s=0.5, retries=0,
            ) as remote:
                res = remote.search(queries)
            assert res.partial
            assert (
                res.value.counts == full.value.counts - lost_hits
            ).all()
        finally:
            for s in servers:
                s.close()

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    def test_require_all_shards_raises_on_mid_rack_death(self, name, params):
        data, queries = _data(n=90)
        servers, addresses = _start_rack(data, 3)
        try:
            with RemoteWorkloadSearch(
                addresses, name, params,
                allow_partial=False, connect_timeout_s=0.5, retries=0,
            ) as remote:
                first = remote.search(queries)
                assert not first.partial
                servers[1].drain(0.0)
                servers[1].close()
                with pytest.raises(RemoteShardError, match="failed"):
                    remote.search(queries)
        finally:
            for s in servers:
                s.close()
