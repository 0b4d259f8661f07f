"""Tests for the network-transparent shard service (repro.host.rpc).

Covers the wire protocol (round-trips and hostile-input rejection),
a rack of real server *processes* (in-thread racks are oracle cells:
``tests/integration/test_bit_identity.py``), degraded-merge semantics
(k > per-shard n, timed-out shards, mid-stream disconnects — all
correct and correctly flagged partial), the BatchRouter front door,
and socket / shared-memory leak checks after close.
"""

import gc
import glob
import multiprocessing
import os
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import APSimilaritySearch
from repro.core.multiboard import balanced_shard_bounds
from repro.host.parallel import ParallelConfig
from repro.host.rpc import (
    MAX_PAYLOAD_BYTES,
    MSG_INFO,
    MSG_INFO_REQ,
    MSG_WL_SEARCH,
    MSG_WL_SEARCH_REQ,
    PROTOCOL_VERSION,
    RemoteMultiBoardSearch,
    RemoteShard,
    RemoteShardError,
    RemoteShardPool,
    RpcProtocolError,
    ShardServer,
    _INFO,
    pack_array,
    pack_frame,
    read_frame,
    serve_shard,
    unpack_array,
)
from repro.host.shm import (
    SHM_SEGMENT_PREFIX,
    SHM_UNAVAILABLE_REASON,
    shm_available,
)


def _workload(n=120, d=16, n_queries=5, seed=7):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 2, (n, d), dtype=np.uint8),
        rng.integers(0, 2, (n_queries, d), dtype=np.uint8),
    )


def _start_rack(data, n_shards, **server_kwargs):
    """In-thread shard servers over balanced shards of ``data``."""
    servers = [
        serve_shard(data, i, n_shards, **server_kwargs).start()
        for i in range(n_shards)
    ]
    addresses = [f"{h}:{p}" for h, p in (s.address for s in servers)]
    return servers, addresses


class _StubShard:
    """A protocol-correct shard for INFO that misbehaves on SEARCH.

    ``mode``:
      * ``"hang"`` — read the search request, never answer (client
        times out);
      * ``"midstream"`` — answer with half a frame, then drop the
        connection (client sees EOF mid-frame).
    """

    def __init__(self, info: tuple[int, int, int, int], mode: str):
        self.info = info
        self.mode = mode
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = "{}:{}".format(*self._listener.getsockname())
        self._closing = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._closing:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn):
        try:
            while True:
                msg_type, _payload = read_frame(conn)
                if msg_type == MSG_INFO_REQ:
                    conn.sendall(pack_frame(MSG_INFO, _INFO.pack(*self.info)))
                elif msg_type == MSG_WL_SEARCH_REQ:
                    if self.mode == "hang":
                        time.sleep(30.0)
                        return
                    # midstream: half a frame, then hang up
                    good = pack_frame(MSG_WL_SEARCH, b"\x00" * 64)
                    conn.sendall(good[: len(good) // 2])
                    return
        except (ConnectionError, OSError, RpcProtocolError):
            pass
        finally:
            conn.close()

    def close(self):
        self._closing = True
        self._listener.close()
        self._thread.join(timeout=2.0)


def _close_all(servers):
    for s in servers:
        s.close()


# -- wire protocol ---------------------------------------------------------


class TestWireProtocol:
    def test_array_round_trip(self):
        for arr in [
            np.arange(24, dtype=np.int64).reshape(4, 6),
            np.zeros((3, 0), dtype=np.uint8),
            np.ones(7, dtype=np.uint8),
        ]:
            out, end = unpack_array(pack_array(arr))
            assert end == len(pack_array(arr))
            assert out.dtype == arr.dtype
            assert out.shape == arr.shape
            assert (out == arr).all()

    def test_frame_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            a.sendall(pack_frame(MSG_WL_SEARCH_REQ, b"hello"))
            msg_type, payload = read_frame(b)
            assert msg_type == MSG_WL_SEARCH_REQ
            assert payload == b"hello"
        finally:
            a.close()
            b.close()

    def test_non_whitelisted_dtype_refused(self):
        # float64 joined the whitelist with the workload wire (Jaccard
        # similarities); float32 remains outside it
        with pytest.raises(RpcProtocolError, match="wire-encodable"):
            pack_array(np.ones(4, dtype=np.float32))

    def test_bad_magic_rejected(self):
        a, b = socket.socketpair()
        try:
            frame = bytearray(pack_frame(MSG_INFO_REQ))
            frame[:4] = b"EVIL"
            a.sendall(bytes(frame))
            with pytest.raises(RpcProtocolError, match="magic"):
                read_frame(b)
        finally:
            a.close()
            b.close()

    def test_wrong_version_rejected(self):
        a, b = socket.socketpair()
        try:
            frame = struct.pack(
                "!4sBBHQ", b"APRS", PROTOCOL_VERSION + 1, MSG_INFO_REQ, 0, 0
            )
            a.sendall(frame)
            with pytest.raises(RpcProtocolError, match="version"):
                read_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversize_payload_rejected_before_allocation(self):
        a, b = socket.socketpair()
        try:
            frame = struct.pack(
                "!4sBBHQ", b"APRS", PROTOCOL_VERSION, MSG_WL_SEARCH_REQ, 0,
                MAX_PAYLOAD_BYTES + 1,
            )
            a.sendall(frame)
            with pytest.raises(RpcProtocolError, match="exceeds"):
                read_frame(b)
        finally:
            a.close()
            b.close()

    def test_truncated_and_corrupt_arrays_rejected(self):
        good = pack_array(np.arange(12, dtype=np.int64))
        with pytest.raises(RpcProtocolError, match="body"):
            unpack_array(good[:-4])
        with pytest.raises(RpcProtocolError, match="dtype"):
            unpack_array(b"\x09" + good[1:])
        with pytest.raises(RpcProtocolError, match="ndim"):
            unpack_array(b"\x01\x07" + good[2:])

    def test_bad_address_rejected(self):
        with pytest.raises(ValueError, match="host:port"):
            RemoteShard("no-port-here")


# -- server behavior -------------------------------------------------------


class TestShardServer:
    def test_info_ping_and_search(self):
        data, queries = _workload()
        with ShardServer(data, offset=40) as server:
            server.start()
            shard = RemoteShard("{}:{}".format(*server.address))
            try:
                assert shard.ping()
                info = shard.info()
                assert (info.n, info.d, info.offset) == (120, 16, 40)
                indices, distances, counters, execution = shard.search(
                    queries, k=4
                )
                ref = APSimilaritySearch(data, k=4).search(queries)
                assert (indices == ref.indices).all()
                assert (distances == ref.distances).all()
                assert counters == ref.counters
                assert execution == "functional"
            finally:
                shard.close()

    @pytest.mark.parametrize("execution", ["functional"])
    def test_knn_reply_bytes_are_the_retired_wires(self, execution):
        """The kNN reply on the one search message is byte for byte what
        MSG_SEARCH carried: five u64 counters, the execution tag, then
        the packed index and distance blocks."""
        from repro.host.rpc import pack_workload_request

        data, queries = _workload(n=40, d=8, n_queries=3)
        ref = APSimilaritySearch(data, k=4).search(queries)
        with ShardServer(data) as server:
            reply = server._serve_workload_search(
                pack_workload_request("knn", {"k": 4}, queries)
            )
        c = ref.counters
        tag = execution.encode()
        assert reply == (
            struct.pack(
                "!QQQQQB", c.configurations, c.symbols_streamed,
                c.reports_received, c.report_payload_bits,
                c.image_cache_hits, len(tag),
            )
            + tag + pack_array(ref.indices) + pack_array(ref.distances)
        )

    def test_handshake_partitions_follow_knn_default_capacity(self):
        """A default-capacity shard reports the compiler-derived kNN
        partitioning (2368 vectors per board at d=64), whatever other
        workloads it has been asked for."""
        data = np.zeros((5000, 64), dtype=np.uint8)
        with ShardServer(data) as server:
            server._engine("jaccard", {"k": 1})
            assert server.info().n_partitions == 3  # ceil(5000 / 2368)
            assert len(APSimilaritySearch(data, k=1).partitions) == 3

    def test_malformed_search_answers_error_frame(self):
        data, queries = _workload()
        with ShardServer(data) as server:
            server.start()
            shard = RemoteShard("{}:{}".format(*server.address))
            try:
                with pytest.raises(RemoteShardError, match="k must be >= 1"):
                    shard.search(queries, k=0)
                assert shard.ping()  # a request error keeps the session
            finally:
                shard.close()

    def test_retired_knn_message_type_refused_and_dropped(self):
        """0x03 was the kNN-only MSG_SEARCH_REQ: reserved, never reused.
        A frame of that type gets the loud unknown-type error and the
        connection is dropped."""
        data, queries = _workload()
        with ShardServer(data) as server:
            server.start()
            shard = RemoteShard("{}:{}".format(*server.address), retries=0)
            try:
                legacy_request = struct.pack("!Q", 3) + pack_array(queries)
                with pytest.raises(
                    RemoteShardError, match="unknown message type 3"
                ):
                    shard._round_trip(0x03, legacy_request)
                assert shard._sock.recv(1) == b""  # server hung up
            finally:
                shard.close()

    def test_request_naming_server_owned_setting_refused(self):
        """How a shard executes is the server's configuration: a remote
        client must not be able to select, say, its board capacity."""
        data, queries = _workload()
        with ShardServer(data) as server:
            server.start()
            shard = RemoteShard("{}:{}".format(*server.address))
            try:
                for owned in ({"n_devices": 2}, {"board_capacity": 1},
                              {"device": "gen2"}):
                    with pytest.raises(
                        RemoteShardError, match="server configuration"
                    ):
                        shard.search_workload(
                            queries, "knn", {"k": 3, **owned}
                        )
                assert not server._engines  # no engine was built for them
                _, _, _, execution = shard.search(queries, k=3)
                assert execution == "functional"
            finally:
                shard.close()

    def test_request_with_unknown_parameter_refused(self):
        """A request key the workload does not take (here the retired
        ``execution``) gets an error reply, never the default engine."""
        data, queries = _workload()
        with ShardServer(data) as server:
            server.start()
            shard = RemoteShard("{}:{}".format(*server.address))
            try:
                with pytest.raises(
                    RemoteShardError,
                    match=r"unknown request parameter\(s\) \['execution'\]",
                ):
                    shard.search_workload(
                        queries, "knn", {"k": 3, "execution": "simulate"}
                    )
                assert not server._engines
            finally:
                shard.close()

    def test_wrong_d_answers_error_and_connection_survives_engine_errors(self):
        data, queries = _workload(d=16)
        with ShardServer(data) as server:
            server.start()
            shard = RemoteShard("{}:{}".format(*server.address))
            try:
                bad = np.zeros((2, 8), dtype=np.uint8)
                with pytest.raises(RemoteShardError, match="does not match"):
                    shard.search(bad, k=3)
            finally:
                shard.close()

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ShardServer(np.empty((0, 8), dtype=np.uint8))

    def test_serve_shard_bounds_match_multiboard(self):
        data, _ = _workload(n=11)
        bounds = balanced_shard_bounds(11, 3)
        servers, _addrs = _start_rack(data, 3)
        try:
            for i, s in enumerate(servers):
                assert s.offset == bounds[i]
                assert s.n == bounds[i + 1] - bounds[i]
        finally:
            _close_all(servers)


# -- remote fan-out --------------------------------------------------------


class TestRemoteFanOut:
    """The pool around the fan-out: connections, handshakes, and the
    router in front of a rack."""

    def test_connection_reuse_across_batches(self):
        data, queries = _workload()
        servers, addresses = _start_rack(data, 2)
        try:
            with RemoteMultiBoardSearch(addresses, k=5) as remote:
                first = remote.search(queries)
                sent_after_first = remote.pool.wire_bytes[0]
                again = remote.search(queries)
                assert (first.indices == again.indices).all()
                # same sockets, more bytes: no reconnect churn
                assert remote.pool.wire_bytes[0] > sent_after_first
        finally:
            _close_all(servers)

    def test_mismatched_d_across_shards_rejected(self):
        data_a, _ = _workload(d=8)
        data_b, _ = _workload(d=16)
        server_a = ShardServer(data_a).start()
        server_b = ShardServer(data_b).start()
        try:
            with pytest.raises(ValueError, match="dimensionality"):
                RemoteShardPool([
                    "{}:{}".format(*server_a.address),
                    "{}:{}".format(*server_b.address),
                ])
        finally:
            server_a.close()
            server_b.close()

    def test_batched_front_door_composes(self):
        from concurrent.futures import ThreadPoolExecutor

        data, queries = _workload(n=90, d=16, n_queries=8)
        ref = APSimilaritySearch(data, k=4).search(
            queries
        )
        servers, addresses = _start_rack(data, 3)
        try:
            with RemoteMultiBoardSearch(addresses, k=4) as remote:
                with remote.batched(max_batch=8, max_wait_ms=20.0) as router:
                    with ThreadPoolExecutor(max_workers=8) as pool:
                        outs = list(pool.map(
                            lambda qi: router.search(queries[qi]), range(8)
                        ))
                assert router.stats.coalescing_ratio > 1.0
            for qi, out in enumerate(outs):
                assert (out.indices[0] == ref.indices[qi]).all()
                assert (out.distances[0] == ref.distances[qi]).all()
        finally:
            _close_all(servers)


def _serve_one_shard(data, shard_index, n_shards, address_queue):
    """Child-process entry: serve one shard forever (parent terminates)."""
    server = serve_shard(data, shard_index, n_shards)
    address_queue.put((shard_index, "{}:{}".format(*server.address)))
    server.serve_forever()


class TestServerProcesses:
    """The acceptance shape: >= 2 ShardServer *processes*."""

    def test_two_process_rack_bit_identical(self):
        data, queries = _workload(n=140, d=16, n_queries=6, seed=21)
        ref = APSimilaritySearch(data, k=7).search(
            queries
        )
        ctx = multiprocessing.get_context()
        address_queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_serve_one_shard, args=(data, i, 2, address_queue),
                daemon=True,
            )
            for i in range(2)
        ]
        for p in procs:
            p.start()
        try:
            got = dict(address_queue.get(timeout=30) for _ in range(2))
            addresses = [got[0], got[1]]
            with RemoteMultiBoardSearch(addresses, k=7) as remote:
                res = remote.search(queries)
                assert (res.indices == ref.indices).all()
                assert (res.distances == ref.distances).all()
                assert not res.partial
                assert res.n_workers == 2
        finally:
            for p in procs:
                p.terminate()
            for p in procs:
                p.join(timeout=10)


# -- degraded merges -------------------------------------------------------


def _expected_over_answering(data, queries, k, bounds, answering):
    """Local merge over the answering shards only (global indices)."""
    from repro.core.engine import PAD_DISTANCE, PAD_INDEX
    from repro.util.topk import merge_topk_blocks

    blocks, offsets = [], []
    for i in answering:
        shard = data[bounds[i]: bounds[i + 1]]
        res = APSimilaritySearch(
            shard, k=min(k, shard.shape[0])
        ).search(queries)
        blocks.append((res.indices, res.distances))
        offsets.append(int(bounds[i]))
    return merge_topk_blocks(
        blocks, min(k, data.shape[0]), offsets=offsets,
        pad_index=PAD_INDEX, pad_distance=PAD_DISTANCE,
    )


class TestDegradedMerges:
    @pytest.mark.parametrize("failure_mode", ["hang", "midstream"])
    def test_failed_shard_yields_flagged_partial_merge(self, failure_mode):
        data, queries = _workload(n=90, d=16, n_queries=4, seed=9)
        bounds = balanced_shard_bounds(90, 3)
        # shards 0 and 2 real; shard 1 is a stub that fails its searches
        real = [
            ShardServer(
                data[bounds[i]: bounds[i + 1]], offset=int(bounds[i]),
            ).start()
            for i in (0, 2)
        ]
        stub = _StubShard(
            info=(int(bounds[2] - bounds[1]), 16, int(bounds[1]), 1),
            mode=failure_mode,
        )
        addresses = [
            "{}:{}".format(*real[0].address),
            stub.address,
            "{}:{}".format(*real[1].address),
        ]
        try:
            with RemoteShardPool(
                addresses, timeout_s=0.4, retries=0
            ) as pool:
                res = pool.search(queries, k=6)
            assert res.partial
            assert res.failed_shards == (stub.address,)
            assert res.n_workers == 2
            exp_idx, exp_dist = _expected_over_answering(
                data, queries, 6, bounds, answering=(0, 2)
            )
            assert (res.indices == exp_idx).all()
            assert (res.distances == exp_dist).all()
        finally:
            _close_all(real)
            stub.close()

    @given(seed=st.integers(0, 1000), k=st.integers(1, 40))
    @settings(max_examples=8, deadline=None)
    def test_property_partial_merge_exact_over_answering_subset(self, seed, k):
        """Timed-out shard + k possibly > per-shard n: the partial rows
        must equal the exact local merge over the answering shards."""
        data, queries = _workload(n=30, d=8, n_queries=3, seed=seed)
        bounds = balanced_shard_bounds(30, 3)
        real = [
            ShardServer(
                data[bounds[i]: bounds[i + 1]], offset=int(bounds[i]),
            ).start()
            for i in (0, 1)
        ]
        stub = _StubShard(
            info=(int(bounds[3] - bounds[2]), 8, int(bounds[2]), 1),
            mode="hang",
        )
        addresses = [
            "{}:{}".format(*real[0].address),
            "{}:{}".format(*real[1].address),
            stub.address,
        ]
        try:
            with RemoteShardPool(
                addresses, timeout_s=0.3, retries=0
            ) as pool:
                res = pool.search(queries, k=k)
            assert res.partial and res.failed_shards == (stub.address,)
            exp_idx, exp_dist = _expected_over_answering(
                data, queries, k, bounds, answering=(0, 1)
            )
            assert (res.indices == exp_idx).all()
            assert (res.distances == exp_dist).all()
        finally:
            _close_all(real)
            stub.close()

    def test_batched_front_door_forwards_partiality(self):
        """BatchedResult.failed_shards/partial mirror the underlying
        fan-out result, so admission-layer callers see degradation."""
        data, queries = _workload(n=40, d=8, n_queries=2)
        bounds = balanced_shard_bounds(40, 2)
        real = ShardServer(
            data[: bounds[1]], offset=0
        ).start()
        stub = _StubShard(
            info=(int(bounds[2] - bounds[1]), 8, int(bounds[1]), 1),
            mode="hang",
        )
        try:
            with RemoteMultiBoardSearch(
                ["{}:{}".format(*real.address), stub.address],
                k=3, timeout_s=0.3, retries=0,
            ) as remote:
                with remote.batched(max_batch=4, max_wait_ms=1.0) as router:
                    out = router.search(queries)
            assert out.partial
            assert out.failed_shards == (stub.address,)
        finally:
            real.close()
            stub.close()

    def test_require_all_shards_raises_instead(self):
        data, queries = _workload(n=40, d=8, n_queries=2)
        bounds = balanced_shard_bounds(40, 2)
        real = ShardServer(
            data[: bounds[1]], offset=0
        ).start()
        stub = _StubShard(
            info=(int(bounds[2] - bounds[1]), 8, int(bounds[1]), 1),
            mode="hang",
        )
        try:
            with RemoteShardPool(
                ["{}:{}".format(*real.address), stub.address],
                timeout_s=0.3, retries=0, allow_partial=False,
            ) as pool:
                with pytest.raises(RemoteShardError, match="failed"):
                    pool.search(queries, k=3)
        finally:
            real.close()
            stub.close()

    def test_all_shards_failed_returns_all_pads(self):
        from repro.core.engine import PAD_DISTANCE, PAD_INDEX

        stub = _StubShard(info=(20, 8, 0, 1), mode="hang")
        _, queries = _workload(n=20, d=8, n_queries=2)
        try:
            with RemoteShardPool(
                [stub.address], timeout_s=0.3, retries=0
            ) as pool:
                res = pool.search(queries, k=4)
            assert res.partial
            assert (res.indices == PAD_INDEX).all()
            assert (res.distances == PAD_DISTANCE).all()
        finally:
            stub.close()

    def test_shard_down_at_construction_heals_when_it_returns(self):
        """A pool built against a degraded rack serves flagged-partial
        batches, then widens back to full bit-identical results on the
        first batch after the missing shard comes up."""
        data, queries = _workload(n=60, d=8, n_queries=3, seed=5)
        bounds = balanced_shard_bounds(60, 2)
        ref = APSimilaritySearch(data, k=4).search(
            queries
        )
        up = ShardServer(
            data[: bounds[1]], offset=0
        ).start()
        # reserve a port for the not-yet-started shard, then release it
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        down_port = probe.getsockname()[1]
        probe.close()
        addresses = [
            "{}:{}".format(*up.address), f"127.0.0.1:{down_port}"
        ]
        late = None
        try:
            with RemoteShardPool(
                addresses, timeout_s=1.0, connect_timeout_s=0.5, retries=0
            ) as pool:
                assert pool.total_n == int(bounds[1])  # only the live shard
                first = pool.search(queries, k=4)
                assert first.partial
                assert first.failed_shards == (addresses[1],)
                late = ShardServer(
                    data[bounds[1]:], offset=int(bounds[1]),
                    host="127.0.0.1", port=down_port,
                ).start()
                healed = pool.search(queries, k=4)
                assert not healed.partial
                assert pool.total_n == 60
                assert (healed.indices == ref.indices).all()
                assert (healed.distances == ref.distances).all()
        finally:
            up.close()
            if late is not None:
                late.close()

    def test_shard_healing_mid_batch_widens_k_immediately(self):
        """A shard whose handshake heals inside a batch's own fan-out
        contributes to THAT batch: the merge width uses the post-heal
        total_n, not a stale snapshot taken before dispatch."""
        data, queries = _workload(n=40, d=8, n_queries=2, seed=13)
        bounds = balanced_shard_bounds(40, 2)
        ref = APSimilaritySearch(data, k=30).search(
            queries
        )
        up = ShardServer(
            data[: bounds[1]], offset=0
        ).start()
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        down_port = probe.getsockname()[1]
        probe.close()
        late = None
        try:
            with RemoteShardPool(
                ["{}:{}".format(*up.address), f"127.0.0.1:{down_port}"],
                timeout_s=2.0, connect_timeout_s=0.5, retries=0,
            ) as pool:
                assert pool.total_n == 20  # only half the data known
                late = ShardServer(
                    data[bounds[1]:], offset=int(bounds[1]),
                    host="127.0.0.1", port=down_port,
                ).start()
                # k=30 > the stale total_n of 20: the healed shard must
                # widen this very batch to min(30, 40) = 30 columns
                res = pool.search(queries, k=30)
                assert not res.partial
                assert res.k == 30
                assert (res.indices == ref.indices).all()
                assert (res.distances == ref.distances).all()
        finally:
            up.close()
            if late is not None:
                late.close()

    def test_all_shards_down_at_construction_raises(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(RemoteShardError, match="handshake"):
            RemoteShardPool(
                [f"127.0.0.1:{port}"], connect_timeout_s=0.5, retries=0
            )

    def test_recovery_after_timeout_uses_fresh_connection(self):
        """A shard that times out once serves the next batch cleanly:
        the poisoned connection must not be reused."""
        data, queries = _workload(n=40, d=8, n_queries=2)
        server = ShardServer(data).start()
        address = "{}:{}".format(*server.address)
        ref = APSimilaritySearch(data, k=3).search(
            queries
        )
        try:
            with RemoteShardPool(
                [address], timeout_s=0.2, retries=0
            ) as pool:
                # Sabotage: swap the timeout down and hit a stub-less
                # slow path by searching a huge batch? Simpler: sever
                # the live connection under the shard, then search.
                pool.shards[0]._drop_connection()
                res = pool.search(queries, k=3)
                assert not res.partial
                assert (res.indices == ref.indices).all()
        finally:
            server.close()


# -- resource hygiene ------------------------------------------------------


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestResourceHygiene:
    def test_no_socket_leak_after_close(self):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("/proc/self/fd unavailable (fd accounting is "
                        "Linux-only)")
        data, queries = _workload(n=60, d=16, n_queries=3)
        gc.collect()
        before = _open_fds()
        servers, addresses = _start_rack(data, 2)
        with RemoteMultiBoardSearch(addresses, k=3) as remote:
            remote.search(queries)
            assert _open_fds() > before  # listeners + connections live
        _close_all(servers)
        gc.collect()
        # handler threads unwind asynchronously after close
        for _ in range(40):
            if _open_fds() <= before:
                break
            time.sleep(0.05)
        assert _open_fds() <= before

    def test_no_shm_residue_after_rpc_close(self):
        if not shm_available():
            pytest.skip(SHM_UNAVAILABLE_REASON)
        data, queries = _workload(n=64, d=16, n_queries=3)
        before = set(
            glob.glob(f"/dev/shm/{SHM_SEGMENT_PREFIX}_{os.getpid()}_*")
        )
        server = ShardServer(
            data,
            board_capacity=16,
            parallel=ParallelConfig(n_workers=2, backend="process"),
        ).start()
        try:
            with RemoteMultiBoardSearch(
                ["{}:{}".format(*server.address)], k=3
            ) as remote:
                res = remote.search(queries)
                assert not res.partial
        finally:
            server.close()
        gc.collect()
        after = set(
            glob.glob(f"/dev/shm/{SHM_SEGMENT_PREFIX}_{os.getpid()}_*")
        )
        assert after == before

    def test_close_without_serving_returns(self):
        """close() on a constructed-but-never-served server must not
        hang (BaseServer.shutdown waits on serve_forever's event)."""
        data, _ = _workload(n=20, d=8)
        done = threading.Event()

        def construct_and_close():
            server = ShardServer(data)
            server.close()
            done.set()

        t = threading.Thread(target=construct_and_close, daemon=True)
        t.start()
        assert done.wait(timeout=10.0), "close() hung on an unserved server"

    def test_server_close_is_idempotent_and_port_released(self):
        data, _ = _workload(n=20, d=8)
        server = ShardServer(data).start()
        host, port = server.address
        server.close()
        server.close()  # idempotent
        # the port is reusable immediately (allow_reuse_address + closed)
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind((host, port))
        finally:
            probe.close()
