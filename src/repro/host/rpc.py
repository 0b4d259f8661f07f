"""Network-transparent shard service: rack-scale fan-out over TCP.

PR 3 scaled the search across local boards and PR 4 put an admission
layer in front of it; this module drives the same offset-aware merge
across *remote hosts*.  A rack deployment runs one :class:`ShardServer`
per host — each owning a private engine over its local dataset shard,
with its own :class:`~repro.ap.compiler.BoardImageCache`,
:class:`~repro.host.parallel.ParallelConfig` and shared-memory
transport — while the front door fans a query batch out to all of them
concurrently through a :class:`RemoteShardPool` and merges the replies
through the workload's own offset-aware ``merge``.  Results are
**bit-identical** to a single local engine over the concatenated
dataset: every shard computes its exact local answer with the
library-wide tie-breaks, indices re-base to global IDs during the
merge, and pad rows stay pads.

Wire protocol (v1)
------------------

A deliberately boring length-prefixed binary protocol over TCP —
stdlib ``socket``/``socketserver`` plus ``struct``, **no pickle ever
crosses the network**.  Each frame is::

    !4s B  B  H  Q        16-byte header
     |  |  |  |  +-- payload length (bounded by MAX_PAYLOAD_BYTES)
     |  |  |  +----- reserved (0)
     |  |  +-------- message type
     |  +----------- protocol version (PROTOCOL_VERSION)
     +-------------- magic b"APRS"

followed by ``payload length`` bytes.  ndarray payloads travel as
``dtype-code, ndim, dims..., raw C-order bytes`` with a whitelist of
dtypes (uint8 queries, int64 indices/distances, float64 similarity
scores) — a malicious or corrupt peer can at worst make a request fail
validation; nothing on the wire is executable and allocations are
bounded before they happen.

There is one search message: ``MSG_WL_SEARCH_REQ`` names a workload
registered with :mod:`repro.core.workload` (Hamming kNN is ``"knn"``)
and carries its request parameters as canonical JSON; the reply is
counters + execution tag + the workload's ``pack``\\ ed wire fields, and
:class:`RemoteWorkloadSearch` fans out/merges through the workload's
own associative ``merge`` — shard servers pre-merge their local
partitions, the pool merges across shards.  Servers can restrict what
they serve with ``workloads=`` (the CLI's ``repro serve --workload``).
How a server executes — back-end, boards, capacity, device — is the
server's own configuration: a request naming one of
:data:`~repro.core.workload.SERVER_OWNED_PARAMS` is refused.  Message
types 0x03/0x04 (the retired kNN-only search pair) stay reserved.

Failure semantics
-----------------

Per-shard timeouts and bounded retries (with reconnect — a timed-out
connection may have a stale reply in flight, so it is never reused;
reconnects back off exponentially with jitter so a dead host is not
hammered).  When ``allow_partial=True`` (default) a batch whose
shard(s) failed still returns: the merge covers the shards that
answered, the result's ``failed_shards`` names the ones that did not,
and ``partial`` flags it — the top-k over the answering shards is
still exact for those shards by the same merge argument.
``allow_partial=False`` turns any shard failure into a raised
:class:`RemoteShardError`.

Availability (PR 9): each pool slot is a
:class:`~repro.host.replication.ReplicaGroup` — one or more
``RemoteShard`` replicas serving the *same* shard index, written as
``host:port|host:port`` in the address list.  The group picks a
primary by tracked health (EWMA latency + a consecutive-failure
circuit breaker with half-open probing), fails over to the next
replica on error instead of degrading the batch to ``partial``, and
hedges slow requests (a speculative duplicate to a second replica
after a p95-based delay; first complete answer wins, the loser's
connection is aborted).  ``failed_shards`` now names whole groups: a
slot only degrades when every replica in it failed.
:meth:`ShardServer.drain` plus the CLI's SIGTERM handler give rolling
restarts a graceful exit — stop accepting, finish in-flight requests
(bounded), then close — so a replica can be replaced under traffic.

:class:`RemoteWorkloadSearch` wraps the pool in the same
``search()``/``batched()`` surface as the local
:class:`~repro.core.workload.WorkloadSearch`, so the PR 4
:class:`~repro.host.batching.BatchRouter` composes unchanged in front
of a rack of remote shards.
"""

from __future__ import annotations

import json
import random
import socket
import socketserver
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ..ap.device import GEN1
from ..perf import metrics as _metrics
from .batching import Batchable

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_PAYLOAD_BYTES",
    "RpcProtocolError",
    "RemoteShardError",
    "ShardInfo",
    "ShardServer",
    "RemoteShard",
    "RemoteShardPool",
    "RemoteMultiBoardSearch",
    "RemoteWorkloadSearch",
    "serve_shard",
]

PROTOCOL_VERSION = 1
MAGIC = b"APRS"
_HEADER = struct.Struct("!4sBBHQ")

# Hard ceiling on a single frame's payload: enough for ~100M int64
# result cells, small enough that a corrupt length field cannot make
# either side attempt a multi-gigabyte allocation.
MAX_PAYLOAD_BYTES = 1 << 28

# -- message types ---------------------------------------------------------

MSG_INFO_REQ = 0x01
MSG_INFO = 0x02
# 0x03/0x04 are reserved: the retired kNN-only search pair.  Never reuse.
MSG_PING = 0x05
MSG_PONG = 0x06
MSG_WL_SEARCH_REQ = 0x07
MSG_WL_SEARCH = 0x08
MSG_ERROR = 0x7F

# Wire dtype whitelist: nothing else deserializes.  uint8 queries,
# int64 indices/distances/counts, float64 similarity scores (the
# Jaccard workload) — still no object/structured dtypes, ever.
_DTYPE_CODES = {"|u1": 1, "<i8": 2, "<f8": 3}
_CODE_DTYPES = {
    1: np.dtype(np.uint8),
    2: np.dtype(np.int64),
    3: np.dtype(np.float64),
}

_INFO = struct.Struct("!QQQQ")  # n, d, offset, n_partitions
# counters: configurations, symbols_streamed, reports_received,
# report_payload_bits, image_cache_hits; then execution-string length
_SEARCH_HEAD = struct.Struct("!QQQQQB")
_ARRAY_HEAD = struct.Struct("!BB")  # dtype code, ndim
# workload request: name length (u8), params-JSON length (u32);
# the name, the params, and the packed query array follow
_WL_REQ_HEAD = struct.Struct("!BI")


class RpcProtocolError(ValueError):
    """A frame violated the wire protocol (bad magic/version/shape/size)."""


class RemoteShardError(RuntimeError):
    """A remote shard could not serve a request (after retries)."""


# -- codec -----------------------------------------------------------------


def pack_frame(msg_type: int, payload: bytes = b"") -> bytes:
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise RpcProtocolError(
            f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD_BYTES"
        )
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, msg_type, 0, len(payload)) + payload


def pack_array(arr: np.ndarray) -> bytes:
    """``dtype-code, ndim, dims..., raw bytes`` for a whitelisted array."""
    arr = np.ascontiguousarray(arr)
    code = _DTYPE_CODES.get(arr.dtype.str)
    if code is None:
        raise RpcProtocolError(f"dtype {arr.dtype} is not wire-encodable")
    if arr.ndim > 2:
        raise RpcProtocolError("only 1-D/2-D arrays travel on the wire")
    head = _ARRAY_HEAD.pack(code, arr.ndim)
    dims = struct.pack(f"!{arr.ndim}Q", *arr.shape)
    return head + dims + arr.tobytes()


def unpack_array(payload: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one packed array; returns ``(array, next_offset)``.

    Validation happens *before* allocation: dtype must be whitelisted,
    ndim <= 2, and the declared element count must fit the remaining
    payload exactly where it is the final field.
    """
    if len(payload) - offset < _ARRAY_HEAD.size:
        raise RpcProtocolError("truncated array header")
    code, ndim = _ARRAY_HEAD.unpack_from(payload, offset)
    dtype = _CODE_DTYPES.get(code)
    if dtype is None:
        raise RpcProtocolError(f"unknown wire dtype code {code}")
    if ndim > 2:
        raise RpcProtocolError(f"bad array ndim {ndim}")
    offset += _ARRAY_HEAD.size
    if len(payload) - offset < 8 * ndim:
        raise RpcProtocolError("truncated array dims")
    shape = struct.unpack_from(f"!{ndim}Q", payload, offset)
    offset += 8 * ndim
    count = 1
    for s in shape:
        if s > MAX_PAYLOAD_BYTES:
            raise RpcProtocolError(f"absurd array dimension {s}")
        count *= s
    nbytes = count * dtype.itemsize
    if len(payload) - offset < nbytes:
        raise RpcProtocolError(
            f"array body needs {nbytes} bytes, {len(payload) - offset} remain"
        )
    arr = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
    return arr.reshape(shape), offset + nbytes


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` on EOF."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> tuple[int, bytes]:
    """Read one ``(msg_type, payload)`` frame, validating the header."""
    head = _recv_exact(sock, _HEADER.size)
    magic, version, msg_type, _reserved, length = _HEADER.unpack(head)
    if magic != MAGIC:
        raise RpcProtocolError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise RpcProtocolError(f"unsupported protocol version {version}")
    if length > MAX_PAYLOAD_BYTES:
        raise RpcProtocolError(f"frame payload of {length} bytes exceeds cap")
    return msg_type, _recv_exact(sock, length) if length else b""


def _pack_counters(counters) -> tuple:
    return (
        counters.configurations,
        counters.symbols_streamed,
        counters.reports_received,
        counters.report_payload_bits,
        counters.image_cache_hits,
    )


def pack_workload_request(
    name: str, params: dict, queries_bits: np.ndarray
) -> bytes:
    """Encode a generic-workload search request.

    Params travel as canonical JSON (sorted keys, no whitespace) so the
    same logical request is byte-identical on every client; nothing in
    it is executable and the server re-validates every field against
    its own shard before use.
    """
    name_b = name.encode("utf-8")
    if not 1 <= len(name_b) <= 255:
        raise RpcProtocolError(f"bad workload name {name!r}")
    params_b = json.dumps(
        params, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return (
        _WL_REQ_HEAD.pack(len(name_b), len(params_b))
        + name_b
        + params_b
        + pack_array(np.ascontiguousarray(queries_bits, dtype=np.uint8))
    )


def unpack_workload_request(payload: bytes) -> tuple[str, dict, np.ndarray]:
    if len(payload) < _WL_REQ_HEAD.size:
        raise RpcProtocolError("truncated workload request")
    name_len, params_len = _WL_REQ_HEAD.unpack_from(payload, 0)
    offset = _WL_REQ_HEAD.size
    if len(payload) - offset < name_len + params_len:
        raise RpcProtocolError("truncated workload request fields")
    try:
        name = payload[offset : offset + name_len].decode("utf-8")
        offset += name_len
        params = json.loads(payload[offset : offset + params_len] or b"{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RpcProtocolError(f"malformed workload request: {exc}") from exc
    if not isinstance(params, dict):
        raise RpcProtocolError("workload params must be a JSON object")
    offset += params_len
    queries, end = unpack_array(payload, offset)
    if end != len(payload):
        raise RpcProtocolError("trailing bytes after workload request")
    return name, params, queries


def pack_workload_response(result, workload) -> bytes:
    """Counters + execution tag + the workload's packed wire fields
    (partition-local merge done server-side; indices stay shard-LOCAL)."""
    execution = result.execution.encode("utf-8")[:255]
    head = _SEARCH_HEAD.pack(*_pack_counters(result.counters), len(execution))
    return head + execution + workload.pack(result.value)


def unpack_workload_response(payload: bytes, workload):
    """Decode one shard's reply: ``(value, counters, execution)`` where
    ``value`` is the workload's result dataclass (shard-local indices)."""
    from ..ap.runtime import RuntimeCounters

    if len(payload) < _SEARCH_HEAD.size:
        raise RpcProtocolError("truncated workload response")
    fields = _SEARCH_HEAD.unpack_from(payload, 0)
    counters = RuntimeCounters(*fields[:5])
    exec_len = fields[5]
    offset = _SEARCH_HEAD.size
    if len(payload) - offset < exec_len:
        raise RpcProtocolError("truncated execution tag")
    execution = payload[offset : offset + exec_len].decode("utf-8")
    value = workload.unpack(payload, offset + exec_len)
    return value, counters, execution


# Compatibility adapters (benchmarks/e2e calls them; removed when that
# harness is re-anchored): the workload codec fixed to "knn".


def pack_search_response(result) -> bytes:
    from ..core.workload import get_workload

    return pack_workload_response(result, get_workload("knn"))


def unpack_search_response(payload: bytes):
    from ..core.workload import get_workload

    value, counters, execution = unpack_workload_response(
        payload, get_workload("knn")
    )
    return value.indices, value.distances, counters, execution


# -- server ----------------------------------------------------------------


@dataclass(frozen=True)
class ShardInfo:
    """What a shard reports about itself at handshake time."""

    n: int
    d: int
    offset: int  # global index base of this shard's vectors
    n_partitions: int

    @property
    def address(self) -> str:  # pragma: no cover - cosmetic default
        return ""


class _ShardRequestHandler(socketserver.BaseRequestHandler):
    """One connection: loop frames until the peer hangs up.

    Protocol violations answer with ``MSG_ERROR`` and drop the
    connection (the stream may be desynchronized); engine failures
    answer with ``MSG_ERROR`` and keep serving.
    """

    def handle(self) -> None:
        server: ShardServer = self.server.shard_server  # type: ignore[attr-defined]
        sock = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        server._track_connection(sock)
        try:
            # A draining server lets the in-flight request finish, then
            # ends the session at the next frame boundary (parked
            # connections are woken by drain() shutting the socket down).
            while not server._draining:
                try:
                    msg_type, payload = read_frame(sock)
                except (ConnectionError, OSError):
                    return  # peer done (or gone): normal end of session
                except RpcProtocolError as exc:
                    self._send_error(sock, str(exc))
                    return
                server._set_busy(sock, True)
                try:
                    if not self._serve_one(sock, server, msg_type, payload):
                        return
                finally:
                    server._set_busy(sock, False)
        finally:
            server._untrack_connection(sock)

    def _serve_one(
        self, sock: socket.socket, server: "ShardServer",
        msg_type: int, payload: bytes,
    ) -> bool:
        """Serve one request; False ends the session (drop connection)."""
        server._m_requests.labels(
            type={
                MSG_PING: "ping",
                MSG_INFO_REQ: "info",
                MSG_WL_SEARCH_REQ: "workload_search",
            }.get(msg_type, "unknown")
        ).inc()
        try:
            if msg_type == MSG_PING:
                return self._reply(sock, server, MSG_PONG, b"")
            elif msg_type == MSG_INFO_REQ:
                info = server.info()
                return self._reply(sock, server, MSG_INFO, _INFO.pack(
                    info.n, info.d, info.offset, info.n_partitions
                ))
            elif msg_type == MSG_WL_SEARCH_REQ:
                return self._reply(
                    sock, server, MSG_WL_SEARCH,
                    server._serve_workload_search(payload),
                )
            else:
                self._send_error(sock, f"unknown message type {msg_type}")
                return False
        except RpcProtocolError as exc:
            self._send_error(sock, str(exc))
            return False
        except BrokenPipeError:
            return False
        except Exception as exc:  # engine error: report, keep serving
            return self._send_error(sock, f"{type(exc).__name__}: {exc}")

    @staticmethod
    def _reply(
        sock: socket.socket, server: "ShardServer",
        msg_type: int, payload: bytes,
    ) -> bool:
        """Send one reply frame; False ends the session.

        Replies route through the server's fault hook when one is
        armed (:mod:`repro.host.faults` — chaos tests only; ``None``
        in production, a single attribute check on the hot path).
        """
        frame = pack_frame(msg_type, payload)
        hook = server.fault_hook
        if hook is not None:
            action = hook(msg_type)
            if action is not None:
                return action.apply(sock, frame)
        sock.sendall(frame)
        return True

    @staticmethod
    def _send_error(sock: socket.socket, message: str) -> bool:
        try:
            sock.sendall(pack_frame(MSG_ERROR, message.encode("utf-8")[:4096]))
            return True
        except OSError:
            return False


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    # Handler threads die with their connections; block_on_close would
    # make close() wait on clients that never hang up.
    block_on_close = False


class ShardServer:
    """Serve any admitted workload over one local dataset shard on a
    TCP port.

    The server owns its engine stack outright — one
    :class:`~repro.core.workload.WorkloadSearch` per distinct
    ``(workload, params)`` request shape (lazily built; they share one
    :class:`~repro.ap.compiler.BoardImageCache`, so distinct parameter
    values never recompile partition artifacts) — and everything about
    *how* those engines run: ``n_devices`` local boards, and in
    ``engine_kwargs`` the ``board_capacity``, ``device``,
    ``macro_config``, ``cache`` and the
    :class:`~repro.host.parallel.ParallelConfig` for local fan-out
    (``repro serve --workers N`` keeps a persistent pool hot across
    requests).  Requests choose only the workload and its
    request parameters.

    ``offset`` is the shard's global index base: responses carry
    shard-local indices and the *client* re-bases them during its
    merge, so the offset only has to be right in one place — the
    handshake (:class:`ShardInfo`).

    ``serve_forever()`` blocks (CLI use); ``start()`` runs the accept
    loop in a background thread (embedding/tests).  ``close()`` stops
    the loop, closes the listening socket, and releases the engine's
    parallel pool.
    """

    def __init__(
        self,
        dataset_bits: np.ndarray,
        offset: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        n_devices: int = 1,
        workloads: tuple[str, ...] | list[str] | None = None,
        fault_hook=None,
        **engine_kwargs,
    ):
        from ..core.dataset import PackedDataset
        from ..core.workload import (
            SERVER_OWNED_PARAMS,
            WorkloadSearch,
            available_workloads,
            get_workload,
        )

        # ndarray, PackedDataset handle, or a .pds path — a file-backed
        # shard serves without its payload ever loading into RAM, and
        # provisioning a shard host is just copying the file.
        self.dataset = PackedDataset.ensure(dataset_bits, name="shard dataset")
        self.n, self.d = self.dataset.shape
        if offset < 0:
            raise ValueError("offset must be >= 0")
        if workloads is not None:
            workloads = tuple(workloads)
            for wl_name in workloads:
                get_workload(wl_name)  # fail fast on unknown names
        # None = serve every registered workload; a tuple is an
        # admission list.
        self.workloads = workloads
        self.offset = int(offset)
        self.n_devices = int(n_devices)
        if not 1 <= self.n_devices <= self.n:
            raise ValueError(
                f"n_devices={self.n_devices} out of range for an "
                f"{self.n}-row shard"
            )
        self._cache = WorkloadSearch._normalize_cache(
            engine_kwargs.pop("cache", True)
        )
        self._parallel = engine_kwargs.pop("parallel", None)
        self._board_capacity = engine_kwargs.pop("board_capacity", None)
        # What is left (device / macro_config) is handed to every
        # workload as its deployment-owned params; each keeps the keys
        # it understands.
        unknown = engine_kwargs.keys() - SERVER_OWNED_PARAMS
        if unknown:
            raise TypeError(f"unknown engine settings {sorted(unknown)}")
        engine_kwargs.setdefault("device", GEN1)
        self._settings = engine_kwargs
        # Every workload this server could be asked to run must admit
        # the shard's geometry NOW — before the socket binds — so a bad
        # shard file fails at startup with a clear error, not on the
        # first query.
        for wl_name in (workloads if workloads is not None
                        else available_workloads()):
            get_workload(wl_name).validate_dataset(self.n, self.d)
        # One engine per distinct request shape, keyed (workload name,
        # sorted normalized params items).
        self._engines: dict[tuple, object] = {}
        self._engine_lock = threading.Lock()
        self._server = _ThreadingTCPServer(
            (host, port), _ShardRequestHandler, bind_and_activate=True
        )
        self._server.shard_server = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._serving = threading.Event()
        self._closed = False
        # Fault-injection hook (repro.host.faults, chaos tests only):
        # called per reply, may delay/corrupt/drop it.  None in prod.
        self.fault_hook = fault_hook
        # Live connections (socket -> currently-serving-a-request flag)
        # so drain() can distinguish parked sessions from in-flight work.
        self._draining = False
        self._conn_lock = threading.Lock()
        self._connections: dict[socket.socket, bool] = {}
        reg = _metrics.get_registry()
        self._m_inflight = reg.gauge(
            "repro_server_inflight_requests",
            "Connections currently inside a request on this server.",
        )
        self._m_requests = reg.counter(
            "repro_server_requests_total",
            "Requests served, by wire message type.",
            labelnames=("type",),
        )
        self._m_drain_remaining = reg.gauge(
            "repro_server_drain_remaining",
            "In-flight requests still finishing during a drain.",
        )

    # -- engine management -------------------------------------------------

    def _check_admitted(self, name: str) -> None:
        if self.workloads is not None and name not in self.workloads:
            raise ValueError(
                f"workload {name!r} is not served by this shard "
                f"(serving: {', '.join(self.workloads)})"
            )

    def _engine(self, name: str, params: dict):
        """The one engine factory: the engine serving ``(workload,
        params)``, built on first use under this server's own settings
        — sharing the one compile cache, so distinct parameter values
        never recompile partition artifacts."""
        from ..core.workload import (
            SERVER_OWNED_PARAMS,
            WorkloadSearch,
            get_workload,
            refuse_unknown_params,
        )

        owned = SERVER_OWNED_PARAMS & params.keys()
        if owned:
            raise ValueError(
                f"{sorted(owned)} are server configuration, not request "
                "parameters"
            )
        workload = get_workload(name)
        request = params
        params = workload.validate_params(
            {**request, **self._settings}, self.n, self.d
        )
        refuse_unknown_params(name, request, params)
        key = (name,) + tuple(sorted(params.items()))
        with self._engine_lock:
            engine = self._engines.get(key)
            if engine is None:
                engine = WorkloadSearch(
                    self.dataset, workload, params,
                    board_capacity=self._board_capacity,
                    parallel=self._parallel, cache=self._cache,
                    device=self._settings["device"],
                    n_devices=self.n_devices,
                )
                self._engines[key] = engine
            return engine

    def info(self) -> ShardInfo:
        # The handshake reports the reference (kNN) workload's
        # partitioning of this shard, whatever has been requested so far.
        return ShardInfo(
            n=self.n, d=self.d, offset=self.offset,
            n_partitions=len(self._engine("knn", {}).partitions),
        )

    def _serve_workload_search(self, payload: bytes) -> bytes:
        name, params, queries = unpack_workload_request(payload)
        self._check_admitted(name)
        if queries.ndim != 2 or queries.shape[1] != self.d:
            raise RpcProtocolError(
                f"queries shape {queries.shape} does not match shard d={self.d}"
            )
        if queries.dtype != np.uint8:
            raise RpcProtocolError("queries must be uint8")
        engine = self._engine(name, params)
        result = engine.search(queries)
        return pack_workload_response(result, engine.workload)

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port is concrete even for 0."""
        return self._server.server_address[:2]

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`close` (CLI entry)."""
        self._serving.set()
        try:
            self._server.serve_forever(poll_interval=0.1)
        except (OSError, ValueError):
            # close() or drain() may have raced us and closed the
            # listening socket before the accept loop started —
            # selectors raise OSError or ValueError ("Invalid file
            # descriptor") depending on where the race lands; both are
            # a clean shutdown then.
            if not (self._closed or self._draining):
                raise

    def start(self) -> "ShardServer":
        """Serve in a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever,
                name=f"repro-shard-{self.address[1]}",
                daemon=True,
            )
            self._thread.start()
        return self

    # -- graceful drain ----------------------------------------------------

    def _track_connection(self, sock: socket.socket) -> None:
        with self._conn_lock:
            self._connections[sock] = False

    def _set_busy(self, sock: socket.socket, busy: bool) -> None:
        with self._conn_lock:
            if sock in self._connections:
                self._connections[sock] = busy
            active = sum(1 for b in self._connections.values() if b)
        self._m_inflight.set(active)

    def _untrack_connection(self, sock: socket.socket) -> None:
        with self._conn_lock:
            self._connections.pop(sock, None)

    @property
    def active_requests(self) -> int:
        """Connections currently inside a request (not merely parked)."""
        with self._conn_lock:
            return sum(1 for busy in self._connections.values() if busy)

    def drain(
        self,
        timeout_s: float = 5.0,
        progress=None,
        progress_interval_s: float = 0.5,
    ) -> bool:
        """Graceful shutdown, phase 1: stop accepting, finish in-flight.

        Stops the accept loop and closes the listening socket (new
        connects are refused immediately — a load balancer or replica
        group fails over), wakes connections parked between requests so
        their sessions end cleanly, and waits up to ``timeout_s`` for
        requests already being served to complete.  Returns True when
        every session ended inside the bound; False means stragglers
        were cut off.  Call :meth:`close` afterwards to release engine
        pools — the SIGTERM path in ``repro serve`` does exactly
        ``drain(); close()``, so a rolling restart never drops an
        accepted request while staying bounded by ``timeout_s``.

        Drain progress is observable two ways (a drain that stalls on a
        slow request used to be indistinguishable from a hang):
        ``progress(in_flight, sessions, remaining_s)`` is called every
        ``progress_interval_s`` while sessions remain (the CLI logs it),
        and the ``repro_server_drain_remaining`` gauge tracks the
        in-flight count for scrapes.
        """
        self._draining = True
        if self._serving.is_set():
            self._server.shutdown()
        self._server.server_close()
        deadline = time.monotonic() + max(0.0, float(timeout_s))
        next_report = time.monotonic()
        drained = False
        while True:
            with self._conn_lock:
                conns = dict(self._connections)
            in_flight = sum(1 for busy in conns.values() if busy)
            self._m_drain_remaining.set(in_flight)
            if not conns:
                drained = True
                break
            now = time.monotonic()
            if progress is not None and now >= next_report:
                try:
                    progress(in_flight, len(conns), max(0.0, deadline - now))
                except Exception:
                    pass  # a broken reporter must not break the drain
                next_report = now + max(0.0, float(progress_interval_s))
            for sock, busy in conns.items():
                if not busy:
                    # Parked in read_frame between requests: shutting
                    # the socket down fails that read immediately and
                    # the handler exits (it owns the close).
                    try:
                        sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
            if now >= deadline:
                break
            time.sleep(0.01)
        if not drained:
            with self._conn_lock:
                stragglers = list(self._connections)
            if progress is not None:
                try:
                    progress(len(stragglers), len(stragglers), 0.0)
                except Exception:
                    pass
            for sock in stragglers:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self._m_drain_remaining.set(0)
        return drained

    def close(self) -> None:
        """Stop serving, close the socket, release engine pools."""
        if self._closed:
            return
        self._closed = True
        # BaseServer.shutdown() waits on an event that only
        # serve_forever() sets: calling it on a server that was
        # constructed but never served would block forever.
        if self._serving.is_set():
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._engine_lock:
            self._engines = {}
        if getattr(self._parallel, "persistent", False):
            self._parallel.close()

    def __enter__(self) -> "ShardServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_shard(
    dataset_bits: np.ndarray,
    shard_index: int = 0,
    n_shards: int = 1,
    **server_kwargs,
) -> ShardServer:
    """Construct a :class:`ShardServer` for one balanced shard of a
    full dataset — shard bounds and the global offset are derived with
    the same :func:`~repro.core.workload.balanced_shard_bounds` the
    local multi-board layer uses, so a rack of ``serve_shard(data, i,
    N)`` servers covers the dataset exactly.  Accepts anything
    :meth:`~repro.core.dataset.PackedDataset.ensure` does — a ``.pds``
    path shards by zero-copy sub-window, so every server in the rack
    can point at the *same* file and carve out its own rows.  Bounds
    derive from the handle's own row count, so RPC sharding can't
    disagree with the store's actual length."""
    from ..core.dataset import PackedDataset
    from ..core.workload import balanced_shard_bounds

    dataset = PackedDataset.ensure(dataset_bits, name="shard dataset")
    if not 0 <= shard_index < n_shards:
        raise ValueError(f"need 0 <= shard_index < n_shards, got "
                         f"{shard_index}/{n_shards}")
    bounds = balanced_shard_bounds(dataset.n, n_shards)
    lo, hi = int(bounds[shard_index]), int(bounds[shard_index + 1])
    return ShardServer(dataset.slice_rows(lo, hi), offset=lo, **server_kwargs)


# -- client ----------------------------------------------------------------


class RemoteShard:
    """One connection-reusing client to a :class:`ShardServer`.

    Not safe for concurrent requests from multiple threads over the
    same instance without external ordering — the pool drives each
    shard from exactly one worker lane per batch and serializes batches,
    and a lock here guards against misuse from user code.

    Any transport failure (timeout, reset, protocol violation) poisons
    the connection — a late reply to a timed-out request must never be
    read as the answer to the next one — so errors always reconnect.
    """

    def __init__(
        self,
        address: str,
        timeout_s: float = 10.0,
        connect_timeout_s: float = 5.0,
        retries: int = 1,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
    ):
        host, sep, port = address.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"shard address must be 'host:port', got {address!r}"
            )
        self.host, self.port = host, int(port)
        self.address = f"{host}:{int(port)}"
        self.timeout_s = float(timeout_s)
        self.connect_timeout_s = float(connect_timeout_s)
        self.retries = int(retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.bytes_sent = 0
        self.bytes_received = 0
        self._sock: socket.socket | None = None
        self._aborted = False
        self._lock = threading.Lock()
        reg = _metrics.get_registry()
        self._m_roundtrip = reg.histogram(
            "repro_rpc_roundtrip_seconds",
            "Client-observed request/response round-trip latency.",
        )
        self._m_sent = reg.counter(
            "repro_rpc_bytes_sent_total", "Request frame bytes sent."
        )
        self._m_received = reg.counter(
            "repro_rpc_bytes_received_total", "Response frame bytes received."
        )
        self._m_retries = reg.counter(
            "repro_rpc_retries_total",
            "Failed round-trip attempts by failure kind.",
            labelnames=("kind",),
        )

    # Indirection so tests can observe/skip the backoff sleeps.
    _sleep = staticmethod(time.sleep)

    # -- transport --------------------------------------------------------

    def _connected(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s
            )
            sock.settimeout(self.timeout_s)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def abort(self) -> None:
        """Cross-thread cancel of an in-flight round trip.

        The replication layer aborts a hedged request's loser: shutting
        the socket down fails the blocked recv immediately, and the
        armed flag turns the failure into a non-retried
        :class:`RemoteShardError` instead of a reconnect-with-backoff
        loop.  The next round trip (after the owner re-arms via
        :meth:`_clear_abort`) reconnects fresh; deliberately lock-free
        so it works while :meth:`_round_trip` holds the request lock.
        """
        self._aborted = True
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _clear_abort(self) -> None:
        self._aborted = False

    def _round_trip(self, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        """One request/response round with bounded reconnect-retries.

        Retries back off exponentially with jitter, capped at
        ``backoff_cap_s`` — immediate reconnects from a rack of clients
        synchronize into connect storms against a host that just died —
        and connect vs. request failures are counted separately so the
        final error says whether the host was unreachable or the
        service misbehaved once connected.
        """
        frame = pack_frame(msg_type, payload)
        last_error: Exception | None = None
        connect_failures = 0
        request_failures = 0
        with self._lock:
            for attempt in range(self.retries + 1):
                if self._aborted:
                    raise RemoteShardError(
                        f"shard {self.address}: request aborted"
                    ) from last_error
                if attempt and self.backoff_base_s > 0:
                    delay = min(
                        self.backoff_cap_s,
                        self.backoff_base_s * (1 << (attempt - 1)),
                    )
                    # Full jitter in [delay/2, delay): desynchronizes
                    # reconnect herds without ever retrying instantly.
                    self._sleep(delay * (0.5 + 0.5 * random.random()))
                try:
                    sock = self._connected()
                except OSError as exc:
                    connect_failures += 1
                    self._m_retries.labels(kind="connect").inc()
                    last_error = exc
                    self._drop_connection()
                    continue
                t0 = time.perf_counter()
                try:
                    sock.sendall(frame)
                    resp_type, resp = read_frame(sock)
                except (OSError, ConnectionError, RpcProtocolError) as exc:
                    request_failures += 1
                    self._m_retries.labels(kind="request").inc()
                    last_error = exc
                    self._drop_connection()
                    continue
                self._m_roundtrip.observe(time.perf_counter() - t0)
                self.bytes_sent += len(frame)
                self.bytes_received += _HEADER.size + len(resp)
                self._m_sent.inc(len(frame))
                self._m_received.inc(_HEADER.size + len(resp))
                if resp_type == MSG_ERROR:
                    # Server-side failure: the stream itself is intact.
                    raise RemoteShardError(
                        f"shard {self.address}: {resp.decode('utf-8', 'replace')}"
                    )
                return resp_type, resp
        raise RemoteShardError(
            f"shard {self.address} unreachable after "
            f"{self.retries + 1} attempt(s) ({connect_failures} connect / "
            f"{request_failures} request failure(s)): {last_error}"
        ) from last_error

    # -- requests ---------------------------------------------------------

    def ping(self) -> bool:
        resp_type, _ = self._round_trip(MSG_PING, b"")
        return resp_type == MSG_PONG

    def info(self) -> ShardInfo:
        resp_type, payload = self._round_trip(MSG_INFO_REQ, b"")
        if resp_type != MSG_INFO or len(payload) != _INFO.size:
            raise RemoteShardError(
                f"shard {self.address}: malformed info response"
            )
        n, d, offset, n_partitions = _INFO.unpack(payload)
        return ShardInfo(n=n, d=d, offset=offset, n_partitions=n_partitions)

    def search(self, queries_bits: np.ndarray, k: int):
        """Shard-local exact kNN top-k as ``(indices, distances,
        counters, execution)`` — :meth:`search_workload` for ``"knn"``."""
        value, counters, execution = self.search_workload(
            queries_bits, "knn", {"k": int(k)}
        )
        return value.indices, value.distances, counters, execution

    def search_workload(
        self, queries_bits: np.ndarray, workload_name: str, params: dict
    ):
        """Shard-local workload run: ``(value, counters, execution)``
        where ``value`` is the workload's result dataclass carrying
        shard-LOCAL indices (the pool merge applies offsets)."""
        from ..core.workload import get_workload

        workload = get_workload(workload_name)
        payload = pack_workload_request(workload_name, params, queries_bits)
        resp_type, resp = self._round_trip(MSG_WL_SEARCH_REQ, payload)
        if resp_type != MSG_WL_SEARCH:
            raise RemoteShardError(
                f"shard {self.address}: unexpected response type {resp_type}"
            )
        try:
            return unpack_workload_response(resp, workload)
        except RpcProtocolError as exc:
            self._drop_connection()
            raise RemoteShardError(f"shard {self.address}: {exc}") from exc

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "RemoteShard":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RemoteShardPool:
    """Fan a query batch out to N remote shards and merge exactly.

    The pool handshakes the shards at construction (d-consistency,
    global offsets, total n) and keeps one reusable connection per
    shard.  With ``allow_partial=True`` the handshake itself is
    degradation-tolerant: a shard that is down when the pool comes up
    is recorded as failed (at least one shard must answer) and its
    handshake is retried on every later batch, so a rack self-heals
    when the host returns — until then ``total_n``, and therefore the
    effective ``k``, cover the known shards only.
    :meth:`search_workload` runs all shards concurrently (one thread
    lane per shard), applies per-shard timeouts/retries, and merges
    whatever answered through the workload's offset-aware ``merge``
    — bit-identical to one local engine over the concatenated dataset
    when every shard answers, and an exact merge over the answering
    subset (flagged ``partial``, failures named in ``failed_shards``)
    when some do not.
    """

    def __init__(
        self,
        addresses: list[str] | tuple[str, ...],
        timeout_s: float = 10.0,
        connect_timeout_s: float = 5.0,
        retries: int = 1,
        allow_partial: bool = True,
        hedge=None,
        health=None,
    ):
        from .replication import ReplicaGroup

        if not addresses:
            raise ValueError("need at least one shard address")
        # Each slot is a replica group over one shard index: a plain
        # "host:port" is a group of one (zero overhead vs PR 5), while
        # "host:port|host:port" (or a list of addresses) replicates the
        # slot — failover and hedging happen inside the group, so the
        # fan-out/merge below never sees individual replicas.
        self.shards = [
            ReplicaGroup(
                spec, timeout_s=timeout_s,
                connect_timeout_s=connect_timeout_s, retries=retries,
                hedge=hedge, health=health,
            )
            for spec in addresses
        ]
        self.allow_partial = bool(allow_partial)
        self._infos: dict[int, ShardInfo] = {}
        # Guards _infos: concurrent fan-out lanes may admit healed
        # shards' handshakes while other lanes (or properties) read.
        self._info_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=len(self.shards),
            thread_name_prefix="repro-rpc-fanout",
        )
        # Handshake all shards concurrently (one lane each, like the
        # query fan-out) so construction latency is one connect timeout,
        # not the sum over dead hosts; admission stays in address order
        # so the d-consistency anchor is deterministic.
        handshakes = [
            self._pool.submit(shard.info) for shard in self.shards
        ]
        first_error: Exception | None = None
        for i, future in enumerate(handshakes):
            try:
                self._admit_info(i, future.result())
            except (RemoteShardError, OSError, ValueError) as exc:
                if not self.allow_partial or isinstance(exc, ValueError):
                    self.close()
                    raise
                if first_error is None:
                    first_error = exc
        if not self._infos:
            self.close()
            raise RemoteShardError(
                f"no shard of {len(self.shards)} answered the handshake"
            ) from first_error

    def _admit_info(self, i: int, info: ShardInfo) -> ShardInfo:
        """Record a shard's handshake, enforcing d-consistency."""
        with self._info_lock:
            d_known = (
                next(iter(self._infos.values())).d if self._infos else None
            )
            if d_known is not None and info.d != d_known:
                raise ValueError(
                    f"shard {self.shards[i].address} disagrees on "
                    f"dimensionality: d={info.d} vs d={d_known}"
                )
            self._infos[i] = info
            return info

    @property
    def d(self) -> int:
        with self._info_lock:
            return next(iter(self._infos.values())).d

    @property
    def total_n(self) -> int:
        """Vectors across the shards that have completed a handshake."""
        with self._info_lock:
            return sum(info.n for info in self._infos.values())

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def wire_bytes(self) -> tuple[int, int]:
        """Cumulative ``(sent, received)`` bytes across all shards."""
        return (
            sum(s.bytes_sent for s in self.shards),
            sum(s.bytes_received for s in self.shards),
        )

    def _replica_events(self) -> tuple[int, int]:
        """Cumulative ``(failovers, hedges)`` across all groups —
        snapshot before/after a fan-out to attribute events per batch."""
        return (
            sum(g.failovers for g in self.shards),
            sum(g.hedges for g in self.shards),
        )

    def health_snapshot(self) -> dict[str, list[dict]]:
        """Per-replica health (state, EWMA latency, failure counts),
        keyed by group address — observability, not a control surface."""
        return {g.address: g.health_snapshot() for g in self.shards}

    def search(self, queries_bits: np.ndarray, k: int):
        """kNN fan-out: :meth:`search_workload` for ``"knn"``."""
        return self.search_workload(queries_bits, "knn", {"k": int(k)})

    def _shard_workload_batch(
        self, i: int, queries_bits: np.ndarray, name: str, params: dict
    ):
        """One fan-out lane: (re-)handshake if needed, then search.

        A shard that missed its construction-time handshake gets a new
        attempt here — inside its own lane, so a still-dead host costs
        only this lane's connect timeout, never the other shards'
        latency — and the rack self-heals once the host returns.
        """
        shard = self.shards[i]
        with self._info_lock:
            info = self._infos.get(i)
        if info is None:
            info = self._admit_info(i, shard.info())
        return info, shard.search_workload(queries_bits, name, params)

    def search_workload(
        self,
        queries_bits: np.ndarray,
        workload_name: str,
        params: dict | None = None,
    ):
        """Fan one batch of any registered workload out to every shard
        and merge through the workload's own offset-aware ``merge``.

        Raw user params go to every lane (each shard re-validates
        against its own ``n``, clipping e.g. ``k`` locally); the merge
        params are validated against ``total_n`` only AFTER the
        fan-out, so a shard whose handshake heals mid-batch widens this
        very batch instead of being truncated to the stale ``total_n``.
        Returns a :class:`~repro.core.workload.WorkloadRunResult` whose
        value carries global dataset indices.
        """
        from ..ap.runtime import RuntimeCounters
        from ..core.workload import (
            WorkloadRunResult,
            get_workload,
            normalize_queries,
        )

        workload = get_workload(workload_name)
        queries_bits = np.ascontiguousarray(
            normalize_queries(queries_bits, self.d)
        )
        n_q = queries_bits.shape[0]
        params = dict(params or {})
        # Early client-side validation for fast failure on malformed
        # requests (bad radius, k < 1, ...); the post-fan-out validation
        # below is the one that sizes the merge.
        workload.validate_params(params, self.total_n, self.d)

        failovers0, hedges0 = self._replica_events()
        futures = [
            self._pool.submit(
                self._shard_workload_batch, i, queries_bits,
                workload_name, params,
            )
            for i in range(len(self.shards))
        ]
        partials: list = []
        offsets: list[int] = []
        per_shard_partitions: list[int] = []
        failed: list[str] = []
        counters = RuntimeCounters()
        modes: set[str] = set()
        first_error: Exception | None = None
        row_field = workload.wire_fields[0]
        for shard, future in zip(self.shards, futures):
            try:
                info, (value, delta, execution) = future.result()
            except (RemoteShardError, OSError, ValueError) as exc:
                failed.append(shard.address)
                if first_error is None:
                    first_error = exc
                continue
            rows = getattr(value, row_field).shape[0]
            if rows != n_q:
                failed.append(shard.address)
                if first_error is None:
                    first_error = RemoteShardError(
                        f"shard {shard.address} answered {rows} rows "
                        f"for a {n_q}-row batch"
                    )
                shard.close()  # desynchronized: force a fresh connection
                continue
            counters.merge(delta)
            modes.add(execution)
            partials.append(value)
            offsets.append(info.offset)
            per_shard_partitions.append(info.n_partitions)
        if failed and not self.allow_partial:
            raise RemoteShardError(
                f"{len(failed)}/{len(self.shards)} shard(s) failed: "
                f"{', '.join(failed)}"
            ) from first_error

        merge_params = workload.validate_params(
            params, self.total_n, self.d
        )
        if partials:
            value = workload.merge(partials, offsets, merge_params)
        else:
            value = workload.empty(n_q, merge_params)
        if len(modes) == 1:
            execution = modes.pop()
        else:
            execution = "mixed" if modes else "none"
        failovers1, hedges1 = self._replica_events()
        return WorkloadRunResult(
            workload=workload_name,
            value=value,
            counters=counters,
            per_device_partitions=tuple(per_shard_partitions),
            execution=execution,
            n_workers=len(partials),
            transport="rpc",
            failed_shards=tuple(failed),
            failovers=failovers1 - failovers0,
            hedges=hedges1 - hedges0,
        )

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "RemoteShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RemoteWorkloadSearch(Batchable):
    """The :class:`~repro.core.workload.WorkloadSearch` surface over a
    rack of remote shards — any registered workload, same
    ``search()``/``batched()``/``split_result`` contract as the local
    engine, so the admission layer and the CLI compose unchanged
    whether the shards are threads on this host or machines across a
    rack.  Custom workloads must be registered (imported) on the
    servers too: the name on the wire resolves through each process's
    own registry.
    """

    def __init__(
        self,
        addresses: list[str] | tuple[str, ...],
        workload: str,
        params: dict | None = None,
        timeout_s: float = 10.0,
        connect_timeout_s: float = 5.0,
        retries: int = 1,
        allow_partial: bool = True,
        hedge=None,
        health=None,
    ):
        from ..core.workload import get_workload

        self.workload = (
            get_workload(workload) if isinstance(workload, str) else workload
        )
        self.params = dict(params or {})
        self.pool = RemoteShardPool(
            addresses, timeout_s=timeout_s,
            connect_timeout_s=connect_timeout_s, retries=retries,
            allow_partial=allow_partial, hedge=hedge, health=health,
        )
        # Fail fast on malformed params (bad radius, k < 1, ...) before
        # any caller blocks on a fan-out.
        try:
            self.workload.validate_params(
                dict(self.params), self.pool.total_n, self.pool.d
            )
        except ValueError:
            self.pool.close()
            raise

    @property
    def n(self) -> int:
        """Vectors across handshaken shards (grows as a rack heals)."""
        return self.pool.total_n

    @property
    def d(self) -> int:
        return self.pool.d

    @property
    def n_shards(self) -> int:
        return self.pool.n_shards

    def search(self, queries_bits: np.ndarray):
        return self.pool.search_workload(
            queries_bits, self.workload.name, self.params
        )

    def split_result(self, result, lo: int, hi: int):
        """Row-slice for the batching layer, through the workload's
        own ``split`` — same hook the local engine exposes."""
        return replace(
            result, value=self.workload.split(result.value, lo, hi)
        )

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "RemoteWorkloadSearch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RemoteMultiBoardSearch(RemoteWorkloadSearch):
    """Compatibility adapter (benchmarks/e2e constructs it; removed when
    that harness is re-anchored): :class:`RemoteWorkloadSearch` fixed to
    ``"knn"``, plus the ``k``/``requested_k`` view of its params."""

    def __init__(self, addresses, k: int, **pool_kwargs):
        super().__init__(addresses, "knn", {"k": k}, **pool_kwargs)

    @property
    def requested_k(self) -> int:
        return int(self.params["k"])

    @property
    def k(self) -> int:
        """``requested_k`` clipped to the currently-known dataset size."""
        return min(self.requested_k, self.n)
