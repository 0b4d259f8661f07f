"""Unified dataset plane: :class:`PackedDataset` over pluggable stores.

Every layer of the stack used to reinvent how the host-resident binary
dataset is sliced and shipped: engines held raw ndarrays and sliced
them per partition, the parallel layer copied those slices to its
workers task by task, the RPC layer loaded whole shards into RAM before
serving.  That left the ROADMAP's out-of-core item unreachable — there
was no single dataset abstraction to put an mmap backend behind.

:class:`PackedDataset` is that abstraction: one row-window handle
(shape, dtype, pack layout, content digest) over one of three
interchangeable stores:

* :class:`ArrayStore` — an in-memory ndarray;
* :class:`ShmStore` — a shared-memory segment the store owns, which
  any process on the host can attach.  Engines whose workers run out of
  process *promote* an in-memory dataset to one
  (:meth:`PackedDataset.attachable`), once per row window;
* :class:`MmapStore` — a memory-mapped on-disk ``.pds`` packed-shard
  file (magic + versioned header + page-aligned payload, the on-disk
  twin of the shm descriptors), so a shard *bigger than RAM* can be
  partitioned, compiled, and served without ever materializing the
  payload, and shard provisioning is a file copy.

Engines consume the handle uniformly (:meth:`PackedDataset.rows` for
zero-copy partition views, :meth:`~PackedDataset.partition_digest` for
content-addressed compile-cache keys — mmap and in-memory datasets
hash identically, so they *share* compile caches), and the parallel
layer ships :class:`DatasetSliceRef` descriptors instead of arrays for
stores that support remote attach: a process/pinned worker re-opens
the mmap store by path (zero-copy, no export step) or re-attaches the
shm segment, so per-task dataset bytes on the wire drop to the size of
a descriptor.  Only a dataset that cannot be promoted (below
:data:`SHM_PROMOTE_MIN_BYTES`, no usable ``/dev/shm``, segment refused)
travels by value.

``.pds`` format (version 1)::

    offset 0    magic           8 bytes  b"REPROPDS"
    offset 8    version         u16 LE
    offset 10   header_size     u16 LE   (struct size; forward compat)
    offset 12   dtype code      u8       (1 = uint8)
    offset 13   layout code     u8       (1 = one byte per bit, C order)
    offset 14   (pad)           2 bytes
    offset 16   n               u64 LE   rows
    offset 24   d               u64 LE   columns
    offset 32   payload offset  u64 LE   (4096: page-aligned)
    offset 40   payload nbytes  u64 LE   (= n * d for layout 1)
    offset 48   digest          40 ASCII hex (sha1, == dataset_digest)
    offset 4096 payload         n*d raw C-order bytes

Readers validate magic, version, codes, geometry against the file size
and reject corrupt/truncated/wrong-version files with
:class:`DatasetFormatError` before any mapping is handed out.

RSS discipline: scanning an mmap-backed payload (digest hashing,
per-partition compile) would otherwise fault the whole file resident.
Store-aware digests and :meth:`PackedDataset.release` drop consumed
page ranges back to the page cache (``madvise(MADV_DONTNEED)``) as the
scan advances, so peak RSS stays bounded by a partition, not the
payload — the property
``tests/integration/test_store_parity.py::test_mmap_serving_stays_out_of_core``
asserts.
"""

from __future__ import annotations

import hashlib
import mmap as _mmap_module
import os
import struct
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from ..host.shm import ShmArrayRef, export_array, resolve_array, shm_available
from ..util.bitops import is_binary

__all__ = [
    "ArrayStore",
    "DatasetFormatError",
    "DatasetSliceRef",
    "MmapStore",
    "PackedDataset",
    "PdsHeader",
    "ShmStore",
    "attach_mmap_store",
    "read_pds_header",
    "write_pds",
    "PDS_MAGIC",
    "PDS_VERSION",
    "PDS_SUFFIX",
    "SHM_PROMOTE_MIN_BYTES",
    "SHM_PROMOTE_MAX_BYTES",
]

PDS_MAGIC = b"REPROPDS"
PDS_VERSION = 1
PDS_SUFFIX = ".pds"
# Payload starts on a page boundary so the mapped array is aligned and
# the header page never shares residency accounting with payload rows.
PDS_PAYLOAD_OFFSET = 4096

_PDS_HEADER = struct.Struct("<8sHHBB2xQQQQ40s")
_DTYPE_UINT8 = 1
_LAYOUT_BITS_U8 = 1  # one byte per bit value (0/1), C row-major

# An in-memory dataset is promoted to a shared-memory segment for
# out-of-process workers only inside this size band.  Below the floor
# the by-value path's simplicity wins and small searches never pay
# segment setup; above the ceiling one search would pin more of
# /dev/shm (RAM) than a host should lose to a copy of data it already
# holds — pack such a dataset to a ``.pds`` and let workers map it.
SHM_PROMOTE_MIN_BYTES = 1 << 20
SHM_PROMOTE_MAX_BYTES = 2 << 30

# Chunk size for streaming scans (digest, pack, validation): large
# enough to amortize per-chunk overhead, small enough that an
# out-of-core payload never materializes more than this at once.
_SCAN_CHUNK_BYTES = 1 << 22


class DatasetFormatError(ValueError):
    """A ``.pds`` file failed structural validation (corrupt header,
    truncated payload, unsupported version/dtype/layout)."""


def _scan_chunk_rows(d: int, chunk_rows: int | None = None) -> int:
    if chunk_rows is not None:
        return max(1, int(chunk_rows))
    return max(1, _SCAN_CHUNK_BYTES // max(1, int(d)))


# -- stores -----------------------------------------------------------------


class ArrayStore:
    """In-memory ndarray store — the seed behavior behind the handle.

    Rows are plain views into the owned array; there is no remote-
    attach descriptor (``slice_ref`` is ``None``), so tasks over this
    store carry their slices by value.  :meth:`promote` builds the
    shared-memory twin that out-of-process workers attach instead.
    """

    kind = "array"

    def __init__(self, array: np.ndarray):
        array = np.asarray(array, dtype=np.uint8)
        if array.ndim != 2 or array.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        self._array = array
        self.n, self.d = array.shape
        self.digest_memo: dict[tuple[int, int], str] = {}
        self._promoted = weakref.WeakValueDictionary()  # (lo, hi) -> ShmStore

    @property
    def nbytes(self) -> int:
        return int(self._array.nbytes)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return self._array[lo:hi]

    def slice_ref(self, lo: int, hi: int) -> "DatasetSliceRef | None":
        return None

    def release(self, lo: int, hi: int) -> None:
        pass

    def close(self) -> None:
        pass

    def promote(self, lo: int, hi: int) -> "ShmStore | None":
        """The :class:`ShmStore` twin of rows ``[lo, hi)``, exported on
        first use and shared by every engine that asks while one still
        holds it (the memo is weak: the segment goes when its last
        engine does).  ``None`` — the dataset travels by value —
        outside the ``SHM_PROMOTE_*`` size band, without usable shared
        memory, or when the segment is refused (``/dev/shm`` full)."""
        with _PROMOTE_LOCK:
            twin = self._promoted.get((lo, hi))
            if (
                twin is None
                and SHM_PROMOTE_MIN_BYTES <= (hi - lo) * self.d <= SHM_PROMOTE_MAX_BYTES
                and shm_available()
            ):
                try:
                    twin = ShmStore.export(self._array[lo:hi])
                except OSError:
                    return None
                self._promoted[lo, hi] = twin
            return twin


# Promotion is rare (once per window) and must not race: two engines
# built concurrently over one handle would otherwise export twice.
_PROMOTE_LOCK = threading.Lock()


class ShmStore:
    """Shared-memory store: the dataset in a segment this store owns.

    The payload lives in a ``multiprocessing.shared_memory`` segment,
    rows are read-only zero-copy views, and :meth:`slice_ref` hands out
    a picklable descriptor any process on the host can re-attach.
    Built by :meth:`export`; the segment's name is unlinked once the
    store and every row view taken from it are gone.
    """

    kind = "shm"

    def __init__(self, ref: ShmArrayRef, view: np.ndarray):
        """``ref`` names the segment and ``view`` is its creator's
        mapping — the pair :func:`~repro.host.shm.export_array`
        returns."""
        if view.ndim != 2 or view.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        self.ref = ref
        self._array = view
        self.n, self.d = view.shape
        self.digest_memo: dict[tuple[int, int], str] = {}

    @classmethod
    def export(cls, array: np.ndarray) -> "ShmStore":
        """Copy ``array`` into a segment of its own and wrap it
        (``OSError`` if the segment cannot be created or backed)."""
        return cls(*export_array(np.asarray(array, dtype=np.uint8)))

    @property
    def nbytes(self) -> int:
        return int(self._array.nbytes)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return self._array[lo:hi]

    def slice_ref(self, lo: int, hi: int) -> "DatasetSliceRef":
        return DatasetSliceRef(kind="shm", lo=int(lo), hi=int(hi), shm_ref=self.ref)

    def release(self, lo: int, hi: int) -> None:
        pass  # segment memory is the dataset; nothing to drop

    def close(self) -> None:
        self._array = None  # the view's finalizer unlinks the segment


@dataclass(frozen=True)
class PdsHeader:
    """Validated ``.pds`` header fields."""

    version: int
    n: int
    d: int
    payload_offset: int
    payload_nbytes: int
    digest: str

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.uint8)


def read_pds_header(path: str | os.PathLike) -> PdsHeader:
    """Read and validate a ``.pds`` header; raise
    :class:`DatasetFormatError` on any structural problem (before any
    payload byte is touched)."""
    path = os.fspath(path)
    try:
        file_size = os.path.getsize(path)
        with open(path, "rb") as f:
            raw = f.read(_PDS_HEADER.size)
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path!r}: {exc}") from exc
    if len(raw) < _PDS_HEADER.size:
        raise DatasetFormatError(f"{path!r}: truncated .pds header")
    (magic, version, header_size, dtype_code, layout_code,
     n, d, payload_offset, payload_nbytes, digest_raw) = _PDS_HEADER.unpack(raw)
    if magic != PDS_MAGIC:
        raise DatasetFormatError(f"{path!r}: not a .pds file (bad magic)")
    if version != PDS_VERSION:
        raise DatasetFormatError(
            f"{path!r}: unsupported .pds version {version} "
            f"(supported: {PDS_VERSION})"
        )
    if header_size < _PDS_HEADER.size:
        raise DatasetFormatError(f"{path!r}: header_size {header_size} too small")
    if dtype_code != _DTYPE_UINT8:
        raise DatasetFormatError(f"{path!r}: unsupported dtype code {dtype_code}")
    if layout_code != _LAYOUT_BITS_U8:
        raise DatasetFormatError(
            f"{path!r}: unsupported pack-layout code {layout_code}"
        )
    if n < 1 or d < 1:
        raise DatasetFormatError(f"{path!r}: empty dataset (n={n}, d={d})")
    if payload_offset < header_size:
        raise DatasetFormatError(f"{path!r}: payload overlaps header")
    if payload_nbytes != n * d:
        raise DatasetFormatError(
            f"{path!r}: payload size {payload_nbytes} != n*d = {n * d}"
        )
    if file_size < payload_offset + payload_nbytes:
        raise DatasetFormatError(
            f"{path!r}: truncated .pds payload (file {file_size} bytes, "
            f"need {payload_offset + payload_nbytes})"
        )
    try:
        digest = digest_raw.decode("ascii")
        int(digest, 16)
    except (UnicodeDecodeError, ValueError):
        raise DatasetFormatError(f"{path!r}: malformed digest field") from None
    return PdsHeader(
        version=int(version), n=int(n), d=int(d),
        payload_offset=int(payload_offset),
        payload_nbytes=int(payload_nbytes), digest=digest,
    )


def _safe_close_mmap(mm: _mmap_module.mmap) -> None:
    """Close a mapping; tolerate numpy views that still reference it
    (the mapping then lives until the last view dies)."""
    try:
        mm.close()
    except (BufferError, ValueError):
        pass


class MmapStore:
    """Memory-mapped store over an on-disk ``.pds`` packed-shard file.

    The payload never loads: rows are read-only views into a shared
    file mapping, faulted in on access and dropped back to the page
    cache by :meth:`release`.  :meth:`slice_ref` descriptors carry only
    the *path* — a worker process attaches its own mapping, so shipping
    a partition to a worker costs descriptor bytes, not payload bytes,
    and there is no export step and no copy in ``/dev/shm``.
    """

    kind = "mmap"

    def __init__(self, path: str | os.PathLike):
        self.path = os.path.abspath(os.fspath(path))
        self.header = read_pds_header(self.path)
        self.n, self.d = self.header.n, self.header.d
        self.digest = self.header.digest
        self.digest_memo: dict[tuple[int, int], str] = {
            (0, self.n): self.digest
        }
        with open(self.path, "rb") as f:
            self._mmap = _mmap_module.mmap(
                f.fileno(),
                length=self.header.payload_offset + self.header.payload_nbytes,
                access=_mmap_module.ACCESS_READ,
            )
        self._array = np.frombuffer(
            self._mmap, dtype=np.uint8, count=self.n * self.d,
            offset=self.header.payload_offset,
        ).reshape(self.n, self.d)
        # The mapping must outlive every numpy view; if the store is
        # dropped without close(), unmap once the views are gone.
        self._finalizer = weakref.finalize(self, _safe_close_mmap, self._mmap)

    @property
    def nbytes(self) -> int:
        return int(self.header.payload_nbytes)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return self._array[lo:hi]

    def slice_ref(self, lo: int, hi: int) -> "DatasetSliceRef":
        return DatasetSliceRef(kind="mmap", lo=int(lo), hi=int(hi), path=self.path)

    def release(self, lo: int, hi: int) -> None:
        """Drop row range ``[lo, hi)``'s resident pages back to the page
        cache (data intact; re-access just re-faults).  Rounds inward to
        whole pages so neighboring rows are never evicted, and is a
        no-op where ``madvise`` is unavailable."""
        if not hasattr(_mmap_module, "MADV_DONTNEED"):
            return
        page = _mmap_module.PAGESIZE
        start = self.header.payload_offset + lo * self.d
        end = self.header.payload_offset + hi * self.d
        a = -(-start // page) * page
        b = (end // page) * page
        if b <= a:
            return
        try:
            self._mmap.madvise(_mmap_module.MADV_DONTNEED, a, b - a)
        except (OSError, ValueError):
            pass

    def close(self) -> None:
        self._array = None
        self._finalizer.detach()
        _safe_close_mmap(self._mmap)


# Process-global mmap attach cache: every consumer of the same .pds in
# this process (the engine that opened it, slice-ref resolution in
# serial/thread paths, forked workers) shares one mapping.  Bounded;
# evicted stores close once their last numpy view dies.
_ATTACH_LOCK = threading.Lock()
_ATTACHED_MMAPS: dict[str, MmapStore] = {}
_ATTACH_CACHE_MAX = 8


def attach_mmap_store(path: str | os.PathLike) -> MmapStore:
    """The process-wide :class:`MmapStore` for ``path`` (opened once)."""
    key = os.path.abspath(os.fspath(path))
    with _ATTACH_LOCK:
        store = _ATTACHED_MMAPS.get(key)
        if store is not None:
            return store
        store = MmapStore(key)
        _ATTACHED_MMAPS[key] = store
        while len(_ATTACHED_MMAPS) > _ATTACH_CACHE_MAX:
            oldest_key = next(iter(_ATTACHED_MMAPS))
            if oldest_key == key:  # never evict what we just opened
                break
            _ATTACHED_MMAPS.pop(oldest_key).close()
        return store


# -- slice descriptors ------------------------------------------------------


@dataclass(frozen=True)
class DatasetSliceRef:
    """A picklable, descriptor-sized handle to a dataset row window.

    Rides :class:`~repro.host.parallel.PartitionTask` in place of the
    raw slice for stores any process can re-attach: ``kind="mmap"``
    carries a file path (workers map the file themselves — zero copy,
    zero export), ``kind="shm"`` a :class:`~repro.host.shm.ShmArrayRef`
    (workers re-attach the segment).  ``resolve()`` returns the
    read-only ``(hi-lo, d)`` view; ``release()`` drops the window's
    resident pages in *this* process after use (mmap only).
    """

    kind: str
    lo: int
    hi: int
    path: str | None = None
    shm_ref: ShmArrayRef | None = None

    def resolve(self) -> np.ndarray:
        if self.kind == "mmap":
            return attach_mmap_store(self.path).rows(self.lo, self.hi)
        if self.kind == "shm":
            return resolve_array(self.shm_ref)[self.lo : self.hi]
        raise ValueError(f"unknown dataset store kind {self.kind!r}")

    def release(self) -> None:
        if self.kind == "mmap":
            attach_mmap_store(self.path).release(self.lo, self.hi)


# -- the handle -------------------------------------------------------------


class PackedDataset:
    """One dataset handle: a row window ``[lo, hi)`` over a store.

    Engines hold a :class:`PackedDataset` instead of an ndarray and use
    :meth:`rows` for partition slices, :meth:`partition_digest` for
    content-addressed cache keys, and :meth:`slice_ref` to build
    worker-attachable task descriptors.  Sub-windows
    (:meth:`slice_rows` — the multi-board layer's per-device shards,
    the RPC layer's balanced shards) share the parent's store, mapping,
    and digest memo, so slicing is free and digests are hashed at most
    once per distinct window.
    """

    __slots__ = ("store", "lo", "hi")

    def __init__(self, store, lo: int = 0, hi: int | None = None):
        if hi is None:
            hi = store.n
        if not 0 <= lo < hi <= store.n:
            raise ValueError(
                f"bad row window [{lo}, {hi}) for a {store.n}-row store"
            )
        self.store = store
        self.lo = int(lo)
        self.hi = int(hi)

    # -- constructors -----------------------------------------------------

    @classmethod
    def ensure(
        cls,
        obj,
        *,
        validate: bool = True,
        name: str = "dataset",
    ) -> "PackedDataset":
        """Normalize anything dataset-shaped into a handle.

        A :class:`PackedDataset` passes through untouched (store-backed
        data was validated when packed/exported); a ``str``/``PathLike``
        opens the ``.pds`` via the process attach cache; everything
        else is shape-checked and binary-checked (when ``validate``)
        in the dtype it arrived in, then narrowed to uint8 inside an
        :class:`ArrayStore`.
        """
        if isinstance(obj, PackedDataset):
            return obj
        if isinstance(obj, (str, os.PathLike)):
            return cls.open(obj)
        array = np.asarray(obj)
        if array.ndim != 2 or array.shape[0] == 0:
            raise ValueError(f"{name} must be a non-empty (n, d) array")
        if validate and not is_binary(array):
            raise ValueError(f"{name} must be binary (0/1)")
        return cls(ArrayStore(array))  # narrows to uint8 after the check

    @classmethod
    def open(cls, path: str | os.PathLike) -> "PackedDataset":
        """Open a ``.pds`` file via the process-wide attach cache."""
        return cls(attach_mmap_store(path))

    # -- geometry ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.hi - self.lo

    @property
    def d(self) -> int:
        return self.store.d

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.d)

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.uint8)

    @property
    def nbytes(self) -> int:
        return self.n * self.d

    @property
    def kind(self) -> str:
        return self.store.kind

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (
            f"PackedDataset(kind={self.kind!r}, n={self.n}, d={self.d}, "
            f"window=[{self.lo}, {self.hi}))"
        )

    # -- data access ------------------------------------------------------

    def _abs(self, lo: int, hi: int) -> tuple[int, int]:
        if not 0 <= lo <= hi <= self.n:
            raise ValueError(f"bad row window [{lo}, {hi}) for n={self.n}")
        return self.lo + int(lo), self.lo + int(hi)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Zero-copy ``(hi-lo, d)`` uint8 view of window rows."""
        a, b = self._abs(lo, hi)
        return self.store.rows(a, b)

    def __getitem__(self, item):
        if isinstance(item, slice):
            lo, hi, step = item.indices(self.n)
            if step != 1:
                raise ValueError("PackedDataset slicing must use step 1")
            return self.rows(lo, hi)
        if isinstance(item, (int, np.integer)):
            idx = int(item)
            if idx < 0:
                idx += self.n
            return self.rows(idx, idx + 1)[0]
        raise TypeError(f"invalid PackedDataset index {item!r}")

    def slice_rows(self, lo: int, hi: int) -> "PackedDataset":
        """A sub-handle sharing this handle's store (and digest memo)."""
        a, b = self._abs(lo, hi)
        return PackedDataset(self.store, a, b)

    def slice_ref(self, lo: int, hi: int) -> DatasetSliceRef | None:
        """A worker-attachable descriptor for window rows, or ``None``
        when the store has no remote-attach path (in-memory arrays)."""
        a, b = self._abs(lo, hi)
        return self.store.slice_ref(a, b)

    def attachable(self) -> "PackedDataset":
        """These rows over a store out-of-process workers can attach:
        an in-memory window is promoted to its shared-memory twin
        (:meth:`ArrayStore.promote` — exactly the window's rows, not
        the store it was cut from); store-backed handles, and arrays
        that cannot be promoted, come back unchanged."""
        if not isinstance(self.store, ArrayStore):
            return self
        twin = self.store.promote(self.lo, self.hi)
        return self if twin is None else PackedDataset(twin)

    def release(self, lo: int, hi: int) -> None:
        """Drop the window rows' resident pages (mmap stores; no-op
        otherwise).  Data stays intact — re-access re-faults."""
        a, b = self._abs(lo, hi)
        self.store.release(a, b)

    # -- digests ----------------------------------------------------------

    @property
    def digest(self) -> str:
        """Content digest of the whole window (memoized; equals
        :func:`repro.ap.compiler.dataset_digest` of the same rows)."""
        return self.partition_digest(0, self.n)

    def partition_digest(self, lo: int, hi: int) -> str:
        """Streaming content digest of window rows ``[lo, hi)``.

        Byte-identical to :func:`repro.ap.compiler.dataset_digest` of
        the materialized slice, hashed in bounded chunks — an mmap
        window releases each chunk's pages as the scan advances, so
        hashing an out-of-core shard never grows RSS past a chunk.
        Memoized per absolute window on the *store*, so every handle
        over the same store (multi-board shards, shard servers) hashes
        a given partition at most once.
        """
        a, b = self._abs(lo, hi)
        memo = self.store.digest_memo
        cached = memo.get((a, b))
        if cached is not None:
            return cached
        h = hashlib.sha1()
        h.update(np.int64(b - a).tobytes())
        h.update(np.int64(self.d).tobytes())
        chunk = _scan_chunk_rows(self.d)
        for base in range(a, b, chunk):
            top = min(base + chunk, b)
            part = np.ascontiguousarray(self.store.rows(base, top))
            h.update(part.data)
            self.store.release(base, top)
        digest = h.hexdigest()
        memo[(a, b)] = digest
        return digest


# -- packing ----------------------------------------------------------------


def write_pds(
    path: str | os.PathLike,
    dataset,
    *,
    chunk_rows: int | None = None,
) -> PdsHeader:
    """Pack a dataset (ndarray, handle, or ``.pds`` path) into ``path``.

    Streams row chunks — packing an mmap-backed source never
    materializes its payload — while computing the content digest in
    the same pass, then writes the finished header and atomically
    renames into place (a crashed pack never leaves a half-written
    ``.pds`` behind).  Returns the written header.
    """
    handle = PackedDataset.ensure(dataset)
    n, d = handle.shape
    path = os.fspath(path)
    chunk = _scan_chunk_rows(d, chunk_rows)
    h = hashlib.sha1()
    h.update(np.int64(n).tobytes())
    h.update(np.int64(d).tobytes())
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(b"\x00" * PDS_PAYLOAD_OFFSET)
            for lo in range(0, n, chunk):
                hi = min(lo + chunk, n)
                part = np.ascontiguousarray(handle.rows(lo, hi))
                h.update(part.data)
                f.write(part.data)
                handle.release(lo, hi)
            digest = h.hexdigest()
            f.seek(0)
            f.write(_PDS_HEADER.pack(
                PDS_MAGIC, PDS_VERSION, _PDS_HEADER.size,
                _DTYPE_UINT8, _LAYOUT_BITS_U8,
                n, d, PDS_PAYLOAD_OFFSET, n * d,
                digest.encode("ascii"),
            ))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return PdsHeader(
        version=PDS_VERSION, n=n, d=d,
        payload_offset=PDS_PAYLOAD_OFFSET, payload_nbytes=n * d,
        digest=digest,
    )
