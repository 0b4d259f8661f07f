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

* :class:`ArrayStore` — an in-memory ndarray, one byte per bit, zero
  copy over what the caller passed;
* :class:`ShmStore` — a shared-memory segment the store owns, which
  any process on the host can attach.  Engines whose workers run out of
  process *promote* an in-memory dataset to one
  (:meth:`PackedDataset.attachable`), once per row window;
* :class:`MmapStore` — a memory-mapped on-disk ``.pds`` packed-shard
  file (magic + versioned header + page-aligned payload, the on-disk
  twin of the shm descriptors), so a shard *bigger than RAM* can be
  partitioned, compiled, and served without ever materializing the
  payload, and shard provisioning is a file copy.

The shm and mmap stores hold the dataset **packed**: ``(n, ceil(d/64))``
uint64 row words, bit ``j`` of a row at bit ``j % 64`` of word
``j // 64`` — exactly the array :func:`~repro.util.bitops.
popcount_cdist` consumes.  :meth:`PackedDataset.packed_window` hands
out zero-copy views of those words (``None`` from a store that holds
bytes per bit), which is what lets a functional pass run straight off
the mapping; :meth:`PackedDataset.rows` always answers one byte per bit
— a view for an :class:`ArrayStore`, unpacked on demand otherwise —
and :meth:`~PackedDataset.partition_digest` hashes those rows, so
every store of the same data hashes identically and they *share*
compile caches.  The parallel layer ships :class:`DatasetSliceRef`
descriptors instead of arrays for stores that support remote attach: a
process worker re-opens the mmap store by path (zero-copy, no
export step) or re-attaches the shm segment, so per-task dataset bytes
on the wire drop to the size of a descriptor.  Only a dataset that
cannot be promoted (below :data:`SHM_PROMOTE_MIN_BYTES`, no usable
``/dev/shm``, segment refused) travels by value.

``.pds`` format (version 2)::

    offset 0    magic           8 bytes  b"REPROPDS"
    offset 8    version         u16 LE   (2)
    offset 10   header_size     u16 LE   (104; forward compat)
    offset 12   dtype code      u8       (1 = uint8 0/1 rows)
    offset 13   layout code     u8       (2 = uint64 row words)
    offset 14   (pad)           2 bytes
    offset 16   n               u64 LE   rows
    offset 24   d               u64 LE   columns (bits per row)
    offset 32   payload offset  u64 LE   (page-aligned)
    offset 40   payload nbytes  u64 LE   (= n * 8 * ceil(d/64))
    offset 48   digest          40 ASCII hex (sha1, == dataset_digest
                                of the unpacked rows)
    offset 88   chunk rows      u64 LE   rows per verification chunk
    offset 96   table offset    u64 LE   (>= header_size)
    table       ceil(n / chunk rows) x 20 bytes:
                sha1(u64 LE chunk index + the chunk's row words)
    payload     n * ceil(d/64) little-endian uint64 words, C order;
                bits beyond d in a row's last word are zero

Version 1 (layout 1: ``n * d`` raw bytes, one per bit, at offset 4096,
the 88-byte header above with no chunk table) is still *read* this
round, on the per-board compile path an :class:`ArrayStore` takes;
``repro pack old.pds new.pds`` converts.

Readers validate magic, version, codes, geometry against the file size
and reject corrupt/truncated/wrong-version files with
:class:`DatasetFormatError` before any mapping is handed out.  The
payload is verified lazily, chunk by chunk: the first window that
touches a chunk hashes it against the table (and checks its pad bits),
once per attached store, so an out-of-core shard verifies what it
faults in and nothing else; a mismatch is a
:class:`DatasetFormatError`, never an answer.  The chunk index in each
digest and the positional table are the chunk-wise construction of
InterMAC (PAPERS.md, arXiv 2005.04574) without the key — integrity,
not authenticity.  :func:`verify_pds` checks every chunk and the header
digest up front.

RSS discipline: scanning an mmap-backed payload (chunk verification,
digest hashing, functional passes) would otherwise fault the whole
file resident.  Store-aware digests and :meth:`PackedDataset.release`
drop consumed page ranges back to the page cache
(``madvise(MADV_DONTNEED)``) as the scan advances — a version-2
payload one whole verification chunk at a time — so peak RSS stays
bounded by a chunk plus a pass, not the payload — the property
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
from ..util.bitops import is_binary, pack_bits, unpack_bits

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
    "verify_pds",
    "write_pds",
    "PDS_MAGIC",
    "PDS_VERSION",
    "PDS_SUFFIX",
    "SHM_PROMOTE_MIN_BYTES",
    "SHM_PROMOTE_MAX_BYTES",
]

PDS_MAGIC = b"REPROPDS"
PDS_VERSION = 2
PDS_SUFFIX = ".pds"

# The version-1 header, and the first 88 bytes of the version-2 one,
# which continues with the chunk-table fields.
_PDS_HEADER = struct.Struct("<8sHHBB2xQQQQ40s")
_PDS_CHUNK_FIELDS = struct.Struct("<QQ")  # chunk rows, table offset
_PDS_HEADER_SIZE = _PDS_HEADER.size + _PDS_CHUNK_FIELDS.size
_DTYPE_UINT8 = 1
_LAYOUT_BITS_U8 = 1  # one byte per bit value (0/1), C row-major
_LAYOUT_WORDS_U64 = 2  # (n, ceil(d/64)) little-endian uint64 row words
_LAYOUT_OF_VERSION = {1: _LAYOUT_BITS_U8, PDS_VERSION: _LAYOUT_WORDS_U64}
_CHUNK_DIGEST_BYTES = hashlib.sha1().digest_size

# An in-memory dataset is promoted to a shared-memory segment for
# out-of-process workers only inside this size band, measured in the
# bytes the segment pins (packed words: /dev/shm is RAM).  Below the
# floor — 128 KiB of words, the 1 MiB of rows a by-value task list
# would pickle — the by-value path's simplicity wins and small searches
# never pay segment setup; above the ceiling one search would pin more
# RAM than a host should lose to a copy of data it already holds — pack
# such a dataset to a ``.pds`` and let workers map it.
SHM_PROMOTE_MIN_BYTES = 1 << 17
SHM_PROMOTE_MAX_BYTES = 2 << 30

# Chunk size for streaming scans of unpacked rows (digests): large
# enough to amortize per-chunk overhead, small enough that an
# out-of-core payload never materializes more than this at once.
_SCAN_CHUNK_BYTES = 1 << 22

# Packed bytes per verification chunk of a written ``.pds``: what the
# first touch of a cold chunk hashes (~0.2 ms), and the grain at which
# an out-of-core shard verifies what it faults in and drops it again
# (``MmapStore.release``).  Recorded in the file, so readers never
# assume it.
_VERIFY_CHUNK_BYTES = 1 << 18


class DatasetFormatError(ValueError):
    """A ``.pds`` file failed validation: corrupt header, truncated
    payload, unsupported version/dtype/layout, a payload chunk that
    does not match its digest, or a file replaced under a live
    reference to it."""


def _packed_row_nbytes(d: int) -> int:
    """Bytes of one row's uint64 words."""
    return 8 * ((int(d) + 63) // 64)


def _scan_chunk_rows(d: int) -> int:
    return max(1, _SCAN_CHUNK_BYTES // max(1, int(d)))


def _unpacked(words: np.ndarray, d: int) -> np.ndarray:
    """``(n, d)`` uint8 rows of packed ``words`` — read-only like the
    views the byte-per-bit stores hand out, so ``rows()`` has one
    contract and no caller comes to rely on writing through it."""
    bits = unpack_bits(words, d)
    bits.flags.writeable = False
    return bits


def _chunk_digest(index: int, words: np.ndarray) -> bytes:
    """One chunk-table entry; the index binds a chunk to its position."""
    h = hashlib.sha1(int(index).to_bytes(8, "little"))
    h.update(np.ascontiguousarray(words).data)
    return h.digest()


# -- stores -----------------------------------------------------------------


class ArrayStore:
    """In-memory ndarray store — the seed behavior behind the handle.

    Rows are plain views into the owned array, one byte per bit; there
    are no packed words (``packed_window`` is ``None``) and no
    remote-attach descriptor (``slice_ref`` is ``None``), so tasks over
    this store carry their slices by value.  :meth:`promote` builds the
    shared-memory twin that out-of-process workers attach instead.
    """

    kind = "array"

    def __init__(self, array: np.ndarray):
        array = np.asarray(array, dtype=np.uint8)
        if array.ndim != 2 or array.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        self._array = array
        self.n, self.d = array.shape
        self.row_nbytes = self.d
        self.digest_memo: dict[tuple[int, int], str] = {}
        self._promoted = weakref.WeakValueDictionary()  # (lo, hi) -> ShmStore

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return self._array[lo:hi]

    def packed_window(self, lo: int, hi: int) -> None:
        return None

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
        engine does).  ``None`` — the dataset travels by value — when
        the packed segment would fall outside the ``SHM_PROMOTE_*``
        size band, without usable shared memory, or when the segment is
        refused (``/dev/shm`` full)."""
        with _PROMOTE_LOCK:
            twin = self._promoted.get((lo, hi))
            segment_bytes = (hi - lo) * _packed_row_nbytes(self.d)
            if (
                twin is None
                and SHM_PROMOTE_MIN_BYTES <= segment_bytes <= SHM_PROMOTE_MAX_BYTES
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
    """Shared-memory store: the dataset's packed row words in a segment
    this store owns.

    The words live in a ``multiprocessing.shared_memory`` segment,
    :meth:`packed_window` hands out read-only zero-copy views of them,
    :meth:`rows` unpacks on demand, and :meth:`slice_ref` hands out a
    picklable descriptor any process on the host can re-attach.  Built
    by :meth:`export`; the segment's name is unlinked once the store
    and every view taken from it are gone.
    """

    kind = "shm"

    def __init__(self, ref: ShmArrayRef, words: np.ndarray, d: int):
        """``ref`` names the segment and ``words`` is its creator's
        mapping — the pair :func:`~repro.host.shm.export_array`
        returns — of the ``(n, ceil(d/64))`` packed rows."""
        if words.ndim != 2 or words.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        self.ref = ref
        self._words = words
        self.n, self.d = words.shape[0], int(d)
        self.row_nbytes = 8 * words.shape[1]
        self.digest_memo: dict[tuple[int, int], str] = {}

    @classmethod
    def export(cls, array: np.ndarray) -> "ShmStore":
        """Pack 0/1 ``array`` into a segment of its own and wrap it
        (``OSError`` if the segment cannot be created or backed)."""
        array = np.asarray(array, dtype=np.uint8)
        return cls(*export_array(pack_bits(array)), array.shape[1])

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return _unpacked(self._words[lo:hi], self.d)

    def packed_window(self, lo: int, hi: int) -> np.ndarray:
        return self._words[lo:hi]

    def slice_ref(self, lo: int, hi: int) -> "DatasetSliceRef":
        return DatasetSliceRef(
            kind="shm", lo=int(lo), hi=int(hi), d=self.d, shm_ref=self.ref
        )

    def release(self, lo: int, hi: int) -> None:
        pass  # segment memory is the dataset; nothing to drop

    def close(self) -> None:
        self._words = None  # the view's finalizer unlinks the segment


@dataclass(frozen=True)
class PdsHeader:
    """Validated ``.pds`` header fields.  ``payload_nbytes`` is what
    the file stores; ``chunk_rows`` / ``chunk_table_offset`` are 0 for a
    version-1 file, which has no chunk table."""

    version: int
    n: int
    d: int
    payload_offset: int
    payload_nbytes: int
    digest: str
    layout: int = _LAYOUT_WORDS_U64
    chunk_rows: int = 0
    chunk_table_offset: int = 0

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.uint8)

    @property
    def row_nbytes(self) -> int:
        """Stored bytes per row."""
        return self.payload_nbytes // self.n

    @property
    def n_chunks(self) -> int:
        return -(-self.n // self.chunk_rows) if self.chunk_rows else 0


def _parse_pds_header(raw: bytes, file_size: int, path: str) -> PdsHeader:
    if len(raw) < _PDS_HEADER.size:
        raise DatasetFormatError(f"{path!r}: truncated .pds header")
    (magic, version, header_size, dtype_code, layout_code,
     n, d, payload_offset, payload_nbytes, digest_raw) = _PDS_HEADER.unpack_from(raw)
    if magic != PDS_MAGIC:
        raise DatasetFormatError(f"{path!r}: not a .pds file (bad magic)")
    if version not in _LAYOUT_OF_VERSION:
        raise DatasetFormatError(
            f"{path!r}: unsupported .pds version {version} "
            f"(supported: {sorted(_LAYOUT_OF_VERSION)})"
        )
    min_header = _PDS_HEADER.size if version == 1 else _PDS_HEADER_SIZE
    if header_size < min_header or len(raw) < min_header:
        raise DatasetFormatError(f"{path!r}: header_size {header_size} too small")
    if dtype_code != _DTYPE_UINT8:
        raise DatasetFormatError(f"{path!r}: unsupported dtype code {dtype_code}")
    if layout_code != _LAYOUT_OF_VERSION[version]:
        raise DatasetFormatError(
            f"{path!r}: unsupported pack-layout code {layout_code} "
            f"for version {version}"
        )
    if n < 1 or d < 1:
        raise DatasetFormatError(f"{path!r}: empty dataset (n={n}, d={d})")
    if payload_offset < header_size:
        raise DatasetFormatError(f"{path!r}: payload overlaps header")
    row_nbytes = d if layout_code == _LAYOUT_BITS_U8 else _packed_row_nbytes(d)
    if payload_nbytes != n * row_nbytes:
        raise DatasetFormatError(
            f"{path!r}: payload size {payload_nbytes} != "
            f"{n} rows x {row_nbytes} bytes"
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
    chunk_rows = table_offset = 0
    if layout_code == _LAYOUT_WORDS_U64:
        chunk_rows, table_offset = _PDS_CHUNK_FIELDS.unpack_from(
            raw, _PDS_HEADER.size
        )
    header = PdsHeader(
        version=int(version), n=int(n), d=int(d),
        payload_offset=int(payload_offset),
        payload_nbytes=int(payload_nbytes), digest=digest,
        layout=int(layout_code), chunk_rows=int(chunk_rows),
        chunk_table_offset=int(table_offset),
    )
    if layout_code == _LAYOUT_WORDS_U64 and (
        chunk_rows < 1
        or table_offset < header_size
        or table_offset + _CHUNK_DIGEST_BYTES * header.n_chunks > payload_offset
    ):
        raise DatasetFormatError(
            f"{path!r}: bad chunk table ({chunk_rows} rows per chunk "
            f"at offset {table_offset})"
        )
    return header


def read_pds_header(path: str | os.PathLike) -> PdsHeader:
    """Read and validate a ``.pds`` header; raise
    :class:`DatasetFormatError` on any structural problem (before any
    payload byte is touched)."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as f:
            return _parse_pds_header(
                f.read(_PDS_HEADER_SIZE), os.fstat(f.fileno()).st_size, path
            )
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path!r}: {exc}") from exc


def _safe_close_mmap(mm: _mmap_module.mmap) -> None:
    """Close a mapping; tolerate numpy views that still reference it
    (the mapping then lives until the last view dies)."""
    try:
        mm.close()
    except (BufferError, ValueError):
        pass


def _file_id(st: os.stat_result) -> tuple:
    """Which generation of its path a mapping is of: an atomic re-pack
    changes the inode, an in-place rewrite the size or mtime."""
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


class MmapStore:
    """Memory-mapped store over an on-disk ``.pds`` packed-shard file.

    The payload never loads: :meth:`packed_window` views (and the rows
    :meth:`rows` unpacks from them; plain views for a version-1 file)
    read a shared file mapping, faulted in on access and dropped back
    to the page cache by :meth:`release`.  A version-2 payload is
    verified chunk by chunk as windows first touch it.
    :meth:`slice_ref` descriptors carry only the *path* and which
    generation of it this is — a worker process attaches its own
    mapping, so shipping a partition to a worker costs descriptor
    bytes, not payload bytes, and there is no export step and no copy
    in ``/dev/shm``.
    """

    kind = "mmap"

    def __init__(self, path: str | os.PathLike):
        self.path = os.path.abspath(os.fspath(path))
        try:
            with open(self.path, "rb") as f:
                st = os.fstat(f.fileno())
                self.header = _parse_pds_header(
                    f.read(_PDS_HEADER_SIZE), st.st_size, self.path
                )
                self._mmap = _mmap_module.mmap(
                    f.fileno(),
                    length=self.header.payload_offset + self.header.payload_nbytes,
                    access=_mmap_module.ACCESS_READ,
                )
        except OSError as exc:
            raise DatasetFormatError(f"cannot read {self.path!r}: {exc}") from exc
        self.file_id = _file_id(st)
        self.n, self.d = self.header.n, self.header.d
        self.row_nbytes = self.header.row_nbytes
        self.digest = self.header.digest
        self.digest_memo: dict[tuple[int, int], str] = {
            (0, self.n): self.digest
        }
        self._array = self._words = None
        if self.header.layout == _LAYOUT_BITS_U8:
            self._array = np.frombuffer(
                self._mmap, dtype=np.uint8, count=self.n * self.d,
                offset=self.header.payload_offset,
            ).reshape(self.n, self.d)
        else:
            self._words = np.frombuffer(
                self._mmap, dtype=np.uint64, count=self.header.payload_nbytes // 8,
                offset=self.header.payload_offset,
            ).reshape(self.n, -1)
            self._chunk_digests = np.frombuffer(
                self._mmap, dtype=np.uint8,
                count=self.header.n_chunks * _CHUNK_DIGEST_BYTES,
                offset=self.header.chunk_table_offset,
            ).reshape(-1, _CHUNK_DIGEST_BYTES)
            # One flag per chunk, set under the lock once it has
            # matched its digest: each chunk is hashed at most once per
            # attached store.
            self._verified = bytearray(self.header.n_chunks)
            self._verify_lock = threading.Lock()
        # The mapping must outlive every numpy view; if the store is
        # dropped without close(), unmap once the views are gone.
        self._finalizer = weakref.finalize(self, _safe_close_mmap, self._mmap)

    def _verify(self, lo: int, hi: int) -> None:
        """Check every not-yet-verified chunk under rows ``[lo, hi)``
        against the chunk table, and its pad bits (a set bit beyond
        ``d`` would silently add to every distance).  Hashing a chunk
        drops its pages again, like a digest scan does."""
        rows = self.header.chunk_rows
        first, last = lo // rows, (hi - 1) // rows
        if 0 not in self._verified[first : last + 1]:
            return
        pad_shift = np.uint64(self.d % 64)
        with self._verify_lock:
            for c in range(first, last + 1):
                if self._verified[c]:
                    continue
                a, b = c * rows, min((c + 1) * rows, self.n)
                words = self._words[a:b]
                if _chunk_digest(c, words) != self._chunk_digests[c].tobytes():
                    raise DatasetFormatError(
                        f"{self.path!r}: chunk {c} (rows [{a}, {b})) does not "
                        "match its digest — corrupt payload"
                    )
                if pad_shift and (words[:, -1] >> pad_shift).any():
                    raise DatasetFormatError(
                        f"{self.path!r}: chunk {c} (rows [{a}, {b})) has bits "
                        f"set beyond d={self.d}"
                    )
                self._verified[c] = 1
                self.release(a, b)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        if self._array is not None:
            return self._array[lo:hi]
        return _unpacked(self.packed_window(lo, hi), self.d)

    def packed_window(self, lo: int, hi: int) -> np.ndarray | None:
        if self._array is not None:
            return None
        if hi > lo:
            self._verify(lo, hi)
        return self._words[lo:hi]

    def slice_ref(self, lo: int, hi: int) -> "DatasetSliceRef":
        return DatasetSliceRef(
            kind="mmap", lo=int(lo), hi=int(hi), d=self.d,
            path=self.path, file_id=self.file_id,
        )

    def release(self, lo: int, hi: int) -> None:
        """Drop resident pages behind a scan that has consumed rows
        ``[lo, hi)`` back to the page cache (data intact; re-access
        just re-faults).  Over a chunked (version-2) payload the unit
        is the verification chunk: every chunk whose last row is in the
        range is dropped whole, and a range that completes none drops
        nothing — a pass-sized ``madvise`` behind every pass cost
        ~0.2 ms per MiB scanned, one per 256 KiB chunk a quarter of it
        (README "Footprint and provisioning model").  Rounds inward to
        whole pages so neighboring rows are never evicted, and is a
        no-op where ``madvise`` is unavailable."""
        if not hasattr(_mmap_module, "MADV_DONTNEED"):
            return
        rows = self.header.chunk_rows
        if rows:
            first = lo // rows
            last = self.header.n_chunks if hi >= self.n else hi // rows
            if last <= first:
                return
            lo, hi = first * rows, min(last * rows, self.n)
        page = _mmap_module.PAGESIZE
        start = self.header.payload_offset + lo * self.row_nbytes
        end = self.header.payload_offset + hi * self.row_nbytes
        a = -(-start // page) * page
        b = (end // page) * page
        if b <= a:
            return
        try:
            self._mmap.madvise(_mmap_module.MADV_DONTNEED, a, b - a)
        except (OSError, ValueError):
            pass

    def close(self) -> None:
        self._array = self._words = self._chunk_digests = None
        self._finalizer.detach()
        _safe_close_mmap(self._mmap)


# Process-global mmap attach cache: every consumer of the same .pds in
# this process (the engine that opened it, slice-ref resolution in
# serial/thread paths, forked workers) shares one mapping — and its
# digest memo and verified-chunk flags.  Keyed by file generation, not
# path alone: a re-packed path is a different file.  Bounded; evicted
# stores close once their last numpy view dies.
_ATTACH_LOCK = threading.Lock()
_ATTACHED_MMAPS: dict[tuple, MmapStore] = {}
_ATTACH_CACHE_MAX = 8


def attach_mmap_store(
    path: str | os.PathLike, file_id: tuple | None = None
) -> MmapStore:
    """The process-wide :class:`MmapStore` for ``path`` (opened once
    per generation of the file: the path is re-``stat``-ed on every
    call, so a re-packed file is picked up).

    ``file_id`` — a slice ref's — pins the generation its engine
    attached: served from the cache while this process still maps it,
    and a :class:`DatasetFormatError` where the path now holds another
    file (a worker must never answer from rows its engine did not
    partition).
    """
    wanted = file_id
    if wanted is None:  # (a ref names its store's path: already absolute)
        path = os.path.abspath(os.fspath(path))
        try:
            wanted = _file_id(os.stat(path))
        except OSError as exc:
            raise DatasetFormatError(f"cannot read {path!r}: {exc}") from exc
    with _ATTACH_LOCK:
        store = _ATTACHED_MMAPS.get((path, wanted))
        if store is not None:
            return store
        store = MmapStore(path)
        if file_id is not None and store.file_id != file_id:
            store.close()
            raise DatasetFormatError(
                f"{path!r} was replaced after the engine using it attached "
                "it; rebuild the engine over the new file"
            )
        key = (path, store.file_id)
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
    carries a file path and generation (workers map the file themselves
    — zero copy, zero export), ``kind="shm"`` a
    :class:`~repro.host.shm.ShmArrayRef` to the packed words (workers
    re-attach the segment).  :meth:`packed_window` is the read-only
    zero-copy ``(hi-lo, ceil(d/64))`` view of the window's row words
    (``None`` over a version-1 file), :meth:`resolve` its ``(hi-lo,
    d)`` rows, and :meth:`release` drops the window's resident pages in
    *this* process after use (mmap only).
    """

    kind: str
    lo: int
    hi: int
    d: int = 0
    path: str | None = None
    file_id: tuple | None = None
    shm_ref: ShmArrayRef | None = None

    def _mmap_store(self) -> MmapStore:
        return attach_mmap_store(self.path, self.file_id)

    def packed_window(self) -> np.ndarray | None:
        if self.kind == "mmap":
            return self._mmap_store().packed_window(self.lo, self.hi)
        if self.kind == "shm":
            return resolve_array(self.shm_ref)[self.lo : self.hi]
        raise ValueError(f"unknown dataset store kind {self.kind!r}")

    def resolve(self) -> np.ndarray:
        if self.kind == "mmap":
            return self._mmap_store().rows(self.lo, self.hi)
        return _unpacked(self.packed_window(), self.d)

    def release(self) -> None:
        if self.kind == "mmap":
            self._mmap_store().release(self.lo, self.hi)


# -- the handle -------------------------------------------------------------


class PackedDataset:
    """One dataset handle: a row window ``[lo, hi)`` over a store.

    Engines hold a :class:`PackedDataset` instead of an ndarray and use
    :meth:`rows` for partition slices, :meth:`packed_window` for the
    row words a functional pass runs on, :meth:`partition_digest` for
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
        """Logical size: one byte per bit, what :meth:`rows` returns."""
        return self.n * self.d

    @property
    def stored_nbytes(self) -> int:
        """Bytes the store holds for this window (``nbytes`` over an
        in-memory array, an eighth of it, rounded up to whole words per
        row, over a packed store)."""
        return self.n * self.store.row_nbytes

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
        """Read-only ``(hi-lo, d)`` uint8 window rows, one byte per
        bit: a zero-copy view over a store that holds them so, unpacked
        on demand from a packed one."""
        a, b = self._abs(lo, hi)
        return self.store.rows(a, b)

    def packed_window(self, lo: int, hi: int) -> np.ndarray | None:
        """Zero-copy ``(hi-lo, ceil(d/64))`` uint64 view of the window
        rows' packed words, or ``None`` when the store does not hold
        them packed (in-memory arrays, version-1 files)."""
        a, b = self._abs(lo, hi)
        return self.store.packed_window(a, b)

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
        the materialized slice — whatever layout the store holds —
        hashed in bounded chunks; an mmap window releases each chunk's
        pages as the scan advances, so hashing an out-of-core shard
        never grows RSS past a chunk.  Memoized per absolute window on
        the *store*, so every handle over the same store (multi-board
        shards, shard servers) hashes a given partition at most once.
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
    """Pack a dataset (ndarray, handle, or ``.pds`` path of either
    version) into a version-2 ``.pds`` at ``path``.

    Streams one verification chunk of rows at a time — packing an
    mmap-backed source never materializes its payload — computing the
    content digest and the chunk table in the same pass, then writes
    the finished header and atomically renames into place (a crashed
    pack never leaves a half-written ``.pds`` behind).  ``chunk_rows``
    overrides the rows per verification chunk (default: 256 KiB of
    packed words).  Returns the written header.
    """
    handle = PackedDataset.ensure(dataset)
    n, d = handle.shape
    path = os.fspath(path)
    row_nbytes = _packed_row_nbytes(d)
    if chunk_rows is None:
        chunk_rows = _VERIFY_CHUNK_BYTES // row_nbytes
    chunk_rows = max(1, int(chunk_rows))
    table_nbytes = _CHUNK_DIGEST_BYTES * -(-n // chunk_rows)
    # Payload starts on a page boundary so the mapped words are aligned
    # and the header pages never share residency accounting with rows.
    page = _mmap_module.PAGESIZE
    payload_offset = -(-(_PDS_HEADER_SIZE + table_nbytes) // page) * page
    h = hashlib.sha1()
    h.update(np.int64(n).tobytes())
    h.update(np.int64(d).tobytes())
    table = []
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(b"\x00" * payload_offset)
            for lo in range(0, n, chunk_rows):
                hi = min(lo + chunk_rows, n)
                part = np.ascontiguousarray(handle.rows(lo, hi))
                h.update(part.data)
                words = pack_bits(part)
                f.write(words.data)
                table.append(_chunk_digest(len(table), words))
                handle.release(lo, hi)
            header = PdsHeader(
                version=PDS_VERSION, n=n, d=d,
                payload_offset=payload_offset, payload_nbytes=n * row_nbytes,
                digest=h.hexdigest(), chunk_rows=chunk_rows,
                chunk_table_offset=_PDS_HEADER_SIZE,
            )
            f.seek(0)
            f.write(_PDS_HEADER.pack(
                PDS_MAGIC, PDS_VERSION, _PDS_HEADER_SIZE,
                _DTYPE_UINT8, _LAYOUT_WORDS_U64,
                n, d, payload_offset, header.payload_nbytes,
                header.digest.encode("ascii"),
            ))
            f.write(_PDS_CHUNK_FIELDS.pack(chunk_rows, _PDS_HEADER_SIZE))
            f.write(b"".join(table))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return header


def verify_pds(path: str | os.PathLike) -> PdsHeader:
    """Check a whole ``.pds`` against itself: every chunk against the
    chunk table (version 2), then the unpacked rows against the header
    digest.  Raises :class:`DatasetFormatError` naming the first bad
    chunk; returns the header.  Streams through a private mapping, so
    it neither loads the payload nor marks the process's attached copy
    verified."""
    store = MmapStore(path)
    try:
        store.digest_memo.clear()  # the header's claim is what is checked
        if PackedDataset(store).digest != store.header.digest:
            raise DatasetFormatError(
                f"{store.path!r}: rows do not match the header digest "
                f"{store.header.digest}"
            )
        return store.header
    finally:
        store.close()
