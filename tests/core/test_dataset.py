"""PackedDataset / .pds format unit tests.

Covers the dataset-plane contract on its own (cross-store *search*
parity is the oracle's: tests/integration/test_bit_identity.py):
pack/open roundtrips, packed windows, digest equality between the
streaming store digests and the reference ``dataset_digest``,
structural rejection of corrupt ``.pds`` files (version 1 included),
lazy chunk verification, window pickling, the attach cache across
re-packs (and a live engine over a re-packed path), and mmap/fd leak
guards.
"""

import hashlib
import os
import pickle
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ap.compiler import dataset_digest
from repro.core import dataset as dataset_mod
from repro.core.dataset import (
    PDS_MAGIC,
    DatasetFormatError,
    MmapStore,
    PackedDataset,
    ShmStore,
    attach_mmap_store,
    read_pds_header,
    verify_pds,
    write_pds,
)
from repro.host.shm import shm_available
from repro.core.workload import WorkloadSearch
from repro.util.bitops import pack_bits
from tests.conftest import brute_force_knn


@pytest.fixture
def dataset(rng):
    return (rng.random((500, 37)) < 0.5).astype(np.uint8)


@pytest.fixture
def pds_path(tmp_path, dataset):
    path = tmp_path / "data.pds"
    write_pds(path, dataset)
    return str(path)


# -- pack / open roundtrip ---------------------------------------------------


def test_roundtrip_bytes_and_geometry(dataset, pds_path):
    ds = PackedDataset.open(pds_path)
    assert ds.shape == dataset.shape
    assert ds.dtype == np.uint8
    assert ds.kind == "mmap"
    assert np.array_equal(ds.rows(0, ds.n), dataset)


def test_header_digest_matches_reference(dataset, pds_path):
    hdr = read_pds_header(pds_path)
    assert hdr.digest == dataset_digest(dataset)
    assert (hdr.version, hdr.layout) == (2, 2)
    assert (hdr.n, hdr.d) == dataset.shape
    # 37 bits round up to one 8-byte word per row: an eighth of the
    # byte-per-bit size, rounded up to whole words
    assert hdr.row_nbytes == 8
    assert hdr.payload_nbytes == 8 * dataset.shape[0]
    assert hdr.payload_offset % 4096 == 0
    assert os.path.getsize(pds_path) == hdr.payload_offset + hdr.payload_nbytes


def test_packed_window_is_a_view_of_the_file_words(dataset, pds_path):
    ds = PackedDataset.open(pds_path)
    words = ds.packed_window(17, 301)
    assert words.dtype == np.uint64 and not words.flags.writeable
    assert not words.flags.owndata  # the mapping, not a copy
    assert np.array_equal(words, pack_bits(dataset[17:301]))
    sub = ds.slice_rows(100, 400)
    assert np.array_equal(sub.packed_window(5, 9), pack_bits(dataset[105:109]))
    assert (ds.nbytes, ds.stored_nbytes) == (500 * 37, 500 * 8)
    arr = PackedDataset.ensure(dataset)
    assert arr.packed_window(0, 10) is None  # bytes per bit: nothing packed
    assert arr.stored_nbytes == arr.nbytes == dataset.size


def test_write_is_atomic_no_tmp_residue(tmp_path, dataset):
    out = tmp_path / "x.pds"
    write_pds(out, dataset)
    leftovers = [p for p in os.listdir(tmp_path) if ".tmp." in p]
    assert leftovers == []


def test_pack_from_pds_source_streams(tmp_path, dataset, pds_path):
    # Re-packing a file-backed handle must produce an identical file
    # payload (digest equality is the cheap proof).
    out = tmp_path / "copy.pds"
    hdr = write_pds(out, PackedDataset.open(pds_path))
    assert hdr.digest == read_pds_header(pds_path).digest


def test_pack_non_contiguous_source(tmp_path, rng):
    base = (rng.random((200, 64)) < 0.5).astype(np.uint8)
    view = base[:, ::2]  # non-contiguous
    hdr = write_pds(tmp_path / "nc.pds", np.ascontiguousarray(view))
    assert hdr.digest == dataset_digest(view)


# -- digests -----------------------------------------------------------------


def test_partition_digest_equals_reference(dataset, pds_path):
    ds = PackedDataset.open(pds_path)
    arr = PackedDataset.ensure(dataset)
    for lo, hi in [(0, 500), (0, 100), (123, 377), (499, 500)]:
        want = dataset_digest(dataset[lo:hi])
        assert ds.partition_digest(lo, hi) == want
        assert arr.partition_digest(lo, hi) == want


def test_digest_chunking_is_invisible(rng):
    # A dataset larger than one scan chunk must hash identically to the
    # one-shot reference formula.
    data = (rng.random((700, 33)) < 0.5).astype(np.uint8)
    h = hashlib.sha1()
    h.update(np.int64(700).tobytes())
    h.update(np.int64(33).tobytes())
    h.update(data.tobytes())
    assert dataset_digest(data) == h.hexdigest()
    import repro.ap.compiler as compiler

    old = compiler._DIGEST_CHUNK_BYTES
    compiler._DIGEST_CHUNK_BYTES = 64  # force many chunks
    try:
        assert dataset_digest(data) == h.hexdigest()
    finally:
        compiler._DIGEST_CHUNK_BYTES = old


def test_subwindow_digest_matches_full_window(dataset, pds_path):
    sub = PackedDataset.open(pds_path).slice_rows(50, 450)
    assert sub.digest == dataset_digest(dataset[50:450])
    assert sub.partition_digest(10, 20) == dataset_digest(dataset[60:70])


def test_digest_memo_shared_across_subwindows(pds_path):
    ds = PackedDataset.open(pds_path)
    d1 = ds.partition_digest(100, 200)
    memo_size = len(ds.store.digest_memo)
    # The same absolute window through a sub-handle hits the memo.
    assert ds.slice_rows(100, 300).partition_digest(0, 100) == d1
    assert len(ds.store.digest_memo) == memo_size


# -- ensure() ----------------------------------------------------------------


def test_ensure_passthrough_and_paths(dataset, pds_path):
    handle = PackedDataset.ensure(dataset)
    assert PackedDataset.ensure(handle) is handle
    opened = PackedDataset.ensure(pds_path)
    assert opened.kind == "mmap"
    # the process attach cache hands every opener the same store
    assert PackedDataset.ensure(pds_path).store is opened.store


@pytest.mark.parametrize("bad", [
    np.zeros((0, 8), dtype=np.uint8),
    np.zeros(8, dtype=np.uint8),
])
def test_ensure_rejects_bad_shapes(bad):
    with pytest.raises(ValueError, match="non-empty"):
        PackedDataset.ensure(bad)


def test_ensure_rejects_non_binary():
    with pytest.raises(ValueError, match="binary"):
        PackedDataset.ensure(np.full((4, 4), 3, dtype=np.uint8))


def test_ensure_rejects_non_bits_before_narrowing(dataset, non_binary):
    with pytest.raises(ValueError, match="binary"):
        PackedDataset.ensure(non_binary(dataset))
    wide = PackedDataset.ensure(dataset.astype(np.float64))
    assert wide.rows(0, wide.n).dtype == np.uint8
    assert (wide.rows(0, wide.n) == dataset).all()


# -- .pds structural validation ----------------------------------------------


def _clone(pds_path, tmp_path, name, mutate):
    blob = bytearray(Path(pds_path).read_bytes())
    mutate(blob)
    out = tmp_path / name
    out.write_bytes(bytes(blob))
    return str(out)


def test_rejects_bad_magic(pds_path, tmp_path):
    bad = _clone(pds_path, tmp_path, "m.pds",
                 lambda b: b.__setitem__(0, b[0] ^ 0xFF))
    with pytest.raises(DatasetFormatError, match="magic"):
        read_pds_header(bad)


def test_rejects_wrong_version(pds_path, tmp_path):
    def bump_version(b):
        b[8:10] = struct.pack("<H", 99)

    bad = _clone(pds_path, tmp_path, "v.pds", bump_version)
    with pytest.raises(DatasetFormatError, match="version 99"):
        read_pds_header(bad)


def test_rejects_truncated_header(tmp_path):
    out = tmp_path / "short.pds"
    out.write_bytes(PDS_MAGIC + b"\x01")
    with pytest.raises(DatasetFormatError, match="truncated .pds header"):
        read_pds_header(out)


def test_rejects_truncated_payload(pds_path, tmp_path):
    blob = Path(pds_path).read_bytes()
    out = tmp_path / "trunc.pds"
    out.write_bytes(blob[:-100])
    with pytest.raises(DatasetFormatError, match="truncated .pds payload"):
        read_pds_header(out)


def test_rejects_geometry_payload_mismatch(pds_path, tmp_path):
    def grow_n(b):
        # doubling n makes payload_nbytes != n * d
        (n,) = struct.unpack_from("<Q", b, 16)
        struct.pack_into("<Q", b, 16, n * 2)

    bad = _clone(pds_path, tmp_path, "geom.pds", grow_n)
    with pytest.raises(DatasetFormatError, match="payload size"):
        read_pds_header(bad)


def test_rejects_bad_chunk_table(pds_path, tmp_path):
    def zero_chunk_rows(b):
        struct.pack_into("<Q", b, 88, 0)

    def table_over_payload(b):
        struct.pack_into("<Q", b, 96, 4090)

    for name, mutate in [("cr.pds", zero_chunk_rows), ("to.pds", table_over_payload)]:
        with pytest.raises(DatasetFormatError, match="chunk table"):
            read_pds_header(_clone(pds_path, tmp_path, name, mutate))


def test_rejects_layout_of_another_version(pds_path, tmp_path):
    bad = _clone(pds_path, tmp_path, "lay.pds",
                 lambda b: b.__setitem__(13, 1))
    with pytest.raises(DatasetFormatError, match="layout"):
        read_pds_header(bad)


def test_rejects_unsupported_dtype_code(pds_path, tmp_path):
    bad = _clone(pds_path, tmp_path, "dt.pds",
                 lambda b: b.__setitem__(12, 7))
    with pytest.raises(DatasetFormatError, match="dtype code"):
        read_pds_header(bad)


def test_rejects_missing_file(tmp_path):
    with pytest.raises(DatasetFormatError, match="cannot read"):
        read_pds_header(tmp_path / "nope.pds")


def test_open_rejects_corrupt_file(pds_path, tmp_path):
    bad = _clone(pds_path, tmp_path, "open.pds",
                 lambda b: b.__setitem__(0, 0))
    with pytest.raises(DatasetFormatError):
        PackedDataset.open(bad)


# -- payload verification ----------------------------------------------------


@pytest.fixture
def chunked(tmp_path, dataset):
    """The dataset in five verification chunks of 100 rows."""
    path = tmp_path / "chunked.pds"
    hdr = write_pds(path, dataset, chunk_rows=100)
    assert hdr.n_chunks == 5
    return str(path), hdr


def test_flipped_payload_byte_fails_on_first_touch_of_its_chunk(
    chunked, tmp_path, dataset
):
    path, hdr = chunked
    bad = _clone(path, tmp_path, "flip.pds",
                 lambda b: b.__setitem__(hdr.payload_offset + 8 * 250, b[
                     hdr.payload_offset + 8 * 250] ^ 0x01))
    assert read_pds_header(bad) == hdr  # structurally fine: attaches
    ds = PackedDataset.open(bad)
    # lazily, chunk by chunk: rows of the other chunks serve...
    assert np.array_equal(ds.rows(0, 200), dataset[:200])
    assert np.array_equal(ds.packed_window(300, 500), pack_bits(dataset[300:]))
    # ...and every way into chunk 2 raises instead of answering
    for touch in (
        lambda: ds.rows(250, 251),
        lambda: ds.packed_window(199, 201),
        lambda: pickle.loads(pickle.dumps(ds)).packed_window(0, 500),
        lambda: ds.slice_rows(200, 300).digest,
    ):
        with pytest.raises(DatasetFormatError, match=r"chunk 2 \(rows \[200, 300\)\)"):
            touch()
    with pytest.raises(DatasetFormatError, match="chunk 2"):
        verify_pds(bad)


def test_pad_bit_beyond_d_is_rejected(chunked, tmp_path):
    """A set bit beyond ``d`` in a row's last word would add to every
    distance: rejected even when the chunk digest covers it (a writer
    bug, not bit rot)."""
    path, hdr = chunked

    def set_pad_bit(b):
        at = hdr.payload_offset + 8 * 340 + 7  # row 340, bits 56..63
        b[at] |= 0x80
        lo = hdr.payload_offset + 8 * 300
        words = np.frombuffer(bytes(b[lo:lo + 800]), dtype=np.uint64)
        entry = hdr.chunk_table_offset + 3 * 20
        b[entry:entry + 20] = dataset_mod._chunk_digest(3, words)

    bad = _clone(path, tmp_path, "pad.pds", set_pad_bit)
    ds = PackedDataset.open(bad)
    ds.rows(0, 300)
    with pytest.raises(DatasetFormatError, match=r"chunk 3 .* beyond d=37"):
        ds.packed_window(340, 341)


def test_chunks_are_hashed_once_per_attached_store(chunked, monkeypatch):
    path, _ = chunked
    hashed = []
    real = dataset_mod._chunk_digest

    def spy(index, words):
        hashed.append(index)
        return real(index, words)

    monkeypatch.setattr(dataset_mod, "_chunk_digest", spy)
    ds = PackedDataset.open(path)
    ds.packed_window(150, 160)
    ds.rows(100, 320)
    pickle.loads(pickle.dumps(ds)).rows(0, 500)
    ds.digest
    assert hashed == [1, 2, 3, 0, 4]


def test_concurrent_first_touches_hash_each_chunk_once(
    chunked, dataset, monkeypatch
):
    """Thread workers share one attached store: racing first touches
    must neither hash a chunk twice nor hand out an unverified window."""
    import threading

    path, _ = chunked
    hashed = []
    real = dataset_mod._chunk_digest

    def spy(index, words):
        hashed.append(index)
        return real(index, words)

    monkeypatch.setattr(dataset_mod, "_chunk_digest", spy)
    ds = PackedDataset.open(path)
    want = pack_bits(dataset)
    wrong = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            lo = int(rng.integers(0, 499))
            hi = int(rng.integers(lo + 1, 501))
            if not np.array_equal(ds.packed_window(lo, hi), want[lo:hi]):
                wrong.append((lo, hi))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert sorted(hashed) == [0, 1, 2, 3, 4]


def test_verify_pds_checks_the_header_digest_too(pds_path, tmp_path):
    assert verify_pds(pds_path) == read_pds_header(pds_path)

    def other_digest(b):
        b[48:88] = b"0" * 40

    bad = _clone(pds_path, tmp_path, "hd.pds", other_digest)
    with pytest.raises(DatasetFormatError, match="header digest"):
        verify_pds(bad)


# -- version 1 ---------------------------------------------------------------


def test_version_1_file_is_refused_at_open(tmp_path, dataset, capsys):
    """A version-1 file (the 88-byte header, one byte per bit at offset
    4096) fails where it is opened — the header reader, the handle, an
    engine's constructor and ``repro pack --info`` alike — naming the
    version and the way out, never at the first query."""
    from repro.cli import main

    n, d = dataset.shape
    header = struct.pack(
        "<8sHHBB2xQQQQ40s", PDS_MAGIC, 1, 88, 1, 1, n, d, 4096, n * d,
        dataset_digest(dataset).encode("ascii"),
    )
    path = tmp_path / "old.pds"
    path.write_bytes(header.ljust(4096, b"\x00") + dataset.tobytes())
    refused = r"version 1 .*re-pack it from the source rows"
    for open_it in (
        read_pds_header,
        PackedDataset.open,
        lambda p: WorkloadSearch(str(p), "knn", {"k": 3}),
    ):
        with pytest.raises(DatasetFormatError, match=refused):
            open_it(path)
    assert main(["pack", "--info", str(path)]) == 1
    assert re.search(refused, capsys.readouterr().err)


# -- the attach cache across re-packs -----------------------------------------


def test_repacked_path_is_picked_up_by_the_next_attach(tmp_path):
    """Regression: the attach cache was keyed by path alone, so after
    an atomic re-pack the process kept serving the old mapping."""
    path = tmp_path / "live.pds"
    write_pds(path, np.zeros((100, 32), dtype=np.uint8))
    old = PackedDataset.open(path)
    assert old.shape == (100, 32)
    ones = np.ones((200, 32), dtype=np.uint8)
    write_pds(path, ones)
    new = PackedDataset.open(path)
    assert new.shape == (200, 32)
    assert new.digest == read_pds_header(path).digest == dataset_digest(ones)
    assert np.array_equal(new.rows(0, 200), ones)
    assert new.store is not old.store
    assert PackedDataset.open(path).store is new.store


def test_pickled_windows_are_pinned_to_the_file_their_engine_attached(
    tmp_path,
):
    """A window pickled before a re-pack keeps loading against the
    mapping this process still holds, and fails loudly — never answers
    from the new file's rows — where that mapping is gone (a fresh
    worker)."""
    path = tmp_path / "pinned.pds"
    zeros = np.zeros((100, 32), dtype=np.uint8)
    write_pds(path, zeros)
    blob = pickle.dumps(PackedDataset.open(path).slice_rows(10, 60))
    write_pds(path, np.ones((200, 32), dtype=np.uint8))
    assert PackedDataset.open(path).shape == (200, 32)
    window = pickle.loads(blob)
    assert np.array_equal(window.rows(0, 50), zeros[10:60])
    window.release(0, 50)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset_mod, "_ATTACHED_MMAPS", {})  # a fresh process
        with pytest.raises(DatasetFormatError, match="was replaced"):
            pickle.loads(blob)


def test_a_live_engine_keeps_answering_from_the_file_it_attached(tmp_path):
    """Re-packing a path under a live engine (``write_pds`` replaces it
    atomically) changes nothing the engine answers: it keeps the mapping
    it attached.  An engine built over the path afterwards answers from
    the new file."""
    rng = np.random.default_rng(5)
    old_rows, new_rows = (
        rng.integers(0, 2, (n, 32), dtype=np.uint8) for n in (100, 150)
    )
    queries = rng.integers(0, 2, (3, 32), dtype=np.uint8)
    path = str(tmp_path / "live.pds")
    write_pds(path, old_rows)

    def engine():
        return WorkloadSearch(path, "knn", {"k": 4}, board_capacity=16)

    live = engine()
    before = live.search(queries)
    write_pds(path, new_rows)
    fresh = engine()
    assert fresh.dataset.store is not live.dataset.store
    for result, rows in ((before, old_rows), (live.search(queries), old_rows),
                         (fresh.search(queries), new_rows)):
        indices, distances = brute_force_knn(rows, queries, 4)
        assert np.array_equal(result.indices, indices)
        assert np.array_equal(result.distances, distances)


def test_a_live_engine_outlives_a_repack_and_attach_cache_churn(tmp_path):
    """Regression: a serial engine's tasks resolved their ``.pds`` by
    path and generation in the process attach cache once per window, so
    once a re-pack and nine other files had evicted the engine's mapping
    the next search raised ``DatasetFormatError`` instead of answering
    from the mapping the engine holds."""
    rng = np.random.default_rng(6)
    rows = rng.integers(0, 2, (100, 32), dtype=np.uint8)
    queries = rng.integers(0, 2, (3, 32), dtype=np.uint8)
    path = str(tmp_path / "a.pds")
    write_pds(path, rows)
    live = WorkloadSearch(path, "knn", {"k": 4}, board_capacity=16)
    write_pds(path, np.ones((150, 32), dtype=np.uint8))
    for i in range(dataset_mod._ATTACH_CACHE_MAX + 1):
        other = tmp_path / f"other{i}.pds"
        write_pds(other, rows[: 10 + i])
        PackedDataset.open(other)
    assert (path, live.dataset.store.file_id) not in dataset_mod._ATTACHED_MMAPS
    result = live.search(queries)
    indices, distances = brute_force_knn(rows, queries, 4)
    assert np.array_equal(result.indices, indices)
    assert np.array_equal(result.distances, distances)


def test_engines_over_many_files_open_each_mapping_once(tmp_path, monkeypatch):
    """More engines than the attach cache holds, searched in turn: each
    engine opens its ``MmapStore`` once, when it is built, not once per
    search."""
    rng = np.random.default_rng(7)
    queries = rng.integers(0, 2, (3, 32), dtype=np.uint8)
    datasets, paths = [], []
    for i in range(dataset_mod._ATTACH_CACHE_MAX + 2):
        datasets.append(rng.integers(0, 2, (40 + i, 32), dtype=np.uint8))
        paths.append(str(tmp_path / f"f{i}.pds"))
        write_pds(paths[-1], datasets[-1])
    opened = []
    real = MmapStore.__init__

    def spy(self, path):
        opened.append(path)
        real(self, path)

    monkeypatch.setattr(MmapStore, "__init__", spy)
    engines = [
        WorkloadSearch(path, "knn", {"k": 2}, board_capacity=16)
        for path in paths
    ]
    assert len(opened) == len(paths)
    for _ in range(2):
        for engine, rows in zip(engines, datasets):
            indices, _ = brute_force_knn(rows, queries, 2)
            assert np.array_equal(engine.search(queries).indices, indices)
    assert len(opened) == len(paths)


# -- window pickling and release ---------------------------------------------

STORES = ["array", "mmap", "shm"]


def _handle(kind, dataset, pds_path):
    """``dataset`` over a store of ``kind``."""
    if kind == "shm" and not shm_available():
        pytest.skip("no usable shared memory")
    if kind == "mmap":
        return PackedDataset.open(pds_path)
    if kind == "shm":
        return PackedDataset(ShmStore.export(dataset))
    return PackedDataset.ensure(dataset)


@pytest.mark.parametrize("kind", STORES)
def test_a_pickled_window_reads_identically(kind, dataset, pds_path):
    ds = _handle(kind, dataset, pds_path)
    window = pickle.loads(pickle.dumps(ds.slice_rows(17, 301)))
    assert window.kind == kind and window.shape == (284, 37)
    assert np.array_equal(window.rows(0, 284), dataset[17:301])
    words = window.packed_window(0, 284)
    if kind == "array":
        assert words is None
    else:
        assert np.array_equal(words, pack_bits(dataset[17:301]))
    window.release(0, 284)
    # released pages re-fault transparently
    assert np.array_equal(window.rows(0, 284), dataset[17:301])


def test_an_array_window_pickles_its_own_rows(dataset):
    blob = pickle.dumps(PackedDataset.ensure(dataset).slice_rows(100, 110))
    assert len(blob) < 1024  # ten 37-byte rows, not the 500-row array
    window = pickle.loads(blob)
    assert window.store.n == 10 and (window.lo, window.hi) == (0, 10)
    assert np.array_equal(window.rows(0, 10), dataset[100:110])


@pytest.mark.parametrize("kind", ["mmap", "shm"])
def test_a_store_window_pickles_descriptor_sized(kind, dataset, pds_path):
    ds = _handle(kind, dataset, pds_path)
    blob = pickle.dumps(ds)
    assert len(blob) < 1024  # descriptor-sized, not payload-sized
    assert np.array_equal(pickle.loads(blob).rows(0, 500), dataset)


def test_release_keeps_data_intact(dataset, pds_path):
    ds = PackedDataset.open(pds_path)
    before = ds.rows(0, ds.n).copy()
    ds.release(0, ds.n)
    assert np.array_equal(ds.rows(0, ds.n), before)


@pytest.mark.skipif(sys.platform != "linux", reason="/proc is Linux-only")
def test_release_drops_the_whole_chunks_a_scan_has_completed(tmp_path):
    """Passes are smaller than verification chunks: a release behind a
    pass drops nothing until the scan completes a chunk, then the whole
    chunk — one ``madvise`` per chunk, not per pass."""
    data = np.random.default_rng(3).integers(0, 2, (1 << 14, 64), dtype=np.uint8)
    path = tmp_path / "resident.pds"
    write_pds(path, data, chunk_rows=4096)  # four chunks of 32 KiB

    def resident_kb():
        with open("/proc/self/smaps") as f:
            lines = f.read().splitlines()
        at = next(i for i, ln in enumerate(lines) if "resident.pds" in ln)
        return int(next(ln for ln in lines[at:] if ln.startswith("Rss:")).split()[1])

    store = MmapStore(path)
    try:
        assert int(store.packed_window(0, store.n).sum(dtype=np.uint64)) > 0
        full = resident_kb()  # 128 KiB of words + the header page
        assert full >= 128
        store.release(0, 2048)  # half of chunk 0: nothing to drop yet
        assert resident_kb() == full
        store.release(2048, 4096)  # completes chunk 0: all of it goes
        assert resident_kb() == full - 32
        store.release(4200, store.n)  # completes 1..3, rows before 4200 too
        assert resident_kb() == full - 128
        assert np.array_equal(store.rows(0, store.n), data)  # intact
    finally:
        store.close()


def test_rows_views_are_readonly(pds_path):
    ds = PackedDataset.open(pds_path)
    with pytest.raises(ValueError):
        ds.rows(0, 10)[0, 0] = 1


# -- shm store ---------------------------------------------------------------


@pytest.mark.skipif(not shm_available(), reason="no usable shared memory")
def test_shm_store_roundtrip(dataset):
    ds = PackedDataset(ShmStore.export(dataset))
    assert ds.kind == "shm"
    assert np.array_equal(ds.rows(0, ds.n), dataset)
    assert ds.digest == dataset_digest(dataset)
    # the segment holds the packed words: an eighth of the rows' bytes
    assert ds.stored_nbytes == ds.store.ref.nbytes == 500 * 8
    assert np.array_equal(ds.packed_window(3, 80), pack_bits(dataset[3:80]))
    window = pickle.loads(pickle.dumps(ds.slice_rows(3, 80)))
    assert window.kind == "shm"
    assert np.array_equal(window.rows(0, 77), dataset[3:80])
    assert np.array_equal(window.packed_window(0, 77), pack_bits(dataset[3:80]))


# -- leak guards -------------------------------------------------------------


@pytest.mark.skipif(sys.platform != "linux", reason="/proc is Linux-only")
def test_no_fd_or_mapping_leak_per_open(tmp_path, rng):
    data = (rng.random((64, 16)) < 0.5).astype(np.uint8)
    path = tmp_path / "leak.pds"
    write_pds(path, data)

    def fd_count():
        return len(os.listdir("/proc/self/fd"))

    def mapping_count():
        with open("/proc/self/maps") as f:
            return sum("leak.pds" in line for line in f)

    PackedDataset.open(path).rows(0, 64)
    fds, maps = fd_count(), mapping_count()
    for _ in range(20):
        # repeated opens share the process attach cache: no fd or
        # mapping growth per open
        PackedDataset.open(path).rows(0, 64)
    assert fd_count() == fds
    assert mapping_count() == maps
    assert maps == 1


@pytest.mark.skipif(sys.platform != "linux", reason="/proc is Linux-only")
def test_store_close_unmaps(tmp_path, rng):
    data = (rng.random((64, 16)) < 0.5).astype(np.uint8)
    path = tmp_path / "close.pds"
    write_pds(path, data)
    store = MmapStore(path)  # bypass the attach cache: we own this one
    store.rows(0, 10)

    def mapped():
        with open("/proc/self/maps") as f:
            return any("close.pds" in line for line in f)

    assert mapped()
    store.close()
    assert not mapped()


def test_attach_cache_returns_same_store(pds_path):
    assert attach_mmap_store(pds_path) is attach_mmap_store(pds_path)


def test_attach_cache_eviction_leaves_open_handles_serving(tmp_path, rng):
    """Opening more files than the attach cache holds evicts the oldest
    store from the cache; a handle still open on it keeps serving."""
    data = (rng.random((20, 16)) < 0.5).astype(np.uint8)
    paths = [tmp_path / f"e{i}.pds" for i in range(dataset_mod._ATTACH_CACHE_MAX + 2)]
    for path in paths:
        write_pds(path, data)
    first = PackedDataset.open(paths[0])
    for path in paths[1:]:
        PackedDataset.open(path)
    assert (first.store.path, first.store.file_id) not in dataset_mod._ATTACHED_MMAPS
    assert np.array_equal(first.rows(0, 20), data)
