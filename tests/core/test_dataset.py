"""PackedDataset / .pds format unit tests.

Covers the dataset-plane contract on its own (cross-store *search*
parity lives in tests/integration/test_store_parity.py): pack/open
roundtrips, digest equality between the streaming store digests and
the reference ``dataset_digest``, structural rejection of corrupt
``.pds`` files, slice-ref resolution, and mmap/fd leak guards.
"""

import hashlib
import os
import struct
import sys

import numpy as np
import pytest

from repro.ap.compiler import dataset_digest
from repro.core.dataset import (
    PDS_MAGIC,
    DatasetFormatError,
    PackedDataset,
    attach_mmap_store,
    read_pds_header,
    write_pds,
)
from repro.host.shm import shm_available


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
    assert hdr.n, hdr.d == dataset.shape
    assert hdr.payload_nbytes == dataset.size


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
    blob = bytearray(open(pds_path, "rb").read())
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
    blob = open(pds_path, "rb").read()
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


# -- slice refs and release --------------------------------------------------


def test_slice_ref_resolves_identically(dataset, pds_path):
    ds = PackedDataset.open(pds_path)
    ref = ds.slice_ref(17, 301)
    assert ref.kind == "mmap"
    assert np.array_equal(ref.resolve(), dataset[17:301])
    ref.release()
    # released pages re-fault transparently
    assert np.array_equal(ref.resolve(), dataset[17:301])


def test_array_store_has_no_slice_ref(dataset):
    assert PackedDataset.ensure(dataset).slice_ref(0, 10) is None


def test_slice_ref_is_small_and_picklable(pds_path):
    import pickle

    ref = PackedDataset.open(pds_path).slice_ref(0, 500)
    blob = pickle.dumps(ref)
    assert len(blob) < 1024  # descriptor-sized, not payload-sized
    assert np.array_equal(pickle.loads(blob).resolve(), ref.resolve())


def test_release_keeps_data_intact(dataset, pds_path):
    ds = PackedDataset.open(pds_path)
    before = ds.rows(0, ds.n).copy()
    ds.release(0, ds.n)
    assert np.array_equal(ds.rows(0, ds.n), before)


def test_rows_views_are_readonly(pds_path):
    ds = PackedDataset.open(pds_path)
    with pytest.raises(ValueError):
        ds.rows(0, 10)[0, 0] = 1


# -- shm store ---------------------------------------------------------------


@pytest.mark.skipif(not shm_available(), reason="no usable shared memory")
def test_shm_store_roundtrip(dataset):
    from repro.core.dataset import ShmStore

    ds = PackedDataset(ShmStore.export(dataset))
    assert ds.kind == "shm"
    assert np.array_equal(ds.rows(0, ds.n), dataset)
    assert ds.digest == dataset_digest(dataset)
    ref = ds.slice_ref(3, 80)
    assert ref.kind == "shm"
    assert np.array_equal(ref.resolve(), dataset[3:80])


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
    from repro.core.dataset import MmapStore

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
