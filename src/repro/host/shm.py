"""Shared-memory segments for out-of-process workers.

The paper's whole premise is keeping data movement off the host
bottleneck.  A process worker that received its partition's
dataset slice by value would pay for it twice — the parent pickles the
slice into the call pipe and the worker unpickles a fresh copy, per
task, per cold search — so the dataset crosses the process boundary
*once*, into a :mod:`multiprocessing.shared_memory` segment, and tasks
carry descriptors:

* :func:`export_array` — the one place a dataset segment is created:
  copies an ndarray into a new segment of its own, with every page
  reserved up front, and hands back the descriptor plus the creator's
  read-only view.  The view owns the segment: the name is unlinked and
  the mapping closed when the view (and every slice of it) is
  garbage-collected, or at interpreter exit — ``/dev/shm`` residue is
  bounded by the *creator*, whatever the workers are doing.
* :class:`ShmArrayRef` — ``(segment, offset, shape, dtype)`` naming an
  ndarray that lives in a shared segment.  Any process on the host
  turns it into a **view** with :func:`resolve_array` (no copy, marked
  read-only so a worker bug cannot corrupt a segment other workers
  read).

Worker-side attachments go through a process-global ref-counted
:class:`SegmentRegistry`: the first reference to a segment attaches it
(working around the resource-tracker over-registration of attached
segments, gh-82300), later references share the mapping, and a
``weakref.finalize`` on each resolved view releases its reference when
the view dies — the registry drops its handle at refcount zero and the
:class:`~multiprocessing.shared_memory.SharedMemory` destructor unmaps
it.

:class:`~repro.core.dataset.ShmStore` is the consumer: it wraps an
exported segment behind the :class:`~repro.core.dataset.PackedDataset`
interface and pickles as its :class:`ShmArrayRef`, exactly as an
mmap-backed store pickles as the path of its ``.pds`` file.  Query
batches travel by value; a worker builds its board artifacts in place
over the segment's words.

Platforms without ``multiprocessing.shared_memory`` (or without a
usable ``/dev/shm``) report :func:`shm_available()` → ``False`` and the
dataset travels by value as well.
"""

from __future__ import annotations

import os
import threading
import uuid
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

try:  # pragma: no cover - import always succeeds on CPython >= 3.8
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "SHM_SEGMENT_PREFIX",
    "SHM_UNAVAILABLE_REASON",
    "ShmArrayRef",
    "SegmentRegistry",
    "export_array",
    "shm_available",
    "resolve_array",
]

# Canonical human-readable reason for "shm_available() is False" —
# shared by every test skip (and the conftest skip-count summary) so a
# lane running without shared memory is visibly, consistently labeled.
SHM_UNAVAILABLE_REASON = (
    "multiprocessing.shared_memory unsupported on this platform "
    "(no usable /dev/shm?)"
)

# Segment names are flat (no '/') and include the creating pid so leak
# tests can tell their own residue from another process's segments.
SHM_SEGMENT_PREFIX = "repro_shm"

_available_lock = threading.Lock()
_available: bool | None = None


def shm_available() -> bool:
    """True when shared-memory segments can actually be created here.

    Probes once (create + close + unlink of a 1-byte segment) and
    memoizes: the import existing is not enough — containers without a
    writable ``/dev/shm`` raise at create time.
    """
    global _available
    with _available_lock:
        if _available is None:
            if _shared_memory is None:
                _available = False
            else:
                try:
                    probe = _shared_memory.SharedMemory(
                        name=_new_segment_name(), create=True, size=1
                    )
                    probe.close()
                    probe.unlink()
                    _available = True
                except (OSError, ValueError):
                    _available = False
        return _available


def _new_segment_name() -> str:
    return f"{SHM_SEGMENT_PREFIX}_{os.getpid()}_{uuid.uuid4().hex[:12]}"


@dataclass(frozen=True)
class ShmArrayRef:
    """Descriptor of an ndarray living in a shared-memory segment.

    A few dozen bytes on the wire regardless of the array's size.  An
    empty array travels as ``segment=""`` (there is nothing to share;
    :func:`resolve_array` materializes it locally).
    """

    segment: str
    offset: int
    shape: tuple
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


# -- worker-side attachment registry ---------------------------------------


def _attach_untracked(name: str):
    """Attach to an existing segment WITHOUT resource-tracker tracking.

    Attaching normally registers the segment as if this process created
    it (gh-82300): under spawn/forkserver the attacher's tracker then
    unlinks it at exit while the creator still needs it, and under fork
    the duplicate (un)registrations make the shared tracker spew
    ``KeyError`` noise at shutdown.  Only the *creator*
    should own tracker state.  Python 3.13+ exposes ``track=False``;
    earlier versions get a scoped no-op patch of the register hook
    (attaches are serialized under the registry lock).
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pre-3.13: no `track` kwarg
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    def _no_register(*args, **kwargs):
        return None

    resource_tracker.register = _no_register
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class SegmentRegistry:
    """Ref-counted per-process registry of attached segments.

    ``acquire`` attaches (or shares) a segment; ``release`` drops one
    reference.  A handle whose refcount hits zero moves into a small
    FIFO keep-alive pool instead of unmapping immediately: a steady
    stream of tasks resolving views of the same segments (every warm
    search) re-acquires for a dict lookup instead of an
    ``shm_open``+``mmap`` syscall pair per task.  The pool is bounded
    (``keep_alive``), so a worker holds at most that many idle
    mappings; evicted handles unmap via the
    :class:`~multiprocessing.shared_memory.SharedMemory` destructor
    once their last view dies.  Unlinking is never done here: that is
    the creator's job (:func:`export_array`) — segment *names* never
    outlive it regardless of what this cache holds mapped.
    """

    DEFAULT_KEEP_ALIVE = 8

    def __init__(self, keep_alive: int = DEFAULT_KEEP_ALIVE):
        # Reentrant: release() runs as a weakref finalizer, and cyclic
        # GC may fire it on the very thread currently holding the lock
        # inside acquire()/release() — a plain Lock would self-deadlock.
        self._lock = threading.RLock()
        self._segments: dict[str, list] = {}  # name -> [shm, refcount]
        self._keep_alive = int(keep_alive)
        self._idle: "OrderedDict[str, Any]" = OrderedDict()  # name -> shm

    def acquire(self, name: str):
        if _shared_memory is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        with self._lock:
            entry = self._segments.get(name)
            if entry is None:
                shm = self._idle.pop(name, None)
                if shm is None:
                    shm = _attach_untracked(name)
                entry = [shm, 0]
                self._segments[name] = entry
            entry[1] += 1
            return entry[0]

    def release(self, name: str) -> None:
        with self._lock:
            entry = self._segments.get(name)
            if entry is None:
                return
            entry[1] -= 1
            if entry[1] <= 0:
                del self._segments[name]
                if self._keep_alive > 0:
                    self._idle[name] = entry[0]
                    self._idle.move_to_end(name)
                    while len(self._idle) > self._keep_alive:
                        self._idle.popitem(last=False)

    def __len__(self) -> int:
        """Actively referenced segments (idle keep-alives not counted)."""
        with self._lock:
            return len(self._segments)


_REGISTRY = SegmentRegistry()


def resolve_array(ref: ShmArrayRef, registry: SegmentRegistry | None = None) -> np.ndarray:
    """Zero-copy read-only view of the array a descriptor names.

    The view pins its segment through the registry: a
    ``weakref.finalize`` on the array releases the reference when the
    view is garbage-collected, so segments detach exactly when the last
    consumer is done with them.
    """
    if ref.segment == "":
        out = np.empty(ref.shape, dtype=np.dtype(ref.dtype))
        out.flags.writeable = False
        return out
    registry = registry if registry is not None else _REGISTRY
    shm = registry.acquire(ref.segment)
    try:
        view = np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf, offset=ref.offset
        )
    except Exception:
        registry.release(ref.segment)
        raise
    view.flags.writeable = False
    weakref.finalize(view, registry.release, ref.segment)
    return view


# -- parent-side segment creation ------------------------------------------


def _reserve_pages(segment) -> None:
    """Back every page of a freshly created segment now.

    ``ftruncate`` (all :class:`~multiprocessing.shared_memory.
    SharedMemory` does) only sets the size: on a size-limited
    ``/dev/shm`` — Docker's default is 64 MiB — the first write to a
    page tmpfs cannot back is a SIGBUS that kills the *parent*.
    ``posix_fallocate`` fails with ``ENOSPC`` instead, which callers
    handle like any other refused segment.  Platforms without it keep
    the unreserved behaviour.
    """
    if hasattr(os, "posix_fallocate"):
        os.posix_fallocate(segment._fd, 0, segment.size)


def _cleanup_segment(segment) -> None:
    """Finalizer target: unlink and close one owned segment, tolerating
    double-cleanup and races."""
    try:
        segment.unlink()
    except (FileNotFoundError, OSError):
        pass
    try:
        segment.close()
    except (BufferError, OSError):
        pass


def export_array(array: np.ndarray) -> tuple[ShmArrayRef, np.ndarray]:
    """Copy ``array`` into a new shared-memory segment of its own.

    Returns the descriptor other processes attach by and the creator's
    read-only view of the segment.  The view *is* the segment's
    lifetime: when it and every slice of it are gone (or the
    interpreter exits) the name is unlinked and the mapping closed, so
    hold the view for as long as descriptors are in flight.  Raises
    ``OSError`` when the segment cannot be created or its pages cannot
    be reserved; nothing is left behind in that case.
    """
    array = np.ascontiguousarray(array)
    if array.nbytes == 0:  # nothing to share; resolve_array builds it locally
        return ShmArrayRef("", 0, array.shape, array.dtype.str), array
    segment = _shared_memory.SharedMemory(
        name=_new_segment_name(), create=True, size=array.nbytes
    )
    try:
        _reserve_pages(segment)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
    except BaseException:
        _cleanup_segment(segment)
        raise
    view.flags.writeable = False
    weakref.finalize(view, _cleanup_segment, segment)
    return ShmArrayRef(segment.name, 0, array.shape, array.dtype.str), view
