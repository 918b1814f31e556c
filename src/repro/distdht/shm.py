"""Single-host shared-memory backend (manager-free).

Records live in ``multiprocessing.shared_memory`` segments: one writer
process appends into a geometrically growing segment list and keeps the
key index locally; reader processes attach a segment **by name** and read
a record straight out of it via a ``("shm", segment, offset, length)``
locator — no manager process, no proxy round trips, no per-reader copy of
the payload in the page cache (the segment is mapped, not duplicated).

The concurrency contract is deliberately narrow and matches how the
serving stack uses it: *one writer, many readers, records immutable once
shared*.  A shared record is never rewritten in place — overwrites append
a new record and move the index, so a reader holding an old locator still
sees consistent bytes.  This is exactly the sealed-store discipline the
AMPC model already imposes.

Segment lifetime: the creating store unlinks its segments on
:meth:`close` (or at garbage collection, via ``weakref.finalize``).
Readers attach *untracked* (see :func:`_attach_untracked`): only the
creator's resource tracker knows the segment, so a reader process
exiting — cleanly or by signal — never unlinks or double-accounts a
segment it merely mapped, while a hard-killed creator's segments are
still reclaimed by its own tracker.
"""

from __future__ import annotations

import threading
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.distdht.backing import BackingStore, register_fetcher

#: first segment size; each further segment doubles (bounded below by the
#: record that triggered it)
DEFAULT_SEGMENT_BYTES = 1 << 20


def _unlink_segments(segments: List[shared_memory.SharedMemory]) -> None:
    for segment in segments:
        try:
            segment.close()
            segment.unlink()
        except Exception:  # noqa: BLE001 - interpreter-shutdown tolerant
            pass
    segments.clear()


#: segments created by stores in *this* process, by name — a locator
#: resolved where it was minted reads the creator's own mapping instead
#: of re-attaching (which would also confuse the resource tracker)
_LOCAL_SEGMENTS: "weakref.WeakValueDictionary[str, shared_memory.SharedMemory]" = (
    weakref.WeakValueDictionary())

#: this process's attached foreign segments, by name (attach once, reuse)
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}
_ATTACH_LOCK = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without a resource-tracker entry.

    Unlink responsibility stays with the creating store alone.  Python
    3.13 grew ``SharedMemory(..., track=False)`` for exactly this; on
    older interpreters the attach-side registration is suppressed by
    patching ``resource_tracker.register`` for the duration of the call
    (callers hold ``_ATTACH_LOCK``, so the patch cannot race another
    attach).  Without this, a reader whose lazily started tracker is not
    shared with the creator would unlink the creator's live segment when
    the reader exits.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _attached_segment(name: str) -> shared_memory.SharedMemory:
    local = _LOCAL_SEGMENTS.get(name)
    if local is not None:
        return local
    with _ATTACH_LOCK:
        segment = _ATTACHED.get(name)
        if segment is None:
            segment = _attach_untracked(name)
            _ATTACHED[name] = segment
    return segment


def _fetch_shm(locator: Tuple[str, str, int, int]) -> bytes:
    _tag, name, offset, length = locator
    segment = _attached_segment(name)
    return bytes(segment.buf[offset:offset + length])


register_fetcher("shm", _fetch_shm)


class SharedMemoryBackingStore(BackingStore):
    """Append-only shared-memory KV store (one writer, many readers)."""

    kind = "shm"

    def __init__(self, *, segment_bytes: int = DEFAULT_SEGMENT_BYTES):
        if segment_bytes < 1024:
            raise ValueError("segment_bytes must be at least 1 KiB")
        self._segment_bytes = segment_bytes
        self._segments: List[shared_memory.SharedMemory] = []
        #: key -> (segment index, offset, length)
        self._index: Dict[bytes, Tuple[int, int, int]] = {}
        self._tail = 0          # free offset in the last segment
        self._live_bytes = 0    # bytes addressed by the index
        self._dead_bytes = 0    # bytes orphaned by overwrites/deletes
        self._closed = False
        self._lock = threading.Lock()
        # unlink at GC even if close() is never called
        self._finalizer = weakref.finalize(
            self, _unlink_segments, self._segments)

    # -- segment management ----------------------------------------------

    def _reserve(self, length: int) -> Tuple[int, int]:
        """-> (segment index, offset) of a fresh ``length``-byte span."""
        if self._segments:
            capacity = self._segments[-1].size
            if self._tail + length <= capacity:
                offset = self._tail
                self._tail += length
                return len(self._segments) - 1, offset
        size = max(self._segment_bytes << len(self._segments), length)
        segment = shared_memory.SharedMemory(create=True, size=size)
        _LOCAL_SEGMENTS[segment.name] = segment
        self._segments.append(segment)
        self._tail = length
        return len(self._segments) - 1, 0

    # -- BackingStore -----------------------------------------------------

    def put(self, key: bytes, record: bytes) -> None:
        self.put_many(((key, record),))

    def put_many(self, items: Sequence[Tuple[bytes, bytes]]) -> None:
        """Append every record under one lock acquisition."""
        with self._lock:
            if self._closed:
                raise ValueError("shared-memory store is closed")
            index = self._index
            for key, record in items:
                length = len(record)
                seg_index, offset = self._reserve(length)
                self._segments[seg_index].buf[offset:offset + length] = record
                replaced = index.get(key)
                if replaced is not None:
                    self._dead_bytes += replaced[2]
                    self._live_bytes -= replaced[2]
                index[key] = (seg_index, offset, length)
                self._live_bytes += length

    def get(self, key: bytes) -> Optional[bytes]:
        return self.get_many((key,))[0]

    def get_many(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Copy every record out under one lock acquisition."""
        with self._lock:
            lookup = self._index.get
            views = [segment.buf for segment in self._segments]
            records: List[Optional[bytes]] = []
            append = records.append
            for key in keys:
                location = lookup(key)
                if location is None:
                    append(None)
                else:
                    seg_index, offset, length = location
                    append(bytes(views[seg_index][offset:offset + length]))
            return records

    def contains(self, key: bytes) -> bool:
        with self._lock:
            return key in self._index

    def delete(self, key: bytes) -> bool:
        with self._lock:
            location = self._index.pop(key, None)
            if location is None:
                return False
            self._live_bytes -= location[2]
            self._dead_bytes += location[2]
            return True

    def scan(self, prefix: bytes) -> List[bytes]:
        with self._lock:
            return [key for key in self._index if key.startswith(prefix)]

    def share(self, key: bytes) -> Tuple[str, str, int, int]:
        """-> ``("shm", segment name, offset, length)`` — picklable, tiny.

        Valid until this store is closed; the addressed bytes are never
        rewritten (overwrites append), so a stale locator reads the old
        record rather than garbage.
        """
        with self._lock:
            location = self._index.get(key)
            if location is None:
                raise KeyError(f"no record under {key!r}")
            seg_index, offset, length = location
            return ("shm", self._segments[seg_index].name, offset, length)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._index.clear()
        self._finalizer()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "kind": self.kind,
                "remote": self.remote,
                "entries": len(self._index),
                "payload_bytes": self._live_bytes,
                "dead_bytes": self._dead_bytes,
                "segments": len(self._segments),
                "segment_bytes": sum(s.size for s in self._segments),
            }
