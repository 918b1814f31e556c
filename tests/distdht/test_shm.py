"""Shared-memory backing store: segments, locators, cross-process reads."""

import multiprocessing
import pickle

import pytest

from repro.distdht.backing import fetch
from repro.distdht.shm import SharedMemoryBackingStore


@pytest.fixture
def store():
    with SharedMemoryBackingStore(segment_bytes=1024) as shm_store:
        yield shm_store


class TestBasicOps:
    def test_segments_grow_geometrically(self, store):
        # 1 KiB first segment; pushing ~8 KiB of records must add
        # segments without losing any earlier record
        for index in range(32):
            store.put(f"k{index}".encode(), bytes(256))
        stats = store.stats()
        assert stats["segments"] > 1
        assert all(store.get(f"k{index}".encode()) == bytes(256)
                   for index in range(32))

    def test_record_larger_than_segment_still_fits(self, store):
        big = bytes(8192)  # 8x the configured segment size
        store.put(b"big", big)
        assert store.get(b"big") == big

    def test_overwrites_account_dead_bytes(self, store):
        store.put(b"k", bytes(100))
        store.put(b"k", bytes(100))
        stats = store.stats()
        assert stats["dead_bytes"] == 100
        assert stats["payload_bytes"] == 100

    def test_closed_store_rejects_writes(self):
        store = SharedMemoryBackingStore()
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.put(b"k", b"v")
        store.close()  # idempotent


class TestLocators:
    def test_share_and_fetch_same_process(self, store):
        store.put(b"k", b"payload")
        locator = store.share(b"k")
        assert locator[0] == "shm"
        assert fetch(locator) == b"payload"

    def test_share_missing_key_raises(self, store):
        with pytest.raises(KeyError):
            store.share(b"nope")

    def test_stale_locator_reads_old_record_after_overwrite(self, store):
        # overwrites append and move the index; a locator held across an
        # overwrite still addresses consistent (old) bytes, never garbage
        store.put(b"k", b"old-bytes")
        locator = store.share(b"k")
        store.put(b"k", b"new-bytes")
        assert fetch(locator) == b"old-bytes"
        assert fetch(store.share(b"k")) == b"new-bytes"

    def test_locator_is_small_and_picklable(self, store):
        store.put(b"k", bytes(4096))
        locator = store.share(b"k")
        assert len(pickle.dumps(locator)) < 128


def _child_fetch(locator, queue):
    from repro.distdht.backing import fetch as child_fetch
    try:
        queue.put(("ok", child_fetch(locator)))
    except Exception as error:  # noqa: BLE001 - report to the parent
        queue.put(("error", repr(error)))


class TestCrossProcess:
    def test_child_process_reads_via_locator(self, store):
        store.put(b"k", b"cross-process-payload")
        locator = store.share(b"k")
        queue = multiprocessing.Queue()
        child = multiprocessing.Process(target=_child_fetch,
                                        args=(locator, queue))
        child.start()
        try:
            outcome, payload = queue.get(timeout=30)
        finally:
            child.join(timeout=30)
        assert outcome == "ok", payload
        assert payload == b"cross-process-payload"
        # the creator still owns the segment: reads keep working after
        # the reader process exited (it must not have unlinked anything)
        assert store.get(b"k") == b"cross-process-payload"
        assert fetch(store.share(b"k")) == b"cross-process-payload"
