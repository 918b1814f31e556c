"""Record codec and the in-memory reference BackingStore."""

import pytest

from repro.distdht import backing
from repro.distdht.backing import (
    TOMBSTONE,
    InMemoryBackingStore,
    decode_record,
    encode_key,
    encode_record,
    fetch,
    is_tombstone,
    record_size,
)


class TestRecordCodec:
    @pytest.mark.parametrize("value,size", [
        (42, 8), ("hello", 13), ((1, "a", None), 64),
        ([0] * 100, 808), ({"k": (2, 3)}, 72),
    ])
    def test_roundtrip_preserves_value_and_recorded_size(self, value, size):
        record = encode_record(value, size)
        decoded = decode_record(record)
        assert decoded is not None
        assert decoded[0] == value
        assert decoded[1] == size
        assert record_size(record) == size

    def test_tombstone_decodes_to_none(self):
        assert decode_record(TOMBSTONE) is None
        assert is_tombstone(TOMBSTONE)
        assert not is_tombstone(encode_record("live", 12))

    def test_encode_key_is_stable_and_injective_enough(self):
        # the byte encoding is the cross-process identity of a key
        assert encode_key((3, "x")) == encode_key((3, "x"))
        assert encode_key((3, "x")) != encode_key((3, "y"))
        assert encode_key(1) != encode_key("1")


class TestInMemoryBackingStore:
    def test_stats_report_kind(self):
        store = InMemoryBackingStore()
        assert store.stats()["kind"] == "mem"
        assert store.remote is False


class TestFetchRegistry:
    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError, match="unknown locator tag"):
            fetch(("no-such-tag", "x"))

    def test_registered_tags_cover_shipped_backends(self):
        # importing the package registers the shm and dht resolvers
        import repro.distdht  # noqa: F401
        assert "shm" in backing._FETCHERS
        assert "dht" in backing._FETCHERS
