"""The byte-level KV contract every real DHT backend implements.

A :class:`BackingStore` maps opaque byte keys to opaque byte records.  The
lane of a backed store (:class:`~repro.distdht.store.BackedLane`) sits
above it: keys are encoded Python keys under a per-lane namespace, and
records are written by the codec below, which only ever builds ints,
floats, bools, strings, bytes and plain containers out of bytes it reads
from shared memory or a socket.

**Record format.**  A record is a whole number of little-endian 8-byte
words:

* word 0 — the write-time :func:`~repro.ampc.cost_model.estimate_bytes`
  size every read charges (so reads never re-walk values), or -1 for
  :data:`TOMBSTONE`, the header-only record a copy-on-write overlay
  writes for a shadow-delete;
* word 1 — the shape: ``form | fields << 4 | float mask << 8 | rows << 16``;
* the body.

The fixed-width forms cover what the AMPC algorithms store: a scalar int
or float (``FORM_SCALAR``), a tuple of same-typed scalars (``FORM_FLAT``,
an adjacency list) and a tuple of ``fields``-tuples whose fields are
typed column by column (``FORM_ROWS``, the (rank, neighbor) and
(neighbor, weight) lists).  Their bodies are the rows, row-major, one
int64 or float64 word per field (bit ``f`` of the mask marks a float
field).  Anything else — bools, big ints, strings, nested or mixed
containers — is ``FORM_GENERAL``: ``rows`` counts the bytes of a tagged
recursive encoding (:func:`encode_key` uses the same one) that follows,
zero-padded to a word.  Decoding returns exactly the types written.

Because fixed-width records are just words, a batch of them decodes to
columns in one ``np.frombuffer`` pass (:class:`RecordBlock`), and
:func:`encode_columnar` writes a whole
:class:`~repro.ampc.columnar.ColumnarRecords` in one.

Cross-process distribution goes through the ``share``/``fetch`` pair: the
writing process turns a key into a small picklable *locator*, ships the
locator (never the record), and any process resolves it with
:func:`fetch` — reading the bytes out of shared memory or off a DHT node,
with replica failover where the backend supports it.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache
from itertools import starmap
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ampc.columnar import ValueBlock

_WORD = struct.Struct("<q")
_HEADER = struct.Struct("<qq")
_FLOAT = struct.Struct("<d")
_LENGTH = struct.Struct("<I")
#: record size-field sentinel marking a tombstone (a shadow-delete in a
#: derived store's overlay)
TOMBSTONE_SIZE = -1
#: a complete tombstone record (header only, no payload)
TOMBSTONE = _WORD.pack(TOMBSTONE_SIZE)

FORM_SCALAR = 1
FORM_FLAT = 2
FORM_ROWS = 3
FORM_GENERAL = 4
#: most fields a fixed-width row may have (the float mask is one byte)
MAX_FIELDS = 8
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_SHAPE_EMPTY = FORM_FLAT | 1 << 4  # the empty tuple, whatever its rows hold
_SHAPE_INT = FORM_SCALAR | 1 << 4 | 1 << 16
_SHAPE_FLOAT = FORM_SCALAR | 1 << 4 | 1 << 8 | 1 << 16
_SCALAR_INT = struct.Struct("<qqq")
_SCALAR_FLOAT = struct.Struct("<qqd")
_INT64 = np.dtype(np.int64)
_FLOAT64 = np.dtype(np.float64)


# -- the tagged general encoding (keys, and values of no fixed shape) ------


def _encode_into(obj: Any, out: List[bytes]) -> None:
    kind = type(obj)
    if kind is int:
        if _INT64_MIN <= obj <= _INT64_MAX:
            out.append(b"i" + _WORD.pack(obj))
        else:
            data = obj.to_bytes(obj.bit_length() // 8 + 1, "little",
                                signed=True)
            out.append(b"I" + _LENGTH.pack(len(data)) + data)
    elif kind is float:
        out.append(b"f" + _FLOAT.pack(obj))
    elif obj is None:
        out.append(b"N")
    elif kind is bool:
        out.append(b"T" if obj else b"F")
    elif kind is str or kind is bytes:
        data = obj.encode("utf-8", "surrogatepass") if kind is str else obj
        out.append((b"s" if kind is str else b"b")
                   + _LENGTH.pack(len(data)) + data)
    elif kind is tuple or kind is list:
        out.append((b"t" if kind is tuple else b"l") + _LENGTH.pack(len(obj)))
        for item in obj:
            _encode_into(item, out)
    elif kind is dict:
        out.append(b"d" + _LENGTH.pack(len(obj)))
        for key, value in obj.items():
            _encode_into(key, out)
            _encode_into(value, out)
    elif kind is set or kind is frozenset:
        # sorted encodings: equal sets encode alike in every process
        items = sorted(encode_key(item) for item in obj)
        out.append((b"S" if kind is set else b"z") + _LENGTH.pack(len(items)))
        out.extend(items)
    else:
        raise TypeError(
            f"the record codec cannot encode {kind.__name__} values")


def _decode_at(data: bytes, pos: int) -> Tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == 0x69:  # i
        return _WORD.unpack_from(data, pos)[0], pos + 8
    if tag == 0x66:  # f
        return _FLOAT.unpack_from(data, pos)[0], pos + 8
    if tag == 0x4E:  # N
        return None, pos
    if tag == 0x54 or tag == 0x46:  # T F
        return tag == 0x54, pos
    if tag not in b"IsbtldSz":
        raise ValueError(f"unknown codec tag {tag:#x}")
    length = _LENGTH.unpack_from(data, pos)[0]
    pos += 4
    if tag in b"Isb":
        end = pos + length
        if end > len(data):
            raise ValueError("truncated record")
        chunk = data[pos:end]
        if tag == 0x49:  # I
            return int.from_bytes(chunk, "little", signed=True), end
        if tag == 0x73:  # s
            return chunk.decode("utf-8", "surrogatepass"), end
        return bytes(chunk), end
    if length > len(data) - pos:  # every item takes at least one byte
        raise ValueError("truncated record")
    items = []
    for _ in range(length * 2 if tag == 0x64 else length):
        item, pos = _decode_at(data, pos)
        items.append(item)
    if tag == 0x74:  # t
        return tuple(items), pos
    if tag == 0x6C:  # l
        return items, pos
    if tag == 0x64:  # d
        return dict(zip(items[0::2], items[1::2])), pos
    return (set if tag == 0x53 else frozenset)(items), pos


def _decode_general(data: bytes, start: int, end: int) -> Any:
    try:
        value, pos = _decode_at(data, start)
    except (struct.error, IndexError, TypeError, OverflowError,
            RecursionError) as error:
        raise ValueError(f"malformed record: {error!r}") from None
    if pos != end:
        raise ValueError("malformed record: trailing bytes")
    return value


def encode_key(key: Any) -> bytes:
    """Deterministic byte encoding of a store key (the tagged encoding:
    a one-byte type tag, so ``1``, ``1.0``, ``True`` and ``"1"`` differ).
    """
    if type(key) is int and _INT64_MIN <= key <= _INT64_MAX:
        return b"i" + _WORD.pack(key)
    out: List[bytes] = []
    _encode_into(key, out)
    return b"".join(out)


def decode_key(data: bytes) -> Any:
    if not data:
        raise ValueError("empty key")
    return _decode_general(data, 0, len(data))


def encode_int_keys(prefix: bytes, keys) -> List[bytes]:
    """``[prefix + encode_key(k) for k in keys]`` for an int64 column, in
    one vectorised pass."""
    keys = np.asarray(keys, dtype="<i8")
    width = len(prefix) + 9
    raw = np.empty((len(keys), width), dtype=np.uint8)
    raw[:, :len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    raw[:, len(prefix)] = ord("i")
    raw[:, len(prefix) + 1:] = keys.view(np.uint8).reshape(-1, 8)
    return raw.view(f"V{width}").ravel().tolist()


# -- records ------------------------------------------------------------


@lru_cache(maxsize=512)
def _struct(layout: str) -> struct.Struct:
    return struct.Struct(layout)


@lru_cache(maxsize=None)
def _row_codes(mask: int, fields: int) -> str:
    """The struct codes of one row: ``d`` for a float field, else ``q``."""
    return "".join("d" if mask >> field & 1 else "q"
                   for field in range(fields))


def _fixed_body(value: tuple) -> Optional[Tuple[int, bytes]]:
    """-> (shape word, body) when ``value`` has a fixed-width form, else
    None."""
    rows = len(value)
    if not rows:
        return _SHAPE_EMPTY, b""
    kinds = set(map(type, value))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    try:
        if kind is int or kind is float:
            code = "d" if kind is float else "q"
            return (FORM_FLAT | 1 << 4 | (kind is float) << 8 | rows << 16,
                    _struct(f"<{rows}{code}").pack(*value))
        if kind is not tuple:
            return None
        fields = len(value[0])
        if not 1 <= fields <= MAX_FIELDS:
            return None
        mask = 0
        for field, column in enumerate(zip(*value)):
            kinds = set(map(type, column))
            if kinds == {float}:
                mask |= 1 << field
            elif kinds != {int}:
                return None
        # a row of another width, or an int beyond int64, fails to pack
        body = b"".join(starmap(_struct("<" + _row_codes(mask, fields)).pack,
                                value))
    except struct.error:
        return None
    return FORM_ROWS | fields << 4 | mask << 8 | rows << 16, body


def encode_record(value: Any, size: int) -> bytes:
    """Pack ``(value, recorded size)`` into one record.

    The size is the write-time ``estimate_bytes`` of the value — the
    number every read charges — so a reader in another process never has
    to re-walk (or even decode) the value to account for it.
    """
    kind = type(value)
    if kind is int and _INT64_MIN <= value <= _INT64_MAX:
        return _SCALAR_INT.pack(size, _SHAPE_INT, value)
    if kind is float:
        return _SCALAR_FLOAT.pack(size, _SHAPE_FLOAT, value)
    if kind is tuple:
        fixed = _fixed_body(value)
        if fixed is not None:
            return _HEADER.pack(size, fixed[0]) + fixed[1]
    out: List[bytes] = []
    _encode_into(value, out)
    payload = b"".join(out)
    return (_HEADER.pack(size, FORM_GENERAL | len(payload) << 16) + payload
            + bytes(-len(payload) % 8))


@lru_cache(maxsize=1024)
def _fixed_layout(shape: int) -> Optional[Tuple[int, struct.Struct, str]]:
    """-> (record bytes, body struct, how the body unpacks: ``scalar``,
    ``flat`` or ``rows``) for a well-formed fixed-width shape word."""
    form = shape & 15
    fields = shape >> 4 & 15
    mask = shape >> 8 & 255
    rows = shape >> 16
    if shape < 0 or not 1 <= fields <= MAX_FIELDS or mask >> fields:
        return None
    codes = _row_codes(mask, fields)
    if form == FORM_SCALAR and fields == 1 and rows == 1:
        return 24, _struct("<" + codes), "scalar"
    if form == FORM_FLAT and fields == 1:
        return 16 + 8 * rows, _struct(f"<{rows}{codes}"), "flat"
    if form == FORM_ROWS:
        return 16 + 8 * fields * rows, _struct("<" + codes), "rows"
    return None


def decode_record(data: bytes) -> Optional[Tuple[Any, int]]:
    """-> (value, recorded size), or None for a tombstone record.

    Raises ValueError on anything that is not a whole record.
    """
    if len(data) < 16:
        if data == TOMBSTONE:
            return None
        raise ValueError(f"malformed record of {len(data)} bytes")
    size, shape = _HEADER.unpack_from(data)
    if size < 0:
        raise ValueError("malformed record header")
    if shape & 15 == FORM_GENERAL:
        payload = shape >> 16
        if shape < 0 or len(data) != 16 + (payload + 7) // 8 * 8:
            raise ValueError("malformed record header")
        return _decode_general(data, 16, 16 + payload), size
    layout = _fixed_layout(shape)
    if layout is None or len(data) != layout[0]:
        raise ValueError("malformed record header")
    _, body, unpacks = layout
    if unpacks == "rows":
        return tuple(body.iter_unpack(memoryview(data)[16:])), size
    value = body.unpack_from(data, 16)
    return (value[0] if unpacks == "scalar" else value), size


def record_size(data: bytes) -> int:
    """The recorded size field alone (no value decoding)."""
    if len(data) < 8:
        raise ValueError(f"malformed record of {len(data)} bytes")
    return _WORD.unpack_from(data)[0]


def is_tombstone(data: bytes) -> bool:
    return data == TOMBSTONE


def encode_columnar(records) -> Optional[List[bytes]]:
    """Every record of a :class:`~repro.ampc.columnar.ColumnarRecords`,
    byte-identical to ``encode_record`` of its boxed items, in one numpy
    pass — or None for a layout the fixed-width forms do not cover (a
    bool or uint64 column, multi-column scalars), which the caller then
    writes boxed."""
    cols = records.cols
    if len(cols) > MAX_FIELDS:
        return None
    mask = 0
    for field, col in enumerate(cols):
        kind = col.dtype.kind
        if kind == "f":
            mask |= 1 << field
        elif not (kind == "i" or (kind == "u" and col.dtype.itemsize < 8)):
            return None
    fields = len(cols)
    sizes = records.value_sizes()
    if records.indptr is None:
        if fields != 1:
            return None
        words = np.empty((len(sizes), 3), dtype="<i8")
        words[:, 0] = sizes
        words[:, 1] = _SHAPE_FLOAT if mask else _SHAPE_INT
        words[:, 2] = _field_words(cols[0], mask)
        return words.view("V24").ravel().tolist()
    indptr = records.indptr
    rows = np.diff(indptr)
    shapes = ((FORM_FLAT if fields == 1 else FORM_ROWS) | fields << 4
              | mask << 8 | rows << 16)
    shapes[rows == 0] = _SHAPE_EMPTY
    lengths = 2 + fields * rows
    ends = np.cumsum(lengths)
    starts = ends - lengths
    words = np.empty(int(ends[-1]) if len(ends) else 0, dtype="<i8")
    words[starts] = sizes
    words[starts + 1] = shapes
    body = np.ones(len(words), dtype=bool)
    body[starts] = False
    body[starts + 1] = False
    lo, hi = int(indptr[0]), int(indptr[-1])
    words[body] = np.column_stack([
        _field_words(col[lo:hi], mask >> field & 1)
        for field, col in enumerate(cols)]).ravel()
    data = words.tobytes()
    return [data[8 * start:8 * end]
            for start, end in zip(starts.tolist(), ends.tolist())]


def _field_words(col, is_float: int):
    """A column as the int64 words its record fields hold."""
    if is_float:
        return col.astype("<f8").view("<i8")
    return col.astype("<i8")


class RecordBlock(ValueBlock):
    """The answer to one batched read of a backed store, still as records.

    Built from the fetched records of the hit keys (in key order) and the
    sizes the local index holds for them: every record's header must
    carry exactly that size and a shape consistent with its length, else
    ValueError.  ``columns`` and ``scalars`` slice the records' words in
    one numpy pass when every hit has the fixed-width form asked for —
    equal to :func:`~repro.ampc.columnar.unbox_rows` of the decoded
    values; any other block, and ``values()``, decodes record by record.
    """

    __slots__ = ("_count", "_hits", "_records", "_words", "_starts",
                 "_shapes")

    def __init__(self, count: int, hits: Sequence[int],
                 records: Sequence[bytes], sizes: Sequence[int]):
        super().__init__(None)
        self._count = count
        self._hits = np.asarray(hits, dtype=np.int64)
        self._records = records
        lengths = np.fromiter(map(len, records), dtype=np.int64,
                              count=len(records))
        if ((lengths < 16) | (lengths % 8 != 0)).any():
            raise ValueError("batch holds a tombstone or a truncated record")
        words = np.frombuffer(b"".join(records), dtype="<i8")
        ends = np.cumsum(lengths // 8)
        starts = ends - lengths // 8
        heads = words[starts]
        mismatch = np.flatnonzero(heads != np.asarray(sizes, dtype=np.int64))
        if len(mismatch):
            bad = int(mismatch[0])
            raise ValueError(
                f"record header size {int(heads[bad])} does not match the "
                f"size index ({sizes[bad]}) at batch position "
                f"{int(self._hits[bad])}")
        shapes = words[starts + 1]
        form = shapes & 15
        expected = np.where(
            form == FORM_GENERAL, 2 + ((shapes >> 16) + 7) // 8,
            np.where(form == FORM_SCALAR, 3,
                     2 + (shapes >> 4 & 15) * (shapes >> 16)))
        if ((shapes < 0) | (form < FORM_SCALAR) | (form > FORM_GENERAL)
                | (expected != ends - starts)).any():
            raise ValueError("malformed record shape in batch")
        self._words = words
        self._starts = starts
        self._shapes = shapes

    def values(self) -> List[Any]:
        if self._values is None:
            values: List[Any] = [None] * self._count
            for position, record in zip(self._hits.tolist(), self._records):
                values[position] = decode_record(record)[0]
            self._values = values
        return self._values

    def _fixed(self, form: int, dtypes: Sequence) -> bool:
        """True when every hit is ``form`` with one field per dtype (or
        the empty tuple), each dtype is int64 or float64, and every
        int64 field holds ints."""
        kinds = [np.dtype(dtype) for dtype in dtypes]
        if any(kind not in (_INT64, _FLOAT64) for kind in kinds):
            return False
        shapes = self._shapes
        int_mask = sum(1 << field for field, kind in enumerate(kinds)
                       if kind == _INT64)
        same = ((shapes & 15) == form) & ((shapes >> 4 & 15) == len(kinds))
        if form != FORM_SCALAR:
            same |= shapes == _SHAPE_EMPTY
        return bool((same & ((shapes >> 8 & int_mask) == 0)).all())

    def _column(self, words, field: int, dtype, rows):
        """Field ``field`` of the rows in ``words`` as ``dtype``; a
        float64 field of an int-typed record converts like unbox_rows."""
        words = np.ascontiguousarray(words)
        if np.dtype(dtype) == _INT64:
            return words
        floats = (self._shapes >> 8 >> field & 1) == 1
        if floats.all():
            return words.view(np.float64)
        return np.where(np.repeat(floats, rows), words.view(np.float64),
                        words.astype(np.float64))

    def columns(self, dtypes: Optional[Sequence] = None):
        wanted = (np.int64,) if dtypes is None else tuple(dtypes)
        if not self._fixed(FORM_FLAT if dtypes is None else FORM_ROWS,
                           wanted):
            return super().columns(dtypes)
        rows = self._shapes >> 16
        counts = np.zeros(self._count, dtype=np.int64)
        counts[self._hits] = rows
        body = np.ones(len(self._words), dtype=bool)
        body[self._starts] = False
        body[self._starts + 1] = False
        flat = self._words[body].reshape(-1, len(wanted))
        return counts, tuple(self._column(flat[:, field], field, dtype, rows)
                             for field, dtype in enumerate(wanted))

    def scalars(self, dtype=np.int64, missing=-1):
        if not self._fixed(FORM_SCALAR, (dtype,)):
            return super().scalars(dtype, missing)
        out = np.full(self._count, missing, dtype=dtype)
        out[self._hits] = self._column(self._words[self._starts + 2], 0,
                                       dtype, 1)
        return out


def record_digest(record: bytes) -> bytes:
    """8-byte content digest of a raw record.

    The anti-entropy sweep compares these across replicas instead of
    shipping the records themselves; node servers and the repair client
    must therefore agree on this exact function.
    """
    return hashlib.blake2b(record, digest_size=8).digest()


class BackingStore:
    """Abstract byte-level KV store.

    Implementations must provide :meth:`put`, :meth:`get`, :meth:`delete`
    and :meth:`scan`; the batched and prefix operations have loop
    defaults that subclasses override when the transport can do better
    (the socket backend turns them into single round trips).
    """

    #: backends whose records live outside this process's heap (the
    #: socket backend) report True, and the Session cache then sizes
    #: their artifacts by index overhead instead of payload bytes
    remote = False

    #: human-readable backend kind ("mem" / "shm" / "socket")
    kind = "abstract"

    # -- required primitives ---------------------------------------------

    def put(self, key: bytes, record: bytes) -> None:
        raise NotImplementedError

    def get(self, key: bytes) -> Optional[bytes]:
        raise NotImplementedError

    def delete(self, key: bytes) -> bool:
        raise NotImplementedError

    def scan(self, prefix: bytes) -> List[bytes]:
        """All stored keys starting with ``prefix`` (order unspecified)."""
        raise NotImplementedError

    # -- batched / prefix defaults ---------------------------------------

    def put_many(self, items: Sequence[Tuple[bytes, bytes]]) -> None:
        for key, record in items:
            self.put(key, record)

    def get_many(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        return [self.get(key) for key in keys]

    def contains(self, key: bytes) -> bool:
        return self.get(key) is not None

    def delete_prefix(self, prefix: bytes) -> int:
        """Drop every key under ``prefix``; returns how many were live."""
        count = 0
        for key in self.scan(prefix):
            if self.delete(key):
                count += 1
        return count

    # -- cross-process distribution --------------------------------------

    def share(self, key: bytes) -> Any:
        """A small picklable locator another process resolves via fetch().

        The default locator re-reads through a reconnected store, which
        only in-process backends can satisfy; shared backends override.
        """
        raise NotImplementedError(
            f"{type(self).__name__} cannot share records across processes"
        )

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Release OS resources (segments, sockets).  Idempotent."""

    def stats(self) -> Dict[str, Any]:
        return {"kind": self.kind, "remote": self.remote}

    def __enter__(self) -> "BackingStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class InMemoryBackingStore(BackingStore):
    """The reference implementation: a plain dict.

    Functionally identical to the simulated store's storage (plus the
    record codec round trip), so it doubles as the conformance oracle for
    the real backends and as a cheap ``backend="mem"`` for tests.
    """

    kind = "mem"

    def __init__(self) -> None:
        self._data: Dict[bytes, bytes] = {}

    def put(self, key: bytes, record: bytes) -> None:
        self._data[key] = record

    def get(self, key: bytes) -> Optional[bytes]:
        return self._data.get(key)

    def delete(self, key: bytes) -> bool:
        return self._data.pop(key, None) is not None

    def contains(self, key: bytes) -> bool:
        return key in self._data

    def scan(self, prefix: bytes) -> List[bytes]:
        return [key for key in self._data if key.startswith(prefix)]

    def stats(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "remote": self.remote,
            "entries": len(self._data),
            "payload_bytes": sum(len(v) for v in self._data.values()),
        }


def fetch(locator: Any) -> bytes:
    """Resolve a locator produced by some store's :meth:`share`.

    Dispatches on the locator's leading tag; each backend registers its
    own resolver.  Raises ``KeyError``/``ConnectionError`` when the
    record is gone or every replica is unreachable.
    """
    tag = locator[0]
    resolver = _FETCHERS.get(tag)
    if resolver is None:
        raise ValueError(f"unknown locator tag {tag!r}")
    return resolver(locator)


#: locator tag -> resolver; populated by the backend modules on import
_FETCHERS: Dict[str, Any] = {}


def register_fetcher(tag: str, resolver) -> None:
    _FETCHERS[tag] = resolver


def scan_decoded(store: BackingStore, prefix: bytes) -> Iterable[Any]:
    """Decode the Python keys under a namespace prefix."""
    start = len(prefix)
    for key in store.scan(prefix):
        yield decode_key(key[start:])
