"""Binary framed codec for the wire and storage layers.

Every payload the platform moves — chat batches over HTTP, play batches,
stream-event responses, red-dot lists, session snapshots in SQLite — is a
strict-JSON value tree (the codec dict forms of
:mod:`repro.platform.codecs`).  JSON text is a fine default for those
trees, but at firehose rates it taxes every event twice: CPU on
``json.dumps``/``loads`` and bytes on the redundant keys every record in a
batch repeats.  This module encodes the *same* trees as compact framed
binary blobs:

* **fixed header** — magic, version, flags, declared payload size and a
  CRC32 over header and stored bytes, so a truncated or bit-flipped blob
  is rejected with a typed :class:`CodecError` instead of decoding into
  silent garbage;
* **string table** — every string (dict keys above all: a 512-message chat
  batch repeats ``"timestamp"``/``"user"``/``"text"`` 512 times in JSON)
  is interned once and referenced by index;
* **columnar batches** — a list of records with identical keys (exactly
  what a chat or play batch is) is encoded per *column*: an all-float
  column is one ``struct`` pack of binary64 values, an all-int column one
  pack of int64s — no per-value tags, no per-record keys;
* **optional zlib** — payloads at or above a threshold are deflated when
  that actually wins; the header's declared size is always the
  *uncompressed* size, checked by :func:`decode_frame` **before**
  decompression so a caller's entity cap cannot be blown by a tiny
  zip-bomb frame.

The codec is held to the JSON path's bar: for any value tree
``json.dumps(..., allow_nan=False)`` accepts,
``decode_frame(encode_frame(tree))`` equals ``json.loads(json.dumps(tree))``
— same types (``1`` stays ``int``, ``1.0`` stays ``float``, tuples become
lists, non-string keys coerce exactly as JSON coerces them), same float
bits.  Values JSON rejects are rejected the same way: a non-finite float
raises :class:`CodecError` (a ``ValueError``, like ``allow_nan=False``),
an unsupported object type raises ``TypeError`` (like ``json.dumps``).
``tests/test_wire.py`` pins both directions with hypothesis.

Frame layout (all integers big-endian)::

    offset  size  field
    0       4     magic  b"RBF1"
    4       1     version (1)
    5       1     flags   (bit 0: payload is zlib-deflated)
    6       4     raw_len — size of the *uncompressed* payload in bytes
    10      4     CRC32 over bytes 0..9 plus the stored payload
    14      ...   stored payload (raw, or deflated when flag bit 0 is set)

The payload is a string table (count, then length-prefixed UTF-8 entries)
followed by one tagged value tree.  Versioning rule: a decoder rejects any
version or flag bit it does not know — compatible extensions must use a
new tag inside the payload, incompatible ones must bump the version byte.
See ``docs/wire_format.md``.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from typing import Any

from repro.utils.validation import ValidationError

__all__ = [
    "CodecError",
    "CodecTooLargeError",
    "DEFAULT_COMPRESS_THRESHOLD",
    "HEADER_SIZE",
    "JSON_CONTENT_TYPE",
    "MAGIC",
    "VERSION",
    "WIRE_CODECS",
    "WIRE_CONTENT_TYPE",
    "decode_frame",
    "decode_json",
    "encode_frame",
]

JSON_CONTENT_TYPE = "application/json"
WIRE_CONTENT_TYPE = "application/x-repro-binary"
WIRE_CODECS = ("json", "binary")

MAGIC = b"RBF1"
VERSION = 1

_FLAG_ZLIB = 0x01
_KNOWN_FLAGS = _FLAG_ZLIB

_HEADER = struct.Struct("!4sBBII")  # magic, version, flags, raw_len, crc32
HEADER_SIZE = _HEADER.size
_CRC_OFFSET = HEADER_SIZE - 4  # the CRC field itself is excluded from the CRC

# Deflate only payloads this size or larger: small frames (single events,
# health payloads) spend more header than they save.  Level 1 because the
# codec's job is cutting wire/disk bytes without moving the CPU bill from
# json.dumps to zlib.
DEFAULT_COMPRESS_THRESHOLD = 1024
_COMPRESS_LEVEL = 1

# Value tags.
(
    _T_NULL,
    _T_FALSE,
    _T_TRUE,
    _T_INT,
    _T_FLOAT,
    _T_STR,
    _T_LIST,
    _T_DICT,
    _T_TABLE,
    _T_BIGINT,
) = range(10)

# Column tags inside a _T_TABLE.
_C_FLOAT, _C_INT, _C_STR, _C_MIXED = range(4)

_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_U32_MAX = 0xFFFFFFFF


class CodecError(ValidationError):
    """A blob the binary codec refuses: corrupt, truncated or unencodable.

    A ``ValidationError`` (hence ``ValueError``) on purpose: the gateway
    maps it to ``400`` like every other malformed payload, and the storage
    layer's strict-JSON write contract (``put_session_snapshot`` must raise
    ``ValueError`` on a non-finite float) holds unchanged under the binary
    codec.
    """


class CodecTooLargeError(CodecError):
    """The frame declares a decoded entity larger than the caller's cap.

    Raised from the *header alone*, before any decompression: the declared
    ``raw_len`` is what the caller would have to materialise, so a
    compressed frame cannot smuggle an over-cap entity past the check.
    The gateway maps it to ``413``.
    """

    def __init__(self, raw_len: int, max_raw_bytes: int) -> None:
        super().__init__(
            f"frame declares a {raw_len}-byte decoded entity, "
            f"over the {max_raw_bytes}-byte cap"
        )
        self.raw_len = raw_len
        self.max_raw_bytes = max_raw_bytes


def _key_str(key: Any) -> str:
    """Coerce a dict key exactly as ``json.dumps`` does (or refuse as it does)."""
    if isinstance(key, str):
        return key
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    if isinstance(key, float):
        if not math.isfinite(key):
            raise CodecError("dict keys must be finite (non-finite float key)")
        return float.__repr__(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


class _Encoder:
    """One-pass tree encoder with string interning."""

    def __init__(self) -> None:
        self.tree = bytearray()
        self.strings: list[bytes] = []
        self._index: dict[str, int] = {}

    def intern(self, text: str) -> int:
        ref = self._index.get(text)
        if ref is None:
            ref = len(self.strings)
            self._index[text] = ref
            self.strings.append(text.encode("utf-8"))
        return ref

    def value(self, obj: Any) -> None:
        out = self.tree
        if obj is None:
            out.append(_T_NULL)
        elif isinstance(obj, bool):  # before int: bool is an int subclass
            out.append(_T_TRUE if obj else _T_FALSE)
        elif isinstance(obj, int):
            if _INT64_MIN <= obj <= _INT64_MAX:
                out.append(_T_INT)
                out += _I64.pack(obj)
            else:
                data = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
                out.append(_T_BIGINT)
                out += _U32.pack(len(data))
                out += data
        elif isinstance(obj, float):
            if not math.isfinite(obj):
                raise CodecError(
                    "non-finite float is not encodable (strict-JSON parity with "
                    "allow_nan=False)"
                )
            out.append(_T_FLOAT)
            out += _F64.pack(obj)
        elif isinstance(obj, str):
            out.append(_T_STR)
            out += _U32.pack(self.intern(obj))
        elif isinstance(obj, (list, tuple)):
            if not self._try_table(obj):
                out.append(_T_LIST)
                out += _U32.pack(len(obj))
                for item in obj:
                    self.value(item)
        elif isinstance(obj, dict):
            out.append(_T_DICT)
            out += _U32.pack(len(obj))
            for key, item in obj.items():
                out += _U32.pack(self.intern(_key_str(key)))
                self.value(item)
        else:
            raise TypeError(
                f"object of type {type(obj).__name__} has no binary encoding "
                "(not JSON-serializable)"
            )

    def _try_table(self, items) -> bool:
        """Columnar fast path for a batch: ≥2 records with identical str keys."""
        if len(items) < 2:
            return False
        first = items[0]
        if not isinstance(first, dict) or not first:
            return False
        keys = list(first.keys())
        if not all(isinstance(key, str) for key in keys):
            return False
        for item in items:
            if type(item) is not dict or list(item.keys()) != keys:
                return False
        out = self.tree
        out.append(_T_TABLE)
        out += _U32.pack(len(items))
        out += _U32.pack(len(keys))
        for key in keys:
            out += _U32.pack(self.intern(key))
            self._column([item[key] for item in items])
        return True

    def _column(self, values: list) -> None:
        out = self.tree
        # type() (not isinstance) keeps the per-value int/float/bool
        # distinction: a [1, 2.0] column must stay mixed to round-trip
        # type-exactly, and bools must never sneak into an int column.
        if all(type(value) is float for value in values):
            for value in values:
                if not math.isfinite(value):
                    raise CodecError(
                        "non-finite float is not encodable (strict-JSON parity "
                        "with allow_nan=False)"
                    )
            out.append(_C_FLOAT)
            out += struct.pack(f"!{len(values)}d", *values)
        elif all(
            type(value) is int and _INT64_MIN <= value <= _INT64_MAX
            for value in values
        ):
            out.append(_C_INT)
            out += struct.pack(f"!{len(values)}q", *values)
        elif all(type(value) is str for value in values):
            out.append(_C_STR)
            for value in values:
                out += _U32.pack(self.intern(value))
        else:
            out.append(_C_MIXED)
            for value in values:
                self.value(value)


def encode_frame(
    value: Any,
    *,
    compress_threshold: int | None = DEFAULT_COMPRESS_THRESHOLD,
    compress_level: int = _COMPRESS_LEVEL,
) -> bytes:
    """Encode one strict-JSON value tree as a framed binary blob.

    ``compress_threshold=None`` disables compression outright; otherwise
    payloads at or above the threshold are deflated when that is actually
    smaller.  Raises :class:`CodecError` for non-finite floats and
    ``TypeError`` for non-JSON-serializable objects — the same split
    ``json.dumps(..., allow_nan=False)`` makes.
    """
    encoder = _Encoder()
    encoder.value(value)
    table = bytearray(_U32.pack(len(encoder.strings)))
    for data in encoder.strings:
        table += _U32.pack(len(data))
        table += data
    raw = bytes(table + encoder.tree)
    if len(raw) > _U32_MAX:
        raise CodecError(f"payload of {len(raw)} bytes overflows the u32 frame size")
    stored, flags = raw, 0
    if compress_threshold is not None and len(raw) >= compress_threshold:
        packed = zlib.compress(raw, compress_level)
        if len(packed) < len(raw):
            stored, flags = packed, _FLAG_ZLIB
    prefix = struct.pack("!4sBBI", MAGIC, VERSION, flags, len(raw))
    crc = zlib.crc32(stored, zlib.crc32(prefix)) & 0xFFFFFFFF
    return prefix + _U32.pack(crc) + stored


class _Decoder:
    """Bounds-checked reader over one decompressed payload."""

    def __init__(self, raw: bytes) -> None:
        self.raw = raw
        self.pos = 0
        self.strings: list[str] = []

    def take(self, size: int) -> bytes:
        end = self.pos + size
        if end > len(self.raw):
            raise CodecError("frame payload is truncated")
        chunk = self.raw[self.pos : end]
        self.pos = end
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def _guard_count(self, count: int, min_bytes: int) -> int:
        """Refuse counts no well-formed payload of this size could hold."""
        if count * min_bytes > len(self.raw) - self.pos:
            raise CodecError(f"frame declares {count} items but the payload is shorter")
        return count

    def read_strings(self) -> None:
        count = self._guard_count(self.u32(), 4)
        # One loop over local offsets, not a take()/u32() call per entry.
        raw, pos, size = self.raw, self.pos, len(self.raw)
        length_at = _U32.unpack_from
        strings = self.strings
        for _ in range(count):
            start = pos + 4
            if start > size:
                raise CodecError("frame payload is truncated")
            pos = start + length_at(raw, pos)[0]
            if pos > size:
                raise CodecError("frame payload is truncated")
            try:
                strings.append(raw[start:pos].decode("utf-8"))
            except UnicodeDecodeError as error:
                raise CodecError("string table entry is not valid UTF-8") from error
        self.pos = pos

    def string(self) -> str:
        ref = self.u32()
        if ref >= len(self.strings):
            raise CodecError(f"string reference {ref} is out of table range")
        return self.strings[ref]

    def value(self) -> Any:
        pos = self.pos
        if pos >= len(self.raw):
            raise CodecError("frame payload is truncated")
        tag = self.raw[pos]
        self.pos = pos + 1
        if tag == _T_NULL:
            return None
        if tag == _T_FALSE:
            return False
        if tag == _T_TRUE:
            return True
        if tag == _T_INT:
            return _I64.unpack(self.take(8))[0]
        if tag == _T_FLOAT:
            return _finite(_F64.unpack(self.take(8))[0])
        if tag == _T_STR:
            return self.string()
        if tag == _T_LIST:
            return [self.value() for _ in range(self._guard_count(self.u32(), 1))]
        if tag == _T_DICT:
            count = self._guard_count(self.u32(), 5)
            result: dict[str, Any] = {}
            for _ in range(count):
                # Two statements on purpose: in `d[k()] = v()` Python
                # evaluates v() first, which would swap the read order.
                key = self.string()
                result[key] = self.value()
            return result
        if tag == _T_TABLE:
            return self._table()
        if tag == _T_BIGINT:
            return int.from_bytes(self.take(self.u32()), "big", signed=True)
        raise CodecError(f"unknown value tag {tag}")

    def _table(self) -> list[dict]:
        n_rows = self.u32()
        n_cols = self._guard_count(self.u32(), 5)
        if n_rows < 2 or n_cols < 1:
            raise CodecError("malformed table: fewer than 2 rows or 1 column")
        columns: list[tuple[str, list]] = []
        for _ in range(n_cols):
            key = self.string()
            column_tag = self.take(1)[0]
            if column_tag == _C_FLOAT:
                values = list(struct.unpack(f"!{n_rows}d", self.take(8 * n_rows)))
                if not all(map(math.isfinite, values)):
                    raise CodecError("frame carries a non-finite float")
            elif column_tag == _C_INT:
                values = list(struct.unpack(f"!{n_rows}q", self.take(8 * n_rows)))
            elif column_tag == _C_STR:
                refs = struct.unpack(f"!{n_rows}I", self.take(4 * n_rows))
                if max(refs) >= len(self.strings):
                    raise CodecError(f"string reference {max(refs)} is out of table range")
                values = list(map(self.strings.__getitem__, refs))
            elif column_tag == _C_MIXED:
                values = [self.value() for _ in range(n_rows)]
            else:
                raise CodecError(f"unknown column tag {column_tag}")
            columns.append((key, values))
        return [
            {key: values[row] for key, values in columns} for row in range(n_rows)
        ]


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise CodecError("frame carries a non-finite float")
    return value


def _refuse_constant(name: str) -> None:
    raise json.JSONDecodeError(f"{name} is not a JSON number", name, 0)


def decode_json(data: bytes) -> Any:
    """Decode a JSON body as strictly as :func:`decode_frame` decodes a frame.

    ``json.loads`` accepts ``NaN`` and ``Infinity``, which
    ``json.dumps(..., allow_nan=False)`` never writes; refusing them here
    gives both codecs the same decode-side rule.  Raises ``ValueError``.
    """
    return json.loads(data.decode("utf-8"), parse_constant=_refuse_constant)


def decode_frame(blob: bytes, *, max_raw_bytes: int | None = None) -> Any:
    """Decode one framed binary blob back into its value tree.

    Raises :class:`CodecError` on anything that is not a byte-exact,
    CRC-verified frame — wrong magic, unknown version or flags, truncation,
    a flipped bit anywhere, trailing garbage, or a payload that does not
    decode cleanly.  With ``max_raw_bytes`` set, a frame whose *declared
    uncompressed size* exceeds the cap raises :class:`CodecTooLargeError`
    before any decompression happens.
    """
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise CodecError(
            f"binary frames are bytes, not {type(blob).__name__}"
        )
    blob = bytes(blob)
    if len(blob) < HEADER_SIZE:
        raise CodecError(
            f"truncated frame: {len(blob)} bytes is shorter than the "
            f"{HEADER_SIZE}-byte header"
        )
    magic, version, flags, raw_len, crc = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CodecError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise CodecError(f"unsupported frame version {version} (decoder speaks {VERSION})")
    if flags & ~_KNOWN_FLAGS:
        raise CodecError(f"unknown frame flags 0x{flags:02x}")
    if max_raw_bytes is not None and raw_len > max_raw_bytes:
        raise CodecTooLargeError(raw_len, max_raw_bytes)
    stored = blob[HEADER_SIZE:]
    actual = zlib.crc32(stored, zlib.crc32(blob[:_CRC_OFFSET])) & 0xFFFFFFFF
    if actual != crc:
        raise CodecError("frame CRC mismatch: the blob is corrupt or truncated")
    if flags & _FLAG_ZLIB:
        # Bound the inflate at the declared size: a frame that lies small
        # in raw_len must fail the length check below without ever
        # materialising more than raw_len + 1 bytes.
        inflater = zlib.decompressobj()
        try:
            raw = inflater.decompress(stored, raw_len + 1)
        except zlib.error as error:
            raise CodecError(f"frame decompression failed: {error}") from error
        if inflater.unconsumed_tail or not inflater.eof:
            raise CodecError(
                f"frame zlib stream does not fit its declared "
                f"{raw_len} payload byte(s)"
            )
    else:
        raw = stored
    if len(raw) != raw_len:
        raise CodecError(
            f"frame declares {raw_len} payload byte(s) but carries {len(raw)}"
        )
    decoder = _Decoder(raw)
    try:
        decoder.read_strings()
        value = decoder.value()
    except (struct.error, IndexError, OverflowError, MemoryError) as error:
        raise CodecError(f"malformed frame payload: {error}") from error
    if decoder.pos != len(raw):
        raise CodecError(
            f"{len(raw) - decoder.pos} trailing byte(s) after the payload"
        )
    return value
