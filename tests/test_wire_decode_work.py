"""Decode work of the binary codec's columnar tables.

``tests/test_wire.py`` pins what a frame decodes to; this file pins how
much per-value Python the decoder spends on it.  A string column is read
with one ``struct`` unpack of its references and one lookup pass, so the
number of decoder method calls must not depend on the row count.
"""

from __future__ import annotations

import collections
import zlib

import pytest

from repro.platform import wire

_COUNTED = ("take", "u32", "string", "value", "_table", "read_strings")


def _decoder_calls(value) -> collections.Counter:
    calls: collections.Counter = collections.Counter()
    with pytest.MonkeyPatch.context() as patch:
        for name in _COUNTED:
            method = getattr(wire._Decoder, name)

            def counting(self, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, *args)

            patch.setattr(wire._Decoder, name, counting)
        assert wire.decode_frame(wire.encode_frame(value)) == value
    return calls


def _table(rows: int) -> list[dict]:
    """A table with one float and two string columns over a fixed vocabulary."""
    kinds = ["play", "pause", "seek_forward"]
    return [
        {"timestamp": float(row), "kind": kinds[row % 3], "user": f"user{row % 5}"}
        for row in range(rows)
    ]


@pytest.mark.parametrize("rows", [40, 800])
def test_str_column_decode_work_does_not_grow_per_row(rows):
    assert _decoder_calls(_table(rows)) == _decoder_calls(_table(5))


def _frame(payload: bytes) -> bytes:
    """``payload`` behind a valid uncompressed frame header."""
    prefix = wire.MAGIC + bytes([wire.VERSION, 0]) + len(payload).to_bytes(4, "big")
    crc = zlib.crc32(payload, zlib.crc32(prefix)) & 0xFFFFFFFF
    return prefix + crc.to_bytes(4, "big") + payload


def test_out_of_range_str_column_reference_is_refused():
    payload = wire.encode_frame([{"k": "a"}, {"k": "b"}])[wire.HEADER_SIZE :]
    # The column's two references are the payload's last eight bytes.
    assert wire.decode_frame(_frame(payload)) == [{"k": "a"}, {"k": "b"}]
    with pytest.raises(wire.CodecError, match="out of table range"):
        wire.decode_frame(_frame(payload[:-4] + (7).to_bytes(4, "big")))
