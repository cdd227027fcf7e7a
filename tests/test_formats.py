import zlib

import numpy as np
import pytest
from numpy.random import default_rng

from boundshift import (
    CompressedMap,
    CorruptionError,
    LocationMap,
    PreprocessParams,
    ValidationError,
    compress,
    decompress,
    deserialize_map,
    serialize_map,
)
from boundshift.formats import (
    FRAME_HEADER_BITS,
    bits_to_bytes,
    bytes_to_bits,
    check_frame,
    deframe_payload,
    frame_crc,
    frame_payload,
)

# Frozen frame header for params (1,1,4), empty map, empty payload.
GOLDEN_HEADER = bytes.fromhex("b5010101040000000000000000")
# The same frame as version 2, written out field by field: magic b5,
# version 02, shift 01, t_even 01, t_odd 04, map bits 0, payload bits 0,
# then the CRC-32 field, here the fixed value cbf43926.
GOLDEN_HEADER_V2 = bytes.fromhex("b5" "02" "01" "01" "04" "00000000" "00000000" "cbf43926")
# Frozen container bytes for the map [[0,1,2],[2,2,2]] over alphabet 3:
# 'LM', alphabet-1 = 02, width 3, height 2, 16 coded bits, payload 0x52E5.
GOLDEN_MAP = LocationMap(np.array([[0, 1, 2], [2, 2, 2]]), 3)
GOLDEN_BYTES = bytes.fromhex("4c4d0200000003000000020000001052e5")


def test_golden_container_bytes():
    assert serialize_map(compress(GOLDEN_MAP)) == GOLDEN_BYTES


def test_golden_container_decodes():
    cmap = deserialize_map(GOLDEN_BYTES)
    assert (cmap.alphabet_size, cmap.width, cmap.height, cmap.bit_length) == (3, 3, 2, 16)
    out = decompress(cmap)
    assert np.array_equal(out.symbols, GOLDEN_MAP.symbols)
    assert out.alphabet_size == 3


def test_container_round_trip():
    m = LocationMap(default_rng(1).integers(0, 9, (13, 7)), 9)
    cmap = compress(m)
    assert deserialize_map(serialize_map(cmap)) == cmap


def test_container_errors():
    good = serialize_map(compress(GOLDEN_MAP))
    # each by its own check: a truncated payload would otherwise still be
    # refused, as a malformed map; the golden container has a 15-byte header
    # and 2 bytes of payload
    with pytest.raises(CorruptionError, match="truncated map container"):
        deserialize_map(good[:-1])                     # truncated payload
    with pytest.raises(CorruptionError, match="trailing data"):
        deserialize_map(good + b"x")                   # trailing garbage
    with pytest.raises(CorruptionError, match="bad map container magic"):
        deserialize_map(b"XX" + good[2:])              # bad magic
    with pytest.raises(CorruptionError, match="shorter than its header"):
        deserialize_map(good[:3])                      # shorter than header


def test_bit_helpers_msb_first():
    assert bytes_to_bits(b"\x80\x01").tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]
    assert bits_to_bytes([1, 0, 0, 0, 0, 0, 0, 0, 1]) == b"\x80\x80"  # zero-padded tail


def test_frame_golden_header():
    payload, cmap, params, checksum = deframe_payload(bytes_to_bits(GOLDEN_HEADER), 4, 4)
    assert payload.size == 0
    assert cmap == CompressedMap(3, 4, 4, 0, b"")
    assert params == PreprocessParams(1, 1, 4)
    assert checksum is None


def test_frame_golden_header_v2():
    cmap = CompressedMap(3, 4, 4, 0, b"")
    framed = frame_payload([], cmap, PreprocessParams(1, 1, 4), 0xCBF43926)
    assert framed.size == FRAME_HEADER_BITS == 136
    assert bits_to_bytes(framed) == GOLDEN_HEADER_V2
    payload, out_cmap, params, checksum = deframe_payload(framed, 4, 4)
    assert payload.size == 0
    assert out_cmap == cmap
    assert params == PreprocessParams(1, 1, 4)
    assert checksum == 0xCBF43926


def test_frame_deframe_identity():
    rng = default_rng(7)
    for _ in range(20):
        payload = rng.integers(0, 2, size=int(rng.integers(0, 300)), dtype=np.uint8)
        map_bits = int(rng.integers(0, 120))
        data = bits_to_bytes(rng.integers(0, 2, size=map_bits, dtype=np.uint8))
        cmap = CompressedMap(5, 10, 8, map_bits, data)
        params = PreprocessParams(2, int(rng.integers(1, 128)), int(rng.integers(1, 128)))
        checksum = int(rng.integers(0, 1 << 32))
        framed = frame_payload(payload, cmap, params, checksum)
        assert framed.size == FRAME_HEADER_BITS + map_bits + payload.size
        out_payload, out_cmap, out_params, out_checksum = deframe_payload(framed, 10, 8)
        assert np.array_equal(out_payload, payload)
        assert out_cmap == cmap
        assert out_params == params
        assert out_checksum == checksum


def test_frame_ignores_trailing_filler():
    cmap = CompressedMap(3, 4, 4, 0, b"")
    framed = frame_payload([1, 0, 1], cmap, PreprocessParams(1, 1, 1), 0)
    padded = np.concatenate([framed, np.zeros(40, dtype=np.uint8)])
    payload, _, _, checksum = deframe_payload(padded, 4, 4)
    assert payload.tolist() == [1, 0, 1]
    assert checksum == 0


def test_deframe_errors():
    cmap = CompressedMap(3, 4, 4, 0, b"")
    framed = frame_payload([1, 1], cmap, PreprocessParams(1, 1, 4), 0)

    with pytest.raises(CorruptionError, match="header"):
        deframe_payload(framed[:60], 4, 4)

    bad = framed.copy()
    bad[0] ^= 1
    with pytest.raises(CorruptionError, match="magic"):
        deframe_payload(bad, 4, 4)

    bad = framed.copy()
    bad[15] ^= 1
    with pytest.raises(CorruptionError, match="version"):
        deframe_payload(bad, 4, 4)

    bad = framed.copy()
    bad[16:24] = 0   # shift byte corrupted to zero
    with pytest.raises(CorruptionError, match="parameters"):
        deframe_payload(bad, 4, 4)

    with pytest.raises(CorruptionError, match="declares"):
        deframe_payload(framed[:-1], 4, 4)

    # long enough for a version 1 header, cut inside the checksum field
    with pytest.raises(CorruptionError, match="declares"):
        deframe_payload(framed[:120], 4, 4)


def test_frame_rejects_wrong_types():
    cmap = CompressedMap(3, 4, 4, 0, b"")
    with pytest.raises(ValidationError):
        frame_payload([], cmap, "nope", 0)
    with pytest.raises(ValidationError):
        frame_payload([], b"not a map", PreprocessParams(1, 1, 1), 0)
    with pytest.raises(ValidationError):
        frame_payload([0, 2, 1], cmap, PreprocessParams(1, 1, 1), 0)
    with pytest.raises(ValidationError):
        frame_payload([], cmap, PreprocessParams(1, 1, 1), 1 << 32)


def test_frame_crc_and_check_frame_hold_the_whole_rule():
    # a strided, non-contiguous view: its raster order is not its memory order
    cover = default_rng(5).integers(0, 256, (12, 18), dtype=np.uint8)[::2, ::3].T
    assert not cover.flags.c_contiguous
    payload = default_rng(6).integers(0, 2, size=13, dtype=np.uint8)
    checksum = frame_crc(cover, payload)
    assert checksum == zlib.crc32(cover.tobytes() + np.packbits(payload).tobytes())

    check_frame(checksum, cover, payload)
    check_frame(None, cover, payload)      # a version 1 frame carries no checksum
    changed = cover.copy()
    changed[1, 2] ^= 1
    with pytest.raises(CorruptionError, match="checksum"):
        check_frame(checksum, changed, payload)
    flipped = payload.copy()
    flipped[-1] ^= 1
    with pytest.raises(CorruptionError, match="checksum"):
        check_frame(checksum, cover, flipped)
    with pytest.raises(ValidationError, match="0 or 1"):
        check_frame(checksum, cover, np.where(payload == 1, 2, 0))
