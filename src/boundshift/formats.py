"""The wire formats: the in-band frame and its CRC-32 rule, the LM map
container and the LP side file; no other module knows their bytes.

A frame is one bitstream, MSB-first: a 136-bit big-endian header (u8
magic, version, shift, t_even, t_odd; u32 map bit length, payload bit
length, CRC-32), then the compressed location map, then the payload. The
CRC-32 (frame_crc) runs over the cover's raster-order bytes, then the
packed payload bits, so the extractor can tell a recovered cover or
payload that is wrong from one that is exact. Version 1 frames, whose
104-bit header ends at the payload bit length, carry no such check, so the
pipeline decodes them only on request (extract_full's legacy_v1).
"""

import struct
import zlib

import numpy as np

from .codec import CompressedMap
from .errors import CorruptionError, ValidationError
from .imagecore import as_bits, as_bytes
from .preprocess import PreprocessParams

FRAME_MAGIC = 0xB5
FRAME_VERSION = 2
# version -> header; every row starts with version 1's seven fields, and a
# field past the seventh is the CRC-32
_FRAME_HEADERS = {1: struct.Struct(">BBBBBII"), 2: struct.Struct(">BBBBBIII")}
FRAME_HEADER_BITS = 8 * _FRAME_HEADERS[FRAME_VERSION].size
_PREFIX = _FRAME_HEADERS[1]

MAP_MAGIC = b"LM"
_CONTAINER_HEADER = struct.Struct(">2sBIII")
SIDE_FILE_MAGIC = b"LP"
_SIDE_FILE_HEADER = struct.Struct(">2sBBB")


def bytes_to_bits(data):
    """Expand bytes into a 0/1 uint8 array, most significant bit first."""
    return np.unpackbits(np.frombuffer(as_bytes(data, "data"), dtype=np.uint8))


def bits_to_bytes(bits):
    """Pack a 0/1 array into bytes, zero-padding the final byte."""
    return np.packbits(as_bits(bits)).tobytes()


def frame_crc(cover_crc, payload):
    """CRC-32 over the cover's raster-order bytes, then the packed payload
    bits, continued from cover_crc = zlib.crc32(cover.tobytes())."""
    return zlib.crc32(np.packbits(payload).tobytes(), cover_crc)


def _params(shift, t_even, t_odd, what):
    """PreprocessParams read from a header; invalid ones are corruption."""
    try:
        return PreprocessParams(shift, t_even, t_odd)
    except ValidationError as exc:
        raise CorruptionError(f"corrupt {what} parameters: {exc}") from exc


def frame_payload(payload, cmap, params, checksum):
    """Concatenate header bits, map bits, and payload bits into one stream;
    checksum is the CRC-32 the header carries for the extractor to verify."""
    bits = as_bits(payload)
    if not isinstance(cmap, CompressedMap):
        raise ValidationError("expected a CompressedMap")
    if not isinstance(params, PreprocessParams):
        raise ValidationError("expected PreprocessParams")
    try:
        header = _FRAME_HEADERS[FRAME_VERSION].pack(FRAME_MAGIC, FRAME_VERSION, params.shift,
                                                    params.t_even, params.t_odd,
                                                    cmap.bit_length, bits.size, checksum)
    except struct.error as exc:
        raise ValidationError(f"frame header field out of range: {exc}") from exc
    map_bits = bytes_to_bits(cmap.data)[: cmap.bit_length]
    return np.concatenate([bytes_to_bits(header), map_bits, bits])


def deframe_payload(bits, width, height):
    """Parse a framed stream back into (payload, CompressedMap, params,
    checksum); checksum is None for a version 1 frame, which carries none.

    The frame does not carry grid dimensions; they come from the marked
    image, so the caller supplies them here.
    """
    stream = as_bits(bits)
    if stream.size < 8 * _PREFIX.size:
        raise CorruptionError(f"stream of {stream.size} bits is shorter than the "
                              f"{8 * _PREFIX.size}-bit header")
    head = np.packbits(stream[:FRAME_HEADER_BITS]).tobytes()
    magic, version, shift, t_even, t_odd, map_bits, payload_bits = _PREFIX.unpack_from(head)
    if magic != FRAME_MAGIC:
        raise CorruptionError(f"bad frame magic 0x{magic:02X}")
    row = _FRAME_HEADERS.get(version)
    if row is None:
        raise CorruptionError(f"unsupported frame version {version}")
    params = _params(shift, t_even, t_odd, "frame")
    map_start = 8 * row.size
    need = map_start + map_bits + payload_bits
    if need > stream.size:
        raise CorruptionError(f"frame declares {need} bits but only {stream.size} are available")
    crc = row.unpack_from(head)[7:]
    cmap = CompressedMap(2 * params.shift + 1, width, height, map_bits,
                         bits_to_bytes(stream[map_start:map_start + map_bits]))
    return stream[map_start + map_bits:need], cmap, params, crc[0] if crc else None


def serialize_map(cmap):
    """Container bytes: magic 'LM', u8 alphabet_size-1, u32 width, height,
    bit_length (big-endian), then the coded bytes."""
    if not isinstance(cmap, CompressedMap):
        raise ValidationError("expected a CompressedMap")
    header = _CONTAINER_HEADER.pack(MAP_MAGIC, cmap.alphabet_size - 1, cmap.width,
                                    cmap.height, cmap.bit_length)
    return header + cmap.data


def deserialize_map(buf):
    """Parse container bytes; trailing garbage and truncation are errors."""
    buf = as_bytes(buf, "map container")
    if len(buf) < _CONTAINER_HEADER.size:
        raise CorruptionError("map container shorter than its header")
    magic, alpha_m1, width, height, bit_length = _CONTAINER_HEADER.unpack_from(buf)
    if magic != MAP_MAGIC:
        raise CorruptionError(f"bad map container magic {magic!r}")
    end = _CONTAINER_HEADER.size + (bit_length + 7) // 8
    if len(buf) < end:
        raise CorruptionError(f"truncated map container: need {end} bytes, have {len(buf)}")
    try:
        cmap = CompressedMap(alpha_m1 + 1, width, height, bit_length, buf[_CONTAINER_HEADER.size:end])
    except ValidationError as exc:
        raise CorruptionError(f"malformed map container: {exc}") from exc
    if end != len(buf):
        raise CorruptionError(f"trailing data after map container (byte {end})")
    return cmap


def serialize_side_file(params, cmap):
    """Side-file bytes for preprocess/restore: magic 'LP', u8 shift, t_even,
    t_odd, then the map container."""
    if not isinstance(params, PreprocessParams):
        raise ValidationError("expected PreprocessParams")
    header = _SIDE_FILE_HEADER.pack(SIDE_FILE_MAGIC, params.shift, params.t_even, params.t_odd)
    return header + serialize_map(cmap)


def deserialize_side_file(buf):
    """Parse side-file bytes into (PreprocessParams, CompressedMap); any
    malformed content raises CorruptionError."""
    buf = as_bytes(buf, "side file")
    if len(buf) < _SIDE_FILE_HEADER.size:
        raise CorruptionError("side file shorter than its header")
    magic, shift, t_even, t_odd = _SIDE_FILE_HEADER.unpack_from(buf)
    if magic != SIDE_FILE_MAGIC:
        raise CorruptionError(f"bad side file magic {magic!r}")
    params = _params(shift, t_even, t_odd, "side file")
    return params, deserialize_map(buf[_SIDE_FILE_HEADER.size:])
