"""Bit-exact adaptive entropy coding for location maps.

The coder is a 32-bit integer arithmetic coder (Witten, Neal and Cleary,
CACM 1987), written as two plain loops with local state: compress() and
decompress(). An interval (low, high) is narrowed symbol by symbol and
renormalized one bit at a time. Carries are handled with pending-bit
bookkeeping: while the interval straddles the midpoint, bits cannot be
decided yet, so their count is parked and flushed (inverted) together with
the next decided bit. The encoder flushes all pending bits at finish, so the
decoder's lookahead never needs more than 32 bits past the written stream.
The decoder unpacks the stream once and appends 32 zero bits; a read past
that window is a corruption signal, never silent zero-padding. The decoded
map grows symbol by symbol, so a stream that runs out ends the decode
whatever size the map declares.

The probability model is adaptive order-0 and identical on both sides:
per-symbol counts start at 1, grow by 32 per coded symbol, and all counts
are halved (floor 1) when the updated count reaches 2**16. Symbols are
consumed in raster order. Everything is deterministic, so equal maps
always produce byte-identical streams.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError, ValidationError
from .imagecore import LocationMap, boundary_mask
from .preprocess import PreprocessParams

_STATE_BITS = 32
_FULL_MASK = (1 << _STATE_BITS) - 1
_TOP_BIT = 1 << (_STATE_BITS - 1)
_HALF_MASK = _FULL_MASK >> 1
_SECOND_BIT = _TOP_BIT >> 1
_MODEL_INCREMENT = 32
_MODEL_CAP = 1 << 16

MAP_MAGIC = b"LM"
_CONTAINER_HEADER = struct.Struct(">2sBIII")
SIDE_FILE_MAGIC = b"LP"
_SIDE_FILE_HEADER = struct.Struct(">2sBBB")


@dataclass(frozen=True)
class CompressedMap:
    """Entropy-coded location map plus the geometry needed to decode it."""

    alphabet_size: int
    width: int
    height: int
    bit_length: int
    data: bytes

    def __post_init__(self):
        if not 2 <= self.alphabet_size <= 256:
            raise ValidationError(f"alphabet_size must be in [2, 256], got {self.alphabet_size}")
        if self.width < 0 or self.height < 0:
            raise ValidationError("negative map dimensions")
        if self.bit_length < 0:
            raise ValidationError("negative bit length")
        if len(self.data) != (self.bit_length + 7) // 8:
            raise ValidationError(
                f"payload holds {len(self.data)} bytes but bit_length {self.bit_length} "
                f"needs {(self.bit_length + 7) // 8}"
            )


def _halved(freq):
    """The model's counts halved, each kept at least 1."""
    return [(f + 1) >> 1 for f in freq]


def compress(locmap):
    """Entropy-code a location map; equal maps give byte-identical output."""
    if not isinstance(locmap, LocationMap):
        raise ValidationError("expected a LocationMap")
    symbols = locmap.symbols
    height, width = symbols.shape
    if symbols.size == 0:
        return CompressedMap(locmap.alphabet_size, width, height, 0, b"")
    freq = [1] * locmap.alphabet_size
    total = locmap.alphabet_size
    low, high, pending = 0, _FULL_MASK, 0
    bits = []
    for s in symbols.ravel().tolist():
        cum = sum(freq[:s])
        span = high - low + 1
        high = low + (span * (cum + freq[s])) // total - 1
        low = low + (span * cum) // total
        while True:
            if ((low ^ high) & _TOP_BIT) == 0:
                bit = low >> (_STATE_BITS - 1)
                bits.append(bit)
                if pending:
                    bits.extend([bit ^ 1] * pending)
                    pending = 0
                low = (low << 1) & _FULL_MASK
                high = ((high << 1) & _FULL_MASK) | 1
            elif (low & ~high & _SECOND_BIT) != 0:
                pending += 1
                low = (low << 1) & _HALF_MASK
                high = ((high << 1) & _HALF_MASK) | _TOP_BIT | 1
            else:
                break
        freq[s] += _MODEL_INCREMENT
        total += _MODEL_INCREMENT
        if freq[s] >= _MODEL_CAP:
            freq = _halved(freq)
            total = sum(freq)
    # A final 1 plus the parked bits (necessarily zeros after a 1) pins the
    # coded value inside the final interval.
    bits.append(1)
    bits.extend([0] * pending)
    data = np.packbits(np.array(bits, dtype=np.uint8)).tobytes()
    return CompressedMap(locmap.alphabet_size, width, height, len(bits), data)


def decompress(cmap):
    """Invert compress(); corrupted or truncated streams raise CorruptionError."""
    if not isinstance(cmap, CompressedMap):
        raise ValidationError("expected a CompressedMap")
    count = cmap.width * cmap.height
    shape = (cmap.height, cmap.width)
    if count == 0:
        return LocationMap(np.zeros(shape, dtype=np.uint8), cmap.alphabet_size)
    stream = np.unpackbits(np.frombuffer(cmap.data, dtype=np.uint8), count=cmap.bit_length)
    bits = stream.tolist() + [0] * _STATE_BITS
    end = len(bits)
    code = 0
    for bit in bits[:_STATE_BITS]:
        code = (code << 1) | bit
    pos = _STATE_BITS
    freq = [1] * cmap.alphabet_size
    total = cmap.alphabet_size
    low, high = 0, _FULL_MASK
    out = bytearray()
    for _ in range(count):
        span = high - low + 1
        value = ((code - low + 1) * total - 1) // span
        if not 0 <= value < total:
            raise CorruptionError("decoder state desynchronized")
        s, cum = 0, 0
        while cum + freq[s] <= value:
            cum += freq[s]
            s += 1
        high = low + (span * (cum + freq[s])) // total - 1
        low = low + (span * cum) // total
        while True:
            if ((low ^ high) & _TOP_BIT) == 0:
                code = (code << 1) & _FULL_MASK
                low = (low << 1) & _FULL_MASK
                high = ((high << 1) & _FULL_MASK) | 1
            elif (low & ~high & _SECOND_BIT) != 0:
                code = (code & _TOP_BIT) | ((code << 1) & _HALF_MASK)
                low = (low << 1) & _HALF_MASK
                high = ((high << 1) & _HALF_MASK) | _TOP_BIT | 1
            else:
                break
            if pos == end:
                raise CorruptionError("compressed map exhausted mid-decode")
            code |= bits[pos]
            pos += 1
        if not low <= code <= high:
            raise CorruptionError("decoder state desynchronized")
        out.append(s)
        freq[s] += _MODEL_INCREMENT
        total += _MODEL_INCREMENT
        if freq[s] >= _MODEL_CAP:
            freq = _halved(freq)
            total = sum(freq)
    return LocationMap(np.frombuffer(out, dtype=np.uint8).reshape(shape), cmap.alphabet_size)


def compress_binary_baseline(img, shift):
    """Compress the plain 0/1 boundary indicator of an image (the side
    information a direct embedder would have to carry)."""
    return compress(LocationMap(boundary_mask(img, shift).astype(np.uint8), 2))


def serialize_map(cmap):
    """Container bytes: magic 'LM', u8 alphabet_size-1, u32 width, height,
    bit_length (big-endian), then the coded bytes."""
    if not isinstance(cmap, CompressedMap):
        raise ValidationError("expected a CompressedMap")
    header = _CONTAINER_HEADER.pack(
        MAP_MAGIC,
        cmap.alphabet_size - 1,
        cmap.width,
        cmap.height,
        cmap.bit_length,
    )
    return header + cmap.data


def deserialize_map(buf):
    """Parse container bytes; trailing garbage and truncation are errors."""
    buf = bytes(buf)
    if len(buf) < _CONTAINER_HEADER.size:
        raise CorruptionError("map container shorter than its header")
    magic, alpha_m1, width, height, bit_length = _CONTAINER_HEADER.unpack_from(buf)
    if magic != MAP_MAGIC:
        raise CorruptionError(f"bad map container magic {magic!r}")
    end = _CONTAINER_HEADER.size + (bit_length + 7) // 8
    if len(buf) < end:
        raise CorruptionError(
            f"truncated map container: need {end} bytes, have {len(buf)}"
        )
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
    header = _SIDE_FILE_HEADER.pack(SIDE_FILE_MAGIC, params.shift, params.t_even, params.t_odd)
    return header + serialize_map(cmap)


def deserialize_side_file(buf):
    """Parse side-file bytes into (PreprocessParams, CompressedMap); any
    malformed content raises CorruptionError."""
    buf = bytes(buf)
    if len(buf) < _SIDE_FILE_HEADER.size:
        raise CorruptionError("side file shorter than its header")
    magic, shift, t_even, t_odd = _SIDE_FILE_HEADER.unpack_from(buf)
    if magic != SIDE_FILE_MAGIC:
        raise CorruptionError(f"bad side file magic {magic!r}")
    try:
        params = PreprocessParams(shift, t_even, t_odd)
    except ValidationError as exc:
        raise CorruptionError(f"corrupt side file parameters: {exc}") from exc
    return params, deserialize_map(buf[_SIDE_FILE_HEADER.size:])
