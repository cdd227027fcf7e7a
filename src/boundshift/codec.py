"""Bit-exact adaptive entropy coding for location maps.

The coder is a 32-bit integer arithmetic coder: an interval (low, high) is
narrowed symbol by symbol and renormalized one bit at a time. Carries are
handled with pending-bit bookkeeping: while the interval straddles the
midpoint, bits cannot be decided yet, so their count is parked and flushed
(inverted) together with the next decided bit. The encoder flushes all
pending bits at finish, which pins the decoder's lookahead to exactly 31
bits past the written stream; any read beyond that window is a corruption
signal, never silent zero-padding.

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
from .imagecore import LocationMap, as_gray, validate_shift_width
from .preprocess import PreprocessParams

_STATE_BITS = 32
_FULL_MASK = (1 << _STATE_BITS) - 1
_TOP_BIT = 1 << (_STATE_BITS - 1)
_SECOND_BIT = _TOP_BIT >> 1
_MODEL_INCREMENT = 32
_MODEL_CAP = 1 << 16
_DECODER_SLACK = _STATE_BITS

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


class _AdaptiveModel:
    __slots__ = ("freq", "total")

    def __init__(self, alphabet_size):
        self.freq = [1] * alphabet_size
        self.total = alphabet_size

    def update(self, symbol):
        freq = self.freq
        freq[symbol] += _MODEL_INCREMENT
        self.total += _MODEL_INCREMENT
        if freq[symbol] >= _MODEL_CAP:
            total = 0
            for k in range(len(freq)):
                freq[k] = (freq[k] + 1) >> 1
                total += freq[k]
            self.total = total


class _Encoder:
    def __init__(self):
        self.low = 0
        self.high = _FULL_MASK
        self.pending = 0
        self.bits = []

    def encode(self, cum_low, freq, total):
        low = self.low
        span = self.high - low + 1
        self.high = low + (span * (cum_low + freq)) // total - 1
        self.low = low + (span * cum_low) // total
        bits = self.bits
        while True:
            if ((self.low ^ self.high) & _TOP_BIT) == 0:
                bit = self.low >> (_STATE_BITS - 1)
                bits.append(bit)
                if self.pending:
                    bits.extend([bit ^ 1] * self.pending)
                    self.pending = 0
                self.low = (self.low << 1) & _FULL_MASK
                self.high = ((self.high << 1) & _FULL_MASK) | 1
            elif (self.low & ~self.high & _SECOND_BIT) != 0:
                self.pending += 1
                self.low = (self.low << 1) & (_FULL_MASK >> 1)
                self.high = ((self.high << 1) & (_FULL_MASK >> 1)) | _TOP_BIT | 1
            else:
                return

    def finish(self):
        # A final 1 plus the parked bits (necessarily zeros after a 1) pins
        # the coded value inside the final interval.
        self.bits.append(1)
        if self.pending:
            self.bits.extend([0] * self.pending)
            self.pending = 0


class _Decoder:
    def __init__(self, data, bit_length):
        if bit_length > len(data) * 8:
            raise CorruptionError("compressed map shorter than its declared bit length")
        self.unpacked = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        self.bit_length = bit_length
        self.limit = bit_length + _DECODER_SLACK
        self.pos = 0
        self.low = 0
        self.high = _FULL_MASK
        code = 0
        for _ in range(_STATE_BITS):
            code = (code << 1) | self._read_bit()
        self.code = code

    def _read_bit(self):
        pos = self.pos
        if pos >= self.limit:
            raise CorruptionError("compressed map exhausted mid-decode")
        self.pos = pos + 1
        if pos >= self.bit_length:
            return 0
        return int(self.unpacked[pos])

    def decode(self, model):
        low = self.low
        span = self.high - low + 1
        total = model.total
        value = ((self.code - low + 1) * total - 1) // span
        if value >= total or value < 0:
            raise CorruptionError("decoder state desynchronized")
        cum = 0
        symbol = 0
        for freq in model.freq:
            if cum + freq > value:
                break
            cum += freq
            symbol += 1
        self.high = low + (span * (cum + freq)) // total - 1
        self.low = low + (span * cum) // total
        while True:
            if ((self.low ^ self.high) & _TOP_BIT) == 0:
                self.code = ((self.code << 1) & _FULL_MASK) | self._read_bit()
                self.low = (self.low << 1) & _FULL_MASK
                self.high = ((self.high << 1) & _FULL_MASK) | 1
            elif (self.low & ~self.high & _SECOND_BIT) != 0:
                self.code = (
                    (self.code & _TOP_BIT)
                    | ((self.code << 1) & (_FULL_MASK >> 1))
                    | self._read_bit()
                )
                self.low = (self.low << 1) & (_FULL_MASK >> 1)
                self.high = ((self.high << 1) & (_FULL_MASK >> 1)) | _TOP_BIT | 1
            else:
                break
        if not self.low <= self.code <= self.high:
            raise CorruptionError("decoder state desynchronized")
        return symbol


def compress(locmap):
    """Entropy-code a location map; equal maps give byte-identical output."""
    if not isinstance(locmap, LocationMap):
        raise ValidationError("expected a LocationMap")
    symbols = locmap.symbols
    height, width = symbols.shape
    if symbols.size == 0:
        return CompressedMap(locmap.alphabet_size, width, height, 0, b"")
    enc = _Encoder()
    model = _AdaptiveModel(locmap.alphabet_size)
    for s in symbols.ravel().tolist():
        freq = model.freq
        cum = 0
        for k in range(s):
            cum += freq[k]
        enc.encode(cum, freq[s], model.total)
        model.update(s)
    enc.finish()
    data = np.packbits(np.array(enc.bits, dtype=np.uint8)).tobytes()
    return CompressedMap(locmap.alphabet_size, width, height, len(enc.bits), data)


def decompress(cmap):
    """Invert compress(); corrupted or truncated streams raise CorruptionError."""
    if not isinstance(cmap, CompressedMap):
        raise ValidationError("expected a CompressedMap")
    count = cmap.width * cmap.height
    shape = (cmap.height, cmap.width)
    if count == 0:
        return LocationMap(np.zeros(shape, dtype=np.uint8), cmap.alphabet_size)
    dec = _Decoder(cmap.data, cmap.bit_length)
    model = _AdaptiveModel(cmap.alphabet_size)
    out = np.empty(count, dtype=np.uint8)
    for k in range(count):
        s = dec.decode(model)
        model.update(s)
        out[k] = s
    return LocationMap(out.reshape(shape), cmap.alphabet_size)


def compress_binary_baseline(img, shift):
    """Compress the plain 0/1 boundary indicator of an image (the side
    information a direct embedder would have to carry)."""
    a = as_gray(img)
    t = validate_shift_width(shift)
    marks = ((a < t) | (a > 255 - t)).astype(np.uint8)
    return compress(LocationMap(marks, 2))


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
