"""Reversible payload embedding on interior-range images, plus the frame format.

The reference embedder is prediction-error histogram shifting on the even
checkerboard lattice: odd-parity pixels are never touched, so the decoder
re-derives the exact predictions the encoder used. Errors e = value -
prediction carry one bit each at e = 0 and e = -1; all other errors shift
outward by one to make room. Per-pixel change is at most 1, so any image
inside [1, 254] survives without overflow.

Everything embedded in-band travels as one framed bitstream: a 136-bit
big-endian header (u8 magic, version, shift, t_even, t_odd; u32 map bit
length, payload bit length, CRC-32), then the compressed location map, then
the payload, MSB-first. The pipeline computes the CRC-32 over the cover's
raster-order bytes followed by the packed payload bits, so the extractor
can tell a recovered cover or payload that is wrong from one that is exact.
Version 1 frames, whose 104-bit header ends at the payload bit length,
carry no such check, so the pipeline decodes them only on request
(extract_full's legacy_v1).
"""

import struct

import numpy as np

from .codec import CompressedMap
from .errors import CapacityError, CorruptionError, ValidationError
from .imagecore import as_gray
from .predictor import predict_grid
from .preprocess import PreprocessParams

FRAME_MAGIC = 0xB5
FRAME_VERSION = 2
_HEADER = struct.Struct(">BBBBBIII")
_HEADER_V1 = struct.Struct(">BBBBBII")
FRAME_HEADER_BITS = 8 * _HEADER.size
_V1_HEADER_BITS = 8 * _HEADER_V1.size


def bytes_to_bits(data):
    """Expand bytes into a 0/1 uint8 array, most significant bit first."""
    return np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))


def bits_to_bytes(bits):
    """Pack a 0/1 array into bytes, zero-padding the final byte."""
    return np.packbits(as_bits(bits)).tobytes()


def as_bits(bits):
    """Validate a bit sequence and return it as a 1-D uint8 array of 0/1."""
    a = np.asarray(bits)
    if a.ndim != 1:
        raise ValidationError(f"bit stream must be 1-D, got shape {a.shape}")
    if a.size and not ((a == 0) | (a == 1)).all():
        raise ValidationError("bit stream values must be 0 or 1")
    return a.astype(np.uint8)


def _with_even(grid, pred, errors, dtype):
    """grid as dtype, with pred + errors (laid out by _even_errors) in its even cells."""
    out, w = grid.astype(dtype), grid.shape[1]
    np.add(pred[0::2, 0::2], errors[0::2], out=out[0::2, 0::2], casting="unsafe")
    np.add(pred[1::2, 1::2], errors[1::2, :w // 2], out=out[1::2, 1::2], casting="unsafe")
    return out


class PredictionErrorEmbedder:
    """Histogram shifting on even-lattice prediction errors, peaks 0 and -1;
    pixels must lie in [1, 254] and move by at most max_shift."""

    max_shift = 1

    def _even_errors(self, grid):
        """(the even cells' prediction errors, the predictions) for a uint8
        grid. The two strided sub-lattices g[0::2, 0::2] and g[1::2, 1::2]
        interleave by row into one (h, ceil(w/2)) int16 grid of errors in
        raster order; a row one even cell short ends in 2, which carries no bit."""
        pred = predict_grid(grid)
        h, w = grid.shape
        errors = np.full((h, (w + 1) // 2), 2, dtype=np.int16)
        np.subtract(grid[0::2, 0::2], pred[0::2, 0::2], out=errors[0::2])
        np.subtract(grid[1::2, 1::2], pred[1::2, 1::2], out=errors[1::2, :w // 2])
        return errors, pred

    def capacity(self, img):
        """Number of payload bits img can carry."""
        errors, _ = self._even_errors(as_gray(img))
        return int(((errors == 0) | (errors == -1)).sum())

    def embed(self, img, bits):
        """Return a marked image carrying bits, unused carriers filled with zeros."""
        a = as_gray(img)
        payload = as_bits(bits)
        if int(a.min()) < 1 or int(a.max()) > 254:
            raise ValidationError("embedding needs pixels in [1, 254]")
        errors, pred = self._even_errors(a)
        carriers = np.flatnonzero((errors == 0) | (errors == -1))
        room = carriers.size
        if payload.size > room:
            raise CapacityError(
                f"payload of {payload.size} bits exceeds capacity {room}",
                deficit_bits=payload.size - room,
            )
        coded = errors + (errors >= 1) - (errors <= -2)
        # a 1 bit moves a carrier's error e to e + (2e + 1): 0 to 1, -1 to -2
        used = carriers[:payload.size]
        e = errors.ravel()[used]
        coded.ravel()[used] = e + payload * (2 * e + 1)
        return _with_even(a, pred, coded, np.uint8)

    def extract(self, marked):
        """Return (full carrier bit stream, original image)."""
        a = as_gray(marked)
        coded, pred = self._even_errors(a)
        # picked through np.flatnonzero: masked indexing branches on every cell
        c = coded.ravel()[np.flatnonzero((coded >= -2) & (coded <= 1))]
        bits = np.where(c >= 0, c, -(c + 1)).astype(np.uint8)
        restored = _with_even(a, pred, coded - (coded >= 1) + (coded <= -2), np.int16)
        if int(restored.min()) < 0 or int(restored.max()) > 255:
            raise CorruptionError("recovered pre-embedding image leaves [0, 255]")
        return bits, restored.astype(np.uint8)


def frame_payload(payload, cmap, params, checksum):
    """Concatenate header bits, map bits, and payload bits into one stream;
    checksum is the CRC-32 the header carries for the extractor to verify."""
    bits = as_bits(payload)
    if not isinstance(cmap, CompressedMap):
        raise ValidationError("expected a CompressedMap")
    if not isinstance(params, PreprocessParams):
        raise ValidationError("expected PreprocessParams")
    try:
        header = _HEADER.pack(
            FRAME_MAGIC, FRAME_VERSION, params.shift, params.t_even, params.t_odd,
            cmap.bit_length, bits.size, checksum,
        )
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
    if stream.size < _V1_HEADER_BITS:
        raise CorruptionError(
            f"stream of {stream.size} bits is shorter than the {_V1_HEADER_BITS}-bit header"
        )
    head = np.packbits(stream[:FRAME_HEADER_BITS]).tobytes()
    magic, version, shift, t_even, t_odd, map_bits, payload_bits = _HEADER_V1.unpack_from(head)
    if magic != FRAME_MAGIC:
        raise CorruptionError(f"bad frame magic 0x{magic:02X}")
    if version not in (1, FRAME_VERSION):
        raise CorruptionError(f"unsupported frame version {version}")
    try:
        params = PreprocessParams(shift, t_even, t_odd)
    except ValidationError as exc:
        raise CorruptionError(f"corrupt frame parameters: {exc}") from exc
    map_start = FRAME_HEADER_BITS if version == FRAME_VERSION else _V1_HEADER_BITS
    need = map_start + map_bits + payload_bits
    if need > stream.size:
        raise CorruptionError(
            f"frame declares {need} bits but only {stream.size} are available"
        )
    checksum = _HEADER.unpack_from(head)[-1] if version == FRAME_VERSION else None
    map_slice = stream[map_start:map_start + map_bits]
    cmap = CompressedMap(
        2 * params.shift + 1, width, height, map_bits, bits_to_bytes(map_slice)
    )
    payload = stream[map_start + map_bits:map_start + map_bits + payload_bits]
    return payload, cmap, params, checksum
