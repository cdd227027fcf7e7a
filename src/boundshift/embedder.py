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
from .imagecore import as_gray, parity_mask
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
    if not data:
        return np.zeros(0, dtype=np.uint8)
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


class PredictionErrorEmbedder:
    """Histogram shifting on even-lattice prediction errors, peaks 0 and -1;
    pixels must lie in [1, 254] and move by at most max_shift."""

    max_shift = 1

    def _even_errors(self, grid):
        """(flat indices of the even cells, their prediction errors as int32,
        their predictions) for a uint8 grid."""
        pred = predict_grid(grid)
        even = parity_mask(grid.shape[0], grid.shape[1], 0)
        idx = np.flatnonzero(even.ravel())
        pred = pred.ravel()[idx]
        return idx, grid.ravel()[idx] - pred, pred

    def capacity(self, img):
        """Number of payload bits img can carry."""
        a = as_gray(img)
        _, errors, _ = self._even_errors(a)
        return int(((errors == 0) | (errors == -1)).sum())

    # Masks select cells through np.flatnonzero and the bits shift through
    # arithmetic on comparisons: masked indexing branches on every cell and
    # costs several times more on these scattered patterns.

    def embed(self, img, bits):
        """Return a marked image carrying bits, unused carriers filled with zeros."""
        a = as_gray(img)
        payload = as_bits(bits)
        if a.size and (int(a.min()) < 1 or int(a.max()) > 254):
            raise ValidationError("embedding needs pixels in [1, 254]")
        idx, errors, pred = self._even_errors(a)
        carriers = np.flatnonzero((errors == 0) | (errors == -1))
        room = carriers.size
        if payload.size > room:
            raise CapacityError(
                f"payload of {payload.size} bits exceeds capacity {room}",
                deficit_bits=payload.size - room,
            )
        fill = np.zeros(room, dtype=np.int32)
        fill[: payload.size] = payload
        coded = errors + (errors >= 1) - (errors <= -2)
        coded[carriers] = np.where(errors[carriers] == 0, fill, -1 - fill)
        flat = a.flatten()
        flat[idx] = pred + coded
        return flat.reshape(a.shape)

    def extract(self, marked):
        """Return (full carrier bit stream, original image)."""
        a = as_gray(marked)
        idx, coded, pred = self._even_errors(a)
        c = coded[np.flatnonzero((coded >= -2) & (coded <= 1))]
        bits = np.where(c >= 0, c, -(c + 1)).astype(np.uint8)
        restored = pred + (coded - (coded >= 1) + (coded <= -2))
        if int(restored.min()) < 0 or int(restored.max()) > 255:
            raise CorruptionError("recovered pre-embedding image leaves [0, 255]")
        flat = a.flatten()
        flat[idx] = restored
        return bits, flat.reshape(a.shape)


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
