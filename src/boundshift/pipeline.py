"""End-to-end embed/extract plus capacity accounting and threshold sweeps.

embed_full chains the boundary-clearing transform, map compression,
framing, and the embedder; extract_full is blind (everything it needs
travels in-band) and inverts the chain exactly, then checks the frame's
CRC-32 against the recovered cover and payload. max_payload is the capacity
left after the 136-bit header and the compressed map; sweep evaluates a
threshold grid and flags the best cell.
"""

import zlib
from dataclasses import dataclass

import numpy as np

from .codec import compress, compress_binary_baseline, decompress
from .embedder import (
    FRAME_HEADER_BITS,
    PredictionErrorEmbedder,
    as_bits,
    deframe_payload,
    frame_payload,
)
from .errors import CapacityError, CorruptionError, ValidationError
from .imagecore import as_gray, count_boundary_pixels, psnr, validate_shift_width
from .preprocess import PreprocessParams, boundary_count_after, forward, inverse

_EMBEDDER = PredictionErrorEmbedder()
_REPORT_PAYLOAD_SEED = 1


@dataclass(eq=False)
class EmbedResult:
    """Marked image plus the metrics a report row needs."""

    marked: np.ndarray
    r_emb: float
    psnr_db: float
    params_used: PreprocessParams
    side_info_bits: int


@dataclass
class SweepRecord:
    """One threshold cell: boundary/map-size before and after, the reduction
    ratios (None when the cover has no boundary pixels), net rate, and the
    marked-image quality (None when the side information does not fit)."""

    t_even: int
    t_odd: int
    boundary_before: int
    boundary_after: int
    map_bits_before: int
    map_bits_after: int
    r0: float | None
    r1: float | None
    r_emb: float
    psnr_db: float | None
    selected: bool = False


def _checksum(cover, payload):
    """CRC-32 over the cover's raster-order bytes, then the packed payload bits."""
    return zlib.crc32(np.packbits(payload).tobytes(), zlib.crc32(cover.tobytes()))


def _prepare(cover, params):
    a = as_gray(cover)
    out = forward(a, params)
    cmap = compress(out.locmap)
    room = _EMBEDDER.capacity(out.shifted)
    return a, out, cmap, room


def max_payload(cover, params):
    """Payload bits embed_full can carry for this cover and parameter set."""
    _, _, cmap, room = _prepare(cover, params)
    return max(0, room - FRAME_HEADER_BITS - cmap.bit_length)


def embed_full(cover, payload, params):
    """Clear boundary pixels, then embed map + payload; returns EmbedResult."""
    bits = as_bits(payload)
    a, out, cmap, room = _prepare(cover, params)
    framed = frame_payload(bits, cmap, params, _checksum(a, bits))
    if framed.size > room:
        raise CapacityError(
            f"frame of {framed.size} bits exceeds capacity {room} "
            f"({cmap.bit_length} map bits + {FRAME_HEADER_BITS} header bits)",
            deficit_bits=framed.size - room,
        )
    marked = _EMBEDDER.embed(out.shifted, framed)
    side_info = FRAME_HEADER_BITS + cmap.bit_length
    return EmbedResult(
        marked=marked,
        r_emb=max(0, room - side_info) / a.size,
        psnr_db=psnr(a, marked),
        params_used=params,
        side_info_bits=side_info,
    )


def extract_full(marked):
    """Blind extraction: returns (payload bits, recovered cover), or raises
    CorruptionError when they fail the frame's checksum (version 2 frames)."""
    a = as_gray(marked)
    stream, shifted = _EMBEDDER.extract(a)
    height, width = a.shape
    payload, cmap, params, checksum = deframe_payload(stream, width, height)
    t = params.shift
    if shifted.size and (int(shifted.min()) < t or int(shifted.max()) > 255 - t):
        raise CorruptionError(
            f"recovered image has pixels outside [{t}, {255 - t}]"
        )
    locmap = decompress(cmap)
    cover = inverse(shifted, locmap, params)
    if checksum is not None and checksum != _checksum(cover, payload):
        raise CorruptionError("frame checksum does not match the recovered cover and payload")
    return payload, cover


def max_payload_baseline(cover, shift):
    """Capacity of the direct route: clamp boundary pixels into the interior
    range, carry the plain binary boundary map as side information."""
    a = as_gray(cover)
    t = validate_shift_width(shift)
    cmap = compress_binary_baseline(a, t)
    adjusted = np.clip(a, t, 255 - t).astype(np.uint8)
    room = _EMBEDDER.capacity(adjusted)
    return max(0, room - FRAME_HEADER_BITS - cmap.bit_length)


def _payload_for_report(bit_count, t_even, t_odd):
    rng = np.random.default_rng((_REPORT_PAYLOAD_SEED, t_even, t_odd))
    return rng.integers(0, 2, size=bit_count, dtype=np.uint8)


def evaluate_cell(cover, params, before_count=None, before_bits=None):
    """Metrics for one threshold cell; PSNR is measured on a marked image
    carrying a seeded max-size pseudorandom payload."""
    a = as_gray(cover)
    if before_count is None:
        before_count = count_boundary_pixels(a, params.shift)
    if before_bits is None:
        before_bits = compress_binary_baseline(a, params.shift).bit_length
    _, out, cmap, room = _prepare(a, params)
    after_count = boundary_count_after(out)
    side_info = FRAME_HEADER_BITS + cmap.bit_length
    payload_room = max(0, room - side_info)
    if room >= side_info:
        payload = _payload_for_report(payload_room, params.t_even, params.t_odd)
        framed = frame_payload(payload, cmap, params, _checksum(a, payload))
        marked = _EMBEDDER.embed(out.shifted, framed)
        quality = psnr(a, marked)
    else:
        quality = None
    defined = before_count > 0
    return SweepRecord(
        t_even=params.t_even,
        t_odd=params.t_odd,
        boundary_before=before_count,
        boundary_after=after_count,
        map_bits_before=before_bits,
        map_bits_after=cmap.bit_length,
        r0=100.0 * after_count / before_count if defined else None,
        r1=100.0 * cmap.bit_length / before_bits if defined else None,
        r_emb=payload_room / a.size,
        psnr_db=quality,
    )


def sweep(cover, t_range, shift):
    """Evaluate every (t_even, t_odd) cell; the record with the highest
    r_emb is flagged selected, ties resolved to the smallest pair."""
    a = as_gray(cover)
    t = validate_shift_width(shift)
    thresholds = sorted(set(int(v) for v in t_range))
    if not thresholds:
        raise ValidationError("t_range must not be empty")
    before_count = count_boundary_pixels(a, t)
    before_bits = compress_binary_baseline(a, t).bit_length
    records = []
    for t_even in thresholds:
        for t_odd in thresholds:
            records.append(
                evaluate_cell(
                    a,
                    PreprocessParams(t, t_even, t_odd),
                    before_count,
                    before_bits,
                )
            )
    best = 0
    for k, rec in enumerate(records):
        if rec.r_emb > records[best].r_emb:
            best = k
    records[best].selected = True
    return records
