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
from .preprocess import (
    PreprocessParams,
    _check_size,
    _ForwardCache,
    boundary_count_after,
    forward,
    inverse,
)

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


def _checksum(cover_crc, payload):
    """CRC-32 over the cover's raster-order bytes, then the packed payload
    bits, continued from cover_crc = zlib.crc32(cover.tobytes())."""
    return zlib.crc32(np.packbits(payload).tobytes(), cover_crc)


def _prepare(a, params, state=None):
    """Shifted image, coded map and capacity; state is sweep's, if any."""
    if state is None:
        out = forward(a, params)
        cmap = compress(out.locmap)
    else:
        out = state.passes.forward(params)
        cmap = state.compress(out.locmap)
    return out, cmap, _EMBEDDER.capacity(out.shifted)


def _embed_frame(out, cmap, room, payload, params, cover_crc):
    """Frame map and payload, check that the frame fits, and embed it."""
    framed = frame_payload(payload, cmap, params, _checksum(cover_crc, payload))
    if framed.size > room:
        raise CapacityError(
            f"frame of {framed.size} bits exceeds capacity {room} "
            f"({cmap.bit_length} map bits + {FRAME_HEADER_BITS} header bits)",
            deficit_bits=framed.size - room,
        )
    return _EMBEDDER.embed(out.shifted, framed)


def max_payload(cover, params):
    """Payload bits embed_full can carry for this cover and parameter set."""
    _, cmap, room = _prepare(as_gray(cover), params)
    return max(0, room - FRAME_HEADER_BITS - cmap.bit_length)


def embed_full(cover, payload, params):
    """Clear boundary pixels, then embed map + payload; returns EmbedResult."""
    bits = as_bits(payload)
    a = as_gray(cover)
    out, cmap, room = _prepare(a, params)
    marked = _embed_frame(out, cmap, room, bits, params, zlib.crc32(a.tobytes()))
    side_info = FRAME_HEADER_BITS + cmap.bit_length
    return EmbedResult(
        marked=marked,
        r_emb=max(0, room - side_info) / a.size,
        psnr_db=psnr(a, marked),
        params_used=params,
        side_info_bits=side_info,
    )


def extract_full(marked, legacy_v1=False):
    """Blind extraction: returns (payload bits, recovered cover), or raises
    CorruptionError when they fail the frame's checksum.

    A version 1 frame carries no checksum, and two flipped carrier bits turn
    a version 2 frame into one, so it is decoded only with legacy_v1=True;
    otherwise it raises CorruptionError.
    """
    a = as_gray(marked)
    stream, shifted = _EMBEDDER.extract(a)
    height, width = a.shape
    payload, cmap, params, checksum = deframe_payload(stream, width, height)
    if checksum is None and not legacy_v1:
        raise CorruptionError(
            "version 1 frame: it carries no checksum, so it is decoded only on "
            "request (legacy_v1=True, extract --legacy-v1)"
        )
    locmap = decompress(cmap)
    cover = inverse(shifted, locmap, params)
    if checksum is not None and checksum != _checksum(zlib.crc32(cover.tobytes()), payload):
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


def _cover_stats(a, shift):
    """(boundary census, baseline map bits, CRC-32) of a cover: what every
    cell of the cover shares."""
    before_bits = compress_binary_baseline(a, shift).bit_length
    return count_boundary_pixels(a, shift), before_bits, zlib.crc32(a.tobytes())


class _SweepState:
    """What the cells of one sweep share: the cover's stats, its forward
    passes, and the last coded map, reused while the map does not change.
    It holds a fixed number of images, whatever the grid size."""

    def __init__(self, a, shift):
        self.cover = a
        self.stats = _cover_stats(a, shift)
        self.passes = _ForwardCache(a, shift)
        self.symbols = self.cmap = None

    def compress(self, locmap):
        if self.symbols is None or not np.array_equal(locmap.symbols, self.symbols):
            self.symbols, self.cmap = locmap.symbols, compress(locmap)
        return self.cmap


def evaluate_cell(cover, params, state=None):
    """Metrics for one threshold cell; PSNR is measured on a marked image
    carrying a seeded max-size pseudorandom payload. state is sweep's, for
    this cover and shift width."""
    a = as_gray(cover)
    # checked in forward's order, before the cover's stats read params.shift
    _check_size(a)
    if not isinstance(params, PreprocessParams):
        raise ValidationError("params must be a PreprocessParams")
    if state is None:
        before_count, before_bits, cover_crc = _cover_stats(a, params.shift)
    elif not isinstance(state, _SweepState):
        raise ValidationError("state must be a sweep's state")
    elif params.shift != state.passes.shift or not np.array_equal(a, state.cover):
        raise ValidationError("state was built for another cover or shift width")
    else:
        before_count, before_bits, cover_crc = state.stats
    out, cmap, room = _prepare(a, params, state)
    after_count = boundary_count_after(out)
    side_info = FRAME_HEADER_BITS + cmap.bit_length
    payload_room = max(0, room - side_info)
    if room >= side_info:
        payload = _payload_for_report(payload_room, params.t_even, params.t_odd)
        marked = _embed_frame(out, cmap, room, payload, params, cover_crc)
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
    r_emb is flagged selected, ties resolved to the smallest pair.

    The cells share one _SweepState and run t_even-major, so the cover is
    predicted once, each even pass once, and a map equal to the previous
    cell's is not coded again."""
    a = as_gray(cover)
    t = validate_shift_width(shift)
    try:
        values = iter(t_range)
    except TypeError:
        raise ValidationError(
            f"t_range must be an iterable of integers, got {t_range!r}") from None
    values = list(values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValidationError(f"t_range must hold integers, got {v!r}")
    thresholds = sorted(set(int(v) for v in values))
    if not thresholds:
        raise ValidationError("t_range must not be empty")
    # the first cell's thresholds are checked before the cover's size, as
    # evaluating that cell on its own would
    PreprocessParams(t, thresholds[0], thresholds[0])
    _check_size(a)
    state = _SweepState(a, t)
    records = []
    for t_even in thresholds:
        for t_odd in thresholds:
            records.append(evaluate_cell(a, PreprocessParams(t, t_even, t_odd), state))
    # max returns the first of equal records, so ties go to the smallest pair
    max(records, key=lambda rec: rec.r_emb).selected = True
    return records
