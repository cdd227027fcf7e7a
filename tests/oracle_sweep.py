"""Cell-by-cell reference for pipeline.sweep.

Every cell runs the whole chain on its own, from the cover: forward,
compress, capacity, and, when the side information fits, a max-size
seeded payload framed, embedded and measured with psnr. Nothing is shared
between cells, so a sweep that reuses work must give the same records.
"""

import zlib

import numpy as np

from boundshift import (
    PredictionErrorEmbedder,
    PreprocessParams,
    SweepRecord,
    compress,
    compress_binary_baseline,
    count_boundary_pixels,
    forward,
    psnr,
)
from boundshift.formats import FRAME_HEADER_BITS, frame_payload

_EMBEDDER = PredictionErrorEmbedder()


def oracle_cell(cover, params):
    """The SweepRecord of one cell, computed from scratch."""
    t = params.shift
    before_count = count_boundary_pixels(cover, t)
    before_bits = compress_binary_baseline(cover, t).bit_length
    out = forward(cover, params)
    cmap = compress(out.locmap)
    room = _EMBEDDER.capacity(out.shifted)
    after_count = int((out.locmap.symbols != 2 * t).sum())
    side_info = FRAME_HEADER_BITS + cmap.bit_length
    payload_room = max(0, room - side_info)
    quality = None
    if room >= side_info:
        rng = np.random.default_rng((1, params.t_even, params.t_odd))
        payload = rng.integers(0, 2, size=payload_room, dtype=np.uint8)
        checksum = zlib.crc32(np.packbits(payload).tobytes(), zlib.crc32(cover.tobytes()))
        marked = _EMBEDDER.embed(out.shifted, frame_payload(payload, cmap, params, checksum))
        quality = psnr(cover, marked)
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
        r_emb=payload_room / cover.size,
        psnr_db=quality,
    )


def oracle_sweep(cover, t_range, shift):
    """Records for the sorted, de-duplicated grid t_range x t_range in
    t_even-major order; the first record of the highest r_emb is selected."""
    thresholds = sorted(set(int(v) for v in t_range))
    records = [
        oracle_cell(cover, PreprocessParams(shift, t_even, t_odd))
        for t_even in thresholds
        for t_odd in thresholds
    ]
    best = max(records, key=lambda rec: rec.r_emb)
    best.selected = True
    return records
