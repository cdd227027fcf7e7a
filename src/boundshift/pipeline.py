"""End-to-end embed/extract plus capacity accounting and threshold sweeps.

embed_full chains the boundary-clearing transform, map compression,
framing, and the embedder; extract_full is blind (everything it needs
travels in-band) and inverts the chain exactly, then checks the recovered
cover and payload against the frame's CRC-32 (formats.check_frame).
max_payload is the capacity left after the 136-bit header and the
compressed map; sweep evaluates a threshold grid and flags the best cell.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codec import _floors, compress, compress_binary_baseline, decompress
from .embedder import PredictionErrorEmbedder, _carrier_changes
from .errors import CapacityError, CorruptionError, ValidationError
from .formats import FRAME_HEADER_BITS, check_frame, deframe_payload, frame_crc, frame_payload
from .imagecore import (as_bits, as_flag, as_gray, check_param, count_boundary_pixels, psnr,
                        validate_shift_width)
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
    marked-image quality (None when the side information does not fit, NaN
    when it fits but was not measured). A cell a pick-only sweep pruned has
    no coded map: its map_bits_after, r1, r_emb and psnr_db are None."""

    t_even: int
    t_odd: int
    boundary_before: int
    boundary_after: int
    map_bits_before: int
    map_bits_after: int | None
    r0: float | None
    r1: float | None
    r_emb: float | None
    psnr_db: float | None
    selected: bool = False


def _prepare(a, params):
    """Shifted image, coded map and capacity of one cell."""
    out = forward(a, params)
    return out, compress(out.locmap), _EMBEDDER.capacity(out.shifted)


def _embed_frame(out, cmap, room, payload, params, cover):
    """Frame map and payload, check that the frame fits, and embed it."""
    framed = frame_payload(payload, cmap, params, frame_crc(cover, payload))
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
    marked = _embed_frame(out, cmap, room, bits, params, a)
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
    legacy_v1 = as_flag(legacy_v1, "legacy_v1")
    a = as_gray(marked)
    stream, shifted = _EMBEDDER.extract(a)
    height, width = a.shape
    payload, cmap, params, checksum = deframe_payload(stream, width, height)
    if checksum is None and not legacy_v1:
        raise CorruptionError(
            "version 1 frame: it carries no checksum, so it is decoded only on "
            "request (legacy_v1=True, extract --legacy-v1)"
        )
    locmap = decompress(cmap, a.shape)
    cover = inverse(shifted, locmap, params)
    check_frame(checksum, cover, payload)
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
    """(boundary census, baseline map bits) of a cover: what every cell of
    the cover shares."""
    before_bits = compress_binary_baseline(a, shift).bit_length
    return count_boundary_pixels(a, shift), before_bits


class _SweepState:
    """What the cells of one sweep share: the cover's stats, its forward
    passes, the last coded map, reused while the map does not change, and
    per key (_ForwardCache.key: cells of one key have the same shifted image
    and map) its boundary count, room and map floor, and its coded map. It
    holds a fixed number of images, whatever the grid size, so a map coded
    after other cells ran recomputes its forward output. measure_psnr says
    whether a cell that fits embeds a payload to measure its PSNR; a state
    without it only picks (_pick_only)."""

    def __init__(self, a, shift, measure_psnr=True):
        self.measure_psnr = measure_psnr
        self.stats = _cover_stats(a, shift)
        self.passes = _ForwardCache(a, shift)
        self.symbols = self.cmap = None
        # key: (boundary count after, room, map floor or None)
        self.measured = {}
        self.maps = {}
        self.last = (None, None)

    def measure_pass(self, t_even, thresholds):
        """(key, boundary count after, room, map floor) of the cell of t_even
        and each t_odd of thresholds (sorted), in one step per distinct even
        pass: the clamped even pass with no odd cell moved gives a count, a
        room and the clamped cells, and the odd cells that first move at each
        t_odd (_ForwardCache.odd_steps) change them from there on."""
        keys = self.passes.keys(t_even, thresholds)
        if any(key not in self.measured for key in keys):
            grid, marked, moved, index, step, flip = self.passes.odd_steps(t_even, thresholds)
            size = len(thresholds)
            flips = np.cumsum(np.bincount(index, flip, size)).astype(int)
            counts = np.count_nonzero(marked) + flips
            rooms = _EMBEDDER.capacity(grid) + _carrier_changes(grid, moved, index, step, size)
            floors = _floors(grid.size, 2 * self.passes.shift + 1, marked, moved, index, flip,
                             counts)
            for key, count, room, floor in zip(keys, counts.tolist(), rooms.tolist(), floors):
                self.measured[key] = (count, room, floor)
        return [(key, *self.measured[key]) for key in keys]

    def evaluate(self, params, key):
        """(boundary count after, room, coded map) of a cell of this key, from
        one forward output per key; count and room are measured there only
        for a key that no pass measured."""
        if key not in self.maps:
            out = self.output(params, key)
            if key not in self.measured:
                self.measured[key] = (boundary_count_after(out),
                                      _EMBEDDER.capacity(out.shifted), None)
            if self.symbols is None or not np.array_equal(out.locmap.symbols, self.symbols):
                self.symbols, self.cmap = out.locmap.symbols, compress(out.locmap)
            self.maps[key] = self.cmap
        after_count, room, _ = self.measured[key]
        return after_count, room, self.maps[key]

    def output(self, params, key):
        """The forward output of a cell of this key; the last one is kept for
        a run of cells of one key."""
        if self.last[0] != key:
            self.last = (key, self.passes.forward(params))
        return self.last[1]


def evaluate_cell(cover, params, state=None):
    """Metrics for one threshold cell; PSNR is measured on a marked image
    carrying a seeded max-size pseudorandom payload. state is sweep's, for
    this cover and shift width; a state built with measure_psnr=False skips
    that embed, and a cell that fits reports psnr_db as NaN."""
    a = as_gray(cover)
    # checked in forward's order, before the cover's stats read params.shift
    _check_size(a)
    if not isinstance(params, PreprocessParams):
        raise ValidationError("params must be a PreprocessParams")
    if state is None:
        stats = _cover_stats(a, params.shift)
        out, cmap, room = _prepare(a, params)
        after_count = boundary_count_after(out)
    elif not isinstance(state, _SweepState):
        raise ValidationError("state must be a sweep's state")
    elif params.shift != state.passes.shift or (
            a is not state.passes.cover and not np.array_equal(a, state.passes.cover)):
        raise ValidationError("state was built for another cover or shift width")
    else:
        stats = state.stats
        key = state.passes.key(params)
        after_count, room, cmap = state.evaluate(params, key)
    side_info = FRAME_HEADER_BITS + cmap.bit_length
    payload_room = max(0, room - side_info)
    if room < side_info:
        quality = None
    elif state is not None and not state.measure_psnr:
        quality = math.nan
    else:
        if state is not None:
            out = state.output(params, key)
        payload = _payload_for_report(payload_room, params.t_even, params.t_odd)
        marked = _embed_frame(out, cmap, room, payload, params, a)
        quality = psnr(a, marked)
    return _record(params, stats, after_count, cmap.bit_length, payload_room / a.size, quality)


def _record(params, stats, after_count, map_bits, r_emb, quality):
    """A cell's SweepRecord from the cover's stats and the cell's numbers;
    map_bits is None for a cell whose map was not coded."""
    before_count, before_bits = stats
    defined = before_count > 0
    return SweepRecord(
        t_even=params.t_even,
        t_odd=params.t_odd,
        boundary_before=before_count,
        boundary_after=after_count,
        map_bits_before=before_bits,
        map_bits_after=map_bits,
        r0=100.0 * after_count / before_count if defined else None,
        r1=100.0 * map_bits / before_bits if defined and map_bits is not None else None,
        r_emb=r_emb,
        psnr_db=quality,
    )


def sweep(cover, t_range, shift, measure_psnr=True):
    """Evaluate every (t_even, t_odd) cell; the record with the highest
    r_emb is flagged selected, ties resolved to the smallest pair.

    The cells run t_even-major and share one _SweepState, so cells whose
    thresholds move the same pixels share one evaluation. With
    measure_psnr, each cell that fits embeds its own seeded payload.

    measure_psnr=False only picks (_pick_only): the selected record, and
    every record whose map was coded, is the full sweep's with psnr_db NaN
    where the side information fits; a pruned record has map_bits_after,
    r1, r_emb and psnr_db None."""
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
    measure_psnr = as_flag(measure_psnr, "measure_psnr")
    # the first cell's thresholds are checked before the cover's size, as
    # evaluating that cell on its own would, and the others before any cell
    # runs, each as the t_odd of the first row's cell that meets it first
    check_param("t_even", thresholds[0])
    _check_size(a)
    cells = [PreprocessParams(t, t_even, t_odd) for t_even in thresholds for t_odd in thresholds]
    state = _SweepState(a, t, measure_psnr)
    if not measure_psnr:
        return _pick_only(a, cells, state, thresholds)
    records = [evaluate_cell(a, params, state) for params in cells]
    # max returns the first of equal records, so ties go to the smallest pair
    max(records, key=lambda rec: rec.r_emb).selected = True
    return records


def _pick_only(a, cells, state, thresholds):
    """The records of a sweep that only picks; cells run t_even-major over
    thresholds. Every cell's boundary count, room and a floor on its map's
    bits (codec._floors) come first, in one step per distinct even pass
    (_SweepState.measure_pass), with no map coded. A key's payload room is
    then at most its room less the header and that floor. The distinct keys
    are visited in decreasing such bound, ties in sweep order, and a key's
    map is coded only while its bound can beat the best payload room so
    far, or tie it from an earlier cell than the pick's. The pick is the
    first cell of the best payload room in sweep order, or the grid's first
    cell when no cell has a positive one, as max over the full records
    gives. The pick and every cell of a coded key get the full sweep's
    record, the others one without a map."""
    measured = []
    for t_even in thresholds:
        measured += state.measure_pass(t_even, thresholds)
    first = {}
    for i, (key, _, _, _) in enumerate(measured):
        first.setdefault(key, i)
    most = {i: measured[i][2] - FRAME_HEADER_BITS - measured[i][3] for i in first.values()}
    best, pick = 0, 0
    # sorted is stable and most holds the keys' first cells in sweep order,
    # so a key that cannot win is followed only by keys that cannot either
    for i in sorted(most, key=lambda i: -most[i]):
        if most[i] < best or (most[i] == best and i >= pick):
            break
        key, _, room, _ = measured[i]
        _, _, cmap = state.evaluate(cells[i], key)
        payload = room - FRAME_HEADER_BITS - cmap.bit_length
        if payload > best or (payload == best and i < pick):
            best, pick = payload, i
    records = []
    for i, (params, (key, after_count, _, _)) in enumerate(zip(cells, measured)):
        if i == pick or key in state.maps:
            records.append(evaluate_cell(a, params, state))
        else:
            records.append(_record(params, state.stats, after_count, None, None, None))
    records[pick].selected = True
    return records
