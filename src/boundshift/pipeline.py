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

from . import codec
from .codec import _floors, compress, compress_binary_baseline, decompress
from .embedder import PredictionErrorEmbedder, _pass_rooms
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
# (threshold pair, its kept read-only draw or None): the last report payload
_report_payload = (None, None)


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
    """The seeded report payload of bit_count bits for this threshold pair.
    One seed's draw of n bits is a prefix of its draw of more, so a pair
    asked for twice in a row has its draw kept, read-only, as one (pair,
    bits) tuple read and replaced whole, and a request no longer than the
    kept draw is a slice of it. A pair's first draw is the caller's own and
    is not kept: a sweep asks for each pair once, and marking every draw
    read-only made full sweeps of blobs covers 1-2.5% slower."""
    global _report_payload
    pair, kept = _report_payload
    if pair == (t_even, t_odd) and kept is not None and kept.size >= bit_count:
        return kept[:bit_count]
    rng = np.random.default_rng((_REPORT_PAYLOAD_SEED, t_even, t_odd))
    bits = rng.integers(0, 2, size=bit_count, dtype=np.uint8)
    if pair != (t_even, t_odd):
        _report_payload = ((t_even, t_odd), None)
        return bits
    bits.flags.writeable = False
    _report_payload = (pair, bits)
    # a view of a read-only array cannot be made writeable, so no caller
    # can change the kept draw
    return bits[:]


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
    without it only picks (_pick_only), and only such a state builds the
    table measure_pass reads each even pass's rooms off: one of the clamped
    cover, whose odd cells no even pass moves. Such a state also takes the
    compiled kernel's step per even pass (codec._pass_step), whose arrays
    and scratch it keeps for the sweep, where the kernel loaded: kernel is
    None where it did not, and pass_step then runs the NumPy one."""

    def __init__(self, a, shift, measure_psnr=True):
        self.measure_psnr = measure_psnr
        self.stats = _cover_stats(a, shift)
        self.passes = _ForwardCache(a, shift)
        self.symbols = self.cmap = None
        # key: (boundary count after, room, map floor or None)
        self.measured = {}
        self.maps = {}
        self.last = (None, None)
        self.table = self.kernel = None
        if not measure_psnr:
            # 16 S + n per cell, S the sum of its n in-grid neighbours
            # (_pass_rooms), at most 16 * 4 * 254 + 4: int16 holds it
            ring = np.pad(np.clip(a, shift, 255 - shift).astype(np.int16) * 16 + 1, 1)
            self.table = ring[:-2, 1:-1] + ring[2:, 1:-1] + ring[1:-1, :-2] + ring[1:-1, 2:]
            if codec._pass_step is not None:
                self.kernel = codec._pass_step(a.shape)
        # even cells moved: the rows of its pass; (t_even, t_odd): the key
        self.rows, self.keys = {}, {}

    def pass_step(self, t_even, thresholds):
        """(marked, cells, index, flip, rooms) of t_even's even pass, as
        _ForwardCache.odd_steps and embedder._pass_rooms give them: from the
        kernel's step in one C loop where it loaded, else from those two."""
        if self.kernel is not None:
            grid, pred = self.passes.even_pass(t_even)
            return self.kernel(grid, pred, self.table, self.passes.shift, thresholds)
        grid, marked, cells, index, step, flip = self.passes.odd_steps(t_even, thresholds)
        return marked, cells, index, flip, _pass_rooms(self.table, grid, cells, index, step,
                                                       len(thresholds))

    def measure_pass(self, t_even, thresholds):
        """The rows (key, boundary count after, room, map floor) of the cell
        of t_even and each t_odd of thresholds (sorted, the same each call),
        in one step per distinct even pass (pass_step, the compiled kernel's
        where it loaded), named by the even cells it moves: the clamped pass
        with no odd cell moved gives a count, a room and the clamped cells,
        and the odd cells that first move at each t_odd change them, and the
        key, from there on."""
        even = self.passes.moved(0, t_even)
        if even not in self.rows:
            marked, moved, index, flip, rooms = self.pass_step(t_even, thresholds)
            size = len(thresholds)
            odds = np.cumsum(np.bincount(index, minlength=size)).tolist()
            flips = np.cumsum(np.bincount(index, flip, size)).astype(int)
            counts = np.count_nonzero(marked) + flips
            floors = _floors(marked.size, 2 * self.passes.shift + 1, marked, moved, index, flip,
                             counts)
            for odd, *row in zip(odds, counts.tolist(), rooms.tolist(), floors):
                self.measured[even, odd] = tuple(row)
            self.rows[even] = [((even, odd), *self.measured[even, odd]) for odd in odds]
        self.keys.update(((t_even, t), row[0]) for t, row in zip(thresholds, self.rows[even]))
        return self.rows[even]

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
    """Metrics for one threshold cell (_record); PSNR is measured on a marked
    image carrying a seeded max-size pseudorandom payload. state is sweep's,
    for this cover and shift width; a state built with measure_psnr=False
    skips that embed, and a cell that fits reports psnr_db as NaN."""
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
        # read off the rows of a pick-only sweep, or found as a full one does
        key = state.keys.get((params.t_even, params.t_odd)) or state.passes.key(params)
        after_count, room, cmap = state.evaluate(params, key)
    rec = _record((params.t_even, params.t_odd), stats, after_count, room, cmap, a.size)
    if rec.psnr_db is not None and (state is None or state.measure_psnr):
        if state is not None:
            out = state.output(params, key)
        payload = _payload_for_report(round(rec.r_emb * a.size), params.t_even, params.t_odd)
        rec.psnr_db = psnr(a, _embed_frame(out, cmap, room, payload, params, a))
    return rec


def _record(pair, stats, after_count, room, cmap, size):
    """A cell's SweepRecord from its (t_even, t_odd) pair, the cover's stats
    and pixel count (size), and the cell's boundary count after, room and
    coded map. r_emb is the room left after the header and the map, per
    pixel; psnr_db is NaN where the frame fits, for the caller to measure,
    and None where it does not. cmap is None for a cell whose map was not
    coded: its map_bits_after, r1, r_emb and psnr_db are None."""
    t_even, t_odd = pair
    before_count, before_bits = stats
    defined = before_count > 0
    map_bits = r1 = r_emb = quality = None
    if cmap is not None:
        map_bits = cmap.bit_length
        r1 = 100.0 * map_bits / before_bits if defined else None
        r_emb = max(0, room - FRAME_HEADER_BITS - map_bits) / size
        quality = math.nan if room >= FRAME_HEADER_BITS + map_bits else None
    return SweepRecord(
        t_even=t_even, t_odd=t_odd,
        boundary_before=before_count, boundary_after=after_count,
        map_bits_before=before_bits, map_bits_after=map_bits,
        r0=100.0 * after_count / before_count if defined else None,
        r1=r1, r_emb=r_emb, psnr_db=quality,
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
    for v in thresholds:
        check_param("t_odd", v)
    state = _SweepState(a, t, measure_psnr)
    if not measure_psnr:
        return _pick_only(a, state, thresholds)
    cells = [PreprocessParams(t, t_even, t_odd) for t_even in thresholds for t_odd in thresholds]
    records = [evaluate_cell(a, params, state) for params in cells]
    # max returns the first of equal records, so ties go to the smallest pair
    max(records, key=lambda rec: rec.r_emb).selected = True
    return records


def _pick_only(a, state, thresholds):
    """The records of a sweep that only picks; cells run t_even-major over
    thresholds, and only the cells it evaluates get a PreprocessParams.
    Every cell's boundary count, room and a floor on its map's bits
    (codec._floors) come first, in one step per distinct even pass
    (_SweepState.measure_pass), with no map coded. A key's payload room is
    then at most its room less the header and that floor. The distinct keys
    are visited in decreasing such bound, ties in sweep order, and a key's
    map is coded only while its bound can beat the best payload room so
    far, or tie it from an earlier cell than the pick's. The pick is the
    first cell of the best payload room in sweep order, or the grid's first
    cell when no cell has a positive one, as max over the full records
    gives. The pick's record is evaluate_cell's; every other cell's is
    _record's from the table of what was measured and coded: the full
    sweep's where its key's map was coded, one without a map elsewhere."""
    shift = state.passes.shift
    pairs = [(t_even, t_odd) for t_even in thresholds for t_odd in thresholds]
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
        _, _, cmap = state.evaluate(PreprocessParams(shift, *pairs[i]), key)
        payload = room - FRAME_HEADER_BITS - cmap.bit_length
        if payload > best or (payload == best and i < pick):
            best, pick = payload, i
    # the pick first: evaluating it codes its key's map if pruning did not,
    # which the records of the other cells of that key then read
    picked = evaluate_cell(a, PreprocessParams(shift, *pairs[pick]), state)
    records = [_record(pair, state.stats, count, room, state.maps.get(key), a.size)
               for pair, (key, count, room, _) in zip(pairs, measured)]
    records[pick] = picked
    picked.selected = True
    return records
