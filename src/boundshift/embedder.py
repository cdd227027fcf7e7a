"""Reversible payload embedding on interior-range images.

The reference embedder is prediction-error histogram shifting on the even
checkerboard lattice: odd-parity pixels are never touched, so the decoder
re-derives the exact predictions the encoder used. Errors e = value -
prediction carry one bit each at e = 0 and e = -1; all other errors shift
outward by one to make room. Per-pixel change is at most 1, so any image
inside [1, 254] survives without overflow. What it carries, the framed
bitstream, is laid out by formats.
"""

import numpy as np

from .errors import CapacityError, ValidationError
# bench/spans.py reads FRAME_HEADER_BITS here until the library carries its
# own stage tracer (ROADMAP item 1)
from .formats import FRAME_HEADER_BITS  # noqa: F401
from .imagecore import as_bits, as_gray
from .predictor import predict_grid


def _with_even(grid, delta):
    """A copy of the uint8 grid, its even cells moved by delta (laid out as
    _even_errors lays out the errors); the caller keeps them in [0, 255]."""
    out, w = grid.copy(), grid.shape[1]
    np.add(out[0::2, 0::2], delta[0::2], out=out[0::2, 0::2], casting="unsafe")
    np.add(out[1::2, 1::2], delta[1::2, :w // 2], out=out[1::2, 1::2], casting="unsafe")
    return out


def _pass_rooms(table, grid, cells, index, step, size):
    """capacity(grid) for each index 0..size-1 as odd cells change: cells
    are flat positions, each changed by step from index (in [0, size)) on;
    table holds 16 S + n at each even cell, S the sum of its n in-grid
    neighbours in grid. Only even cells next to a changed odd cell change.
    The changes are sorted by (even cell, index), so each one's running sum
    is the cell's neighbour sum from then on; changes of one cell at one
    index telescope."""
    room = sum(int(np.count_nonzero(_carries(table[i::2, i::2], grid[i::2, i::2])))
               for i in (0, 1))
    changed = np.flatnonzero(step)
    if not changed.size:
        return np.full(size, room)
    h, w = grid.shape
    cells = cells[changed]
    row, col = np.divmod(cells, w)
    # each changed cell's four neighbours, less those off the grid, one row
    # per direction: cells are sorted, so the stable sort merges four runs
    keep = np.flatnonzero(np.stack((row > 0, row < h - 1, col > 0, col < w - 1)))
    near = (np.array([-w, w, -1, 1])[:, None] + cells).ravel()[keep]
    at, delta = np.tile(index[changed], 4)[keep], np.tile(step[changed], 4)[keep]
    order = np.argsort(near * size + at, kind="stable")
    near, at, delta = near[order], at[order], delta[order].astype(np.int32)
    # each even cell's first change
    start = np.flatnonzero(np.concatenate(([True], near[1:] != near[:-1])))
    # the running sum of each even cell's changes, from 0 at its first
    total = np.cumsum(delta)
    total -= np.repeat(total[start] - delta[start], np.diff(start, append=near.size))
    # 16 S + n after each change, and before it
    packed = table.ravel()[near] + 16 * np.stack((total, total - delta))
    carrier = _carries(packed, grid.ravel()[near]).view(np.int8)
    return room + np.cumsum(np.bincount(at, carrier[0] - carrier[1], size)).astype(int)


def _carries(packed, value):
    """Whether even cells of values E, their n neighbours summing to S
    (packed: 16 S + n), are carriers. With every value in [1, 254] one is
    predicted (2S + n) // 2n, on the border ring and inside alike, so it is
    iff that is E or E + 1: iff n(2E - 1) <= 2S < n(2E + 3)."""
    n, twice, value = packed & 15, 2 * (packed >> 4), 2 * value.astype(np.int16)
    return (n * (value - 1) <= twice) & (twice < n * (value + 3))


class PredictionErrorEmbedder:
    """Histogram shifting on even-lattice prediction errors, peaks 0 and -1;
    pixels must lie in [1, 254] and move by at most max_shift.

    An embedder keeps the error grid of the last image it analysed, with a
    private copy of that image, so capacity then embed of one image, or the
    cells of a sweep whose shifted image repeats, predict it once. The entry
    is used only for an image equal to the copy, so results are those of a
    fresh prediction, and it is read and replaced as one tuple, so threads
    sharing an embedder never see one image's copy with another's errors."""

    max_shift = 1

    def __init__(self):
        self._last = None

    def _even_errors(self, grid):
        """The even cells' prediction errors of a uint8 grid, read-only. The
        two strided sub-lattices g[0::2, 0::2] and g[1::2, 1::2] interleave
        by row into one (h, ceil(w/2)) int16 grid of errors in raster order;
        a row one even cell short ends in 2, which carries no bit."""
        last = self._last
        if last is not None and np.array_equal(last[0], grid):
            return last[1]
        pred = predict_grid(grid)
        h, w = grid.shape
        errors = np.full((h, (w + 1) // 2), 2, dtype=np.int16)
        np.subtract(grid[0::2, 0::2], pred[0::2, 0::2], out=errors[0::2])
        np.subtract(grid[1::2, 1::2], pred[1::2, 1::2], out=errors[1::2, :w // 2])
        errors.flags.writeable = False
        self._last = (grid.copy(), errors)
        return errors

    def capacity(self, img):
        """Number of payload bits img can carry."""
        errors = self._even_errors(as_gray(img))
        return int(np.count_nonzero((errors == 0) | (errors == -1)))

    def embed(self, img, bits):
        """Return a marked image carrying bits, unused carriers filled with zeros."""
        a = as_gray(img)
        payload = as_bits(bits)
        if int(a.min()) < 1 or int(a.max()) > 254:
            raise ValidationError("embedding needs pixels in [1, 254]")
        errors = self._even_errors(a)
        carriers = np.flatnonzero((errors == 0) | (errors == -1))
        room = carriers.size
        if payload.size > room:
            raise CapacityError(
                f"payload of {payload.size} bits exceeds capacity {room}",
                deficit_bits=payload.size - room,
            )
        # a marked error is e + delta: every other error moves one step away
        # from zero, and a 1 bit moves a carrier's e by 2e + 1, 0 to 1 and -1 to -2
        delta = (errors >= 1).view(np.int8) - (errors <= -2).view(np.int8)
        used = carriers[:payload.size]
        delta.ravel()[used] = payload * (2 * errors.ravel()[used] + 1)
        return _with_even(a, delta)

    def extract(self, marked):
        """Return (full carrier bit stream, original image)."""
        a = as_gray(marked)
        coded = self._even_errors(a)
        # picked through np.flatnonzero: masked indexing branches on every cell
        c = coded.ravel()[np.flatnonzero((coded >= -2) & (coded <= 1))]
        bits = np.where(c >= 0, c, -(c + 1)).astype(np.uint8)
        # codes >= 1 step down and codes <= -2 up, undoing a shift and a 1 bit
        # alike, and never out of uint8: as a prediction lies in [0, 255], a
        # code >= 1 is a value of at least 1 and a code <= -2 one of at most 253
        delta = (coded <= -2).view(np.int8) - (coded >= 1).view(np.int8)
        return bits, _with_even(a, delta)
