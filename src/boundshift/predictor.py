"""Four-neighbor average prediction shared by the encoder and decoder sides.

A cell's prediction reads only its in-bounds vertical/horizontal neighbors,
which all sit on the opposite checkerboard parity. That makes each parity
pass data-parallel: predict_grid computes every cell at once. The mean is
rounded to the nearest integer with ties away from zero, in integer
arithmetic; tests/oracle_predict.py holds the per-cell reference that
predict_grid is checked against.

Every cell off the border has four neighbors, so its mean is a 2-bit shift
of the neighbors' sum; only the border ring (two or three neighbors, or one
on a single-row or single-column grid) divides by its true count.
"""

from functools import lru_cache

import numpy as np

from .errors import ValidationError

# The bound on |value| that keeps the int16 sums exact: twice a border total
# of three neighbors plus its count is at most 2 * 3 * 4096 + 3 = 24,579, and
# four neighbors plus the rounding offset 4 * 4096 + 2.
_LIMIT = 1 << 12


@lru_cache(maxsize=16)
def _ring(h, w):
    """The border ring of an h x w grid in predict_grid's layout, rows w + 1
    apart: (flat positions, neighbour counts, twice the counts), read-only.
    Row 0 and row h - 1 have three neighbours a cell, columns 0 and w - 1 as
    well, the corners two; a single row or column has one less everywhere."""
    rows, cols = np.ogrid[:h, :w]
    count = (rows > 0).astype(np.int16) + (rows < h - 1) + (cols > 0) + (cols < w - 1)
    ring = np.flatnonzero(count < 4)
    count = count.ravel()[ring]
    # cell r * w + c of the grid sits at r * (w + 1) + c
    layout = (ring + ring // w, count, 2 * count)
    for a in layout:
        a.flags.writeable = False
    return layout


def predict_grid(img):
    """Predictions for every cell at once: an int16 grid of img's shape.

    img must hold integers of magnitude at most 2**12, as every uint8 and
    int8 grid does; any other grid raises ValidationError rather than
    overflow the int16 sums.
    """
    try:
        a = np.asarray(img)
    except ValueError as exc:
        raise ValidationError(f"grid is not rectangular: {exc}") from None
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-D grid, got shape {a.shape}")
    h, w = a.shape
    if h == 1 and w == 1:
        raise ValidationError("1x1 grid has no neighbors to predict from")
    if not np.issubdtype(a.dtype, np.integer):
        raise ValidationError(f"grid values must be integers, got {a.dtype}")
    if not a.size:
        return np.zeros((h, w), dtype=np.int16)
    low = 0
    if a.dtype.kind == "i" or a.dtype.itemsize > 1:
        low = int(a.min())
        if low < -_LIMIT or int(a.max()) > _LIMIT:
            raise ValidationError("grid values must lie in [-2**12, 2**12] to predict")
    # One flat copy: rows of stride w + 1 that end in a zero, between a zero
    # row above and one below. A cell's four neighbors are then four
    # contiguous slices, a missing one adds 0, and no sum crosses a row.
    s = w + 1
    flat = np.zeros((h + 2) * s, dtype=np.int16)
    flat[s:(h + 1) * s].reshape(h, s)[:, :w] = a
    n = h * s
    total = flat[:n] + flat[2 * s:2 * s + n]
    total += flat[s - 1:s - 1 + n]
    total += flat[s + 1:s + 1 + n]
    grid = total.reshape(h, s)[:, :w]
    # The border ring, gathered before the interior is rounded: two or three
    # neighbors a cell, one on a single row or column. Its mean rounds as
    # (2 total + n) // 2n on a grid with no negative value, whose totals are
    # all at least 0, and with the signs split off otherwise, so ties go
    # away from zero.
    at, count, twice = _ring(h, w)
    ring = total[at]
    if low < 0:
        ring = (2 * np.abs(ring) + count) // twice * np.sign(ring)
    else:
        ring = (2 * ring + count) // twice
    # Inside, four neighbors: (total + 2) >> 2 rounds halves up, and one
    # less for a negative total (total + 2 < 2) rounds them down, so ties go
    # away from zero. Only a grid with a negative value has such totals.
    total += 2
    if low < 0:
        total -= total < 2
    total >>= 2
    total[at] = ring
    return grid
