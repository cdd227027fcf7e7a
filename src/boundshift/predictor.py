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

import numpy as np

from .errors import ValidationError

# Bounds on |value| that keep the sums exact: twice a border total of three
# neighbors plus its count, and four neighbors plus the rounding offset, stay
# within 24,579 in int16 and 1.5 * 2**30 + 3 in int32.
_LIMIT16 = 1 << 12
_LIMIT = 1 << 28


def predict_grid(img):
    """Predictions for every cell at once, same shape as img: an int16 grid
    when every |value| is at most 2**12 (always for uint8), else int32.

    Values of magnitude above 2**28 raise ValidationError rather than
    overflow the int32 arithmetic.
    """
    a = np.asarray(img)
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-D grid, got shape {a.shape}")
    h, w = a.shape
    if h == 1 and w == 1:
        raise ValidationError("1x1 grid has no neighbors to predict from")
    if not np.issubdtype(a.dtype, np.integer):
        a = a.astype(np.int64)
    bound = max(-int(a.min()), int(a.max())) if a.size and a.dtype.itemsize > 1 else 0
    if bound > _LIMIT:
        raise ValidationError("grid values must lie in [-2**28, 2**28] to predict")
    dtype = np.int16 if bound <= _LIMIT16 else np.int32
    if a.dtype.itemsize > 2:
        a = a.astype(dtype)
    total = np.zeros((h, w), dtype=dtype)
    if not total.size:
        return total
    total[1:] += a[:-1]
    total[:-1] += a[1:]
    total[:, 1:] += a[:, :-1]
    total[:, :-1] += a[:, 1:]
    # The border ring, row 0, row h-1, then columns 0 and w-1 between them:
    # three neighbors each, two at the corners. A single row or column has
    # one neighbor less everywhere, and its ring holds each cell twice.
    ring = np.concatenate((total[0], total[-1], total[1:-1, 0], total[1:-1, -1]))
    sides = 3 - (h == 1) - (w == 1)
    count = np.full(ring.size, sides, dtype=dtype)
    count[[0, w - 1, w, 2 * w - 1]] = sides - 1
    # ring / count rounded to the nearest integer, ties away from zero
    ring = (2 * np.abs(ring) + count) // (2 * count) * np.sign(ring)
    # Inside, four neighbors: (total + 2) >> 2 rounds halves up, and one
    # less for a negative total (shifted right by all but its sign bit, -1)
    # rounds them down, so ties go away from zero.
    inner = total[1:-1, 1:-1]
    sign = inner >> (8 * inner.itemsize - 1)
    inner += 2
    inner += sign
    inner >>= 2
    total[0], total[-1] = ring[:w], ring[w:2 * w]
    total[1:-1, 0], total[1:-1, -1] = ring[2 * w:2 * w + h - 2], ring[2 * w + h - 2:]
    return total
