"""Scalar per-cell references that the vectorized package code is checked against.

predict_grid computes every prediction at once with array arithmetic; the
functions here compute one cell at a time with plain Python integers, so a
disagreement between the two points at the vectorized code.
"""

import numpy as np

from boundshift import ValidationError


def round_half_away(total, count):
    """Nearest integer to total/count, ties rounded away from zero."""
    if count <= 0:
        raise ValidationError("count must be positive")
    total = int(total)
    count = int(count)
    if total >= 0:
        return (2 * total + count) // (2 * count)
    return -((-2 * total + count) // (2 * count))


def predict(img, i, j):
    """Predict one pixel from its in-bounds 4-neighborhood.

    Works on both uint8 images and wide intermediate grids (values may be
    negative or exceed 255 mid-pipeline).
    """
    a = np.asarray(img)
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-D grid, got shape {a.shape}")
    h, w = a.shape
    if not (0 <= i < h and 0 <= j < w):
        raise ValidationError(f"cell ({i}, {j}) outside a {h}x{w} grid")
    total = 0
    count = 0
    if i > 0:
        total += int(a[i - 1, j])
        count += 1
    if i < h - 1:
        total += int(a[i + 1, j])
        count += 1
    if j > 0:
        total += int(a[i, j - 1])
        count += 1
    if j < w - 1:
        total += int(a[i, j + 1])
        count += 1
    if count == 0:
        raise ValidationError("1x1 grid has no neighbors to predict from")
    return round_half_away(total, count)


def parity_of(i, j):
    """Checkerboard parity of cell (i, j): 0 on the even lattice, 1 on the odd."""
    return (int(i) + int(j)) & 1
