"""Four-neighbor average prediction shared by the encoder and decoder sides.

A cell's prediction reads only its in-bounds vertical/horizontal neighbors,
which all sit on the opposite checkerboard parity. That makes each parity
pass data-parallel: predict_grid computes every cell at once. The mean is
rounded to the nearest integer with ties away from zero, in integer
arithmetic; tests/oracle_predict.py holds the per-cell reference that
predict_grid is checked against.
"""

import numpy as np

from .errors import ValidationError


def predict_grid(img):
    """Predictions for every cell at once; int64 grid, same shape as img."""
    a = np.asarray(img, dtype=np.int64)
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-D grid, got shape {a.shape}")
    h, w = a.shape
    if h == 1 and w == 1:
        raise ValidationError("1x1 grid has no neighbors to predict from")
    total = np.zeros((h, w), dtype=np.int64)
    count = np.zeros((h, w), dtype=np.int64)
    total[1:, :] += a[:-1, :]
    count[1:, :] += 1
    total[:-1, :] += a[1:, :]
    count[:-1, :] += 1
    total[:, 1:] += a[:, :-1]
    count[:, 1:] += 1
    total[:, :-1] += a[:, 1:]
    count[:, :-1] += 1
    pos = (2 * total + count) // (2 * count)
    neg = -((-2 * total + count) // (2 * count))
    return np.where(total >= 0, pos, neg)
