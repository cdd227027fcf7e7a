"""Cell-by-cell reference for PredictionErrorEmbedder.

The embedder works on whole strided sub-lattices at once; the functions
here visit the even cells one at a time in raster order, predict each with
oracle_predict.predict and shift its error with plain Python integers, so
a disagreement between the two points at the vectorized code.
"""

import numpy as np

from boundshift import CapacityError, CorruptionError

from oracle_predict import parity_of, predict


def _even_cells(a):
    """(i, j, prediction, error) of every even cell, in raster order."""
    h, w = a.shape
    for i in range(h):
        for j in range(w):
            if parity_of(i, j) == 0:
                p = predict(a, i, j)
                yield i, j, p, int(a[i, j]) - p


def capacity(img):
    """Number of even cells whose error is 0 or -1."""
    return sum(e in (0, -1) for _, _, _, e in _even_cells(np.asarray(img)))


def embed(img, bits):
    """The marked image: the k-th carrier holds bits[k], or 0 past the end
    of bits; every other error moves one step away from zero."""
    a = np.asarray(img)
    bits = [int(b) for b in bits]
    out = a.astype(np.int64)
    k = 0
    for i, j, p, e in _even_cells(a):
        if e in (0, -1):
            bit = bits[k] if k < len(bits) else 0
            k += 1
            e = e + bit if e == 0 else e - bit
        else:
            e += 1 if e >= 1 else -1
        out[i, j] = p + e
    if len(bits) > k:
        raise CapacityError(f"payload of {len(bits)} bits exceeds capacity {k}",
                            deficit_bits=len(bits) - k)
    return out.astype(np.uint8)


def extract(marked):
    """(the bit of every error in [-2, 1], in raster order; the image with
    every even cell's error moved back)."""
    a = np.asarray(marked)
    out = a.astype(np.int64)
    bits = []
    for i, j, p, c in _even_cells(a):
        if -2 <= c <= 1:
            bits.append(c if c >= 0 else -(c + 1))
        out[i, j] = p + c - (c >= 1) + (c <= -2)
    if out.min() < 0 or out.max() > 255:
        raise CorruptionError("recovered pre-embedding image leaves [0, 255]")
    return np.array(bits, dtype=np.uint8), out.astype(np.uint8)
