"""Grid primitives: image validation, boundary census, PSNR."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def as_gray(img):
    """Validate an 8-bit grayscale image and return it as a 2-D uint8 array."""
    a = np.asarray(img)
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-D grayscale grid, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"image must be at least 1x1, got {a.shape}")
    if a.dtype == np.uint8:
        return a
    if not np.issubdtype(a.dtype, np.integer):
        raise ValidationError(f"pixel dtype must be integer, got {a.dtype}")
    if int(a.min()) < 0 or int(a.max()) > 255:
        raise ValidationError("pixel values outside [0, 255]")
    return a.astype(np.uint8)


def validate_shift_width(shift):
    """Check a guard/shift width: the boundary band [0,shift) u (255-shift,255]."""
    return check_param("shift width", shift)


def check_param(name, value):
    """value as an int, if it is an integer in [1, 127]; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not 1 <= int(value) <= 127:
        raise ValidationError(f"{name} must be in [1, 127], got {value}")
    return int(value)


def boundary_mask(img, shift):
    """Boolean mask of the pixels inside the boundary band for the given
    shift width."""
    a = as_gray(img)
    t = validate_shift_width(shift)
    return (a < t) | (a > 255 - t)


def count_boundary_pixels(img, shift):
    """Number of pixels inside the boundary band for the given shift width."""
    return int(boundary_mask(img, shift).sum())


def psnr(a, b):
    """Peak signal-to-noise ratio in dB between two images of equal shape.

    Identical images return math.inf; reports serialize that as the string
    "inf" rather than overflowing a float field.
    """
    x = as_gray(a)
    y = as_gray(b)
    if x.shape != y.shape:
        raise ValidationError(f"shape mismatch: {x.shape} vs {y.shape}")
    diff = np.subtract(x, y, dtype=np.int16)  # its square fits int32, the sum int64
    sse = int(np.square(diff, dtype=np.int32).sum(dtype=np.int64))
    if sse == 0:
        return math.inf
    mse = sse / x.size
    return 10.0 * math.log10(255.0 * 255.0 / mse)


@dataclass(eq=False)
class LocationMap:
    """Per-pixel symbol grid recording how the clamp changed each pixel.

    Symbol values live in [0, alphabet_size); the conventional "nothing
    happened here" symbol for a shift width T is 2T (alphabet 2T+1).
    """

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        a = np.asarray(self.symbols)
        if a.ndim != 2:
            raise ValidationError(f"map symbols must form a 2-D grid, got shape {a.shape}")
        if not isinstance(self.alphabet_size, (int, np.integer)):
            raise ValidationError("alphabet_size must be an integer")
        self.alphabet_size = int(self.alphabet_size)
        if not 2 <= self.alphabet_size <= 256:
            raise ValidationError(f"alphabet_size must be in [2, 256], got {self.alphabet_size}")
        if not np.issubdtype(a.dtype, np.integer):
            raise ValidationError(f"map symbols must be integers, got {a.dtype}")
        if a.size and (int(a.min()) < 0 or int(a.max()) >= self.alphabet_size):
            raise ValidationError("map symbol outside [0, alphabet_size)")
        self.symbols = a.astype(np.uint8)
