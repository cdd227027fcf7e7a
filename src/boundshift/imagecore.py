"""Checks of outside values, one per kind (as_gray, as_bits, as_bytes,
as_path, as_flag, check_param), each raising ValidationError; and grid
primitives: boundary census, PSNR."""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def as_gray(img):
    """Validate an 8-bit grayscale image and return it as a 2-D uint8 array."""
    try:
        a = np.asarray(img)
    except ValueError as exc:
        raise ValidationError(f"image is not a rectangular grid: {exc}") from None
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


def as_bits(bits):
    """Validate a bit sequence and return it as a 1-D uint8 array of 0/1."""
    try:
        a = np.asarray(bits)
    except ValueError as exc:
        raise ValidationError(f"bit stream is not a flat sequence: {exc}") from None
    if a.ndim != 1:
        raise ValidationError(f"bit stream must be 1-D, got shape {a.shape}")
    if a.size and not ((a == 0) | (a == 1)).all():
        raise ValidationError("bit stream values must be 0 or 1")
    return a.astype(np.uint8)


def as_bytes(data, name):
    """data as bytes, if it is a buffer of single bytes (memoryview format
    B, b or c), so no byte order or heap address gets in; a bytes object is
    not copied."""
    if type(data) is bytes:
        return data
    try:
        view = memoryview(data)
    except (TypeError, ValueError):  # ValueError: a NumPy dtype with no buffer format
        view = None
    if view is None or view.format not in ("B", "b", "c"):
        raise ValidationError(f"{name} must be bytes-like, got {type(data).__name__}")
    return view.tobytes()


def as_path(path):
    """path, if open() takes it as a file name: str, bytes or os.PathLike,
    not an int, which open() would take for a file descriptor, nor a name
    holding a NUL, which no file system takes."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ValidationError(f"path must be str, bytes or os.PathLike, got {type(path).__name__}")
    name = os.fspath(path)
    if ("\0" if isinstance(name, str) else b"\0") in name:
        raise ValidationError("path must be free of NUL bytes")
    return path


def as_flag(value, name):
    """value as a bool, if it is a Python or NumPy bool: "no", 0 or [0] is
    not taken for one by its truth value."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def validate_shift_width(shift):
    """Check a guard/shift width: the boundary band [0,shift) u (255-shift,255]."""
    return check_param("shift width", shift)


def check_param(name, value, low=1, high=127):
    """value as an int, if it is an integer in [low, high]; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not low <= int(value) <= high:
        raise ValidationError(f"{name} must be in [{low}, {high}], got {value}")
    return int(value)


def boundary_mask(img, shift):
    """Boolean mask of the pixels inside the boundary band for the given
    shift width."""
    a = as_gray(img)
    t = validate_shift_width(shift)
    return (a < t) | (a > 255 - t)


def count_boundary_pixels(img, shift):
    """Number of pixels inside the boundary band for the given shift width."""
    return int(np.count_nonzero(boundary_mask(img, shift)))


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
        try:
            a = np.asarray(self.symbols)
        except ValueError as exc:
            raise ValidationError(f"map symbols are not a rectangular grid: {exc}") from None
        if a.ndim != 2:
            raise ValidationError(f"map symbols must form a 2-D grid, got shape {a.shape}")
        self.alphabet_size = check_param("alphabet_size", self.alphabet_size, 2, 256)
        if not np.issubdtype(a.dtype, np.integer):
            raise ValidationError(f"map symbols must be integers, got {a.dtype}")
        if a.size and (int(a.min()) < 0 or int(a.max()) >= self.alphabet_size):
            raise ValidationError("map symbol outside [0, alphabet_size)")
        self.symbols = a.astype(np.uint8)
