import functools
import math
import pathlib

import numpy as np
import pytest
from numpy.random import default_rng

from boundshift import LocationMap, ValidationError, count_boundary_pixels, psnr
from boundshift.imagecore import as_bytes, as_flag, as_gray, as_path, validate_shift_width

from oracle_predict import parity_of

_as_flag = functools.partial(as_flag, name="flag")


def test_as_gray_accepts_lists_and_integer_dtypes():
    a = as_gray([[0, 255], [7, 128]])
    assert a.dtype == np.uint8 and a.shape == (2, 2)
    b = as_gray(np.arange(6, dtype=np.int32).reshape(2, 3))
    assert b.dtype == np.uint8
    # uint8 input passes through without copying
    c = np.zeros((2, 2), dtype=np.uint8)
    assert as_gray(c) is c


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((2, 2, 3), dtype=np.uint8),
        np.zeros(4, dtype=np.uint8),
        np.zeros((2, 2), dtype=np.float64),
        [[0, 256]],
        [[-1, 0]],
        np.zeros((0, 3), dtype=np.uint8),
    ],
)
def test_as_gray_rejects_bad_input(bad):
    with pytest.raises(ValidationError):
        as_gray(bad)


@pytest.mark.parametrize("check, value, want", [
    (as_bytes, b"ab", b"ab"),
    (as_bytes, bytearray(b"ab"), b"ab"),
    (as_bytes, memoryview(b"ab"), b"ab"),
    (as_bytes, memoryview(b"ab").cast("c"), b"ab"),
    (as_bytes, np.array([97, 98], dtype=np.uint8), b"ab"),
    (as_bytes, np.array([97, 98], dtype=np.int8), b"ab"),
    (as_path, "a.pgm", "a.pgm"),
    (as_path, b"a.pgm", b"a.pgm"),
    (as_path, pathlib.Path("a.pgm"), pathlib.Path("a.pgm")),
    (_as_flag, True, True),
    (_as_flag, False, False),
    (_as_flag, np.True_, True),
    (_as_flag, np.False_, False),
], ids=["bytes", "bytearray", "memoryview", "char-view", "uint8-array", "int8-array",
        "str-path", "bytes-path", "pathlike", "flag-true", "flag-false", "flag-numpy-true",
        "flag-numpy-false"])
def test_checkers_accept(check, value, want):
    got = check(value, "data") if check is as_bytes else check(value)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("check, value", [
    (as_bytes, "ab"),
    (as_bytes, [97, 98]),
    (as_bytes, None),
    (as_bytes, 3),
    (as_bytes, np.array([None])),
    (as_bytes, np.array([1, 2], dtype=np.int32)),
    (as_bytes, np.array([1.0])),
    (as_bytes, np.array([True])),
    (as_bytes, memoryview(b"abcd").cast("I")),
    (as_path, None),
    (as_path, 3),
    (as_path, -1),
    (as_path, True),
    (as_path, 1.5),
    (as_path, object()),
    (as_path, ["a.pgm"]),
    (as_path, "a\0b"),
    (as_path, b"a\0b"),
    (_as_flag, "no"),
    (_as_flag, 0),
    (_as_flag, 1),
    (_as_flag, None),
    (_as_flag, [0]),
    (_as_flag, np.int64(1)),
    (_as_flag, np.array(True)),
], ids=["bytes-str", "bytes-list", "bytes-none", "bytes-int", "object-array", "int32-array",
        "float-array", "bool-array", "uint-view", "path-none", "path-int", "path-negative-int",
        "path-bool", "path-float", "path-object", "path-list", "path-nul-str", "path-nul-bytes",
        "flag-str", "flag-zero", "flag-one", "flag-none", "flag-list", "flag-numpy-int",
        "flag-0d-array"])
def test_checkers_refuse(check, value):
    with pytest.raises(ValidationError, match="must be"):
        check(value, "data") if check is as_bytes else check(value)


def test_validate_shift_width_bounds():
    assert validate_shift_width(1) == 1
    assert validate_shift_width(127) == 127
    for bad in (0, 128, -3, 1.5, "1"):
        with pytest.raises(ValidationError):
            validate_shift_width(bad)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_validate_shift_width_rejects_bools(flag):
    with pytest.raises(ValidationError, match="shift width must be an integer"):
        validate_shift_width(flag)


def test_parity_checkerboard():
    assert parity_of(0, 0) == 0 and parity_of(0, 1) == 1 and parity_of(2, 3) == 1


def test_count_boundary_pixels_hand_cases():
    img = [[0, 1, 254], [255, 128, 3]]
    assert count_boundary_pixels(img, 1) == 2          # 0 and 255
    assert count_boundary_pixels(img, 4) == 5          # adds 1, 3, and 254
    assert count_boundary_pixels([[127, 128]], 127) == 0   # widest interior range
    assert count_boundary_pixels([[126, 129]], 127) == 2


def test_count_boundary_band_edges():
    # band is v < t or v > 255 - t: endpoints t and 255-t are interior
    img = np.array([[3, 4], [251, 252]], dtype=np.uint8)
    assert count_boundary_pixels(img, 4) == 2   # 3 and 252


def test_psnr_identical_is_inf():
    a = np.full((8, 8), 17, dtype=np.uint8)
    assert math.isinf(psnr(a, a))


def test_psnr_matches_direct_formula():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = a.copy()
    b[0, 0] = 10
    expected = 10.0 * math.log10(255.0**2 / (100 / 16))
    assert psnr(a, b) == pytest.approx(expected, abs=1e-12)


def test_psnr_brute_force_random_pairs():
    rng = default_rng(5)
    for _ in range(25):
        h, w = int(rng.integers(2, 20)), int(rng.integers(2, 20))
        a = rng.integers(0, 256, (h, w), dtype=np.int64)
        b = rng.integers(0, 256, (h, w), dtype=np.int64)
        sse = float(((a - b) ** 2).sum())
        if sse == 0:
            continue
        expected = 10.0 * math.log10(255.0**2 * a.size / sse)
        assert psnr(a.astype(np.uint8), b.astype(np.uint8)) == pytest.approx(expected, abs=1e-9)


def test_psnr_shape_mismatch():
    with pytest.raises(ValidationError):
        psnr(np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))


def test_location_map_validation():
    m = LocationMap(np.array([[0, 1], [2, 2]]), 3)
    assert m.symbols.dtype == np.uint8
    assert m.symbols.shape == (2, 2)
    with pytest.raises(ValidationError):
        LocationMap(np.array([[0, 3]]), 3)       # symbol out of alphabet
    with pytest.raises(ValidationError):
        LocationMap(np.array([0, 1]), 3)         # not 2-D
    with pytest.raises(ValidationError):
        LocationMap(np.array([[0.0, 1.0]]), 3)   # not integer
    for alpha in (1, 257):
        with pytest.raises(ValidationError):
            LocationMap(np.zeros((2, 2), dtype=np.uint8), alpha)
