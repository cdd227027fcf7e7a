from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.random import default_rng

from boundshift import ValidationError
from boundshift.predictor import _ring, predict_grid

from oracle_predict import predict, round_half_away


def _naive_round(fr):
    """Round a Fraction to the nearest integer, halves away from zero."""
    if fr >= 0:
        return int(fr + Fraction(1, 2))
    return -int(-fr + Fraction(1, 2))


@pytest.mark.parametrize(
    "total,count,expected",
    [
        (0, 4, 0),
        (1, 2, 1),      # 0.5 -> 1
        (-1, 2, -1),    # -0.5 -> -1
        (3, 2, 2),      # 1.5 -> 2
        (5, 2, 3),      # 2.5 -> 3
        (-5, 2, -3),
        (7, 3, 2),      # 2.33 -> 2
        (8, 3, 3),      # 2.67 -> 3
        (510, 4, 128),  # 127.5 -> 128
        (1021, 4, 255),
    ],
)
def test_round_half_away_table(total, count, expected):
    assert round_half_away(total, count) == expected


def test_round_half_away_matches_fraction_rule():
    rng = default_rng(3)
    for _ in range(500):
        count = int(rng.integers(2, 5))
        total = int(rng.integers(-1024, 1025))
        assert round_half_away(total, count) == _naive_round(Fraction(total, count))


def test_predict_uses_only_in_bounds_neighbors():
    img = np.array([[10, 20, 30], [40, 50, 60], [70, 80, 90]])
    assert predict(img, 0, 0) == _naive_round(Fraction(20 + 40, 2))
    assert predict(img, 0, 1) == _naive_round(Fraction(10 + 30 + 50, 3))
    assert predict(img, 1, 1) == _naive_round(Fraction(20 + 40 + 60 + 80, 4))
    assert predict(img, 2, 2) == _naive_round(Fraction(60 + 80, 2))


def test_predict_rounds_half_up():
    img = np.array([[0, 1], [2, 0]])
    # corner (0,0): neighbors 1 and 2, mean 1.5 -> 2
    assert predict(img, 0, 0) == 2


def test_predict_grid_matches_scalar_predict():
    rng = default_rng(4)
    for _ in range(20):
        h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        img = rng.integers(0, 256, (h, w), dtype=np.int64)
        grid = predict_grid(img)
        for i in range(h):
            for j in range(w):
                assert grid[i, j] == predict(img, i, j), (i, j)


def test_predict_grid_handles_single_row_and_column():
    row = np.array([[5, 9, 14]])
    assert predict_grid(row).tolist() == [[9, _naive_round(Fraction(19, 2)), 9]]
    col = np.array([[5], [9], [14]])
    assert predict_grid(col).ravel().tolist() == [9, _naive_round(Fraction(19, 2)), 9]


@pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_predict_grid_of_an_empty_grid_is_empty(shape, dtype):
    grid = predict_grid(np.zeros(shape, dtype=dtype))
    assert grid.shape == shape and grid.dtype == np.int16


def test_predict_rejects_out_of_bounds_and_degenerate():
    img = np.array([[1, 2], [3, 4]])
    with pytest.raises(ValidationError):
        predict(img, 2, 0)
    with pytest.raises(ValidationError):
        predict(np.array([[7]]), 0, 0)


SHAPES = st.one_of(
    st.integers(2, 13).map(lambda n: (1, n)),
    st.integers(2, 13).map(lambda n: (n, 1)),
    st.just((2, 2)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda k: (2 * k[0] + 1, 2 * k[1] + 1)),
    st.tuples(st.integers(2, 13), st.integers(2, 13)),
)
# Pixels, the range inverse() predicts over, signed values, values around
# zero, where negative totals tie on interior and border cells alike, and
# values up to +-2**12, the most the int16 sums hold.
SPANS = st.sampled_from([
    (np.uint8, 0, 255), (np.int16, -254, 509), (np.int64, -300, 300), (np.int16, -3, 1),
    (np.int16, -(2**12), 2**12),
])


@settings(max_examples=300, deadline=None)
@given(shape=SHAPES, span=SPANS, data=st.data())
def test_predict_grid_matches_oracle_cell_by_cell(shape, span, data):
    dtype, lo, hi = span
    img = data.draw(arrays(dtype, shape, elements=st.integers(lo, hi)))
    grid = predict_grid(img)
    assert grid.shape == img.shape
    for (i, j), p in np.ndenumerate(grid):
        assert p == predict(img, i, j), (i, j)


@pytest.mark.parametrize("shape", [(1, 301), (301, 1), (2, 257), (257, 2), (3, 129)])
@pytest.mark.parametrize("dtype, lo, hi", [(np.uint8, 0, 255), (np.int16, -(2**12), 2**12)])
def test_predict_grid_matches_oracle_on_skinny_and_odd_shapes(shape, dtype, lo, hi):
    # wider and taller than the drawn shapes: rows w + 1 apart in the flat
    # buffer must keep every sum inside its own row
    img = default_rng(6).integers(lo, hi + 1, shape).astype(dtype)
    grid = predict_grid(img)
    assert grid.shape == img.shape and grid.dtype == np.int16
    for (i, j), p in np.ndenumerate(grid):
        assert p == predict(img, i, j), (i, j)


def test_predict_grid_matches_oracle_as_ring_layouts_are_evicted_and_reused():
    # more shapes than the cache of border layouts holds, each visited twice
    # in shuffled order, so layouts are built, evicted, built again and
    # reused; uint8 grids round the ring without signs, int16 grids with
    # negative values with them
    shapes = [(1, 2), (1, 7), (1, 13), (2, 1), (9, 1), (13, 1), (2, 2), (2, 3), (3, 2),
              (3, 3), (4, 4), (5, 8), (8, 5), (7, 7), (2, 13), (13, 2), (6, 11), (11, 6),
              (10, 10), (12, 3), (3, 12), (13, 13)]
    rng = default_rng(8)
    visits = [shapes[k] for k in rng.permutation(2 * len(shapes)) % len(shapes)]
    _ring.cache_clear()
    for shape in visits:
        for dtype, lo, hi in [(np.uint8, 0, 255), (np.int16, -300, 300)]:
            img = rng.integers(lo, hi + 1, shape).astype(dtype)
            grid = predict_grid(img)
            assert grid.tolist() == [[predict(img, i, j) for j in range(shape[1])]
                                     for i in range(shape[0])], (shape, dtype)
        assert not any(a.flags.writeable for a in _ring(*shape))
    info = _ring.cache_info()
    assert info.misses > len(shapes) and info.hits > 0 and info.currsize <= 16


@pytest.mark.parametrize("scale, tie", [(1, -1), (3, -2)])
def test_predict_grid_rounds_negative_ties_away_from_zero(scale, tie):
    img = scale * np.array([[0, -1, 0], [-1, 0, 0], [0, 0, 0]])
    grid = predict_grid(img)
    # centre: four neighbors total -2 (-0.5) or -6 (-1.5); corner (2, 0):
    # two neighbors total -1 (-0.5) or -3 (-1.5)
    assert grid[1, 1] == grid[2, 0] == tie
    assert grid.tolist() == [[predict(img, i, j) for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("limit, dtype", [(2**12, np.int16)])
def test_predict_grid_sums_in_int16_up_to_2_to_the_12(limit, dtype):
    rng = default_rng(5)
    img = rng.choice([-limit, limit, limit - 1, -limit + 1], (5, 6)).astype(np.int16)
    grid = predict_grid(img)
    assert grid.dtype == dtype
    for (i, j), p in np.ndenumerate(grid):
        assert p == predict(img, i, j), (i, j)


@pytest.mark.parametrize("dtype, value", [
    (np.int32, 2**31 - 1), (np.int32, -(2**31 - 1)), (np.int64, 2**31 - 1),
    (np.int64, 2**40), (np.int64, -(2**40)), (np.uint64, 2**64 - 1),
    (np.int16, 2**12 + 1), (np.int16, -(2**12 + 1)), (np.float64, 0.5),
])
def test_predict_grid_rejects_values_its_sums_cannot_hold(dtype, value):
    img = np.zeros((4, 5), dtype=dtype)
    img[1, 2] = value
    with pytest.raises(ValidationError):
        predict_grid(img)
