import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from boundshift import (
    CorruptionError,
    LocationMap,
    PreprocessParams,
    ValidationError,
    count_boundary_pixels,
    forward,
    inverse,
)
from boundshift.predictor import predict_grid
from boundshift.preprocess import _apply_pass, boundary_count_after

from oracle_handtrace import CASE_A, CASE_B, COVER_3X3


@pytest.mark.parametrize("case", [CASE_A, CASE_B], ids=["t_odd_1", "t_odd_4"])
def test_matches_hand_trace(case):
    params = PreprocessParams(case["T"], case["t_even"], case["t_odd"])
    out = forward(np.array(COVER_3X3, dtype=np.uint8), params)
    assert out.shifted.tolist() == case["shifted"]
    assert out.locmap.symbols.tolist() == case["map_symbols"]
    assert out.locmap.alphabet_size == 2 * case["T"] + 1
    assert boundary_count_after(out) == case["boundary_after"]
    recovered = inverse(out.shifted, out.locmap, params)
    assert recovered.tolist() == case["recovered"]


def test_params_validation():
    PreprocessParams(1, 1, 127)
    for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0), (128, 1, 1), (1, 128, 1), (1, 1, 128)):
        with pytest.raises(ValidationError):
            PreprocessParams(*bad)


@pytest.mark.parametrize("flag", [True, np.True_])
@pytest.mark.parametrize("field", ["shift width", "t_even", "t_odd"])
def test_params_reject_bools(field, flag):
    args = [flag if name == field else 1 for name in ("shift width", "t_even", "t_odd")]
    with pytest.raises(ValidationError, match=f"{field} must be an integer"):
        PreprocessParams(*args)


def test_even_pass_moves_only_even_cells():
    grid = np.zeros((4, 4), dtype=np.int64)
    out = _apply_pass(grid, predict_grid(grid), 0, 1, 1, +1)
    assert out[0, 0] == 1 and out[0, 1] == 0 and out[1, 1] == 1
    # and the pass is undone exactly by direction -1
    assert np.array_equal(_apply_pass(out, predict_grid(out), 0, 1, 1, -1), grid)


def test_bright_side_shifts_down():
    grid = np.full((4, 4), 255, dtype=np.int64)
    out = _apply_pass(grid, predict_grid(grid), 0, 1, 2, +1)
    even = (np.add.outer(np.arange(4), np.arange(4)) % 2) == 0
    assert (out[even] == 253).all() and (out[~even] == 255).all()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shift=st.sampled_from([1, 2, 4, 16, 127]),
    t_even=st.integers(1, 127),
    t_odd=st.integers(1, 127),
    style=st.sampled_from(["uniform", "boundary", "constant"]),
)
def test_round_trip_and_invariants(seed, shift, t_even, t_odd, style):
    rng = default_rng(seed)
    h, w = int(rng.integers(2, 18)), int(rng.integers(2, 18))
    if style == "uniform":
        cover = rng.integers(0, 256, (h, w), dtype=np.int64).astype(np.uint8)
    elif style == "boundary":
        cover = rng.choice([0, 1, 254, 255, 128], size=(h, w)).astype(np.uint8)
    else:
        cover = np.full((h, w), int(rng.integers(0, 256)), dtype=np.uint8)
    params = PreprocessParams(shift, t_even, t_odd)
    out = forward(cover, params)

    assert int(out.shifted.min()) >= shift and int(out.shifted.max()) <= 255 - shift
    assert (np.abs(out.shifted.astype(int) - cover.astype(int)) <= shift).all()
    assert out.locmap.alphabet_size == 2 * shift + 1
    # clamped cells sit at the range endpoints, so the shifted image itself
    # has no boundary-band pixels left
    assert count_boundary_pixels(out.shifted, shift) == 0
    assert boundary_count_after(out) == int((out.locmap.symbols != 2 * shift).sum())

    assert np.array_equal(inverse(out.shifted, out.locmap, params), cover)


def test_all_extremes_round_trip():
    for value in (0, 255):
        cover = np.full((6, 7), value, dtype=np.uint8)
        for params in (PreprocessParams(1, 1, 1), PreprocessParams(4, 16, 16), PreprocessParams(127, 127, 127)):
            out = forward(cover, params)
            assert np.array_equal(inverse(out.shifted, out.locmap, params), cover)


def test_forward_is_deterministic():
    cover = default_rng(9).integers(0, 256, (12, 12), dtype=np.int64).astype(np.uint8)
    params = PreprocessParams(2, 3, 5)
    a = forward(cover, params)
    b = forward(cover, params)
    assert np.array_equal(a.shifted, b.shifted)
    assert np.array_equal(a.locmap.symbols, b.locmap.symbols)


def test_forward_input_validation():
    with pytest.raises(ValidationError):
        forward(np.zeros((1, 5), dtype=np.uint8), PreprocessParams(1, 1, 1))
    with pytest.raises(ValidationError):
        forward(np.zeros((3, 3), dtype=np.uint8), "not params")


def test_inverse_rejects_shape_mismatch():
    params = PreprocessParams(1, 1, 1)
    out = forward(np.zeros((4, 4), dtype=np.uint8), params)
    small = LocationMap(out.locmap.symbols[:3, :3], out.locmap.alphabet_size)
    with pytest.raises(ValidationError):
        inverse(out.shifted, small, params)


def test_inverse_rejects_wrong_alphabet():
    params = PreprocessParams(1, 1, 1)
    out = forward(np.zeros((4, 4), dtype=np.uint8), params)
    bad = LocationMap(np.zeros((4, 4), dtype=np.uint8), 5)
    with pytest.raises(CorruptionError):
        inverse(out.shifted, bad, params)


def test_inverse_rejects_out_of_range_pixels():
    params = PreprocessParams(4, 1, 1)
    out = forward(np.full((4, 4), 128, dtype=np.uint8), params)
    tampered = out.shifted.copy()
    tampered[0, 0] = 2   # below the interior range for shift 4
    with pytest.raises(CorruptionError):
        inverse(tampered, out.locmap, params)


def test_inverse_rejects_marked_cell_off_endpoint():
    params = PreprocessParams(1, 1, 1)
    out = forward(np.zeros((3, 3), dtype=np.uint8), params)
    assert boundary_count_after(out) > 0
    tampered = out.shifted.copy()
    i, j = map(int, np.argwhere(out.locmap.symbols != 2)[0])
    tampered[i, j] = 100   # marked cells must sit at an interior endpoint
    with pytest.raises(CorruptionError) as exc:
        inverse(tampered, out.locmap, params)
    assert f"({i}, {j})" in str(exc.value)


def test_inverse_rejects_impossible_recovery():
    # a marked low-endpoint cell claiming a pre-clamp value of -1 pushes the
    # recovered pixel below zero once the shifts are undone
    params = PreprocessParams(1, 1, 4)
    cover = np.full((4, 4), 128, dtype=np.uint8)
    out = forward(cover, params)
    symbols = out.locmap.symbols.copy().astype(np.int64)
    symbols[0, 0] = 0
    tampered_map = LocationMap(symbols, out.locmap.alphabet_size)
    shifted = out.shifted.copy()
    shifted[0, 0] = 1
    with pytest.raises(CorruptionError):
        inverse(shifted, tampered_map, params)
