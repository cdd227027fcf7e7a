import re

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
from boundshift.fixtures import _blobs, _dark
from boundshift.predictor import predict_grid
from boundshift.preprocess import _apply_pass, _ForwardCache, _inverse_chain, boundary_count_after

from oracle_handtrace import CASE_A, CASE_B, COVER_3X3
from test_sweep import _STEP_SHAPES, KEY_EDGES, _odd_step_covers, needs_kernel_step


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


@pytest.mark.parametrize("shift", [1, 3])
@pytest.mark.parametrize("edge", ["below", "above"])
def test_inverse_refuses_one_level_outside_the_shifted_range(shift, edge):
    # the first value past [shift, 255 - shift] on either side, in a clear cell
    params = PreprocessParams(shift, 3, 3)
    cover = default_rng(shift).integers(0, 256, (16, 16), dtype=np.int64).astype(np.uint8)
    out = forward(cover, params)
    tampered = out.shifted.copy()
    i, j = map(int, np.argwhere(out.locmap.symbols == 2 * shift)[0])
    tampered[i, j] = shift - 1 if edge == "below" else 256 - shift
    message = f"shifted image has pixels outside [{shift}, {255 - shift}]"
    with pytest.raises(CorruptionError, match=re.escape(message)):
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


def _check_transform(cover, params):
    """forward and inverse, through the kernel, against the NumPy chain
    (_ForwardCache.forward and _inverse_chain), output for output and dtype
    for dtype; returns the forward output."""
    out = forward(cover, params)
    want = _ForwardCache(cover, params.shift).forward(params)
    for got, expected in [(out.shifted, want.shifted), (out.locmap.symbols, want.locmap.symbols)]:
        assert got.dtype == expected.dtype == np.uint8
        assert np.array_equal(got, expected)
    assert out.locmap.alphabet_size == want.locmap.alphabet_size
    recovered = inverse(out.shifted, out.locmap, params)
    assert recovered.dtype == np.uint8
    assert np.array_equal(recovered, cover)
    assert np.array_equal(_inverse_chain(out.shifted, out.locmap.symbols, params), cover)
    return out


# the kernel takes a row's inner cells 16 at a time, from column 1: rows of
# 17 to 70 cells have none, one or more such blocks and 0 to 15 cells after
_TRANSFORM_SHAPES = st.one_of(_STEP_SHAPES, st.tuples(st.integers(3, 6), st.integers(17, 70)))


@needs_kernel_step
@settings(max_examples=200, deadline=None)
@given(
    cover=_odd_step_covers(_TRANSFORM_SHAPES),
    shift=st.sampled_from([1, 2, 3, 5, 127]),
    t_even=st.integers(1, 127),
    t_odd=st.integers(1, 127),
)
def test_kernel_transform_matches_the_numpy_chain(cover, shift, t_even, t_odd):
    _check_transform(cover, PreprocessParams(shift, t_even, t_odd))


@needs_kernel_step
@pytest.mark.parametrize("name", sorted(KEY_EDGES))
def test_kernel_transform_matches_the_numpy_chain_at_the_key_edges(name):
    # at shift 3 the pools' and the noise's passes leave [0, 255]
    cover, _, leaves_range = KEY_EDGES[name]
    outside = False
    for shift in (1, 3):
        for t_even in (1, 2, 5, 126, 127):
            for t_odd in (1, 2, 5, 126, 127):
                params = PreprocessParams(shift, t_even, t_odd)
                _check_transform(cover, params)
                passes = _ForwardCache(cover, shift)
                grid = _apply_pass(*passes.even_pass(t_even), 1, t_odd, shift, +1)
                outside |= bool(grid.min() < 0 or grid.max() > 255)
    assert outside or not leaves_range


@needs_kernel_step
@pytest.mark.parametrize("size", [128, 512])
@pytest.mark.parametrize("kind", ["dark", "blobs"])
def test_kernel_transform_matches_the_numpy_chain_on_large_covers(kind, size):
    rng = default_rng(113)
    cover = _dark(rng, size, size) if kind == "dark" else _blobs(rng, size, size, 0.45)
    for params in [(1, 1, 4), (3, 5, 127), (1, 127, 127), (2, 16, 3)]:
        _check_transform(cover, PreprocessParams(*params))


def _inverse_outcome(inverse_fn, shifted, symbols, params):
    """The recovered cover, as dtype and bytes, or the CorruptionError."""
    try:
        got = inverse_fn(shifted, symbols, params)
    except CorruptionError as exc:
        return f"CorruptionError: {exc}"
    return got.dtype, got.tobytes()


@needs_kernel_step
def test_kernel_inverse_refuses_damaged_inputs_as_the_numpy_chain_does():
    """Shifted images and maps damaged within inverse's input checks: a
    marked cell moved off the endpoints, and values and symbols redrawn at
    random, which can make a recovered cover leave [0, 255]. Both paths
    give the same cover or the same message."""
    rng = default_rng(41)
    kinds = set()
    for k in range(300):
        h, w = int(rng.integers(2, 30)), int(rng.integers(2, 30))
        shift = int(rng.choice([1, 2, 3, 5, 127]))
        params = PreprocessParams(shift, int(rng.integers(1, 128)), int(rng.integers(1, 128)))
        cover = rng.choice(np.array([0, 1, 2, 3, 128, 252, 253, 254, 255], np.uint8), (h, w))
        out = forward(cover, params)
        shifted, symbols = out.shifted.copy(), out.locmap.symbols.copy()
        cells = rng.integers(0, h * w, int(rng.integers(1, 4)))
        if k % 2:
            # a marked cell whose value is no endpoint
            symbols.flat[cells] = rng.integers(0, 2 * shift, cells.size)
            shifted.flat[cells] = rng.integers(shift, 256 - shift, cells.size)
        else:
            ends = np.array([shift, 255 - shift, 128], np.uint8)
            symbols.flat[cells] = rng.integers(0, 2 * shift + 1, cells.size)
            shifted.flat[cells] = rng.choice(ends, cells.size)
        locmap = LocationMap(symbols, 2 * shift + 1)
        got = _inverse_outcome(lambda a, m, p: inverse(a, locmap, p), shifted, symbols, params)
        assert got == _inverse_outcome(_inverse_chain, shifted, symbols, params)
        kinds.add("recovered" if not isinstance(got, str) else
                  "off endpoint" if "is not an interior-range endpoint" in got else got)
    assert kinds == {"recovered", "off endpoint",
                     "CorruptionError: recovered cover leaves [0, 255]; inputs are inconsistent"}
