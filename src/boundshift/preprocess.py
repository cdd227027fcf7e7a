"""Two-phase checkerboard shift that frees an image of boundary pixels.

The forward transform runs two prediction-driven passes. The even pass
predicts every even-parity cell from its (odd-parity) neighbors in the
cover and moves the cell by +shift when the prediction is dark enough
(below t_even) or by -shift when bright enough (above 255 - t_even); the
odd pass repeats this for odd cells with threshold t_odd, predicting from
the partially shifted grid. Finally every value is clamped into the
interior range [shift, 255 - shift]; a per-pixel location map records how
far each clamped value sat outside so the clamp is invertible.

Because each pass moves one parity while predicting from the other, the
decoder can re-derive the exact same predictions from the shifted grid and
undo both passes, recovering the cover bit for bit. Clamped-away pixels
(map symbol != 2*shift) are the ones that remain boundary-valued; counting
them is the post-transform boundary census.

Each pass moves a value by at most shift <= 127, so every work grid lies in
[-254, 509] and is held as int16.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError, ValidationError
from .imagecore import LocationMap, as_gray, parity_mask, validate_shift_width
from .predictor import predict_grid


@dataclass(frozen=True)
class PreprocessParams:
    """shift: half-width of the boundary band; t_even/t_odd: pass thresholds."""

    shift: int
    t_even: int
    t_odd: int

    def __post_init__(self):
        validate_shift_width(self.shift)
        for name in ("t_even", "t_odd"):
            t = getattr(self, name)
            if not isinstance(t, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {t!r}")
            if not 1 <= int(t) <= 127:
                raise ValidationError(f"{name} must be in [1, 127], got {t}")


@dataclass(eq=False)
class PreprocessOutput:
    """Shifted image, its location map, and the parameters that produced them."""

    shifted: np.ndarray
    locmap: LocationMap
    params: PreprocessParams


def _threshold_shift(grid, parity, threshold, shift, direction):
    """One prediction-driven pass over a single parity; direction +1 applies,
    -1 undoes. Reads only the opposite parity, so apply/undo see identical
    predictions."""
    pred = predict_grid(grid)
    cells = parity_mask(grid.shape[0], grid.shape[1], parity)
    # 1 on cells that move up, -1 on cells that move down, 0 elsewhere: an
    # add, where a masked += would branch on every cell
    step = (cells & (pred < threshold)).view(np.int8)
    step -= (cells & (pred > 255 - threshold)).view(np.int8)
    step *= direction * shift
    return grid + step


def _check_size(a):
    if a.shape[0] < 2 or a.shape[1] < 2:
        raise ValidationError(f"image must be at least 2x2, got {a.shape}")


def forward(cover, params):
    """Shift boundary pixels into [shift, 255 - shift]; returns the shifted
    image plus the location map needed for exact recovery."""
    a = as_gray(cover)
    _check_size(a)
    if not isinstance(params, PreprocessParams):
        raise ValidationError("params must be a PreprocessParams")
    t = params.shift
    work = a.astype(np.int16)
    pass_even = _threshold_shift(work, 0, params.t_even, t, +1)
    pass_odd = _threshold_shift(pass_even, 1, params.t_odd, t, +1)

    clamped = np.clip(pass_odd, t, 255 - t)
    symbols = np.full(a.shape, 2 * t, dtype=np.uint8)
    below = pass_odd < t
    above = pass_odd > 255 - t
    symbols[below] = pass_odd[below] + t
    symbols[above] = 255 + t - pass_odd[above]
    locmap = LocationMap(symbols, 2 * t + 1)
    return PreprocessOutput(clamped.astype(np.uint8), locmap, params)


def _unclamp(shifted, symbols, shift):
    """Rebuild the pre-clamp grid from the shifted image and map symbols."""
    t = shift
    clear = symbols == 2 * t
    marked = ~clear
    at_low = shifted == t
    at_high = shifted == 255 - t
    bad = marked & ~(at_low | at_high)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise CorruptionError(
            f"map marks cell ({i}, {j}) as clamped but its value "
            f"{int(shifted[i, j])} is not an interior-range endpoint"
        )
    grid = shifted.astype(np.int16)
    lo = marked & at_low
    hi = marked & at_high
    grid[lo] = symbols[lo] - t
    grid[hi] = 255 + t - symbols[hi]
    return grid


def inverse(shifted, locmap, params):
    """Exactly undo forward(); raises CorruptionError on inconsistent input."""
    a = as_gray(shifted)
    _check_size(a)
    if not isinstance(params, PreprocessParams):
        raise ValidationError("params must be a PreprocessParams")
    if not isinstance(locmap, LocationMap):
        raise ValidationError("locmap must be a LocationMap")
    t = params.shift
    if locmap.symbols.shape != a.shape:
        raise ValidationError(
            f"map shape {locmap.symbols.shape} does not match image shape {a.shape}"
        )
    if locmap.alphabet_size != 2 * t + 1:
        raise CorruptionError(
            f"map alphabet {locmap.alphabet_size} does not match shift width {t}"
        )
    if a.size and (int(a.min()) < t or int(a.max()) > 255 - t):
        raise CorruptionError(f"shifted image has pixels outside [{t}, {255 - t}]")

    grid = _unclamp(a, locmap.symbols.astype(np.int16), t)
    undo_odd = _threshold_shift(grid, 1, params.t_odd, t, -1)
    undo_even = _threshold_shift(undo_odd, 0, params.t_even, t, -1)
    if int(undo_even.min()) < 0 or int(undo_even.max()) > 255:
        raise CorruptionError("recovered cover leaves [0, 255]; inputs are inconsistent")
    return undo_even.astype(np.uint8)


def boundary_count_after(output):
    """Pixels still boundary-valued after the transform (clamped cells)."""
    if not isinstance(output, PreprocessOutput):
        raise ValidationError("expected a PreprocessOutput")
    clear = 2 * output.params.shift
    return int((output.locmap.symbols != clear).sum())
