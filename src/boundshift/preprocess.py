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
from .imagecore import LocationMap, as_gray, check_param, validate_shift_width
from .predictor import predict_grid


@dataclass(frozen=True)
class PreprocessParams:
    """shift: half-width of the boundary band; t_even/t_odd: pass thresholds."""

    shift: int
    t_even: int
    t_odd: int

    def __post_init__(self):
        validate_shift_width(self.shift)
        check_param("t_even", self.t_even)
        check_param("t_odd", self.t_odd)


@dataclass(eq=False)
class PreprocessOutput:
    """Shifted image, its location map, and the parameters that produced them."""

    shifted: np.ndarray
    locmap: LocationMap
    params: PreprocessParams


def _apply_pass(grid, pred, parity, threshold, shift, direction):
    """One pass over a single parity, given pred = predict_grid(grid);
    direction +1 applies, -1 undoes. A pass reads only the opposite parity,
    so apply and undo see identical predictions."""
    # +-1 or 0 steps, cleared on the two strided sub-lattices of the other
    # parity, then one add: a masked += would branch on every cell, and
    # comparing the strided sub-lattices themselves costs twice as much
    step = (pred < threshold).view(np.int8) - (pred > 255 - threshold).view(np.int8)
    step *= direction * shift
    step[0::2, 1 - parity::2] = 0
    step[1::2, parity::2] = 0
    return grid + step


def _clamp(pass_odd, params):
    """Clamp the two-pass grid into [shift, 255 - shift] and record in the
    location map how far each clamped value sat outside."""
    t = params.shift
    clamped = np.clip(pass_odd, t, 255 - t)
    # 2t, less how far the value sat outside: v + t below the range and
    # 255 + t - v above it, both in [0, 2t) as a pass moves a value by <= t
    symbols = 2 * t - np.abs(pass_odd - clamped)
    return PreprocessOutput(
        clamped.astype(np.uint8), LocationMap(symbols.astype(np.uint8), 2 * t + 1), params
    )


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
    return _ForwardCache(a, params.shift).forward(params)


class _ForwardCache:
    """The forward transform of one cover under thresholds of one shift
    width. The cover is predicted once, and the even pass and its prediction
    are kept for the last t_even only, so calls grouped by t_even predict
    each even pass once while holding a fixed number of images. The cover
    must be gray and at least 2x2; its callers check both."""

    def __init__(self, cover, shift):
        self.shift = shift
        self.work = cover.astype(np.int16)
        self.cover_pred = predict_grid(self.work)
        self.t_even = None
        self.pass_even = self.even_pred = None

    def forward(self, params):
        """Even pass (kept while t_even repeats), odd pass, then the clamp;
        params must be of this shift width."""
        t = self.shift
        if params.t_even != self.t_even:
            self.pass_even = _apply_pass(self.work, self.cover_pred, 0, params.t_even, t, +1)
            self.even_pred = predict_grid(self.pass_even)
            self.t_even = params.t_even
        return _clamp(_apply_pass(self.pass_even, self.even_pred, 1, params.t_odd, t, +1), params)


def _unclamp(shifted, symbols, shift):
    """The pre-clamp grid, as the mirror of _clamp: a marked cell sat
    2t - symbol below the low endpoint t or above the high one 255 - t."""
    t = shift
    grid = shifted.astype(np.int16)
    outside = 2 * t - symbols
    # -1 at the low endpoint, 1 at the high one, 0 elsewhere
    side = (grid == 255 - t).view(np.int8) - (grid == t).view(np.int8)
    bad = (outside != 0) & (side == 0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise CorruptionError(
            f"map marks cell ({i}, {j}) as clamped but its value "
            f"{int(shifted[i, j])} is not an interior-range endpoint"
        )
    return grid + outside * side


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
    if int(a.min()) < t or int(a.max()) > 255 - t:
        raise CorruptionError(f"shifted image has pixels outside [{t}, {255 - t}]")

    grid = _unclamp(a, locmap.symbols.astype(np.int16), t)
    undo_odd = _apply_pass(grid, predict_grid(grid), 1, params.t_odd, t, -1)
    undo_even = _apply_pass(undo_odd, predict_grid(undo_odd), 0, params.t_even, t, -1)
    if int(undo_even.min()) < 0 or int(undo_even.max()) > 255:
        raise CorruptionError("recovered cover leaves [0, 255]; inputs are inconsistent")
    return undo_even.astype(np.uint8)


def boundary_count_after(output):
    """Pixels still boundary-valued after the transform (clamped cells)."""
    if not isinstance(output, PreprocessOutput):
        raise ValidationError("expected a PreprocessOutput")
    clear = 2 * output.params.shift
    return int((output.locmap.symbols != clear).sum())
