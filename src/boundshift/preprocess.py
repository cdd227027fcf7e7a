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

forward() and inverse() run the compiled kernel's bs_forward and bs_inverse
(codec._forward and codec._inverse), each the whole chain in one C call
with no prediction grid, where the kernel loaded. The NumPy chain here
(_apply_pass with predict_grid, _clamp; _unclamp, _inverse_chain) runs
where it did not, and is the reference the tests compare the kernel
against. The sweep's _ForwardCache keeps the NumPy passes: it reuses an
even pass and its prediction across thresholds.
"""

from dataclasses import dataclass

import numpy as np

from . import codec
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
    if codec._forward is None:
        return _ForwardCache(a, params.shift).forward(params)
    shifted, symbols = codec._forward(a, params.shift, params.t_even, params.t_odd)
    return PreprocessOutput(shifted, LocationMap(symbols, 2 * params.shift + 1), params)


class _ForwardCache:
    """The forward transform of one cover under thresholds of one shift
    width. The cover is predicted once, and the even pass and its prediction
    are kept for the last set of even cells moved only, so calls grouped by
    t_even predict each distinct even pass once while holding a fixed number
    of images. The cover must be gray (uint8) and at least 2x2; its callers
    check both. It is kept as given: adding a pass's int8 steps to it gives
    an int16 grid.

    For t <= 127 a pass moves the cells of its parity whose prediction is
    below t or above 255 - t: two disjoint bands whose union only grows with
    t, so how many cells a pass moves names the set it moves. A t_even that
    moves as many even cells as the kept one reuses it, and key gives each
    cell the pair of counts that fixes its output. The counts come from a
    histogram of each prediction grid, built on first use, so a single
    forward builds none; odd_steps' first indices give a pass's odd counts
    with no histogram of its prediction."""

    def __init__(self, cover, shift):
        self.shift = shift
        self.cover = cover
        self.cover_pred = predict_grid(cover)
        self.t_even = None
        self.pass_even = self.even_pred = None
        # per parity, None or a list whose item i counts the parity's cells
        # predicted below i - 128
        self.bands = [None, None]
        # 255 at the even cells and 0 at the odd ones, built on first use
        self.even_high = None

    def moved(self, parity, t):
        """How many cells of the parity a pass of threshold t moves."""
        if self.bands[parity] is None:
            pred = self.cover_pred if parity == 0 else self.even_pred
            # even-pass predictions lie in [-127, 382]: offset by 128
            counts = (np.bincount(pred[0::2, parity::2].ravel() + 128, minlength=512)
                      + np.bincount(pred[1::2, 1 - parity::2].ravel() + 128, minlength=512))
            # a list: a cell's key then costs a few list reads, no NumPy call
            self.bands[parity] = [0, *np.cumsum(counts).tolist()]
        below = self.bands[parity]
        # cells predicted below t, plus those above 255 - t
        return below[t + 128] + below[-1] - below[384 - t]

    def _even(self, t_even):
        """Bring the kept even pass to t_even's, predicting it only when it
        moves another set of cells than the kept one."""
        if t_even != self.t_even and (
                self.t_even is None or self.moved(0, t_even) != self.moved(0, self.t_even)):
            self.pass_even = _apply_pass(self.cover, self.cover_pred, 0, t_even, self.shift, +1)
            self.even_pred = predict_grid(self.pass_even)
            self.bands[1] = None
        self.t_even = t_even

    def even_pass(self, t_even):
        """t_even's even pass and its prediction (int16 grids), kept while
        the cells it moves repeat."""
        self._even(t_even)
        return self.pass_even, self.even_pred

    def key(self, params):
        """(even cells moved, odd cells moved): cells with equal keys have
        equal shifted images and maps; params must be of this shift width."""
        self._even(params.t_even)
        return self.moved(0, params.t_even), self.moved(1, params.t_odd)

    def forward(self, params):
        """Even pass (kept while the cells it moves repeat), odd pass, then
        the clamp; params must be of this shift width."""
        self._even(params.t_even)
        odd = _apply_pass(self.pass_even, self.even_pred, 1, params.t_odd, self.shift, +1)
        return _clamp(odd, params)

    def odd_steps(self, t_even, thresholds):
        """What the odd pass does after t_even's even pass under every t_odd
        of thresholds (sorted, each in [1, 127]) at once, with no forward
        per t_odd. An odd cell predicted at v moves by +shift if v <= 127
        and by -shift otherwise, for every t_odd above min(v, 255 - v), so
        from the first index of thresholds past that value on.

        Returns the clamped grid with no odd cell moved (uint8), whether each
        of its cells was clamped (flat, bool), and, for each odd cell some
        t_odd moves, its flat position, that first index, the change of its
        clamped value, and the change of whether it is clamped (-1, 0, 1)."""
        self._even(t_even)
        t, grid, pred = self.shift, self.pass_even, self.even_pred
        if self.even_high is None:
            self.even_high = np.zeros(grid.shape, dtype=np.int16)
            self.even_high[0::2, 0::2] = self.even_high[1::2, 1::2] = 255
        clamped = np.clip(grid, t, 255 - t)
        marked = (clamped != grid).ravel()
        # min(v, 255 - v) at the odd cells, 255 at the even ones, which no
        # t_odd moves
        low = np.maximum(np.minimum(pred, 255 - pred), self.even_high)
        cells = np.flatnonzero(low < thresholds[-1])
        index = np.searchsorted(thresholds, low.ravel()[cells], "right")
        # an odd cell is a cover value, in [0, 255]; moved, it is off by t
        value = grid.ravel()[cells]
        moved = value + np.where(pred.ravel()[cells] <= 127, t, -t).astype(np.int16)
        moved_clamped = np.clip(moved, t, 255 - t)
        value_clamped = clamped.ravel()[cells]
        flip = (moved_clamped != moved).view(np.int8) - (value_clamped != value).view(np.int8)
        return (clamped.astype(np.uint8), marked, cells, index,
                moved_clamped - value_clamped, flip)


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
        raise _off_endpoint(shifted, *np.argwhere(bad)[0])
    return grid + outside * side


def _off_endpoint(shifted, i, j):
    """The error of a map that marks cell (i, j) clamped where its value is
    no endpoint of the interior range."""
    return CorruptionError(f"map marks cell ({i}, {j}) as clamped but its value "
                           f"{int(shifted[i, j])} is not an interior-range endpoint")


_OUT_OF_RANGE = "recovered cover leaves [0, 255]; inputs are inconsistent"


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
    if codec._inverse is None:
        return _inverse_chain(a, locmap.symbols, params)
    status, out = codec._inverse(a, locmap.symbols, t, params.t_even, params.t_odd)
    if status == codec._KERNEL_OFF_ENDPOINT:
        raise _off_endpoint(a, *out)
    if status == codec._KERNEL_OUT_OF_RANGE:
        raise CorruptionError(_OUT_OF_RANGE)
    return out


def _inverse_chain(shifted, symbols, params):
    """inverse() in NumPy, for a shifted image and map symbols that pass its
    checks: the fallback where the kernel did not load, and its reference."""
    t = params.shift
    grid = _unclamp(shifted, symbols.astype(np.int16), t)
    undo_odd = _apply_pass(grid, predict_grid(grid), 1, params.t_odd, t, -1)
    undo_even = _apply_pass(undo_odd, predict_grid(undo_odd), 0, params.t_even, t, -1)
    if int(undo_even.min()) < 0 or int(undo_even.max()) > 255:
        raise CorruptionError(_OUT_OF_RANGE)
    return undo_even.astype(np.uint8)


def boundary_count_after(output):
    """Pixels still boundary-valued after the transform (clamped cells)."""
    if not isinstance(output, PreprocessOutput):
        raise ValidationError("expected a PreprocessOutput")
    clear = 2 * output.params.shift
    return int(np.count_nonzero(output.locmap.symbols != clear))
