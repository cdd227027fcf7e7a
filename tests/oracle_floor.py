"""Map-by-map reference for codec._floors.

bit_length_floor bounds one map's coded length from below with the same
formula (codec._floor_bits), but reads its two counts from the map's own
symbols, where _floors reads them for a group of maps at once.
"""

import numpy as np

from boundshift.codec import _LATE, _floor_bits


def bit_length_floor(locmap):
    """A lower bound on compress(locmap).bit_length, from the count m of
    symbols other than the last (the clear symbol 2t of a preprocessing
    map) and how many of them lie late in raster order, at or past position
    _LATE + m."""
    symbols = locmap.symbols.ravel()
    marked = symbols != locmap.alphabet_size - 1
    m = int(np.count_nonzero(marked))
    late = int(np.count_nonzero(marked[_LATE + m:]))
    return _floor_bits(symbols.size, locmap.alphabet_size, m, late)
