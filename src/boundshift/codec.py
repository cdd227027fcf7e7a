"""Bit-exact adaptive entropy coding for location maps.

The coder is a 32-bit integer arithmetic coder (Witten, Neal and Cleary,
CACM 1987), written as two plain loops with local state: _encode_py() and
_decode_py(). An interval (low, high) is narrowed symbol by symbol and
renormalized one bit at a time. Carries are handled with pending-bit
bookkeeping: while the interval straddles the midpoint, bits cannot be
decided yet, so their count is parked and flushed (inverted) together with
the next decided bit. The encoder flushes all pending bits at finish, so the
decoder's lookahead never needs more than 32 bits past the written stream.
The decoder unpacks the stream once and appends 32 zero bits; a read past
that window is a corruption signal, never silent zero-padding. The decoded
map grows symbol by symbol, so a stream that runs out ends the decode
whatever size the map declares.

The probability model is adaptive order-0 and identical on both sides:
per-symbol counts start at 1, grow by 32 per coded symbol, and all counts
are halved (floor 1) when the updated count reaches 2**16. Symbols are
consumed in raster order. Everything is deterministic, so equal maps
always produce byte-identical streams.

_coder.c is the same two loops in C, with the same results bit for bit. It
gives the symbols that dominate real maps exact shortcuts, each leaving one
quotient: encoding the last symbol (the clear symbol 2t) leaves high
unchanged, since cum + freq[s] == total, and encoding 0 (most of a binary
boundary map) leaves low unchanged, since cum == 0; the decoder recognises
the last symbol by comparing (code - low + 1) * total - 1 with its interval
edge times span, which tests value against that edge without dividing.
That one quotient multiplies span by a reciprocal of the model's counts and
corrects the result, exact or one short, by a multiply-compare; the
reciprocal's division reads the model alone, so it never waits on the
interval. Other symbols divide as the loops do.
On import it is compiled once per source CRC-32 into
__pycache__/_coder-<crc32>.so next to this file and loaded with ctypes;
compress() and decompress() run it when it loads and the Python loops
otherwise (no compiler, a read-only directory, a load error).

The same library holds the pick-only sweep's step per even pass,
bs_pass_step: the odd-cell scan of preprocess._ForwardCache.odd_steps and
the rooms of embedder._pass_rooms in one C loop, with their outputs.
_pass_step is its wrapper, made once per sweep (pipeline._SweepState) so
its arrays and scratch serve every pass, or None where the kernel did not
load, and the sweep then runs those two NumPy functions.

It also holds preprocess.forward and preprocess.inverse past their checks,
bs_forward and bs_inverse: both passes and the clamp, or the unclamp and
both passes undone, in one C call each, with no prediction grid. _forward
and _inverse are their wrappers, or None where the kernel did not load,
and preprocess then runs its NumPy chain.

And it holds the embedder's capacity, embed and extract past their checks,
bs_capacity, bs_embed and bs_extract: one raster loop each over the even
cells of a grid and of predict_grid's output for it, read in place with its
rows w + 1 cells apart. _capacity, _embed and _extract are their wrappers,
or None where the kernel did not load, and the embedder then runs its NumPy
bodies.

_floors bounds the coded lengths of the maps of one even pass from below
at once, without coding them, from the model alone (_floor_bits); the
pick-only sweep skips the maps it rules out.
"""

import ctypes
import itertools
import math
import os
import tempfile
import weakref
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError, ValidationError
from .imagecore import LocationMap, as_bytes, boundary_mask, check_param

_STATE_BITS = 32
_FULL_MASK = (1 << _STATE_BITS) - 1
_TOP_BIT = 1 << (_STATE_BITS - 1)
_HALF_MASK = _FULL_MASK >> 1
_SECOND_BIT = _TOP_BIT >> 1
_MODEL_INCREMENT = 32
_MODEL_CAP = 1 << 16
_EXHAUSTED = "compressed map exhausted mid-decode"
_KERNEL_ERRORS = {2: _EXHAUSTED}
_KERNEL_NO_MEMORY = 3
_KERNEL_OFF_ENDPOINT = 4
_KERNEL_OUT_OF_RANGE = 5
_KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_coder.c")

_U32_MAX = 2**32 - 1


@dataclass(frozen=True)
class CompressedMap:
    """Entropy-coded location map plus the geometry needed to decode it."""

    alphabet_size: int
    width: int
    height: int
    bit_length: int
    data: bytes

    def __post_init__(self):
        # stored as int and bytes (set through object, the class being
        # frozen), so NumPy integers cannot wrap in width * height; the
        # bounds are those of the container's and the frame's header fields
        for name, low, high in (("alphabet_size", 2, 256), ("width", 0, _U32_MAX),
                                ("height", 0, _U32_MAX), ("bit_length", 0, _U32_MAX)):
            object.__setattr__(self, name, check_param(name, getattr(self, name), low, high))
        object.__setattr__(self, "data", as_bytes(self.data, "data"))
        if len(self.data) != (self.bit_length + 7) // 8:
            raise ValidationError(
                f"payload holds {len(self.data)} bytes but bit_length {self.bit_length} "
                f"needs {(self.bit_length + 7) // 8}"
            )


def _halved(freq):
    """The model's counts halved, each kept at least 1."""
    return [(f + 1) >> 1 for f in freq]


def _encode_py(symbols, alphabet_size):
    """The encode loop in Python: (bit_length, data) for a flat uint8 array
    of symbols. The fallback when the kernel is absent, and its reference."""
    freq = [1] * alphabet_size
    total = alphabet_size
    low, high, pending = 0, _FULL_MASK, 0
    bits = []
    for s in symbols.tolist():
        cum = sum(freq[:s])
        span = high - low + 1
        high = low + (span * (cum + freq[s])) // total - 1
        low = low + (span * cum) // total
        while True:
            if ((low ^ high) & _TOP_BIT) == 0:
                bit = low >> (_STATE_BITS - 1)
                bits.append(bit)
                if pending:
                    bits.extend([bit ^ 1] * pending)
                    pending = 0
                low = (low << 1) & _FULL_MASK
                high = ((high << 1) & _FULL_MASK) | 1
            elif (low & ~high & _SECOND_BIT) != 0:
                pending += 1
                low = (low << 1) & _HALF_MASK
                high = ((high << 1) & _HALF_MASK) | _TOP_BIT | 1
            else:
                break
        freq[s] += _MODEL_INCREMENT
        total += _MODEL_INCREMENT
        if freq[s] >= _MODEL_CAP:
            freq = _halved(freq)
            total = sum(freq)
    # A final 1 plus the parked bits (necessarily zeros after a 1) pins the
    # coded value inside the final interval.
    bits.append(1)
    bits.extend([0] * pending)
    return len(bits), np.packbits(np.array(bits, dtype=np.uint8)).tobytes()


def _decode_py(data, bit_length, count, alphabet_size):
    """The decode loop in Python: the count symbols coded in the first
    bit_length bits of data, as bytes. The fallback when the kernel is
    absent, and its reference. Only running out of bits fails it: for any input,
    low <= code <= high before each symbol, from the start (low 0, high 2**32 - 1,
    code 32 bits); then 1 <= code - low + 1 <= span puts value in [0, total - 1],
    cum <= value < cum + freq[s] puts code in the symbol's sub-interval, and the
    renormalization steps map all three alike (drop the shared top bit, or
    subtract 2**30, then double), code's new bit between low's 0 and high's 1."""
    stream = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=bit_length)
    bits = stream.tolist() + [0] * _STATE_BITS
    end = len(bits)
    code = 0
    for bit in bits[:_STATE_BITS]:
        code = (code << 1) | bit
    pos = _STATE_BITS
    freq = [1] * alphabet_size
    total = alphabet_size
    low, high = 0, _FULL_MASK
    out = bytearray()
    for _ in range(count):
        span = high - low + 1
        value = ((code - low + 1) * total - 1) // span
        s, cum = 0, 0
        while cum + freq[s] <= value:
            cum += freq[s]
            s += 1
        high = low + (span * (cum + freq[s])) // total - 1
        low = low + (span * cum) // total
        while True:
            if ((low ^ high) & _TOP_BIT) == 0:
                code = (code << 1) & _FULL_MASK
                low = (low << 1) & _FULL_MASK
                high = ((high << 1) & _FULL_MASK) | 1
            elif (low & ~high & _SECOND_BIT) != 0:
                code = (code & _TOP_BIT) | ((code << 1) & _HALF_MASK)
                low = (low << 1) & _HALF_MASK
                high = ((high << 1) & _HALF_MASK) | _TOP_BIT | 1
            else:
                break
            if pos == end:
                raise CorruptionError(_EXHAUSTED)
            code |= bits[pos]
            pos += 1
        out.append(s)
        freq[s] += _MODEL_INCREMENT
        total += _MODEL_INCREMENT
        if freq[s] >= _MODEL_CAP:
            freq = _halved(freq)
            total = sum(freq)
    return bytes(out)


def _kernel_coder(lib):
    """(encode, decode, pass step, forward, inverse, capacity, embed,
    extract) calling the compiled kernel in lib: encode and decode with the
    signatures and results of _encode_py and _decode_py."""
    lib.bs_encode.argtypes = [ctypes.c_void_p, ctypes.c_uint64, ctypes.c_int, ctypes.c_void_p]
    lib.bs_encode.restype = ctypes.c_uint64
    lib.bs_decode.argtypes = [
        ctypes.c_void_p, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_int,
        ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(ctypes.c_uint64),
    ]
    lib.bs_decode.restype = ctypes.c_int
    lib.bs_free.argtypes = [ctypes.c_void_p]
    lib.bs_free.restype = None

    def encode(symbols, alphabet_size):
        symbols = np.ascontiguousarray(symbols, dtype=np.uint8)
        # 4 bytes per symbol plus one is the output bound proved in _coder.c.
        out = np.zeros(4 * symbols.size + 1, dtype=np.uint8)
        bit_length = lib.bs_encode(symbols.ctypes.data, symbols.size, alphabet_size, out.ctypes.data)
        return bit_length, out[: (bit_length + 7) // 8].tobytes()

    def decode(data, bit_length, count, alphabet_size):
        # CompressedMap has checked that data holds bit_length bits.
        stream = np.frombuffer(data, dtype=np.uint8)
        buf, n = ctypes.c_void_p(), ctypes.c_uint64()
        status = lib.bs_decode(stream.ctypes.data, bit_length, count, alphabet_size,
                               ctypes.byref(buf), ctypes.byref(n))
        if status == _KERNEL_NO_MEMORY:
            raise MemoryError("no memory for the decoded map")
        if status:
            raise CorruptionError(_KERNEL_ERRORS[status])
        try:
            return ctypes.string_at(buf, n.value)
        finally:
            lib.bs_free(buf)

    lib.bs_pass_step.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_uint64, ctypes.c_uint64,
        ctypes.c_int32, ctypes.c_void_p, ctypes.c_int32, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.POINTER(ctypes.c_uint64),
        ctypes.POINTER(ctypes.c_void_p),
    ]
    lib.bs_pass_step.restype = ctypes.c_int

    class PassStep:
        """The kernel's step per even pass (bs_pass_step) for the passes of
        one sweep, on grids of one shape: its output arrays and the
        kernel's scratch are made once and reused by every pass, and the
        scratch is released with the step. A call gives what odd_steps and
        _pass_rooms give (marked, cells, index, flip, rooms), as views that
        the next call overwrites."""

        def __init__(self, shape):
            self.shape = shape
            n = shape[0] * shape[1]
            self.marked = np.empty(n, dtype=bool)
            # an h x w grid has n // 2 odd cells
            self.cells = np.empty(n // 2, dtype=np.int64)
            self.index = np.empty(n // 2, dtype=np.int64)
            self.flip = np.empty(n // 2, dtype=np.int8)
            self.rooms = np.empty(127, dtype=np.int64)
            self.outputs = [a.ctypes.data for a in
                            (self.marked, self.cells, self.index, self.flip, self.rooms)]
            self.thresholds = self.first = None
            self.listed = ctypes.c_uint64()
            self.work = ctypes.c_void_p()
            weakref.finalize(self, lib.bs_free, self.work)

        def __call__(self, grid, pred, table, shift, thresholds):
            """The step of the even pass grid (int16) predicted as pred, for
            the table of 16 S + n and the sorted thresholds."""
            if thresholds != self.thresholds:
                # the first index of a threshold above each value 0..127
                self.first = np.searchsorted(thresholds, np.arange(128), "right").astype(np.uint8)
                self.thresholds = list(thresholds)
            grid, pred, table = (np.ascontiguousarray(a, dtype=np.int16)
                                 for a in (grid, pred, table))
            size = len(thresholds)
            # the kernel writes within these bounds only
            if not grid.shape == pred.shape == table.shape == self.shape or not 0 < size < 128:
                raise ValueError(f"a pass step of grids of shape {self.shape} and 1 to 127 "
                                 f"thresholds, given {grid.shape} and {size}")
            status = lib.bs_pass_step(grid.ctypes.data, pred.ctypes.data, table.ctypes.data,
                                      *self.shape, shift, self.first.ctypes.data, size,
                                      *self.outputs, ctypes.byref(self.listed),
                                      ctypes.byref(self.work))
            if status == _KERNEL_NO_MEMORY:
                raise MemoryError("no memory for the pass step's scratch")
            m = self.listed.value
            return (self.marked, self.cells[:m], self.index[:m], self.flip[:m],
                    self.rooms[:size])

    lib.bs_forward.argtypes = [ctypes.c_void_p, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_int32,
                               ctypes.c_int32, ctypes.c_int32, ctypes.c_void_p]
    lib.bs_forward.restype = ctypes.c_int
    lib.bs_inverse.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_int32,
        ctypes.c_int32, ctypes.c_int32, ctypes.c_void_p, ctypes.POINTER(ctypes.c_uint64),
    ]
    lib.bs_inverse.restype = ctypes.c_int

    def forward(cover, shift, t_even, t_odd):
        """(shifted image, map symbols) of preprocess.forward, both uint8,
        for a gray cover of at least 2x2 and valid parameters."""
        cover = np.ascontiguousarray(cover, dtype=np.uint8)
        out = np.empty((2, *cover.shape), dtype=np.uint8)
        status = lib.bs_forward(cover.ctypes.data, *cover.shape, shift, t_even, t_odd,
                                out.ctypes.data)
        if status == _KERNEL_NO_MEMORY:
            raise MemoryError("no memory for the transform's grids")
        return out[0], out[1]

    def inverse(shifted, symbols, shift, t_even, t_odd):
        """(status, result) of preprocess.inverse, for a shifted image of at
        least 2x2 in [shift, 255 - shift], map symbols of its shape in
        [0, 2 shift] and valid parameters: (0, the cover),
        (_KERNEL_OFF_ENDPOINT, the (row, column) of the first marked cell
        off the endpoints) or (_KERNEL_OUT_OF_RANGE, None)."""
        shifted = np.ascontiguousarray(shifted, dtype=np.uint8)
        symbols = np.ascontiguousarray(symbols, dtype=np.uint8)
        # the kernel reads within the image's shape only
        if shifted.shape != symbols.shape:
            raise ValueError(f"an inverse of an image of shape {shifted.shape} and a map "
                             f"of shape {symbols.shape}")
        cover = np.empty(shifted.shape, dtype=np.uint8)
        at = ctypes.c_uint64()
        status = lib.bs_inverse(shifted.ctypes.data, symbols.ctypes.data, *shifted.shape,
                                shift, t_even, t_odd, cover.ctypes.data, ctypes.byref(at))
        if status == _KERNEL_NO_MEMORY:
            raise MemoryError("no memory for the transform's grids")
        if status == _KERNEL_OFF_ENDPOINT:
            return status, divmod(at.value, shifted.shape[1])
        return status, cover if status == 0 else None

    lib.bs_capacity.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_uint64,
                                ctypes.c_uint64, ctypes.c_uint64]
    lib.bs_capacity.restype = ctypes.c_uint64
    for f in (lib.bs_embed, lib.bs_extract):
        f.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_uint64, ctypes.c_uint64,
                      ctypes.c_uint64, ctypes.c_void_p, ctypes.c_void_p]
    lib.bs_embed.restype = None
    lib.bs_extract.restype = ctypes.c_uint64

    def rows(grid, pred):
        """(grid, pred, pred's row stride in cells, the even cells' count) as
        the embedder's loops read them: a C-contiguous uint8 grid and its
        int16 prediction, whose rows may lie apart (predict_grid's lie
        w + 1 cells apart), each row contiguous."""
        grid = np.ascontiguousarray(grid, dtype=np.uint8)
        pred = np.asarray(pred, dtype=np.int16)
        # the kernel reads within the grid's shape only
        if grid.ndim != 2 or pred.shape != grid.shape:
            raise ValueError(f"the embedder's loops over a grid of shape {grid.shape} and a "
                             f"prediction of shape {pred.shape}")
        row, cell = pred.strides
        if cell != 2 or row < 0 or row % 2:
            pred = np.ascontiguousarray(pred)
            row = pred.strides[0]
        return grid, pred, row // 2, (grid.size + 1) // 2

    def capacity(grid, pred):
        """embedder.capacity of a uint8 grid predicted as pred."""
        grid, pred, stride, _ = rows(grid, pred)
        return lib.bs_capacity(grid.ctypes.data, pred.ctypes.data, stride, *grid.shape)

    def embed(grid, pred, payload):
        """embedder.embed of a uint8 grid predicted as pred, in [1, 254],
        whose carriers number at least the payload's bits."""
        grid, pred, stride, even = rows(grid, pred)
        if payload.size > even:
            raise ValueError(f"a payload of {payload.size} bits for {even} even cells")
        bits = np.zeros(even, dtype=np.uint8)
        bits[:payload.size] = payload
        out = np.empty(grid.shape, dtype=np.uint8)
        lib.bs_embed(grid.ctypes.data, pred.ctypes.data, stride, *grid.shape, bits.ctypes.data,
                     out.ctypes.data)
        return out

    def extract(grid, pred):
        """embedder.extract of a uint8 grid predicted as pred: (the carrier
        stream, the restored grid)."""
        grid, pred, stride, even = rows(grid, pred)
        bits = np.empty(even, dtype=np.uint8)
        out = np.empty(grid.shape, dtype=np.uint8)
        n = lib.bs_extract(grid.ctypes.data, pred.ctypes.data, stride, *grid.shape,
                           bits.ctypes.data, out.ctypes.data)
        return bits[:n], out

    return encode, decode, PassStep, forward, inverse, capacity, embed, extract


def _compile_kernel(path):
    """Compile _coder.c into path, through a temporary file beside it."""
    import subprocess  # only a cache miss needs it, and it costs 0.5 MB of RSS

    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_coder-", suffix=".tmp", dir=os.path.dirname(path))
    os.close(fd)
    try:
        done = subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", tmp, _KERNEL_SOURCE],
                              capture_output=True)
        if done.returncode != 0:
            raise OSError(f"cc exited with status {done.returncode}")
        os.chmod(tmp, 0o755)  # mkstemp made it private to this user
        # atomic, so processes compiling at once never load a torn file
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load_coder(cache_dir):
    """(encode, decode, pass step, forward, inverse, capacity, embed,
    extract) from the compiled kernel cached in cache_dir as
    _coder-<source CRC-32>.so, compiling _coder.c there first if that file
    is missing; the Python loops and None for each of the others if the
    kernel cannot be built or loaded.
    A CRC-32 names the source well enough for a cache, and zlib is already
    loaded where hashlib would pull in OpenSSL."""
    try:
        with open(_KERNEL_SOURCE, "rb") as fh:
            digest = zlib.crc32(fh.read())
        path = os.path.join(cache_dir, f"_coder-{digest:08x}.so")
        if not os.path.exists(path):
            _compile_kernel(path)
        return _kernel_coder(ctypes.CDLL(path))
    except OSError:
        return _encode_py, _decode_py, None, None, None, None, None, None


(_encode, _decode, _pass_step, _forward, _inverse,
 _capacity, _embed, _extract) = _load_coder(
    os.path.join(os.path.dirname(_KERNEL_SOURCE), "__pycache__"))


def compress(locmap):
    """Entropy-code a location map; equal maps give byte-identical output."""
    if not isinstance(locmap, LocationMap):
        raise ValidationError("expected a LocationMap")
    symbols = locmap.symbols
    height, width = symbols.shape
    if symbols.size == 0:
        return CompressedMap(locmap.alphabet_size, width, height, 0, b"")
    bit_length, data = _encode(symbols.ravel(), locmap.alphabet_size)
    return CompressedMap(locmap.alphabet_size, width, height, bit_length, data)


# While no count but the last symbol's reaches the cap, the last symbol's
# count is 1 + 32c after c of them and at least 2**15 from the first halving
# on, so it is at least 2**15 once _LATE of them are coded.
_LATE = -(-(_MODEL_CAP // 2 - 1) // _MODEL_INCREMENT)
_MARKED_MAX = _MODEL_CAP // _MODEL_INCREMENT
# _MARKED_BITS[k]: the sum over j < k of log2(1 + 2**15 / (1 + 32j)); in
# Python, since NumPy's log2 would page in 0.4 MiB of its code
_MARKED_BITS = [0.0, *itertools.accumulate(
    math.log2(1 + (_MODEL_CAP // 2) / (1 + _MODEL_INCREMENT * j)) for j in range(_MARKED_MAX))]


def _floor_bits(n, alphabet, m, late):
    """The floor on the coded length of a map of n symbols of the alphabet,
    m of them other than the last (the clear symbol 2t of a preprocessing
    map), late of those at or past position _LATE + m; it costs no coding.

    For m < 2048 no other symbol occurs 2048 times, so only the last
    symbol's count reaches the cap, and another symbol's count is at most
    1 + 32j at the j-th symbol other than the last. A late one has at least
    _LATE last symbols before it, so its probability is at most
    (1 + 32j) / (2**15 + 1 + 32j). The late ones are the last of the m:
    their information is at least _MARKED_BITS[m] - _MARKED_BITS[m - late],
    the others' at least 0. The coder's span exceeds 2**30 before each
    symbol and narrows to less than span * p + 1; each renormalization
    doubles it and adds one bit. So the length exceeds the information less
    1 and less the sum of log2(1 + total / (count * span)). total / count
    is at most A + 32m at a last symbol and 2**16 + A + 32m at another, so
    that sum is below (n * (A + 32m) + m * 2**16) / 2**29 for n symbols of
    alphabet A. The bound rounds down one bit more, so float rounding
    cannot break it."""
    if m == 0 or m >= _MARKED_MAX:
        # a non-empty map ends in a 1 bit
        return min(1, n)
    info = _MARKED_BITS[m] - _MARKED_BITS[m - late]
    slack = (n * (alphabet + _MODEL_INCREMENT * m) + m * _MODEL_CAP) / 2**29
    return max(1, math.floor(info - slack) - 1)


def _floors(n, alphabet, marked, cells, index, flip, counts):
    """The floor (_floor_bits) on the coded length of each map of a group of
    n-symbol maps of the alphabet, at once. Map j marks the positions
    marked marks (a flat bool array), less or plus each of the sorted flat
    positions cells whose flip (-1 or 1) has index <= j, and counts[j]
    positions in all (an int array). Only a map of fewer than _MARKED_MAX
    marked symbols reads its late count: m less those before its bound
    _LATE + m. No such bound exceeds _LATE + _MARKED_MAX, so only the
    positions before that are read."""
    size = counts.size
    ms = counts.tolist()
    if not any(0 < m < _MARKED_MAX for m in ms):
        return [_floor_bits(n, alphabet, m, 0) for m in ms]
    bound = _LATE + counts
    near = np.searchsorted(cells, _LATE + _MARKED_MAX)
    # a flip lies before map j's bound iff it lies at or past no more of
    # the bounds than those below map j's: binned by that count and index
    order = np.sort(bound)
    reach = np.searchsorted(order, cells[:near], "right")
    hist = np.bincount(reach * size + index[:near], flip[:near], (size + 1) * size)
    before = hist.reshape(size + 1, size).cumsum(0).cumsum(1)
    # early[j]: the marked positions of map j before its bound
    early = np.searchsorted(np.flatnonzero(marked[:_LATE + _MARKED_MAX]), bound)
    early += before[np.searchsorted(order, bound), np.arange(size)].astype(int)
    return [_floor_bits(n, alphabet, m, m - e) for m, e in zip(ms, early.tolist())]


def decompress(cmap, shape=None):
    """Invert compress(); corrupted or truncated streams raise CorruptionError.
    shape is the (height, width) the caller expects, if given: a map that
    declares another raises CorruptionError before any symbol is decoded,
    since an adaptive coder can decode far more symbols than its stream has
    bits."""
    if not isinstance(cmap, CompressedMap):
        raise ValidationError("expected a CompressedMap")
    declared = (cmap.height, cmap.width)
    if shape is not None:
        if not isinstance(shape, tuple) or len(shape) != 2:
            raise ValidationError(f"shape must be a (height, width) pair, got {shape!r}")
        expected = (check_param("height", shape[0], 0, 2**32 - 1),
                    check_param("width", shape[1], 0, 2**32 - 1))
        if declared != expected:
            raise CorruptionError(f"map shape {declared} does not match image shape {expected}")
    count = cmap.width * cmap.height
    if count == 0:
        return LocationMap(np.zeros(declared, dtype=np.uint8), cmap.alphabet_size)
    out = _decode(cmap.data, cmap.bit_length, count, cmap.alphabet_size)
    return LocationMap(np.frombuffer(out, dtype=np.uint8).reshape(declared), cmap.alphabet_size)


def compress_binary_baseline(img, shift):
    """Compress the plain 0/1 boundary indicator of an image (the side
    information a direct embedder would have to carry)."""
    return compress(LocationMap(boundary_mask(img, shift).astype(np.uint8), 2))
