import hashlib
import importlib.resources
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from boundshift import (
    CompressedMap,
    CorruptionError,
    LocationMap,
    PreprocessParams,
    ValidationError,
    compress,
    compress_binary_baseline,
    decompress,
    deserialize_map,
    forward,
    serialize_map,
)
from boundshift import codec
from boundshift.fixtures import _blobs, _dark, _pooled_field

from conftest import smooth_image

from oracle_floor import bit_length_floor
from test_formats import GOLDEN_BYTES, GOLDEN_MAP

# The coder compress() and decompress() run, taken before any test swaps it:
# the compiled kernel when it loaded, else the Python loops.
PYTHON_CODER = (codec._encode_py, codec._decode_py)
KERNEL_CODER = (codec._encode, codec._decode)
needs_kernel = pytest.mark.skipif(
    KERNEL_CODER == PYTHON_CODER,
    reason="the compiled coder did not load (no C compiler, or its cache directory is read-only)",
)


@pytest.fixture(params=["python", pytest.param("kernel", marks=needs_kernel)])
def coder(request, monkeypatch):
    """Run compress() and decompress() through one implementation."""
    encode, decode = PYTHON_CODER if request.param == "python" else KERNEL_CODER
    monkeypatch.setattr(codec, "_encode", encode)
    monkeypatch.setattr(codec, "_decode", decode)


# Coded size and container digest of maps long enough for the model to halve
# its counts (constant: 3 times; dark cover: 14 times), plus the widest
# alphabet and a binary baseline map. GOLDEN_BYTES is too short to reach a
# halving, so these pin the rest of the coder's arithmetic. The last two rows
# are each dominated by an end symbol: the clear symbol 6 of a shift-3 map,
# the last of its 7, and the 0 of an all-clear baseline map.
PINNED_MAPS = [
    pytest.param(
        lambda: compress(LocationMap(np.full((64, 64), 2), 3)),
        3, "b9cf73900cd9bfb5fad81de853bb8b4f17eca2d2d83269193cdd9cc17f1e375a",
        id="constant-64"),
    pytest.param(
        lambda: compress(forward(_pooled_field(default_rng(12), 128, 128, 40, 45),
                                 PreprocessParams(1, 1, 4)).locmap),
        2993, "e37f542409dd964a5e0bcfd9702ff9aaa0a5c818ce86633c2ec489b9d56fae6b",
        id="dark-128"),
    pytest.param(
        lambda: compress(LocationMap(default_rng(5).integers(0, 256, (32, 32)), 256)),
        9221, "6f67019d9454e2cc8580596139b85a4f4938721e072ba4707af38d46c574e04b",
        id="uniform-256"),
    pytest.param(
        lambda: compress_binary_baseline(_blobs(default_rng(6), 64, 64, 0.45), 1),
        4061, "2990af3d35b13fe46bd65864d9f8a8d36e37a93570321bcabebca0002ef8928d",
        id="baseline-blobs-64"),
    pytest.param(
        lambda: compress(forward(_dark(default_rng(13), 128, 128), PreprocessParams(3, 1, 4)).locmap),
        6220, "c56d892f536bceb4d71170ec39efcb03991d09095cae2d276f4f446c208278c2",
        id="dark-shift3-128"),
    pytest.param(
        lambda: compress_binary_baseline(smooth_image(21, 128, 128), 1),
        2, "ecf1b2b30f0b72b989dbad01c0036d0e9997d47528f54217984332d17045ac48",
        id="baseline-smooth-128"),
]


def _check_pinned(make_cmap, bit_length, digest):
    cmap = make_cmap()
    assert cmap.bit_length == bit_length
    assert hashlib.sha256(serialize_map(cmap)).hexdigest() == digest
    assert compress(decompress(cmap)) == cmap


@pytest.mark.parametrize("make_cmap, bit_length, digest", PINNED_MAPS)
def test_coded_bytes_are_pinned(make_cmap, bit_length, digest):
    """The coder compress() runs by default: the kernel when it loaded."""
    _check_pinned(make_cmap, bit_length, digest)


@pytest.mark.parametrize("make_cmap, bit_length, digest", PINNED_MAPS)
def test_coded_bytes_are_pinned_per_coder(coder, make_cmap, bit_length, digest):
    _check_pinned(make_cmap, bit_length, digest)


def test_compress_is_deterministic():
    m = LocationMap(default_rng(0).integers(0, 5, (20, 20)), 5)
    a, b = compress(m), compress(m)
    assert a == b
    assert serialize_map(a) == serialize_map(b)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alphabet=st.sampled_from([2, 3, 5, 17, 33, 256]),
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    skew=st.booleans(),
)
def test_round_trip_random_maps(seed, alphabet, h, w, skew):
    rng = default_rng(seed)
    if skew:
        # heavily repeated clear symbol, like real maps
        symbols = np.full((h, w), alphabet - 1, dtype=np.int64)
        hits = rng.random((h, w)) < 0.1
        symbols[hits] = rng.integers(0, alphabet, int(hits.sum()))
    else:
        symbols = rng.integers(0, alphabet, (h, w))
    m = LocationMap(symbols, alphabet)
    out = decompress(compress(m))
    assert out.alphabet_size == alphabet
    assert np.array_equal(out.symbols, m.symbols)


def test_empty_map_round_trip():
    m = LocationMap(np.zeros((0, 0), dtype=np.uint8), 3)
    cmap = compress(m)
    assert cmap.bit_length == 0 and cmap.data == b""
    out = decompress(cmap)
    assert out.symbols.shape == (0, 0)
    assert deserialize_map(serialize_map(cmap)) == cmap


def test_constant_map_compresses_to_near_nothing():
    m = LocationMap(np.full((64, 64), 2, dtype=np.uint8), 3)
    assert compress(m).bit_length < 100


def test_uniform_map_stays_near_entropy():
    symbols = default_rng(2).integers(0, 3, (128, 128))
    bits = compress(LocationMap(symbols, 3)).bit_length
    bound = symbols.size * math.log2(3)
    assert bits < bound * 1.02
    assert bits > bound * 0.98   # can't beat entropy on uniform data


def test_binary_baseline_marks_boundary_band():
    img = np.array([[0, 128], [255, 254]], dtype=np.uint8)
    cmap = compress_binary_baseline(img, 1)
    out = decompress(cmap)
    assert out.alphabet_size == 2
    assert out.symbols.tolist() == [[1, 0], [1, 0]]


def test_truncated_stream_raises():
    m = LocationMap(default_rng(3).integers(0, 3, (16, 16)), 3)
    cmap = compress(m)
    cut = CompressedMap(
        cmap.alphabet_size, cmap.width, cmap.height,
        cmap.bit_length // 2, cmap.data[: (cmap.bit_length // 2 + 7) // 8],
    )
    with pytest.raises(CorruptionError):
        decompress(cut)


def test_compressed_map_length_guard():
    with pytest.raises(ValidationError):
        CompressedMap(3, 4, 4, 16, b"\x00")
    with pytest.raises(ValidationError):
        CompressedMap(1, 4, 4, 0, b"")


@pytest.mark.parametrize("fields, message", [
    ((2.5, 2, 2, 8, b"\x00"), "alphabet_size must be an integer, got 2.5"),
    ((3, 2.0, 2, 16, b"ab"), "width must be an integer, got 2.0"),
    ((3, 2, "2", 16, b"ab"), "height must be an integer, got '2'"),
    ((3, 2, 2, True, b"\x00"), "bit_length must be an integer, got True"),
    ((np.True_, 2, 2, 8, b"\x00"), "alphabet_size must be an integer, got "),
    ((3, 2, 2, 16, "ab"), "data must be bytes-like, got str"),
    ((3, 2, 2, 16, [0, 0]), "data must be bytes-like, got list"),
    ((3, -1, 2, 0, b""), "width must be in [0, 4294967295], got -1"),
    ((3, 2, 2, -8, b""), "bit_length must be in [0, 4294967295], got -8"),
])
def test_compressed_map_rejects_fields_of_another_type(fields, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        CompressedMap(*fields)


def test_compressed_map_takes_numpy_integers_and_any_bytes_type():
    cmap = compress(GOLDEN_MAP)
    fields = (np.int64(3), np.uint32(3), np.int16(2), np.int64(cmap.bit_length))
    want = serialize_map(cmap)
    for data in (cmap.data, bytearray(cmap.data), memoryview(cmap.data)):
        other = CompressedMap(*fields, data)
        assert other == cmap
        assert serialize_map(other) == want
        assert np.array_equal(decompress(other).symbols, GOLDEN_MAP.symbols)
    # uint32 dimensions whose product would wrap to 1 in uint32
    huge = np.uint32(2**32 - 1)
    with pytest.raises(CorruptionError, match="exhausted"):
        decompress(CompressedMap(3, huge, huge, 8, b"\x00"))


def test_short_read_window_is_bounded():
    # the decoder may read at most 32 bits past the declared stream, so a
    # stream cut by more than that margin can never decode quietly
    m = LocationMap(default_rng(4).integers(0, 3, (32, 32)), 3)
    cmap = compress(m)
    for cut_bits in (40, 200, cmap.bit_length - 1):
        kept = cmap.bit_length - cut_bits
        short = CompressedMap(3, 32, 32, kept, cmap.data[: (kept + 7) // 8])
        with pytest.raises(CorruptionError):
            decompress(short)


def test_oversized_declared_map_runs_out_of_stream():
    # the decoded map grows symbol by symbol, so a map declaring more cells
    # than numpy can address still ends in CorruptionError once its one-byte
    # stream runs out
    with pytest.raises(CorruptionError, match="exhausted"):
        decompress(CompressedMap(3, 2**32 - 1, 2**32 - 1, 8, b"\x00"))


# A 4,111-byte container of zero bytes declaring (2**32 - 1)**2 symbols:
# decoded without an expected shape, it runs 6 s on a 2-core Xeon (capped
# at 1.5 GB of address space) before its stream runs out.
_HUGE_CONTAINER = serialize_map(CompressedMap(3, 2**32 - 1, 2**32 - 1, 8 * 4096, bytes(4096)))


@pytest.mark.parametrize("cmap, shape, error, message", [
    (deserialize_map(_HUGE_CONTAINER), (8, 8), CorruptionError,
     "map shape (4294967295, 4294967295) does not match image shape (8, 8)"),
    # (height, width), not (width, height)
    (CompressedMap(3, 2, 1, 8, b"\x00"), (2, 1), CorruptionError,
     "map shape (1, 2) does not match image shape (2, 1)"),
    (compress(GOLDEN_MAP), (2, 4), CorruptionError,
     "map shape (2, 3) does not match image shape (2, 4)"),
    (compress(GOLDEN_MAP), [2, 3], ValidationError, "shape must be a (height, width) pair, got [2, 3]"),
    (compress(GOLDEN_MAP), (2,), ValidationError, "shape must be a (height, width) pair, got (2,)"),
    (compress(GOLDEN_MAP), "xy", ValidationError, "shape must be a (height, width) pair, got 'xy'"),
    (compress(GOLDEN_MAP), (2, -1), ValidationError, "width must be in [0, 4294967295], got -1"),
    (compress(GOLDEN_MAP), (True, 3), ValidationError, "height must be an integer, got True"),
], ids=["huge-declared", "transposed", "wider", "list", "one-number", "string", "negative",
        "bool"])
def test_decompress_refuses_a_shape_it_was_not_given(cmap, shape, error, message):
    start = time.perf_counter()
    with pytest.raises(error) as exc:
        decompress(cmap, shape)
    assert str(exc.value) == message
    assert time.perf_counter() - start < 1.0


def test_decompress_decodes_the_shape_it_was_given():
    for shape in ((2, 3), (np.int64(2), np.uint32(3))):
        assert np.array_equal(decompress(compress(GOLDEN_MAP), shape).symbols, GOLDEN_MAP.symbols)
    empty = compress(LocationMap(np.zeros((0, 5), np.uint8), 3))
    assert decompress(empty, (0, 5)).symbols.shape == (0, 5)


def _edge_stream(alphabet, first, edge):
    """(bit_length, data) of a stream whose first symbol is first and whose
    second decodes from value == cum, the lower edge of symbol edge's
    interval, exactly: (code - low + 1) * total - 1 == cum * span. The
    first symbol's renormalization must only shift, never park a bit, so
    that the next 32 bits are the second symbol's code."""
    low, high = (2**32 * first) // alphabet, (2**32 * (first + 1)) // alphabet - 1
    prefix = []
    while ((low ^ high) >> 31) == 0:
        prefix.append(low >> 31)
        low, high = (low << 1) & 0xFFFFFFFF, ((high << 1) & 0xFFFFFFFF) | 1
    assert not low & ~high & (1 << 30)
    freq = [1] * alphabet
    freq[first] += 32
    total, span, cum = alphabet + 32, high - low + 1, sum(freq[:edge])
    assert (cum * span + 1) % total == 0
    code = (cum * span + 1) // total + low - 1
    bits = prefix + [(code >> (31 - i)) & 1 for i in range(32)] + [0] * 32
    return len(bits), np.packbits(np.array(bits, dtype=np.uint8)).tobytes()


# (alphabet, first, edge): the lower edge of the last symbol, of symbol 1
# (the upper edge of symbol 0) and of a middle symbol, where the decoder's
# last-symbol comparison and its search must not be off by one
@pytest.mark.parametrize("alphabet, first, edge", [(9, 1, 8), (185, 13, 184), (117, 15, 1), (7, 6, 5)])
def test_a_value_on_an_interval_edge_decodes_to_the_upper_symbol(coder, alphabet, first, edge):
    bit_length, data = _edge_stream(alphabet, first, edge)
    out = decompress(CompressedMap(alphabet, 2, 1, bit_length, data))
    assert out.symbols.tolist() == [[first, edge]]


def _sparse_map(h, w, alphabet, positions, values):
    """A map of the last (clear) symbol but for values at flat positions."""
    symbols = np.full(h * w, alphabet - 1, dtype=np.uint8)
    symbols[positions] = values
    return LocationMap(symbols.reshape(h, w), alphabet)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    place=st.sampled_from(["random", "late", "early", "cover"]),
    alphabet=st.sampled_from([2, 3, 5, 7, 255]),
    h=st.integers(2, 140),
    w=st.integers(2, 140),
    marked=st.one_of(st.integers(0, 60), st.integers(2000, 2100)),
)
def test_bit_length_floor_never_exceeds_the_coded_length(seed, place, alphabet, h, w, marked):
    rng = default_rng(seed)
    n = h * w
    m = min(marked, n)
    if place == "cover":
        # a preprocessing map, which the pick-only sweep bounds
        shift = (alphabet - 1) // 2 if alphabet % 2 else 1
        params = PreprocessParams(shift, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        locmap = forward(_pooled_field(rng, h, w, 40, 45), params).locmap
    else:
        positions = {"random": rng.choice(n, m, replace=False),
                     "late": np.arange(n - m, n), "early": np.arange(m)}[place]
        values = rng.integers(0, alphabet - 1, m) if rng.random() < 0.5 else 0
        locmap = _sparse_map(h, w, alphabet, positions, values)
    assert 1 <= bit_length_floor(locmap) <= compress(locmap).bit_length


@pytest.mark.parametrize("marked, floor, bit_length", [
    (0, 1, 4), (1, 13, 19), (2, 23, 30), (5, 49, 59), (20, 147, 172), (2047, 2825, 2834),
    # with 2048 a count other than the clear symbol's can reach the cap
    (2048, 1, 2833),
])
def test_bit_length_floor_of_late_marked_symbols(marked, floor, bit_length):
    locmap = _sparse_map(128, 128, 3, np.arange(128 * 128 - marked, 128 * 128), 0)
    assert bit_length_floor(locmap) == floor
    assert compress(locmap).bit_length == bit_length


def test_bit_length_floor_bounds_only_late_marked_symbols():
    # a marked symbol with fewer than 1024 clear ones before it may be cheap
    assert bit_length_floor(_sparse_map(128, 128, 3, np.arange(1025), 0)) == 1
    assert bit_length_floor(_sparse_map(128, 128, 3, [1024], 0)) == 1
    assert bit_length_floor(_sparse_map(128, 128, 3, [1025], 0)) == 13
    assert bit_length_floor(LocationMap(np.zeros((0, 0), dtype=np.uint8), 3)) == 0

def _test_map(rng, kind, alphabet, h, w):
    """A uniform map, a constant one, or one 97% a single symbol: a random
    one (skewed), the last (clear-last, like a preprocessing map) or 0
    (clear-first, like a binary baseline map). The last two reach the
    kernel's shortcuts on most symbols."""
    if kind == "uniform":
        return rng.integers(0, alphabet, (h, w))
    fill = {"clear-last": alphabet - 1, "clear-first": 0}.get(kind)
    symbols = np.full((h, w), rng.integers(0, alphabet) if fill is None else fill)
    if kind != "constant":
        hits = rng.random((h, w)) < 0.03
        symbols[hits] = rng.integers(0, alphabet, int(hits.sum()))
    return symbols


MAP_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["uniform", "skewed", "constant", "clear-last", "clear-first"]),
    alphabet=st.integers(2, 256),
    h=st.integers(1, 64),
    w=st.integers(1, 64),
)


@needs_kernel
@settings(max_examples=100, deadline=None)
@given(**MAP_CASES)
def test_kernel_codes_the_same_map_as_python(seed, kind, alphabet, h, w):
    m = LocationMap(_test_map(default_rng(seed), kind, alphabet, h, w), alphabet)
    maps = [CompressedMap(alphabet, w, h, *encode(m.symbols.ravel(), alphabet))
            for encode, _ in (PYTHON_CODER, KERNEL_CODER)]
    assert maps[0] == maps[1]
    assert KERNEL_CODER[1](maps[0].data, maps[0].bit_length, h * w, alphabet) == m.symbols.tobytes()


def _decode_outcome(decode, cmap):
    try:
        return decode(cmap.data, cmap.bit_length, cmap.width * cmap.height, cmap.alphabet_size)
    except CorruptionError as exc:
        return f"CorruptionError: {exc}"


@needs_kernel
@settings(max_examples=150, deadline=None)
@given(damage=st.sampled_from(["truncated", "random", "mutated"]), **MAP_CASES)
def test_kernel_and_python_decode_damaged_streams_alike(damage, seed, kind, alphabet, h, w):
    rng = default_rng(seed)
    bit_length, data = PYTHON_CODER[0](_test_map(rng, kind, alphabet, h, w).ravel(), alphabet)
    if damage == "truncated":
        bit_length = int(rng.integers(0, bit_length))
        data = data[: (bit_length + 7) // 8]
    elif damage == "random":
        data = rng.bytes(int(rng.integers(0, 64)))
        bit_length = max(0, 8 * len(data) - int(rng.integers(0, 8)))
    else:
        data = bytearray(data)  # left mutable: both decoders take any buffer
        for at in rng.integers(0, len(data), int(rng.integers(1, 4))):
            data[at] ^= int(rng.integers(1, 256))
    cmap = CompressedMap(alphabet, w, h, bit_length, data)
    assert _decode_outcome(KERNEL_CODER[1], cmap) == _decode_outcome(PYTHON_CODER[1], cmap)


@needs_kernel
def test_reimport_loads_the_cached_kernel_without_compiling(monkeypatch):
    # the way bench/run.py re-imports the package for each of its set-ups
    def compiler(*args, **kwargs):
        raise AssertionError(f"the compiler ran on re-import: {args}")

    monkeypatch.setattr(subprocess, "run", compiler)
    for name in [m for m in sys.modules if m == "boundshift" or m.startswith("boundshift.")]:
        monkeypatch.delitem(sys.modules, name)
    fresh = importlib.import_module("boundshift.codec")
    assert fresh is not codec
    assert fresh._encode is not fresh._encode_py


def test_loader_falls_back_to_python_without_a_compiler(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    encode, decode = codec._load_coder(str(cache))
    assert (encode, decode) == PYTHON_CODER
    assert list(cache.iterdir()) == []
    monkeypatch.setattr(codec, "_encode", encode)
    monkeypatch.setattr(codec, "_decode", decode)
    assert serialize_map(compress(GOLDEN_MAP)) == GOLDEN_BYTES
    m = LocationMap(default_rng(7).integers(0, 5, (20, 20)), 5)
    assert np.array_equal(decompress(compress(m)).symbols, m.symbols)


@needs_kernel
def test_loader_compiles_into_an_empty_cache(tmp_path):
    encode, decode = codec._load_coder(str(tmp_path))
    assert (encode, decode) != PYTHON_CODER
    [built] = tmp_path.iterdir()
    assert built.name.startswith("_coder-") and built.suffix == ".so"
    assert len(built.stem) == len("_coder-") + 8
    bit_length, data = encode(GOLDEN_MAP.symbols.ravel(), 3)
    assert (bit_length, data) == (16, GOLDEN_BYTES[-2:])
    assert decode(data, bit_length, 6, 3) == GOLDEN_MAP.symbols.tobytes()


def test_loader_falls_back_to_python_when_the_build_fails(tmp_path, monkeypatch):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    source = tmp_path / "broken.c"
    source.write_text("this is not C\n")
    cache = tmp_path / "cache"
    monkeypatch.setattr(codec, "_KERNEL_SOURCE", str(source))
    with pytest.raises(OSError, match="cc exited with status"):
        codec._compile_kernel(str(cache / "_coder-direct.so"))
    encode, decode = codec._load_coder(str(cache))
    assert (encode, decode) == PYTHON_CODER
    # cc ran and failed: neither its temporary file nor a library is left
    assert list(cache.glob("_coder-*.tmp")) == []
    assert list(cache.glob("*.so")) == []
    monkeypatch.setattr(codec, "_encode", encode)
    monkeypatch.setattr(codec, "_decode", decode)
    assert serialize_map(compress(GOLDEN_MAP)) == GOLDEN_BYTES


@needs_kernel
def test_import_with_a_cached_kernel_leaves_out_hashlib():
    # hashlib loads OpenSSL, several MB of RSS in every CLI process
    src = os.path.dirname(os.path.dirname(codec.__file__))
    probe = "import sys, boundshift; print('hashlib' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "False"


def _damaged_corpus(rng, n):
    """n maps with their Python coding, and their coded streams, three in
    four of them truncated, replaced by random bytes or mutated, plus a
    stream declaring more cells than it can hold."""
    maps, streams = [], [CompressedMap(3, 2**32 - 1, 2**32 - 1, 8, b"\x00")]
    for k in range(n):
        kind = ("uniform", "skewed", "constant", "clear-last", "clear-first")[k % 5]
        alphabet, h, w = int(rng.integers(2, 257)), int(rng.integers(1, 65)), int(rng.integers(1, 65))
        symbols = _test_map(rng, kind, alphabet, h, w).astype(np.uint8)
        bit_length, data = PYTHON_CODER[0](symbols.ravel(), alphabet)
        maps.append((symbols, alphabet, bit_length, data))
        damage = k % 4
        if damage == 1:
            bit_length = int(rng.integers(0, bit_length))
            data = data[: (bit_length + 7) // 8]
        elif damage == 2:
            data = rng.bytes(int(rng.integers(0, 64)))
            bit_length = max(0, 8 * len(data) - int(rng.integers(0, 8)))
        elif damage == 3:
            data = bytearray(data)
            for at in rng.integers(0, len(data), int(rng.integers(1, 4))):
                data[at] ^= int(rng.integers(1, 256))
            data = bytes(data)
        streams.append(CompressedMap(alphabet, w, h, bit_length, data))
    return maps, streams


def test_kernel_runs_clean_under_sanitizers(tmp_path):
    """_coder.c built with AddressSanitizer and UndefinedBehaviorSanitizer
    codes and decodes a damaged-stream corpus, with no report and with the
    Python loops' results."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) on PATH")
    driver = tmp_path / "coder_driver"
    here = os.path.dirname(os.path.abspath(__file__))
    built = subprocess.run(
        [cc, "-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all", "-o", str(driver),
         os.path.join(here, "coder_driver.c"), codec._KERNEL_SOURCE],
        capture_output=True, text=True)
    if built.returncode != 0:
        pytest.skip(f"cc cannot build with -fsanitize=address,undefined: {built.stderr[-300:]}")
    maps, streams = _damaged_corpus(default_rng(8), 160)
    records, expected = [], []
    for symbols, alphabet, bit_length, data in maps:
        records.append(b"e" + struct.pack("<QI", symbols.size, alphabet) + symbols.tobytes())
        expected.append(f"e {bit_length} {data.hex()}")
    statuses = {msg: status for status, msg in codec._KERNEL_ERRORS.items()}
    for cmap in streams:
        count = cmap.width * cmap.height
        records.append(b"d" + struct.pack("<QQII", cmap.bit_length, count, cmap.alphabet_size,
                                          len(cmap.data)) + cmap.data)
        try:
            out = PYTHON_CODER[1](cmap.data, cmap.bit_length, count, cmap.alphabet_size)
            expected.append(f"d 0 {out.hex()}")
        except CorruptionError as exc:
            expected.append(f"d {statuses[str(exc)]} ")
    env = {**os.environ, "ASAN_OPTIONS": "detect_leaks=1"}
    done = subprocess.run([str(driver)], input=b"".join(records), capture_output=True, env=env)
    assert done.returncode == 0, done.stderr.decode(errors="replace")[-2000:]
    assert done.stderr == b""
    assert done.stdout.decode().split("\n")[:-1] == expected


def test_kernel_compiles_without_warnings():
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) on PATH")
    done = subprocess.run([cc, "-O2", "-Wall", "-Wextra", "-Wconversion", "-Werror",
                           "-fsyntax-only", codec._KERNEL_SOURCE], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]


def test_kernel_source_ships_with_the_package():
    assert (importlib.resources.files("boundshift") / "_coder.c").is_file()
