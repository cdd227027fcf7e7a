import hashlib
import math

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
from boundshift.fixtures import _blobs, _pooled_field

# Frozen container bytes for the map [[0,1,2],[2,2,2]] over alphabet 3:
# 'LM', alphabet-1 = 02, width 3, height 2, 16 coded bits, payload 0x52E5.
GOLDEN_MAP = LocationMap(np.array([[0, 1, 2], [2, 2, 2]]), 3)
GOLDEN_BYTES = bytes.fromhex("4c4d0200000003000000020000001052e5")


def test_golden_container_bytes():
    assert serialize_map(compress(GOLDEN_MAP)) == GOLDEN_BYTES


def test_golden_container_decodes():
    cmap = deserialize_map(GOLDEN_BYTES)
    assert (cmap.alphabet_size, cmap.width, cmap.height, cmap.bit_length) == (3, 3, 2, 16)
    out = decompress(cmap)
    assert np.array_equal(out.symbols, GOLDEN_MAP.symbols)
    assert out.alphabet_size == 3


# Coded size and container digest of maps long enough for the model to halve
# its counts (constant: 3 times; dark cover: 14 times), plus the widest
# alphabet and a binary baseline map. GOLDEN_BYTES is too short to reach a
# halving, so these pin the rest of the coder's arithmetic.
@pytest.mark.parametrize("make_cmap, bit_length, digest", [
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
])
def test_coded_bytes_are_pinned(make_cmap, bit_length, digest):
    cmap = make_cmap()
    assert cmap.bit_length == bit_length
    assert hashlib.sha256(serialize_map(cmap)).hexdigest() == digest
    assert compress(decompress(cmap)) == cmap


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


def test_container_round_trip():
    m = LocationMap(default_rng(1).integers(0, 9, (13, 7)), 9)
    cmap = compress(m)
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


def test_container_errors():
    good = serialize_map(compress(GOLDEN_MAP))
    with pytest.raises(CorruptionError):
        deserialize_map(good[:10])                     # truncated payload
    with pytest.raises(CorruptionError):
        deserialize_map(good + b"x")                   # trailing garbage
    with pytest.raises(CorruptionError):
        deserialize_map(b"XX" + good[2:])              # bad magic
    with pytest.raises(CorruptionError):
        deserialize_map(good[:3])                      # shorter than header


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
