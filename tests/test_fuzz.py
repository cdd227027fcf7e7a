"""Fuzz gate: malformed input of any kind raises only BoundShiftError subclasses.

Every reader that takes bytes or pixels from outside the program is fed
mutated copies of valid input and arbitrary bytes. A ValueError, IndexError,
MemoryError or any other exception escaping means a malformed file would
crash the CLI with a traceback instead of a documented exit code.

Declared sizes are kept small so that every example stays fast: the decoder
grows a map only as its stream allows, but a one-byte stream on a large
declared map can still decode up to 2.5 * 10**5 symbols before it runs out.
The one oversized-map example, whose dimensions multiply past what numpy
can even address, goes through restore, which checks the map's size against
the image before decoding.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from boundshift import (
    BoundShiftError,
    PreprocessParams,
    compress,
    decompress,
    deserialize_map,
    embed_full,
    extract_full,
    forward,
    read_pgm,
    save_pgm,
    serialize_map,
    write_pgm,
)
from boundshift.cli import main
from boundshift.codec import serialize_side_file

from conftest import smooth_image

FUZZ = settings(max_examples=150, deadline=None)

# Image the restore and extract cases start from: a smooth field with a dark
# block, so the location map is not trivial.
COVER = smooth_image(5, 32, 32, sigma=2.0)
COVER[4:9, 4:11] = 0
PARAMS = PreprocessParams(1, 1, 4)
_OUT = forward(COVER, PARAMS)
SIDE_FILE = serialize_side_file(PARAMS, compress(_OUT.locmap))
MAP_CONTAINER = serialize_map(compress(_OUT.locmap))
MARKED = embed_full(
    COVER, default_rng(11).integers(0, 2, 100, dtype=np.uint8), PARAMS
).marked

# (index, xor mask) pairs, the index taken modulo the input length: a mask
# with one bit set is a bit flip, any other mask replaces the byte.
MUTATIONS = st.lists(
    st.tuples(st.integers(0, 2**16), st.integers(1, 255)), min_size=1, max_size=6
)


def _mutate(data, mutations):
    out = bytearray(data)
    for index, mask in mutations:
        out[index % len(out)] ^= mask
    return bytes(out)


def _decode_pgm(data):
    try:
        read_pgm(data)
    except BoundShiftError:
        pass


@FUZZ
@given(data=st.binary(max_size=96))
@example(data=b"P5 4 4 255\n")
@example(data=b"P2\n3 2\n255\n1 2 3\n4 5")
def test_fuzz_read_pgm_arbitrary_bytes(data):
    _decode_pgm(data)


@FUZZ
@given(flavor=st.sampled_from(["P5", "P2"]), mutations=MUTATIONS, cut=st.integers(0, 8))
def test_fuzz_read_pgm_mutated(flavor, mutations, cut):
    data = _mutate(write_pgm(COVER[:6, :5], flavor), mutations)
    _decode_pgm(data[: len(data) - cut])


def _decode_map(data):
    try:
        cmap = deserialize_map(data)
        # a one-byte stream on a large declared map decodes up to 2.5 * 10**5
        # symbols before it runs out; the cap keeps each example fast
        if cmap.width * cmap.height <= 4096:
            decompress(cmap)
    except BoundShiftError:
        pass


@FUZZ
@given(data=st.binary(max_size=64))
def test_fuzz_deserialize_map_arbitrary_bytes(data):
    _decode_map(data)


@FUZZ
@given(mutations=MUTATIONS, cut=st.integers(0, 4))
def test_fuzz_deserialize_map_mutated(mutations, cut):
    data = _mutate(MAP_CONTAINER, mutations)
    _decode_map(data[: len(data) - cut])


@pytest.fixture(scope="module")
def restore_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("restore")
    save_pgm(out / "shifted.pgm", _OUT.shifted)
    return out


def _restore(directory, side_bytes):
    """Run the restore verb; only the documented exit codes may come back."""
    side = directory / "side.lp"
    side.write_bytes(side_bytes)
    rc = main(["restore", str(directory / "shifted.pgm"), "--map", str(side),
               "--out", str(directory / "restored.pgm")])
    assert rc in (0, 2, 4)
    return rc


def test_restore_of_the_unmutated_side_file_succeeds(restore_dir):
    assert _restore(restore_dir, SIDE_FILE) == 0
    assert (restore_dir / "restored.pgm").read_bytes() == write_pgm(COVER)


@FUZZ
@given(mutations=MUTATIONS, cut=st.integers(0, 6))
def test_fuzz_restore_mutated_side_file(restore_dir, mutations, cut):
    # The map's width and height (bytes 8-15) get their own strategy below,
    # so that no example declares a map of gigabytes.
    mutations = [(i, m) for i, m in mutations if not 8 <= i % len(SIDE_FILE) < 16]
    data = _mutate(SIDE_FILE, mutations)
    _restore(restore_dir, data[: len(data) - cut])


@FUZZ
@given(
    params=st.tuples(st.integers(0, 3), st.integers(0, 128), st.integers(0, 128)),
    alphabet=st.integers(0, 8),
    dims=st.one_of(
        st.just(COVER.shape),
        st.tuples(st.integers(0, 40), st.integers(0, 40)),
        st.just((0xFFFFFFFF, 0xFFFFFFFF)),
    ),
    bit_length=st.integers(0, 400),
    extra=st.integers(-2, 2),
    seed=st.integers(0, 2**16),
)
@example(params=(1, 1, 4), alphabet=2, dims=(0xFFFFFFFF, 0xFFFFFFFF), bit_length=0, extra=0,
         seed=0)
def test_fuzz_restore_side_file_fields(restore_dir, params, alphabet, dims, bit_length, extra,
                                       seed):
    nbytes = max(0, (bit_length + 7) // 8 + extra)
    coded = default_rng(seed).integers(0, 256, nbytes, dtype=np.uint8).tobytes()
    height, width = dims
    data = (b"LP" + bytes(params) + b"LM" + bytes([alphabet]) + width.to_bytes(4, "big")
            + height.to_bytes(4, "big") + bit_length.to_bytes(4, "big") + coded)
    _restore(restore_dir, data)


@FUZZ
@given(mutations=MUTATIONS)
def test_fuzz_extract_full_mutated_marked_image(mutations):
    marked = np.frombuffer(_mutate(MARKED.tobytes(), mutations), dtype=np.uint8)
    try:
        extract_full(marked.reshape(MARKED.shape))
    except BoundShiftError:
        pass
