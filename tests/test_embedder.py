import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.random import default_rng

from boundshift import (
    BoundShiftError,
    CapacityError,
    CompressedMap,
    CorruptionError,
    PredictionErrorEmbedder,
    PreprocessParams,
    ValidationError,
)
from boundshift.embedder import (
    FRAME_HEADER_BITS,
    as_bits,
    bits_to_bytes,
    bytes_to_bits,
    deframe_payload,
    frame_payload,
)

from boundshift import embedder
from boundshift.predictor import predict_grid

import oracle_embed

EMB = PredictionErrorEmbedder()

# Frozen frame header for params (1,1,4), empty map, empty payload.
GOLDEN_HEADER = bytes.fromhex("b5010101040000000000000000")
# The same frame as version 2, written out field by field: magic b5,
# version 02, shift 01, t_even 01, t_odd 04, map bits 0, payload bits 0,
# then the CRC-32 field, here the fixed value cbf43926.
GOLDEN_HEADER_V2 = bytes.fromhex("b5" "02" "01" "01" "04" "00000000" "00000000" "cbf43926")


def test_bit_helpers_msb_first():
    assert bytes_to_bits(b"\x80\x01").tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]
    assert bits_to_bytes([1, 0, 0, 0, 0, 0, 0, 0, 1]) == b"\x80\x80"  # zero-padded tail


def test_mapping_hand_cases():
    # a flat 100 background pins every prediction at 100
    base = np.full((3, 3), 100, dtype=np.uint8)

    def center_after(center, bits):
        img = base.copy()
        img[1, 1] = center
        return int(EMB.embed(img, bits)[1, 1])

    # carriers scan in raster order over even cells; (1,1) is the third
    pad = [0, 0]
    assert center_after(100, pad + [0]) == 100   # e=0, bit 0
    assert center_after(100, pad + [1]) == 101   # e=0, bit 1
    assert center_after(99, pad + [0]) == 99     # e=-1, bit 0
    assert center_after(99, pad + [1]) == 98     # e=-1, bit 1
    assert center_after(103, pad) == 104         # e=3 shifts out, carries nothing
    assert center_after(97, pad) == 96           # e=-3 shifts out


def test_extract_inverts_each_mapping_case():
    base = np.full((3, 3), 100, dtype=np.uint8)
    for center, bits in [(100, [0, 0, 0]), (100, [0, 0, 1]), (99, [0, 0, 0]),
                         (99, [0, 0, 1]), (103, [0, 0]), (97, [0, 0])]:
        img = base.copy()
        img[1, 1] = center
        marked = EMB.embed(img, bits)
        stream, back = EMB.extract(marked)
        assert np.array_equal(back, img)
        assert stream[: len(bits)].tolist() == list(bits)


def test_capacity_matches_brute_force():
    rng = default_rng(6)
    for _ in range(15):
        h, w = int(rng.integers(2, 14)), int(rng.integers(2, 14))
        img = rng.integers(1, 255, (h, w), dtype=np.int64).astype(np.uint8)
        assert EMB.capacity(img) == oracle_embed.capacity(img)


def _same_as_oracle(call, reference):
    """call() equals reference(), element for element, or raises the same
    error type with the same message."""
    try:
        want = reference()
    except BoundShiftError as exc:
        with pytest.raises(type(exc)) as caught:
            call()
        assert str(caught.value) == str(exc)
        return
    got = call()
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    else:
        assert got == want


# Every shape up to 13x13, single rows and columns and odd widths among
# them, where the odd rows' sub-lattice is a column shorter. Narrow value
# spans make errors of 0 and -1 (carriers) and, at the ends of the range,
# recoveries that step onto 0 or 255 but, as extract's comment proves, never
# past them.
EMBED_SHAPES = st.tuples(st.integers(1, 13), st.integers(1, 13))
EMBED_SPANS = st.sampled_from([(1, 254), (99, 102), (1, 3), (252, 254)])
MARKED_SPANS = st.sampled_from([(0, 255), (99, 102), (0, 2), (253, 255)])


@settings(max_examples=300, deadline=None)
@given(shape=EMBED_SHAPES, span=EMBED_SPANS, data=st.data())
def test_capacity_and_embed_match_the_scalar_oracle(shape, span, data):
    img = data.draw(arrays(np.uint8, shape, elements=st.integers(*span)))
    _same_as_oracle(lambda: EMB.capacity(img), lambda: oracle_embed.capacity(img))
    n = data.draw(st.integers(0, (shape[0] * shape[1] + 1) // 2 + 1))
    bits = data.draw(arrays(np.uint8, n, elements=st.integers(0, 1)))
    _same_as_oracle(lambda: (EMB.embed(img, bits),), lambda: (oracle_embed.embed(img, bits),))


@settings(max_examples=300, deadline=None)
@given(shape=EMBED_SHAPES, span=MARKED_SPANS, data=st.data())
def test_extract_matches_the_scalar_oracle(shape, span, data):
    marked = data.draw(arrays(np.uint8, shape, elements=st.integers(*span)))
    _same_as_oracle(lambda: EMB.extract(marked), lambda: oracle_embed.extract(marked))


def test_an_image_changed_in_place_is_predicted_again():
    # capacity keeps the error grid of g; g then changes under the same
    # array object, so the embedder must compare values, not identity
    emb = PredictionErrorEmbedder()
    g = default_rng(21).integers(99, 103, (9, 11)).astype(np.uint8)
    emb.capacity(g)
    g[::3, 1::2] += 1
    g[4] = 100
    bits = default_rng(22).integers(0, 2, oracle_embed.capacity(g), dtype=np.uint8)
    _same_as_oracle(lambda: (emb.embed(g, bits),), lambda: (oracle_embed.embed(g, bits),))
    _same_as_oracle(lambda: emb.extract(g), lambda: oracle_embed.extract(g))


def test_capacity_then_embed_predicts_once(monkeypatch):
    calls = []

    def counted(img):
        calls.append(img)
        return predict_grid(img)

    monkeypatch.setattr(embedder, "predict_grid", counted)
    emb = PredictionErrorEmbedder()
    img = default_rng(23).integers(1, 255, (16, 16)).astype(np.uint8)
    room = emb.capacity(img)
    emb.embed(img.copy(), np.ones(room, dtype=np.uint8))
    assert len(calls) == 1


def test_constant_image_capacity_is_even_cell_count():
    img = np.full((5, 5), 70, dtype=np.uint8)
    assert EMB.capacity(img) == 13   # ceil(25/2) even-parity cells
    img = np.full((4, 5), 70, dtype=np.uint8)
    assert EMB.capacity(img) == 10


def test_all_zero_bits_leave_constant_image_unchanged():
    img = np.full((6, 6), 50, dtype=np.uint8)
    bits = np.zeros(EMB.capacity(img), dtype=np.uint8)
    marked = EMB.embed(img, bits)
    assert np.array_equal(marked, img)
    stream, back = EMB.extract(marked)
    assert not stream.any() and np.array_equal(back, img)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.0, 1.0))
def test_round_trip_smooth_images(seed, frac):
    rng = default_rng(seed)
    h, w = int(rng.integers(2, 20)), int(rng.integers(2, 20))
    img = np.clip(
        rng.normal(128, 30, (h, w)).round(), 1, 254
    ).astype(np.uint8)
    room = EMB.capacity(img)
    bits = rng.integers(0, 2, size=int(room * frac), dtype=np.uint8)
    marked = EMB.embed(img, bits)

    assert (np.abs(marked.astype(int) - img.astype(int)) <= 1).all()
    odd = (np.add.outer(np.arange(h), np.arange(w)) % 2) == 1
    assert np.array_equal(marked[odd], img[odd])

    stream, back = EMB.extract(marked)
    assert np.array_equal(back, img)
    assert np.array_equal(stream[: bits.size], bits)
    assert not stream[bits.size :].any()   # untouched carriers read as zeros


def test_embed_rejects_boundary_pixels():
    img = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(ValidationError):
        EMB.embed(img, [])
    img = np.full((4, 4), 255, dtype=np.uint8)
    with pytest.raises(ValidationError):
        EMB.embed(img, [])


def test_embed_over_capacity():
    img = np.full((4, 4), 100, dtype=np.uint8)
    room = EMB.capacity(img)
    with pytest.raises(CapacityError) as exc:
        EMB.embed(img, np.ones(room + 3, dtype=np.uint8))
    assert exc.value.deficit_bits == 3


def test_frame_golden_header():
    payload, cmap, params, checksum = deframe_payload(bytes_to_bits(GOLDEN_HEADER), 4, 4)
    assert payload.size == 0
    assert cmap == CompressedMap(3, 4, 4, 0, b"")
    assert params == PreprocessParams(1, 1, 4)
    assert checksum is None


def test_frame_golden_header_v2():
    cmap = CompressedMap(3, 4, 4, 0, b"")
    framed = frame_payload([], cmap, PreprocessParams(1, 1, 4), 0xCBF43926)
    assert framed.size == FRAME_HEADER_BITS == 136
    assert bits_to_bytes(framed) == GOLDEN_HEADER_V2
    payload, out_cmap, params, checksum = deframe_payload(framed, 4, 4)
    assert payload.size == 0
    assert out_cmap == cmap
    assert params == PreprocessParams(1, 1, 4)
    assert checksum == 0xCBF43926


def test_frame_deframe_identity():
    rng = default_rng(7)
    for _ in range(20):
        payload = rng.integers(0, 2, size=int(rng.integers(0, 300)), dtype=np.uint8)
        map_bits = int(rng.integers(0, 120))
        data = bits_to_bytes(rng.integers(0, 2, size=map_bits, dtype=np.uint8))
        cmap = CompressedMap(5, 10, 8, map_bits, data)
        params = PreprocessParams(2, int(rng.integers(1, 128)), int(rng.integers(1, 128)))
        checksum = int(rng.integers(0, 1 << 32))
        framed = frame_payload(payload, cmap, params, checksum)
        assert framed.size == FRAME_HEADER_BITS + map_bits + payload.size
        out_payload, out_cmap, out_params, out_checksum = deframe_payload(framed, 10, 8)
        assert np.array_equal(out_payload, payload)
        assert out_cmap == cmap
        assert out_params == params
        assert out_checksum == checksum


def test_frame_ignores_trailing_filler():
    cmap = CompressedMap(3, 4, 4, 0, b"")
    framed = frame_payload([1, 0, 1], cmap, PreprocessParams(1, 1, 1), 0)
    padded = np.concatenate([framed, np.zeros(40, dtype=np.uint8)])
    payload, _, _, checksum = deframe_payload(padded, 4, 4)
    assert payload.tolist() == [1, 0, 1]
    assert checksum == 0


def test_deframe_errors():
    cmap = CompressedMap(3, 4, 4, 0, b"")
    framed = frame_payload([1, 1], cmap, PreprocessParams(1, 1, 4), 0)

    with pytest.raises(CorruptionError, match="header"):
        deframe_payload(framed[:60], 4, 4)

    bad = framed.copy()
    bad[0] ^= 1
    with pytest.raises(CorruptionError, match="magic"):
        deframe_payload(bad, 4, 4)

    bad = framed.copy()
    bad[15] ^= 1
    with pytest.raises(CorruptionError, match="version"):
        deframe_payload(bad, 4, 4)

    bad = framed.copy()
    bad[16:24] = 0   # shift byte corrupted to zero
    with pytest.raises(CorruptionError, match="parameters"):
        deframe_payload(bad, 4, 4)

    with pytest.raises(CorruptionError, match="declares"):
        deframe_payload(framed[:-1], 4, 4)

    # long enough for a version 1 header, cut inside the checksum field
    with pytest.raises(CorruptionError, match="declares"):
        deframe_payload(framed[:120], 4, 4)


def test_frame_rejects_wrong_types():
    cmap = CompressedMap(3, 4, 4, 0, b"")
    with pytest.raises(ValidationError):
        frame_payload([], cmap, "nope", 0)
    with pytest.raises(ValidationError):
        frame_payload([], b"not a map", PreprocessParams(1, 1, 1), 0)
    with pytest.raises(ValidationError):
        frame_payload([0, 2, 1], cmap, PreprocessParams(1, 1, 1), 0)
    with pytest.raises(ValidationError):
        frame_payload([], cmap, PreprocessParams(1, 1, 1), 1 << 32)


@pytest.mark.parametrize("bits", [
    [0, 1, 1], np.array([True, False]), np.array([1.0, 0.0]), np.array([1, 0, 1], dtype=np.uint8),
])
def test_as_bits_accepts_zeros_and_ones_of_any_dtype(bits):
    out = as_bits(bits)
    assert out.dtype == np.uint8
    assert out.tolist() == [int(b) for b in bits]


@pytest.mark.parametrize("bits", [[0, 2], [-1, 1], [0.5, 1.0], np.array([1, 2], dtype=np.uint8)])
def test_as_bits_rejects_other_values(bits):
    with pytest.raises(ValidationError):
        as_bits(bits)
