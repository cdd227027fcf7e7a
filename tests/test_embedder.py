import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.random import default_rng

from boundshift import (
    BoundShiftError,
    CapacityError,
    PredictionErrorEmbedder,
    ValidationError,
)
from boundshift.imagecore import as_bits

from boundshift import embedder
from boundshift.predictor import predict_grid

import oracle_embed

EMB = PredictionErrorEmbedder()


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
