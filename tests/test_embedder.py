from unittest import mock

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

from boundshift import codec, embedder
from boundshift.fixtures import _blobs, _pooled_field
from boundshift.predictor import predict_grid
from boundshift.preprocess import PreprocessParams, forward

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
    """call() equals reference(), element for element and dtype for dtype,
    or raises the same error type with the same message and deficit_bits;
    returns the result, or None for an error."""
    try:
        want = reference()
    except BoundShiftError as exc:
        with pytest.raises(type(exc)) as caught:
            call()
        assert str(caught.value) == str(exc)
        assert getattr(caught.value, "deficit_bits", None) == getattr(exc, "deficit_bits", None)
        return None
    got = call()
    assert type(got) is type(want)
    pairs = (got, want) if isinstance(want, tuple) else ((got,), (want,))
    assert len(pairs[0]) == len(pairs[1])
    for g, w in zip(*pairs):
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        else:
            assert g == w
    return want


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


# The embedder's kernel loops (codec._capacity, codec._embed, codec._extract)
# against its NumPy bodies, which run where the kernel did not load.

needs_kernel = pytest.mark.skipif(
    codec._capacity is None,
    reason="the compiled kernel did not load (no C compiler, or its cache directory is read-only)",
)


def _numpy_bodies():
    """A context in which the embedder runs its NumPy bodies, as where the
    kernel did not load."""
    return mock.patch.multiple(codec, _capacity=None, _embed=None, _extract=None)


def _kernel_and_numpy(name, *args):
    """A fresh embedder's name(*args) through the kernel (where it loaded)
    and through the NumPy bodies, checked equal as _same_as_oracle checks;
    returns the result, or None for an error."""
    def numpy():
        with _numpy_bodies():
            return getattr(PredictionErrorEmbedder(), name)(*args)
    return _same_as_oracle(lambda: getattr(PredictionErrorEmbedder(), name)(*args), numpy)


# 1 x n and n x 1 grids, every cell on the border ring with one or two
# neighbours, 1 x 1 among them, or 2x2 to 24x24, odd widths included
KERNEL_SHAPES = st.one_of(st.tuples(st.just(1), st.integers(1, 40)),
                          st.tuples(st.integers(1, 40), st.just(1)),
                          st.tuples(st.integers(2, 24), st.integers(2, 24)))


@settings(max_examples=300, deadline=None)
@given(shape=KERNEL_SHAPES, span=EMBED_SPANS, data=st.data())
def test_kernel_capacity_and_embed_match_the_numpy_bodies(shape, span, data):
    img = data.draw(arrays(np.uint8, shape, elements=st.integers(*span)))
    room = _kernel_and_numpy("capacity", img)
    _same_as_oracle(lambda: PredictionErrorEmbedder().capacity(img),
                    lambda: oracle_embed.capacity(img))
    if room is None:
        return
    # no bits, some, exactly the room, and one bit past it
    n = data.draw(st.sampled_from([0, room, room + 1, data.draw(st.integers(0, room))]))
    bits = data.draw(arrays(np.uint8, n, elements=st.integers(0, 1)))
    _kernel_and_numpy("embed", img, bits)
    _same_as_oracle(lambda: (PredictionErrorEmbedder().embed(img, bits),),
                    lambda: (oracle_embed.embed(img, bits),))


@settings(max_examples=300, deadline=None)
@given(shape=KERNEL_SHAPES, span=MARKED_SPANS, data=st.data())
def test_kernel_capacity_and_extract_match_the_numpy_bodies_on_any_grid(shape, span, data):
    # any uint8 grid, 0 and 255 included, whose codes reach past the window
    # [-2, 1] both ways
    marked = data.draw(arrays(np.uint8, shape, elements=st.integers(*span)))
    _kernel_and_numpy("capacity", marked)
    _kernel_and_numpy("extract", marked)
    _same_as_oracle(lambda: PredictionErrorEmbedder().extract(marked),
                    lambda: oracle_embed.extract(marked))


def test_kernel_embed_raises_as_the_numpy_body_past_the_room():
    img = default_rng(31).integers(99, 103, (9, 11)).astype(np.uint8)
    room = oracle_embed.capacity(img)
    for n in (room + 1, room + 7):
        with pytest.raises(CapacityError, match=f"payload of {n} bits exceeds capacity {room}"):
            PredictionErrorEmbedder().embed(img, np.ones(n, dtype=np.uint8))
        _kernel_and_numpy("embed", img, np.ones(n, dtype=np.uint8))
    # the range check comes first, as in the NumPy body
    img[0, 0] = 255
    with pytest.raises(ValidationError, match=r"embedding needs pixels in \[1, 254\]"):
        PredictionErrorEmbedder().embed(img, np.ones(room + 1, dtype=np.uint8))
    _kernel_and_numpy("embed", img, np.ones(room + 1, dtype=np.uint8))


def test_kernel_takes_strided_transposed_and_int64_grids():
    rng = default_rng(32)
    base = rng.integers(96, 104, (23, 30)).astype(np.uint8)
    for img in (base.T, base[::2, 1::3], base[:, ::-1], base.astype(np.int64), base[3:20, 5:22]):
        room = _kernel_and_numpy("capacity", img)
        bits = rng.integers(0, 2, room, dtype=np.uint8)
        marked = _kernel_and_numpy("embed", img, bits)
        stream, back = _kernel_and_numpy("extract", marked)
        assert np.array_equal(back, img) and np.array_equal(stream[:room], bits)
        _kernel_and_numpy("extract", img)


def _benchmark_covers():
    """The round-trip benchmark's three 512x512 covers: a dark pooled field,
    0/255 blobs and a smooth grey field, drawn as the benchmark draws them."""
    rng = default_rng(113)
    return [_pooled_field(rng, 512, 512, 40, 45), _blobs(rng, 512, 512, 0.45),
            np.clip(_pooled_field(rng, 512, 512, 128, 24), 16, 239)]


@needs_kernel
def test_kernel_matches_the_numpy_bodies_on_the_benchmark_covers():
    rng = default_rng(33)
    for cover in _benchmark_covers():
        shifted = forward(cover, PreprocessParams(1, 1, 4)).shifted
        room = _kernel_and_numpy("capacity", shifted)
        assert room > 50_000
        bits = rng.integers(0, 2, room, dtype=np.uint8)
        marked = _kernel_and_numpy("embed", shifted, bits)
        stream, back = _kernel_and_numpy("extract", marked)
        assert np.array_equal(back, shifted) and np.array_equal(stream, bits)
        _kernel_and_numpy("capacity", cover)
        _kernel_and_numpy("extract", cover)


@needs_kernel
def test_kernel_loops_take_any_row_stride_of_the_prediction():
    # predict_grid's rows lie w + 1 cells apart; rows further apart, or a
    # prediction whose rows are not contiguous, give the same results
    rng = default_rng(34)
    img = rng.integers(97, 103, (11, 13)).astype(np.uint8)
    pred = predict_grid(img)
    wide = np.zeros((11, 20), np.int16)
    wide[:, :13] = pred
    room = codec._capacity(img, pred)
    bits = rng.integers(0, 2, room, dtype=np.uint8)
    marked = codec._embed(img, pred, bits)
    stream, back = codec._extract(marked, predict_grid(marked))
    assert np.array_equal(back, img) and np.array_equal(stream, bits)
    for layout in (wide[:, :13], np.ascontiguousarray(pred), np.asfortranarray(pred)):
        assert codec._capacity(img, layout) == room
        assert np.array_equal(codec._embed(img, layout, bits), marked)
        _same_as_oracle(lambda: codec._extract(img, layout),
                        lambda: PredictionErrorEmbedder().extract(img))
