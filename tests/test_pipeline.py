import math
import re
import zlib
from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

from boundshift import (
    BoundShiftError,
    CapacityError,
    CompressedMap,
    CorruptionError,
    LocationMap,
    PredictionErrorEmbedder,
    PreprocessParams,
    ValidationError,
    compress,
    compress_binary_baseline,
    count_boundary_pixels,
    decompress,
    deserialize_map,
    embed_full,
    evaluate_cell,
    extract_full,
    forward,
    inverse,
    load_pgm,
    max_payload,
    max_payload_baseline,
    psnr,
    read_pgm,
    save_pgm,
    serialize_map,
    sweep,
    write_pgm,
)
from boundshift import cli, embedder, pipeline, preprocess
from boundshift.formats import (
    FRAME_HEADER_BITS,
    bits_to_bytes,
    bytes_to_bits,
    check_frame,
    deframe_payload,
    deserialize_side_file,
    frame_crc,
    frame_payload,
    serialize_side_file,
)
from boundshift.fixtures import _dark, _pooled_field
from boundshift.predictor import predict_grid
from boundshift.preprocess import boundary_count_after

from conftest import smooth_image

EMB = PredictionErrorEmbedder()


def _round_trip(cover, payload_bits, params):
    result = embed_full(cover, payload_bits, params)
    got_payload, got_cover = extract_full(result.marked)
    assert np.array_equal(got_cover, cover)
    assert np.array_equal(got_payload, payload_bits)
    return result


def test_round_trip_payload_sizes():
    cover = smooth_image(10, 40, 40)
    params = PreprocessParams(1, 1, 4)
    cap = max_payload(cover, params)
    assert cap > 0
    rng = default_rng(11)
    for size in (0, 1, cap // 2, cap):
        bits = rng.integers(0, 2, size=size, dtype=np.uint8)
        result = _round_trip(cover, bits, params)
        assert (np.abs(result.marked.astype(int) - cover.astype(int)) <= params.shift + EMB.max_shift).all()


def test_round_trip_boundary_heavy_cover():
    # a solid dark region: the regime the transform exists for
    cover = np.full((64, 64), 128, dtype=np.uint8)
    cover[10:40, 14:44] = 0
    params = PreprocessParams(1, 1, 4)
    cap = max_payload(cover, params)
    assert cap > 0
    bits = default_rng(12).integers(0, 2, size=cap, dtype=np.uint8)
    _round_trip(cover, bits, params)


def test_round_trip_does_each_step_once(monkeypatch, fresh_embedder):
    cover = _pooled_field(default_rng(15), 32, 32, 40, 45)
    params = PreprocessParams(1, 1, 4)
    bits = default_rng(16).integers(0, 2, max_payload(cover, params) // 2, dtype=np.uint8)
    fresh_embedder()
    calls = []

    def count(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    # wrapped where the callers look the names up, so a new import of
    # predict_grid, or a step called another way, is counted or missed
    for module in (preprocess, embedder, pipeline):
        if hasattr(module, "predict_grid"):
            monkeypatch.setattr(module, "predict_grid", count("predict_grid", module.predict_grid))
    for name in ("forward", "compress", "frame_payload", "deframe_payload",
                 "decompress", "inverse"):
        monkeypatch.setattr(pipeline, name, count(name, getattr(pipeline, name)))
    cls = embedder.PredictionErrorEmbedder
    monkeypatch.setattr(cls, "capacity", count("capacity", cls.capacity))

    _round_trip(cover, bits, params)
    # forward predicts the cover and its even pass, capacity the shifted
    # image (embed reuses its errors), extract the marked one, inverse both
    # undone passes
    assert calls.count("predict_grid") == 6
    steps = [c for c in calls if c != "predict_grid"]
    assert sorted(steps) == sorted(["forward", "compress", "capacity", "frame_payload",
                                    "deframe_payload", "decompress", "inverse"])


def test_every_prediction_takes_the_int16_domain(monkeypatch, tmp_path, fresh_embedder):
    inputs, results = [], []

    def traced(img):
        inputs.append(np.asarray(img))
        results.append(predict_grid(img))
        return results[-1]

    cover = _dark(default_rng(17), 32, 32)
    params = PreprocessParams(1, 1, 4)
    bits = default_rng(18).integers(0, 2, max_payload(cover, params) // 2, dtype=np.uint8)
    fresh_embedder()
    # wrapped where the callers look it up, as the benchmark traces it
    for module in (preprocess, embedder, cli):
        monkeypatch.setattr(module, "predict_grid", traced)
    _round_trip(cover, bits, params)
    calls = [len(inputs)]
    sweep(cover, range(1, 4), 1)
    calls.append(len(inputs))
    save_pgm(tmp_path / "dark.pgm", cover)
    assert cli.main(["analyze", str(tmp_path), "--report", str(tmp_path / "r.csv"),
                     "--t-even", "1", "--t-odd", "4",
                     "--joint-hist", str(tmp_path / "joint")]) == 0
    calls.append(len(inputs))
    # each run predicted, the last call being the joint histogram's of the cover
    assert calls[0] == 6 < calls[1] < calls[2]
    assert np.array_equal(inputs[-1], cover)
    for a in inputs:
        assert a.dtype in (np.uint8, np.int16)
        assert int(np.abs(a.astype(np.int32)).max()) <= 2**12
    assert all(r.dtype == np.int16 for r in results)


def test_empty_payload_still_recovers_cover():
    cover = smooth_image(13, 32, 32)
    params = PreprocessParams(2, 3, 3)
    result = embed_full(cover, np.zeros(0, dtype=np.uint8), params)
    payload, got = extract_full(result.marked)
    assert payload.size == 0
    assert np.array_equal(got, cover)


def test_embed_metrics_fields():
    cover = smooth_image(14, 32, 32)
    params = PreprocessParams(1, 2, 3)
    result = embed_full(cover, [1, 0, 1], params)
    cap = max_payload(cover, params)
    assert result.r_emb == cap / cover.size
    assert result.params_used == params
    out = forward(cover, params)
    assert result.side_info_bits == FRAME_HEADER_BITS + compress(out.locmap).bit_length
    assert result.psnr_db == psnr(cover, result.marked)


def test_large_flat_cover_accounting():
    cover = np.full((256, 256), 128, dtype=np.uint8)
    params = PreprocessParams(1, 1, 4)
    # no pixel moves, so capacity is the full even lattice and the map is a
    # single run that compresses to almost nothing
    out = forward(cover, params)
    assert np.array_equal(out.shifted, cover)
    map_bits = compress(out.locmap).bit_length
    assert map_bits < 60
    assert max_payload(cover, params) == 32768 - FRAME_HEADER_BITS - map_bits
    result = embed_full(cover, default_rng(15).integers(0, 2, 100, dtype=np.uint8), params)
    got_payload, got_cover = extract_full(result.marked)
    assert got_payload.size == 100 and np.array_equal(got_cover, cover)


def test_capacity_error_reports_deficit():
    cover = smooth_image(16, 40, 40)
    params = PreprocessParams(1, 1, 4)
    cap = max_payload(cover, params)
    assert cap > 0
    with pytest.raises(CapacityError) as exc:
        embed_full(cover, np.ones(cap + 1, dtype=np.uint8), params)
    assert exc.value.deficit_bits == 1
    assert "header" in str(exc.value)


def test_tiny_cover_header_dominates():
    cover = np.zeros((3, 3), dtype=np.uint8)
    params = PreprocessParams(1, 1, 4)
    assert max_payload(cover, params) == 0
    out = forward(cover, params)
    map_bits = compress(out.locmap).bit_length
    # the fixed header, not the map, is what makes tiny covers infeasible
    assert FRAME_HEADER_BITS / (FRAME_HEADER_BITS + map_bits) > 0.8
    with pytest.raises(CapacityError):
        embed_full(cover, [1], params)


def test_max_payload_monotone_in_t_odd_on_dark_cover():
    cover = np.zeros((64, 64), dtype=np.uint8)
    lax = max_payload(cover, PreprocessParams(1, 1, 4))
    strict = max_payload(cover, PreprocessParams(1, 1, 1))
    assert lax >= strict


def test_max_payload_zero_when_side_info_cannot_fit():
    cover = default_rng(17).integers(0, 2, (8, 8), dtype=np.int64).astype(np.uint8) * 255
    params = PreprocessParams(1, 1, 1)
    assert max_payload(cover, params) == 0


def test_preprocessing_beats_clip_baseline_on_clustered_darkness():
    # a dark region gets shifted wholesale (cheap runs-only map), while the
    # clip baseline must carry a binary mark for its entire area
    cover = np.full((64, 64), 128, dtype=np.uint8)
    cover[10:40, 14:44] = 0
    params = PreprocessParams(1, 1, 4)
    assert max_payload(cover, params) > 0 == max_payload_baseline(cover, 1)

    # scattered extremes defeat both routes: isolated boundary pixels keep
    # interior predictions, so they can only be clamped and mapped
    rng = default_rng(18)
    scattered = np.full((64, 64), 128, dtype=np.uint8)
    hits = rng.random((64, 64)) < 0.08
    scattered[hits] = rng.choice([0, 255], size=int(hits.sum()))
    assert max_payload(scattered, params) == 0
    assert max_payload_baseline(scattered, 1) == 0


def test_extract_full_detects_header_magic_damage():
    cover = np.full((32, 32), 128, dtype=np.uint8)
    result = embed_full(cover, [1, 0], PreprocessParams(1, 1, 4))
    bad = result.marked.copy()
    # cell (0,0) carries the first header bit (the magic's leading 1);
    # knocking it back to the prediction flips that bit to 0
    assert bad[0, 0] == 129
    bad[0, 0] = 128
    with pytest.raises(CorruptionError, match="magic"):
        extract_full(bad)


def test_frame_checksum_covers_cover_then_payload():
    cover = smooth_image(22, 32, 32)
    payload = default_rng(23).integers(0, 2, size=37, dtype=np.uint8)
    marked = embed_full(cover, payload, PreprocessParams(1, 1, 4)).marked
    stream, _ = EMB.extract(marked)
    *_, checksum = deframe_payload(stream, 32, 32)
    assert checksum == zlib.crc32(cover.tobytes() + np.packbits(payload).tobytes())


def test_extract_full_detects_checksum_mismatch():
    cover = smooth_image(24, 32, 32)
    params = PreprocessParams(1, 1, 4)
    payload = default_rng(25).integers(0, 2, size=20, dtype=np.uint8)
    marked = embed_full(cover, payload, params).marked
    stream, shifted = EMB.extract(marked)
    frame_end = FRAME_HEADER_BITS + compress(forward(cover, params).locmap).bit_length + 20
    # a flipped checksum bit, then a flipped last payload bit: either way the
    # frame still parses, and only the checksum tells the result is wrong
    for k in (FRAME_HEADER_BITS - 1, frame_end - 1):
        bad = stream.copy()
        bad[k] ^= 1
        with pytest.raises(CorruptionError, match="checksum"):
            extract_full(EMB.embed(shifted, bad))


def test_version_1_marked_image_still_decodes():
    # Made by the version 1 encoder: this cover and payload at params (1,1,4).
    cover = _pooled_field(default_rng(3), 32, 32, 40, 45)
    payload = default_rng(30).integers(0, 2, size=107, dtype=np.uint8)
    marked = load_pgm(Path(__file__).parent / "golden" / "marked_v1_32x32.pgm")
    stream, _ = EMB.extract(marked)
    assert deframe_payload(stream, 32, 32)[3] is None   # no checksum: a v1 frame
    got_payload, got_cover = extract_full(marked, legacy_v1=True)
    assert np.array_equal(got_payload, payload)
    assert np.array_equal(got_cover, cover)


def test_version_1_frame_is_decoded_only_on_request():
    marked = load_pgm(Path(__file__).parent / "golden" / "marked_v1_32x32.pgm")
    with pytest.raises(CorruptionError, match="legacy_v1=True"):
        extract_full(marked)


def _flip_stream_bits(marked, positions):
    """The marked image with the carriers of these stream bits flipped."""
    stream, shifted = EMB.extract(marked)
    stream[list(positions)] ^= 1
    return EMB.embed(shifted, stream)


def test_two_flipped_version_bits_do_not_downgrade_the_frame():
    # Stream bits 14 and 15 are the low bits of the version byte, so
    # flipping both turns version 2 into 1. Read as a version 1 frame, this
    # image parses and decodes into a wrong payload and cover.
    rng = default_rng(1)
    cover = _pooled_field(rng, 32, 32, 40, 45)
    payload = rng.integers(0, 2, size=64, dtype=np.uint8)
    marked = embed_full(cover, payload, PreprocessParams(1, 1, 4)).marked
    downgraded = _flip_stream_bits(marked, (14, 15))
    assert (downgraded != marked).sum() == 2
    with pytest.raises(CorruptionError, match="version 1"):
        extract_full(downgraded)
    got_payload, got_cover = extract_full(downgraded, legacy_v1=True)
    assert not np.array_equal(got_payload, payload)
    assert not np.array_equal(got_cover, cover)


@pytest.mark.xfail(strict=True, reason="the version 2 checksum covers the packed payload "
                   "bytes, not the payload's bit length")
def test_checksum_covers_the_payload_bit_length():
    # Stream bit 103 is the low bit of the payload length: 100 bits become
    # 101, the extra bit is a zero filler bit in the same last byte, so the
    # packed payload, and with it the checksum, is unchanged.
    cover = smooth_image(26, 48, 48)
    payload = default_rng(27).integers(0, 2, size=100, dtype=np.uint8)
    marked = embed_full(cover, payload, PreprocessParams(1, 1, 4)).marked
    with pytest.raises(CorruptionError):
        extract_full(_flip_stream_bits(marked, (FRAME_HEADER_BITS - 33,)))


def test_extract_full_rejects_unmarked_cover():
    with pytest.raises(CorruptionError):
        extract_full(np.full((16, 16), 200, dtype=np.uint8))


_COVER = smooth_image(41)
_PARAMS = PreprocessParams(1, 1, 4)
_OUT = forward(_COVER, _PARAMS)
_CMAP = compress(_OUT.locmap)


@pytest.mark.parametrize("call, message", [
    (lambda: embed_full([[1, 2], [3]], [1], PreprocessParams(1, 1, 1)),
     "image is not a rectangular grid"),
    (lambda: psnr([[1, 2], [3]], [[1, 2], [3, 4]]), "image is not a rectangular grid"),
    (lambda: count_boundary_pixels([[1, 2], [3]], 1), "image is not a rectangular grid"),
    (lambda: embed_full(smooth_image(19), [[1], [0, 1]], PreprocessParams(1, 1, 1)),
     "bit stream is not a flat sequence"),
    (lambda: serialize_side_file("x", compress(forward(smooth_image(20),
                                                       PreprocessParams(1, 1, 1)).locmap)),
     "expected PreprocessParams"),
    (lambda: LocationMap([[1, 2], [1]], 3), "map symbols are not a rectangular grid"),
    (lambda: inverse(_OUT.shifted, _OUT.locmap, "x"), "params must be a PreprocessParams"),
    (lambda: inverse(_OUT.shifted, "x", _PARAMS), "locmap must be a LocationMap"),
    (lambda: boundary_count_after("x"), "expected a PreprocessOutput"),
    (lambda: compress("x"), "expected a LocationMap"),
    (lambda: decompress("x"), "expected a CompressedMap"),
    (lambda: serialize_map("x"), "expected a CompressedMap"),
    # the u32 header fields of the map container and the frame
    (lambda: serialize_map(CompressedMap(3, 2**32, 1, 0, b"")),
     re.escape("width must be in [0, 4294967295], got 4294967296")),
    (lambda: serialize_side_file(_PARAMS, CompressedMap(3, 1, 2**32, 0, b"")),
     re.escape("height must be in [0, 4294967295], got 4294967296")),
    (lambda: LocationMap(_OUT.locmap.symbols, True), "alphabet_size must be an integer, got True"),
    # a buffer of pointers, not of bytes
    (lambda: CompressedMap(3, 1, 1, 64, np.array([None])), "data must be bytes-like"),
], ids=["ragged-cover", "ragged-psnr", "ragged-census", "ragged-payload", "side-file-params",
        "ragged-map", "inverse-params", "inverse-locmap", "census-after-output", "compress-locmap",
        "decompress-cmap", "serialize-cmap", "u32-width", "u32-height", "bool-alphabet",
        "object-array-data"])
def test_public_calls_reject_malformed_arguments(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


# Each public entry point with arguments it takes. A wrong value in any one
# argument must raise a BoundShiftError or be taken. The ints stay small, so
# a call that takes an int as a buffer size cannot allocate much.
_WRONG_VALUES = [None, "x", 1.5, object(), [[1, 2], [3]], -1, 3]
_MARKED = embed_full(_COVER, [1, 0], _PARAMS).marked
_ENTRY_POINTS = {
    "read_pgm": (read_pgm, write_pgm(_COVER)),
    "write_pgm": (write_pgm, _COVER, "P2"),
    "deserialize_map": (deserialize_map, serialize_map(_CMAP)),
    "serialize_map": (serialize_map, _CMAP),
    "deserialize_side_file": (deserialize_side_file, serialize_side_file(_PARAMS, _CMAP)),
    "serialize_side_file": (serialize_side_file, _PARAMS, _CMAP),
    "CompressedMap": (CompressedMap, 3, 32, 32, _CMAP.bit_length, _CMAP.data),
    "LocationMap": (LocationMap, _OUT.locmap.symbols, 3),
    "compress": (compress, _OUT.locmap),
    "decompress": (decompress, _CMAP),
    "compress_binary_baseline": (compress_binary_baseline, _COVER, 1),
    "PreprocessParams": (PreprocessParams, 1, 1, 4),
    "forward": (forward, _COVER, _PARAMS),
    "inverse": (inverse, _OUT.shifted, _OUT.locmap, _PARAMS),
    "boundary_count_after": (boundary_count_after, _OUT),
    "count_boundary_pixels": (count_boundary_pixels, _COVER, 1),
    "psnr": (psnr, _COVER, _MARKED),
    "embed_full": (embed_full, _COVER, [1, 0], _PARAMS),
    "extract_full": (extract_full, _MARKED, False),
    "max_payload": (max_payload, _COVER, _PARAMS),
    "max_payload_baseline": (max_payload_baseline, _COVER, 1),
    "evaluate_cell": (evaluate_cell, _COVER, _PARAMS, None),
    "sweep": (sweep, _COVER, [1, 4], 1, False),
    "capacity": (EMB.capacity, _COVER),
    "embed": (EMB.embed, _OUT.shifted, [1, 0]),
    "extract": (EMB.extract, _MARKED),
    "frame_payload": (frame_payload, [1, 0], _CMAP, _PARAMS, 0),
    "deframe_payload": (deframe_payload, frame_payload([1, 0], _CMAP, _PARAMS, 0), 32, 32),
    "bytes_to_bits": (bytes_to_bits, b"\x5a"),
    "bits_to_bytes": (bits_to_bytes, [1, 0]),
    "frame_crc": (frame_crc, _COVER, [1, 0]),
    "check_frame": (check_frame, frame_crc(_COVER, [1, 0]), _COVER, [1, 0]),
    "predict_grid": (predict_grid, _COVER),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_wrong_arguments_raise_only_package_errors(name):
    call, *args = _ENTRY_POINTS[name]
    call(*args)
    leaks = []
    for k in range(len(args)):
        for value in _WRONG_VALUES:
            try:
                call(*args[:k], value, *args[k + 1:])
            except BoundShiftError:
                pass
            except Exception as exc:
                leaks.append(f"argument {k} = {value!r}: {type(exc).__name__}: {exc}")
    assert leaks == []


def test_paths_must_be_str_bytes_or_pathlike(monkeypatch, tmp_path):
    # Not in _ENTRY_POINTS: there "x" is a well-typed path that names no
    # file, and load_pgm rightly raises OSError (the CLI's I/O exit 5). An
    # int must not be taken as a file descriptor.
    monkeypatch.chdir(tmp_path)
    for value in [v for v in _WRONG_VALUES if not isinstance(v, str)] + ["a\0b", b"a\0b"]:
        with pytest.raises(ValidationError):
            load_pgm(value)
        with pytest.raises(ValidationError):
            save_pgm(value, _COVER)
    assert list(tmp_path.iterdir()) == []


def test_sweep_selects_best_cell_and_breaks_ties_low():
    cover = np.full((16, 16), 128, dtype=np.uint8)
    records = sweep(cover, range(1, 5), 1)
    assert len(records) == 16
    chosen = [r for r in records if r.selected]
    assert len(chosen) == 1
    # constant cover: every cell is equal, so the tie resolves to (1, 1)
    assert (chosen[0].t_even, chosen[0].t_odd) == (1, 1)
    assert all(chosen[0].r_emb >= r.r_emb for r in records)
    assert all(r.r0 is None and r.r1 is None for r in records)


def test_sweep_trend_on_clustered_extremes(corpus_dir):
    from boundshift import load_pgm

    name = sorted(p.name for p in corpus_dir.glob("blobs_*.pgm"))[0]
    cover = load_pgm(corpus_dir / name)
    records = {(r.t_even, r.t_odd): r for r in sweep(cover, [1, 4], 1)}
    assert records[(1, 4)].boundary_after < records[(1, 1)].boundary_after
    assert records[(1, 4)].r0 < records[(1, 1)].r0


def test_sweep_records_are_consistent():
    cover = smooth_image(19, 24, 24, mean=60, sigma=60)
    for rec in sweep(cover, [1, 2], 1):
        cell = evaluate_cell(cover, PreprocessParams(1, rec.t_even, rec.t_odd))
        assert (rec.boundary_before, rec.boundary_after) == (cell.boundary_before, cell.boundary_after)
        assert rec.r_emb == cell.r_emb
        if rec.r0 is not None:
            assert rec.r0 == 100.0 * rec.boundary_after / rec.boundary_before
            assert 0.0 <= rec.r0 <= 100.0
        if rec.psnr_db is not None and cell.psnr_db is not None:
            assert rec.psnr_db == pytest.approx(cell.psnr_db, abs=1e-12)


def test_evaluate_cell_psnr_none_when_side_info_too_big():
    cover = default_rng(20).integers(0, 2, (6, 6), dtype=np.int64).astype(np.uint8) * 255
    rec = evaluate_cell(cover, PreprocessParams(1, 1, 1))
    assert rec.psnr_db is None
    assert rec.r_emb == 0.0


def test_deep_shift_widths_round_trip():
    cover = smooth_image(21, 48, 48)
    for shift in (2, 4, 16):
        params = PreprocessParams(shift, 5, 5)
        cap = max_payload(cover, params)
        bits = default_rng(shift).integers(0, 2, size=min(cap, 64), dtype=np.uint8)
        _round_trip(cover, bits, params)
