"""Threshold sweep: pinned reports, a cell-by-cell differential test, also
at the edges of the key that lets cells share an evaluation, the pick-only
sweep's pruning and its step per even pass against the per-cell chain, its
error paths, and counts of the work it does."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from boundshift import (
    LocationMap, PredictionErrorEmbedder, ValidationError, forward, save_pgm, sweep,
)
from boundshift import embedder, pipeline, preprocess
from boundshift.cli import main
from boundshift.formats import FRAME_HEADER_BITS
from boundshift.fixtures import _blobs, _pooled_field
from boundshift.preprocess import PreprocessParams

from conftest import smooth_image
from oracle_floor import bit_length_floor
from oracle_sweep import oracle_sweep

# Seeded covers for the pinned sweep reports: the three regimes at 32x32,
# and dark covers of thin or odd shapes; only 13x31 of those fits a frame.
SWEEP_COVERS = {
    "dark_32x32": _pooled_field(default_rng(1), 32, 32, 40, 45),
    "blobs_32x32": _blobs(default_rng(2), 32, 32, 0.2),
    "smooth_32x32": smooth_image(3, 32, 32),
    "dark_2x2": _pooled_field(default_rng(4), 2, 2, 10, 45),
    "dark_2x9": _pooled_field(default_rng(5), 2, 9, 10, 45),
    "dark_3x17": _pooled_field(default_rng(6), 3, 17, 10, 45),
    "dark_13x31": _pooled_field(default_rng(7), 13, 31, 10, 45),
}

# SHA-256 of `analyze --sweep --t-max 16` over SWEEP_COVERS, per shift.
SWEEP_REPORT_SHA256 = {
    1: "b62baee40986507809c0629b46f89bed6bebc9d5b908924270e3b82ba82ba9c8",
    3: "159ed8ea8ea640652f221546dab96947f72911835f185c037e31516c89863a63",
}


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    for name, cover in SWEEP_COVERS.items():
        save_pgm(out / f"{name}.pgm", cover)
    return out


@pytest.mark.parametrize("shift", sorted(SWEEP_REPORT_SHA256))
def test_sweep_report_is_pinned(sweep_dir, tmp_path, shift):
    report = tmp_path / "report.csv"
    rc = main(["analyze", str(sweep_dir), "--report", str(report), "--sweep",
               "--t-max", "16", "--shift", str(shift)])
    assert rc == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == SWEEP_REPORT_SHA256[shift]


# SHA-256 of the other `analyze` outputs over SWEEP_COVERS at shift 1: the
# --json mirror, and a sha256sum-style listing of the --maps files, per
# mode. The maps follow the chosen cell; the --joint-hist files depend on
# the cover alone, so one listing serves both modes.
ANALYZE_MODES = {
    "cell": ["--t-even", "1", "--t-odd", "4"],
    "sweep": ["--sweep", "--t-max", "16"],
}
ANALYZE_JSON_SHA256 = {
    "cell": "df9aa36b69d2962c923ab746d5f94998de17c8db9d66d8cf33de50103a67b9f9",
    "sweep": "7fb2e2be55df594b30112a6b36d99dfa58121c8e7734533d29060e1b54ed1c75",
}
ANALYZE_MAPS_SHA256 = {
    "cell": "ec4a65862d53d01517cf60d19cf4f892bfaa5bff5e3262f290084de344a31e8e",
    "sweep": "68396432e215c15649281c44f3363b0e136e865c93dec3849941c4c2f9ac5897",
}
JOINT_HIST_SHA256 = "2d4cc752662d5a8ccba037c7695d85f2a02c3f600f5b970e242e77bf0333cd3c"


def _listing_sha256(directory):
    """SHA-256 of a `sha256sum` listing of the directory's files, by name."""
    listing = "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
        for p in sorted(directory.iterdir())
    )
    return hashlib.sha256(listing.encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(ANALYZE_MODES))
def test_analyze_json_maps_and_joint_hist_are_pinned(sweep_dir, tmp_path, mode):
    rc = main(["analyze", str(sweep_dir), "--report", str(tmp_path / "report.csv"),
               "--json", str(tmp_path / "report.json"), "--maps", str(tmp_path / "maps"),
               "--joint-hist", str(tmp_path / "joint"), *ANALYZE_MODES[mode]])
    assert rc == 0
    mirror = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(mirror).hexdigest() == ANALYZE_JSON_SHA256[mode]
    assert len(list((tmp_path / "maps").iterdir())) == len(SWEEP_COVERS)
    assert _listing_sha256(tmp_path / "maps") == ANALYZE_MAPS_SHA256[mode]
    assert len(list((tmp_path / "joint").iterdir())) == len(SWEEP_COVERS)
    assert _listing_sha256(tmp_path / "joint") == JOINT_HIST_SHA256


@st.composite
def _covers(draw):
    h = draw(st.integers(2, 12))
    w = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["dark", "blobs", "extremes"]))
    rng = default_rng(seed)
    if kind == "dark":
        return _pooled_field(rng, h, w, 40, 45)
    if kind == "blobs":
        return _blobs(rng, h, w, 0.45)
    return rng.choice(np.array([0, 1, 2, 3, 128, 252, 253, 254, 255], dtype=np.uint8), (h, w))


@st.composite
def _fitting_covers(draw):
    """Blobs or pooled covers large enough that many cells fit a frame."""
    h = draw(st.integers(32, 64))
    w = draw(st.integers(32, 64))
    rng = default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        return _blobs(rng, h, w, 0.2)
    return _pooled_field(rng, h, w, 40, 45)


def _most(cover, params):
    """A cell's room less the header and the floor on its map's bits: the
    most payload room the pick-only sweep grants it uncoded."""
    out = forward(cover, params)
    room = PredictionErrorEmbedder().capacity(out.shifted)
    return room - FRAME_HEADER_BITS - bit_length_floor(out.locmap)


def _check_pick_only(cover, t_range, shift, expected):
    """The pick-only sweep against the full sweep's records: the same
    selected record and every coded record alike but for PSNR (NaN where
    the oracle has a value); a pruned record has no map bits, r1, r_emb or
    PSNR, its room less the header and its map's floor is at or below the
    pick's payload room, and its oracle payload room is below the pick's or
    ties it from a later cell."""
    picked = sweep(cover, t_range, shift, measure_psnr=False)
    assert len(picked) == len(expected)
    assert [rec.selected for rec in picked] == [want.selected for want in expected]
    [pick] = [i for i, want in enumerate(expected) if want.selected]
    best = round(expected[pick].r_emb * cover.size)
    for i, (rec, want) in enumerate(zip(picked, expected)):
        if rec.map_bits_after is None:
            unknown = dict(map_bits_after=None, r1=None, r_emb=None, psnr_db=None)
            assert rec == dataclasses.replace(want, **unknown)
            assert _most(cover, PreprocessParams(shift, rec.t_even, rec.t_odd)) <= best
            payload = round(want.r_emb * cover.size)
            assert payload < best or (payload == best and i > pick)
            continue
        if want.psnr_db is None:
            assert rec.psnr_db is None
        else:
            assert isinstance(rec.psnr_db, float) and math.isnan(rec.psnr_db)
        assert dataclasses.replace(rec, psnr_db=want.psnr_db) == want
    return picked


@settings(max_examples=60, deadline=None)
@given(
    cover=_covers(),
    t_range=st.lists(st.integers(1, 127), min_size=1, max_size=6),
    shift=st.integers(1, 3),
)
def test_sweep_matches_the_cell_by_cell_oracle(cover, t_range, shift):
    # t_range comes unsorted and with repeats; the sweep sorts and dedups it
    expected = oracle_sweep(cover, t_range, shift)
    assert sweep(cover, t_range, shift) == expected
    # the pick-only sweep measures no PSNR and codes only maps that can win
    _check_pick_only(cover, t_range, shift, expected)


@settings(max_examples=40, deadline=None)
@given(
    cover=st.one_of(_covers(), _fitting_covers()),
    t_range=st.lists(st.integers(1, 24), min_size=1, max_size=6),
    shift=st.integers(1, 3),
)
def test_pick_only_sweep_selects_the_full_sweeps_record(cover, t_range, shift):
    [want] = [rec for rec in sweep(cover, t_range, shift) if rec.selected]
    [got] = [rec for rec in sweep(cover, t_range, shift, measure_psnr=False) if rec.selected]
    if want.psnr_db is not None:
        assert math.isnan(got.psnr_db)
    assert dataclasses.replace(got, psnr_db=want.psnr_db) == want


def test_pick_only_sweep_picks_the_first_cell_when_nothing_fits():
    # the last cover's frame fills some cells' room exactly: it fits, but
    # leaves no payload room, and the first cell's does not fit
    exact = _pooled_field(default_rng(17), 20, 20, 40, 45)
    for cover in [SWEEP_COVERS[name] for name in ("dark_2x2", "dark_2x9", "dark_3x17")] + [exact]:
        records = sweep(cover, range(1, 17), 1)
        assert all(rec.r_emb == 0 for rec in records)
        picked = _check_pick_only(cover, range(1, 17), 1, records)
        assert picked[0].selected and picked[0].map_bits_after is not None
    assert records[0].psnr_db is None
    assert any(rec.psnr_db is not None for rec in records)


# Dark 32x32 covers with keys whose room less the header and the map's
# floor (their bound) sits at the pick's payload room, from cells before and
# after the pick's, and one whose keys of a bound one bit below it are not
# cut off by such a tie after the pick.
BOUND_COVERS = {"dark_32x32": SWEEP_COVERS["dark_32x32"],
                "seed_2": _pooled_field(default_rng(2), 32, 32, 40, 45)}


@pytest.mark.parametrize("name", sorted(BOUND_COVERS))
def test_pick_only_sweep_codes_exactly_the_maps_that_can_win(monkeypatch, name):
    cover = BOUND_COVERS[name]
    coded = []
    compress = pipeline.compress

    def counted(locmap):
        coded.append(locmap.symbols.tobytes())
        return compress(locmap)

    monkeypatch.setattr(pipeline, "compress", counted)
    records = sweep(cover, range(1, 17), 1, measure_psnr=False)
    monkeypatch.undo()
    [pick] = [i for i, rec in enumerate(records) if rec.selected]
    best = round(records[pick].r_emb * cover.size)
    assert best > 0
    # per distinct (shifted image, map): its first cell and its bound
    keys, first = [], {}
    for i, rec in enumerate(records):
        params = PreprocessParams(1, rec.t_even, rec.t_odd)
        out = forward(cover, params)
        keys.append((out.shifted.tobytes(), out.locmap.symbols.tobytes()))
        first.setdefault(keys[-1], (i, _most(cover, params)))
    can_win = {key for key, (i, most) in first.items()
               if most > best or (most == best and i < pick)}
    assert 0 < len(can_win) < len(first)
    # many keys share a map (all clear, say), so the records tell which
    # keys were coded, and the coded maps only which maps
    assert [rec.map_bits_after is not None for rec in records] == [key in can_win for key in keys]
    assert set(coded) == {key[1] for key in can_win}


def test_pick_only_sweep_skips_maps_their_floor_rules_out(monkeypatch):
    # no symbol of a 32x32 map has 1024 clear ones before it, so its floor
    # is one bit; at 96x96 the floor rules out maps that room alone would not
    cover = _pooled_field(default_rng(1), 96, 96, 40, 45)
    expected = sweep(cover, range(1, 17), 1)
    coded = []
    compress = pipeline.compress

    def counted(locmap):
        coded.append(locmap.symbols)
        return compress(locmap)

    monkeypatch.setattr(pipeline, "compress", counted)
    _check_pick_only(cover, range(1, 17), 1, expected)
    monkeypatch.undo()
    [chosen] = [rec for rec in expected if rec.selected]
    best = round(chosen.r_emb * cover.size)
    outs = [forward(cover, PreprocessParams(1, rec.t_even, rec.t_odd)) for rec in expected]
    room_alone = {out.locmap.symbols.tobytes() for out in outs
                  if PredictionErrorEmbedder().capacity(out.shifted) - FRAME_HEADER_BITS > best}
    assert 0 < len(coded) < len(room_alone)

def _cover(shape):
    return _pooled_field(default_rng(8), *shape, 40, 45)


@pytest.mark.parametrize(
    "shape, t_range, shift, message",
    [
        ((32, 32), [], 1, "t_range must not be empty"),
        ((32, 32), [0], 1, "t_even must be in [1, 127], got 0"),
        ((32, 32), [128], 1, "t_even must be in [1, 127], got 128"),
        ((32, 32), [1, 128], 1, "t_odd must be in [1, 127], got 128"),
        ((32, 32), [0, 128], 1, "t_even must be in [1, 127], got 0"),
        ((32, 32), [1], 0, "shift width must be in [1, 127], got 0"),
        ((32, 32), [1], 128, "shift width must be in [1, 127], got 128"),
        ((32, 32), [], 0, "shift width must be in [1, 127], got 0"),
        ((1, 5), [1, 2], 1, "image must be at least 2x2, got (1, 5)"),
        ((5, 1), [1, 2], 1, "image must be at least 2x2, got (5, 1)"),
        ((1, 1), [1], 1, "image must be at least 2x2, got (1, 1)"),
        # the first cell's thresholds are checked before the cover's size,
        # and a later cell's only after it
        ((1, 5), [0], 1, "t_even must be in [1, 127], got 0"),
        ((1, 5), [1, 128], 1, "image must be at least 2x2, got (1, 5)"),
        ((1, 5), [], 1, "t_range must not be empty"),
        # thresholds must be integers, as PreprocessParams requires, and are
        # checked before any cell runs
        ((32, 32), [2.7], 1, "t_range must hold integers, got 2.7"),
        ((32, 32), ["3"], 1, "t_range must hold integers, got '3'"),
        ((32, 32), ["x"], 1, "t_range must hold integers, got 'x'"),
        ((32, 32), [None], 1, "t_range must hold integers, got None"),
        ((32, 32), [1, 2.0], 1, "t_range must hold integers, got 2.0"),
        ((1, 5), [None, 1], 1, "t_range must hold integers, got None"),
        # t_range must be iterable, which is checked after the shift width
        # and before the cover's size
        ((32, 32), 5, 1, "t_range must be an iterable of integers, got 5"),
        ((32, 32), None, 1, "t_range must be an iterable of integers, got None"),
        ((32, 32), 5, 0, "shift width must be in [1, 127], got 0"),
        ((1, 5), None, 1, "t_range must be an iterable of integers, got None"),
        # a bool is not a threshold, as PreprocessParams holds
        ((4, 4), [True, 2], 1, "t_range must hold integers, got True"),
        ((32, 32), [1, False], 1, "t_range must hold integers, got False"),
    ],
)
def test_sweep_error_paths(shape, t_range, shift, message):
    with pytest.raises(ValidationError, match=re.escape(message)) as exc:
        sweep(_cover(shape), t_range, shift)
    assert str(exc.value) == message


def test_sweep_checks_every_threshold_before_the_first_cell(monkeypatch):
    cells = []
    evaluate_cell = pipeline.evaluate_cell

    def counted(*args):
        cells.append(args[1])
        return evaluate_cell(*args)

    monkeypatch.setattr(pipeline, "evaluate_cell", counted)
    message = "t_odd must be in [1, 127], got 128"
    with pytest.raises(ValidationError, match=re.escape(message)):
        sweep(np.full((32, 32), 100, np.uint8), range(1, 129), 1)
    assert cells == []


def test_sweep_predicts_and_codes_each_distinct_thing_once(monkeypatch):
    predictions = []
    coded = []

    def count(log, fn):
        def counted(*args, **kwargs):
            log.append(args[0])
            return fn(*args, **kwargs)
        return counted

    # wrapped where the callers look the names up, so a new import of
    # either name into a module the sweep uses is counted too
    for module in (preprocess, embedder, pipeline):
        if hasattr(module, "predict_grid"):
            monkeypatch.setattr(module, "predict_grid", count(predictions, module.predict_grid))
    monkeypatch.setattr(pipeline, "compress", count(coded, pipeline.compress))

    cover = _pooled_field(default_rng(12), 32, 32, 40, 45)
    passes = preprocess._ForwardCache(cover, 1)
    even_passes = len({passes.key(PreprocessParams(1, t, 1))[0] for t in range(1, 17)})
    codings = {}
    for measure_psnr in (True, False):
        predictions.clear()
        coded.clear()
        records = sweep(cover, range(1, 17), 1, measure_psnr=measure_psnr)
        assert len(records) == 256
        # the cover once; a full sweep then each even pass once and each
        # cell's capacity, which a cell's embed, if it makes one, reuses; a
        # pick-only sweep each distinct even pass at most three times (its
        # prediction, its capacity and once more for the records) and once
        # more per map it codes
        if measure_psnr:
            assert len(predictions) <= 1 + 16 + 256
        else:
            assert len(predictions) <= 1 + 3 * even_passes + len(coded)
        codings[measure_psnr] = list(coded)

    monkeypatch.undo()
    maps = [forward(cover, PreprocessParams(1, rec.t_even, rec.t_odd)).locmap.symbols
            for rec in records]
    # each map that differs from the previous cell's, in sweep order
    changed = [m for k, m in enumerate(maps) if k == 0 or not np.array_equal(m, maps[k - 1])]
    assert 1 < len(changed) < len(maps)
    coded = codings[True]
    assert len(coded) == len(changed)
    assert all(np.array_equal(locmap.symbols, m) for locmap, m in zip(coded, changed))
    # the pick-only sweep codes fewer maps, at most one per key of the
    # records it reports as coded, and each the map of such a record
    picked = [locmap.symbols for locmap in codings[False]]
    assert 0 < len(picked) < len(changed)
    reported = [(passes.key(PreprocessParams(1, rec.t_even, rec.t_odd)), m.tobytes())
                for m, rec in zip(maps, records) if rec.map_bits_after is not None]
    assert len(picked) <= len({key for key, _ in reported})
    assert {m.tobytes() for m in picked} <= {m for _, m in reported}


def test_sweep_predicts_a_shifted_image_that_never_changes_once(monkeypatch, fresh_embedder):
    # values in the middle of the range: no threshold up to 16 moves a
    # pixel, so every cell's shifted image is the cover itself
    cover = smooth_image(9, 32, 32)
    assert 64 < cover.min() and cover.max() < 192
    fresh_embedder()
    calls = {preprocess: 0, embedder: 0}

    def count(module):
        fn = module.predict_grid

        def counted(img):
            calls[module] += 1
            return fn(img)
        return counted

    for module in calls:
        monkeypatch.setattr(module, "predict_grid", count(module))
    records = sweep(cover, range(1, 17), 1)
    assert len(records) == 256
    assert len({(rec.r_emb, rec.boundary_after, rec.map_bits_after) for rec in records}) == 1
    # the cover and one even pass, as every t_even moves no cell; the
    # shifted image once for all 256 cells' capacity and embed
    assert calls == {preprocess: 2, embedder: 1}


@pytest.mark.parametrize("measure_psnr", [True, False])
def test_sweep_evaluates_each_distinct_cell_once(monkeypatch, fresh_embedder, measure_psnr):
    counts = {"odd passes": 0, "capacity": 0}
    coded = []
    apply_pass = preprocess._apply_pass

    def counted_pass(grid, pred, parity, *args):
        counts["odd passes"] += parity == 1
        return apply_pass(grid, pred, parity, *args)

    monkeypatch.setattr(preprocess, "_apply_pass", counted_pass)
    compress = pipeline.compress
    monkeypatch.setattr(pipeline, "compress", lambda locmap: coded.append(1) or compress(locmap))

    def run(cover):
        embedder_ = fresh_embedder()
        capacity = embedder_.capacity

        def counted_capacity(img):
            counts["capacity"] += 1
            return capacity(img)

        monkeypatch.setattr(embedder_, "capacity", counted_capacity)
        counts.update(dict.fromkeys(counts, 0))
        coded.clear()
        return sweep(cover, range(1, 17), 1, measure_psnr=measure_psnr)

    # no threshold up to 16 moves a pixel: one cell, evaluated once
    assert len(run(smooth_image(9, 32, 32))) == 256
    assert counts == {"odd passes": 1, "capacity": 1}

    # on blobs, the thresholds move few distinct sets of pixels; the cells
    # of t_odd 1 do not fit, so no PSNR embed follows a cell of another key
    cover = _blobs(default_rng(10), 64, 64, 0.45)
    records = run(cover)
    monkeypatch.undo()
    distinct = set()
    for t_even in range(1, 17):
        for t_odd in range(1, 17):
            out = forward(cover, PreprocessParams(1, t_even, t_odd))
            distinct.add((out.shifted.tobytes(), out.locmap.symbols.tobytes()))
    assert 1 < len(distinct) < 256
    if measure_psnr:
        assert counts == {"odd passes": len(distinct), "capacity": len(distinct)}
    else:
        # one capacity per distinct even pass, which measures all its cells
        # at once; an odd pass only for each key whose map the pick codes
        passes = preprocess._ForwardCache(cover, 1)
        even_passes = {passes.key(PreprocessParams(1, t, 1))[0] for t in range(1, 17)}
        coded_keys = {passes.key(PreprocessParams(1, rec.t_even, rec.t_odd))
                      for rec in records if rec.map_bits_after is not None}
        assert len(even_passes) < len(distinct)
        assert counts["capacity"] == len(even_passes)
        assert 0 < len(coded) <= counts["odd passes"] == len(coded_keys)


def _pools_with_seams(n=16):
    """A 0 pool over a 255 pool, each crossed by a checkerboard seam whose
    even cells hold the other extreme: at shift 3 the even pass moves those
    cells out of [0, 255], so the odd cells there predict -3 and 258."""
    phase = np.indices((n, n)).sum(0) % 2
    cover = np.zeros((n, n), np.uint8)
    cover[n // 2:] = 255
    cover[2:6] = 255 * phase[2:6]
    cover[n - 6:n - 2] = 255 * (1 - phase[n - 6:n - 2])
    return cover


def _blocky(seed, values, n=24):
    """A cover of 4x4 blocks, each of one of the values: flat inside, so a
    frame fits."""
    rng = default_rng(seed)
    return np.kron(rng.choice(np.array(values, np.uint8), (n // 4, n // 4)),
                   np.ones((4, 4), np.uint8))


# The key's edges: thresholds that are not contiguous; predictions at one
# end of a band that t = 5 moves and t = 1 does not (1 and 4 below, 251
# and 254 above), so a key off by one there names two sets alike; t up to
# 127, where the bands below t and above 255 - t meet; and covers (marked
# True) whose even cells the even pass moves below 0 and above 255 at
# shift 3.
KEY_EDGES = {
    **{f"band-end-{v}": (_blocky(v, [v, 128]), 1, False) for v in (1, 4, 251, 254)},
    "mid-values": (_blocky(30, [126, 127, 128, 129]), 1, False),
    "pools": (_pools_with_seams(), 3, True),
    "noise": (default_rng(31).choice(np.array([0, 255], np.uint8), (16, 16)), 3, True),
    "extremes": (default_rng(32).choice(
        np.array([0, 1, 2, 3, 128, 252, 253, 254, 255], np.uint8), (13, 11)), 3, False),
}


@pytest.mark.parametrize("name", sorted(KEY_EDGES))
def test_sweep_matches_the_oracle_at_the_key_edges(name):
    cover, shift, leaves_range = KEY_EDGES[name]
    thresholds = [1, 5, 127]
    if leaves_range:
        passes = preprocess._ForwardCache(cover, shift)
        preds = []
        for t_even in thresholds:
            passes.forward(PreprocessParams(shift, t_even, 1))
            preds.append(passes.even_pred[np.indices(cover.shape).sum(0) % 2 == 1])
        assert min(p.min() for p in preds) < 0 and max(p.max() for p in preds) > 255
    expected = oracle_sweep(cover, thresholds, shift)
    assert sweep(cover, thresholds, shift) == expected
    _check_pick_only(cover, thresholds, shift, expected)
    # a key names a cell's output in any order, not only the sweep's
    state = pipeline._SweepState(cover, shift)
    for k in default_rng(33).permutation(len(expected)):
        want = dataclasses.replace(expected[k], selected=False)
        params = PreprocessParams(shift, want.t_even, want.t_odd)
        assert pipeline.evaluate_cell(cover, params, state) == want


@pytest.mark.parametrize("shape", [(16, 16), (1, 5)])
@pytest.mark.parametrize("params", ["junk", None, (1, 3, 5)])
def test_evaluate_cell_rejects_what_forward_rejects(shape, params):
    cover = _cover(shape)
    with pytest.raises(ValidationError) as expected:
        forward(cover, params)
    with pytest.raises(ValidationError) as exc:
        pipeline.evaluate_cell(cover, params)
    assert str(exc.value) == str(expected.value)
    if shape == (16, 16):
        with pytest.raises(ValidationError, match="params must be a PreprocessParams"):
            pipeline.evaluate_cell(cover, params, pipeline._SweepState(cover, 1))


def test_evaluate_cell_refuses_a_state_of_another_cover_or_shift():
    cover = _cover((16, 16))
    state = pipeline._SweepState(cover, 1)
    rec = pipeline.evaluate_cell(cover, PreprocessParams(1, 3, 5), state)
    assert rec == pipeline.evaluate_cell(cover, PreprocessParams(1, 3, 5))
    other = cover.copy()
    other[0, 0] ^= 1
    for cell_cover, params in [(other, PreprocessParams(1, 3, 5)),
                               (cover, PreprocessParams(2, 3, 5))]:
        with pytest.raises(ValidationError, match="another cover or shift width"):
            pipeline.evaluate_cell(cell_cover, params, state)


@pytest.mark.parametrize("state", ["x", 0, pipeline._SweepState])
def test_evaluate_cell_refuses_a_state_that_is_not_a_sweeps(state):
    with pytest.raises(ValidationError, match="state must be a sweep's state"):
        pipeline.evaluate_cell(_cover((16, 16)), PreprocessParams(1, 3, 5), state)


@st.composite
def _odd_step_covers(draw):
    """Covers of 2x2 to 13x13: dark, blobs, extreme values or noise."""
    h = draw(st.integers(2, 13))
    w = draw(st.integers(2, 13))
    rng = default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["dark", "blobs", "extremes", "noise"]))
    if kind == "dark":
        return _pooled_field(rng, h, w, 40, 45)
    if kind == "blobs":
        return _blobs(rng, h, w, 0.45)
    if kind == "extremes":
        return rng.choice(np.array([0, 1, 2, 3, 128, 252, 253, 254, 255], np.uint8), (h, w))
    return rng.integers(0, 256, (h, w), dtype=np.uint8)


def _check_odd_steps(cover, t_range, shift):
    """The pick-only state's step per even pass against the per-cell chain
    (key, forward, boundary_count_after, capacity, bit_length_floor) on
    every cell of the sorted, deduplicated thresholds."""
    thresholds = sorted(set(t_range))
    state = pipeline._SweepState(cover, shift, measure_psnr=False)
    passes = preprocess._ForwardCache(cover, shift)
    for t_even in thresholds:
        measured = state.measure_pass(t_even, thresholds)
        for t_odd, (key, count, room, floor) in zip(thresholds, measured):
            params = PreprocessParams(shift, t_even, t_odd)
            out = forward(cover, params)
            assert key == passes.key(params)
            assert count == preprocess.boundary_count_after(out)
            assert room == PredictionErrorEmbedder().capacity(out.shifted)
            assert floor == bit_length_floor(out.locmap)


@settings(max_examples=150, deadline=None)
@given(
    cover=_odd_step_covers(),
    t_range=st.lists(st.integers(1, 127), min_size=1, max_size=8),
    shift=st.integers(1, 5),
)
def test_odd_steps_match_the_per_cell_chain(cover, t_range, shift):
    # unsorted, with repeats, and always reaching 127, where the bands meet
    _check_odd_steps(cover, t_range + t_range[:1] + [127], shift)


@pytest.mark.parametrize("name", sorted(KEY_EDGES))
def test_odd_steps_match_the_per_cell_chain_at_the_key_edges(name):
    cover, shift, _ = KEY_EDGES[name]
    for t in sorted({shift, 3}):
        _check_odd_steps(cover, [1, 2, 4, 5, 6, 126, 127], t)


@pytest.mark.parametrize("kind", ["dark", "blobs"])
def test_odd_steps_match_the_per_cell_chain_at_128x128(kind):
    rng = default_rng(113)
    cover = (_pooled_field(rng, 128, 128, 40, 45) if kind == "dark"
             else _blobs(rng, 128, 128, 0.45))
    _check_odd_steps(cover, range(1, 17), 1)
