"""Threshold sweep: pinned reports, a cell-by-cell differential test, its
error paths, and a bound on the work it repeats."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from boundshift import ValidationError, forward, save_pgm, sweep
from boundshift import embedder, pipeline, preprocess
from boundshift.cli import main
from boundshift.fixtures import _blobs, _pooled_field
from boundshift.preprocess import PreprocessParams

from conftest import smooth_image
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


@settings(max_examples=60, deadline=None)
@given(
    cover=_covers(),
    t_range=st.lists(st.integers(1, 127), min_size=1, max_size=6),
    shift=st.integers(1, 3),
)
def test_sweep_matches_the_cell_by_cell_oracle(cover, t_range, shift):
    # t_range comes unsorted and with repeats; the sweep sorts and dedups it
    assert sweep(cover, t_range, shift) == oracle_sweep(cover, t_range, shift)


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
    t_range = range(1, 17)
    records = sweep(cover, t_range, 1)
    assert len(records) == 256
    # the cover once, each even pass once, then each cell's capacity and,
    # where the frame fits, its embed
    assert len(predictions) <= 1 + 16 + 2 * 256

    monkeypatch.undo()
    maps = [forward(cover, PreprocessParams(1, rec.t_even, rec.t_odd)).locmap.symbols
            for rec in records]
    # each map that differs from the previous cell's, in sweep order
    changed = [m for k, m in enumerate(maps) if k == 0 or not np.array_equal(m, maps[k - 1])]
    assert 1 < len(changed) < len(maps)
    assert len(coded) == len(changed)
    assert all(np.array_equal(locmap.symbols, m) for locmap, m in zip(coded, changed))


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
