import csv
import json
import pathlib

import numpy as np
import pytest
from numpy.random import default_rng

from boundshift import (
    PreprocessParams, codec, embedder, load_pgm, pipeline, preprocess, save_pgm)
from boundshift.cli import _REPORT_FIELDS, build_parser, main
from boundshift.fixtures import _blobs, _pooled_field

from conftest import smooth_image


def _write_cover(tmp_path, name="cover.pgm", seed=30, h=40, w=40):
    path = tmp_path / name
    save_pgm(path, smooth_image(seed, h, w))
    return path


def _embed(tmp_path, cover, payload=b"sixteen byte msg", extra=()):
    pay = tmp_path / "payload.bin"
    pay.write_bytes(payload)
    marked = tmp_path / "marked.pgm"
    rc = main([
        "embed", str(cover), "--payload", str(pay), "--out", str(marked),
        "--t-even", "1", "--t-odd", "4", *extra,
    ])
    assert rc == 0
    return pay, marked


def test_embed_extract_round_trip(tmp_path, capsys):
    cover = _write_cover(tmp_path)
    pay, marked = _embed(tmp_path, cover)
    out_pay = tmp_path / "out.bin"
    out_img = tmp_path / "restored.pgm"
    rc = main(["extract", str(marked), "--payload-out", str(out_pay), "--out", str(out_img)])
    assert rc == 0
    assert out_pay.read_bytes() == pay.read_bytes()
    assert out_img.read_bytes() == cover.read_bytes()
    assert "extracted 128 payload bits" in capsys.readouterr().out


def test_main_calls_in_one_process_match_fresh_calls(tmp_path, capsys):
    # embed --auto, extract, a usage error and analyze, in one process on
    # one parser and again each on a parser built for it alone
    cover = _pooled_field(default_rng(3), 32, 32, 40, 45)
    save_pgm(tmp_path / "cover.pgm", cover)
    (tmp_path / "payload.bin").write_bytes(b"one parser")
    (tmp_path / "dir").mkdir()
    save_pgm(tmp_path / "dir" / "cover.pgm", cover)

    def calls(out, fresh):
        argvs = [
            ["embed", str(tmp_path / "cover.pgm"), "--payload", str(tmp_path / "payload.bin"),
             "--out", str(out / "marked.pgm"), "--auto", "--t-max", "6"],
            ["extract", str(out / "marked.pgm"), "--payload-out", str(out / "payload.bin"),
             "--out", str(out / "cover.pgm")],
            ["embed", str(tmp_path / "cover.pgm"), "--payload", str(tmp_path / "payload.bin"),
             "--out", str(out / "x.pgm"), "--auto", "--t-odd", "2"],
            ["analyze", str(tmp_path / "dir"), "--report", str(out / "report.csv"),
             "--t-even", "1", "--t-odd", "4"],
        ]
        results = []
        for argv in argvs:
            if fresh:
                build_parser.cache_clear()
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            text = capsys.readouterr()
            results.append((rc, text.out.replace(str(out), ""), text.err))
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return results, files

    (tmp_path / "shared").mkdir()
    (tmp_path / "fresh").mkdir()
    shared = calls(tmp_path / "shared", fresh=False)
    assert build_parser() is build_parser()
    assert shared == calls(tmp_path / "fresh", fresh=True)
    assert [rc for rc, _, _ in shared[0]] == [0, 0, 2, 0]
    assert "takes no --t-even or --t-odd" in shared[0][2][2]


def test_embed_reports_metrics(tmp_path, capsys):
    cover = _write_cover(tmp_path)
    _embed(tmp_path, cover)
    out = capsys.readouterr().out
    assert "embedded 128 payload bits" in out
    assert "net rate" in out and "psnr" in out


def test_embed_bits_flag_truncates(tmp_path):
    cover = _write_cover(tmp_path)
    _, marked = _embed(tmp_path, cover, extra=("--bits", "5"))
    out_pay = tmp_path / "out.bin"
    rc = main(["extract", str(marked), "--payload-out", str(out_pay),
               "--out", str(tmp_path / "r.pgm")])
    assert rc == 0
    # 5 bits of 's' = 0b01110, repacked MSB-first into one byte
    assert out_pay.read_bytes() == bytes([0b01110000])


def test_embed_bits_flag_validation(tmp_path, capsys):
    cover = _write_cover(tmp_path)
    pay = tmp_path / "p.bin"
    pay.write_bytes(b"x")
    for bad in ("-1", "9"):
        rc = main(["embed", str(cover), "--payload", str(pay),
                   "--out", str(tmp_path / "m.pgm"),
                   "--t-even", "1", "--t-odd", "4", "--bits", bad])
        assert rc == 2
    assert "outside" in capsys.readouterr().err


def _embed_auto(tmp_path):
    """Run `embed --auto --t-max 4` on a 48x48 cover with a dark square;
    returns the cover's path."""
    cover = tmp_path / "dark.pgm"
    img = np.full((48, 48), 128, dtype=np.uint8)
    img[8:32, 8:32] = 0
    save_pgm(cover, img)
    pay = tmp_path / "p.bin"
    pay.write_bytes(b"\xaa")
    rc = main(["embed", str(cover), "--payload", str(pay),
               "--out", str(tmp_path / "m.pgm"), "--auto", "--t-max", "4"])
    assert rc == 0
    return cover


def test_embed_auto_selects_thresholds(tmp_path, capsys):
    cover = _embed_auto(tmp_path)
    assert "auto-selected t_even=" in capsys.readouterr().out
    rc = main(["extract", str(tmp_path / "m.pgm"),
               "--payload-out", str(tmp_path / "o.bin"),
               "--out", str(tmp_path / "r.pgm")])
    assert rc == 0
    assert (tmp_path / "o.bin").read_bytes() == b"\xaa"
    assert (tmp_path / "r.pgm").read_bytes() == cover.read_bytes()


def test_embed_auto_embeds_only_the_chosen_cell(tmp_path, monkeypatch):
    calls = []

    def count(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    # wrapped where the callers look the names up
    cls = embedder.PredictionErrorEmbedder
    monkeypatch.setattr(cls, "embed", count("embed", cls.embed))
    monkeypatch.setattr(pipeline, "_payload_for_report",
                        count("payload_for_report", pipeline._payload_for_report))
    _embed_auto(tmp_path)
    # the 16-cell sweep only picks; embed_full embeds the chosen cell
    assert calls == ["embed"]

    # on a dark cover the sweep codes the maps of fewer keys than it
    # measures; embed_full codes the chosen cell's map once more
    calls.clear()
    monkeypatch.setattr(pipeline, "compress", count("compress", pipeline.compress))
    img = _pooled_field(default_rng(13), 32, 32, 40, 45)
    save_pgm(tmp_path / "pooled.pgm", img)
    rc = main(["embed", str(tmp_path / "pooled.pgm"), "--payload", str(tmp_path / "p.bin"),
               "--out", str(tmp_path / "m2.pgm"), "--auto"])
    assert rc == 0
    assert calls.count("embed") == 1
    passes = preprocess._ForwardCache(img, 1)
    keys = {passes.key(PreprocessParams(1, t_even, t_odd))
            for t_even in range(1, 17) for t_odd in range(1, 17)}
    assert 0 < calls.count("compress") - 1 < len(keys)


def test_preprocess_restore_round_trip(tmp_path, capsys):
    cover = tmp_path / "c.pgm"
    img = np.zeros((16, 16), dtype=np.uint8)
    save_pgm(cover, img)
    shifted = tmp_path / "s.pgm"
    side = tmp_path / "side.lp"
    rc = main(["preprocess", str(cover), "--out", str(shifted), "--map", str(side),
               "--t-even", "1", "--t-odd", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "boundary pixels: 256 -> 0" in out
    assert np.array_equal(load_pgm(shifted), np.ones((16, 16), dtype=np.uint8))
    # magic LP, shift 1, t_even 1, t_odd 4, then the LM map container:
    # alphabet 3, 16x16, 3 coded bits
    assert side.read_bytes() == bytes.fromhex(
        "4c50" "01" "01" "04" "4c4d" "02" "00000010" "00000010" "00000003" "e0"
    )
    rc = main(["restore", str(shifted), "--map", str(side), "--out", str(tmp_path / "b.pgm")])
    assert rc == 0
    assert (tmp_path / "b.pgm").read_bytes() == cover.read_bytes()


def _preprocess_8x8(tmp_path):
    cover = tmp_path / "c.pgm"
    save_pgm(cover, np.zeros((8, 8), dtype=np.uint8))
    side = tmp_path / "side.lp"
    main(["preprocess", str(cover), "--out", str(tmp_path / "s.pgm"),
          "--map", str(side), "--t-even", "1", "--t-odd", "1"])
    return side


def _restore(tmp_path, side):
    return main(["restore", str(tmp_path / "s.pgm"), "--map", str(side),
                 "--out", str(tmp_path / "b.pgm")])


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda blob: b"XY" + blob[2:], "magic"),
        (lambda blob: blob[:3] + b"\x00" + blob[4:], "t_even"),   # zeroed t_even byte
        (lambda blob: blob[:4], "side file shorter than its header"),
    ],
    ids=["bad-magic", "zero-param", "short-header"],
)
def test_restore_rejects_corrupt_side_file(tmp_path, capsys, corrupt, message):
    side = _preprocess_8x8(tmp_path)
    side.write_bytes(corrupt(side.read_bytes()))
    assert _restore(tmp_path, side) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("shift", [1, 3])
@pytest.mark.parametrize("edge", ["below", "above"])
def test_restore_refuses_a_shifted_pixel_outside_the_range(tmp_path, capsys, shift, edge):
    cover = tmp_path / "c.pgm"
    save_pgm(cover, smooth_image(shift, 16, 16))
    side = tmp_path / "side.lp"
    assert main(["preprocess", str(cover), "--out", str(tmp_path / "s.pgm"), "--map", str(side),
                 "--shift", str(shift), "--t-even", "3", "--t-odd", "3"]) == 0
    shifted = load_pgm(tmp_path / "s.pgm")
    shifted[0, 0] = shift - 1 if edge == "below" else 256 - shift
    save_pgm(tmp_path / "s.pgm", shifted)
    capsys.readouterr()
    assert _restore(tmp_path, side) == 4
    assert f"shifted image has pixels outside [{shift}, {255 - shift}]" in capsys.readouterr().err
    assert not (tmp_path / "b.pgm").exists()


@pytest.mark.parametrize("size", [9, 0xFFFFFFFF])
def test_restore_rejects_map_of_another_size(tmp_path, capsys, size):
    side = _preprocess_8x8(tmp_path)
    blob = bytearray(side.read_bytes())
    # the LM container starts at byte 5; width and height follow its
    # two magic bytes and the alphabet byte
    blob[8:16] = size.to_bytes(4, "big") * 2
    side.write_bytes(bytes(blob))
    assert _restore(tmp_path, side) == 2
    assert "does not match image shape" in capsys.readouterr().err


def test_extract_of_damaged_image_exits_4(tmp_path, capsys):
    cover = tmp_path / "c.pgm"
    save_pgm(cover, np.full((32, 32), 128, dtype=np.uint8))
    _, marked = _embed(tmp_path, cover, payload=b"z")
    img = load_pgm(marked)
    assert img[0, 0] == 129
    img[0, 0] = 128   # clears the leading header bit
    save_pgm(marked, img)
    rc = main(["extract", str(marked), "--payload-out", str(tmp_path / "o.bin"),
               "--out", str(tmp_path / "r.pgm")])
    assert rc == 4
    assert "magic" in capsys.readouterr().err


def test_extract_decodes_a_version_1_frame_only_with_legacy_v1(tmp_path, capsys):
    marked = pathlib.Path(__file__).parent / "golden" / "marked_v1_32x32.pgm"
    argv = ["extract", str(marked), "--payload-out", str(tmp_path / "o.bin"),
            "--out", str(tmp_path / "r.pgm")]
    assert main(argv) == 4
    assert "--legacy-v1" in capsys.readouterr().err
    assert not (tmp_path / "r.pgm").exists()
    assert main(argv + ["--legacy-v1"]) == 0
    assert (tmp_path / "r.pgm").exists()


def test_capacity_exit_code(tmp_path):
    cover = _write_cover(tmp_path, h=8, w=8)
    pay = tmp_path / "big.bin"
    pay.write_bytes(bytes(4096))
    rc = main(["embed", str(cover), "--payload", str(pay),
               "--out", str(tmp_path / "m.pgm"), "--t-even", "1", "--t-odd", "4"])
    assert rc == 3


def test_missing_file_exit_code(tmp_path):
    rc = main(["extract", str(tmp_path / "nope.pgm"),
               "--payload-out", str(tmp_path / "o.bin"), "--out", str(tmp_path / "r.pgm")])
    assert rc == 5


def test_malformed_pgm_exit_code(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"not a pgm at all")
    rc = main(["extract", str(bad), "--payload-out", str(tmp_path / "o.bin"),
               "--out", str(tmp_path / "r.pgm")])
    assert rc == 2


def test_missing_thresholds_is_a_usage_error(tmp_path):
    cover = _write_cover(tmp_path)
    pay = tmp_path / "p.bin"
    pay.write_bytes(b"x")
    with pytest.raises(SystemExit) as exc:
        main(["embed", str(cover), "--payload", str(pay), "--out", str(tmp_path / "m.pgm")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, picker", [("embed", "--auto"), ("analyze", "--sweep")])
@pytest.mark.parametrize("given", [("--t-even", "3"), ("--t-odd", "3")])
def test_threshold_options_beside_the_picking_option_are_a_usage_error(
        tmp_path, capsys, command, picker, given):
    cover = _write_cover(tmp_path)
    pay = tmp_path / "p.bin"
    pay.write_bytes(b"x")
    if command == "embed":
        argv = ["embed", str(cover), "--payload", str(pay), "--out", str(tmp_path / "m.pgm")]
    else:
        argv = ["analyze", str(tmp_path), "--report", str(tmp_path / "r.csv")]
    with pytest.raises(SystemExit) as exc:
        main([*argv, picker, "--t-max", "2", *given])
    assert exc.value.code == 2
    assert "takes no --t-even or --t-odd" in capsys.readouterr().err
    assert not (tmp_path / "m.pgm").exists() and not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command, picker", [("embed", "--auto"), ("analyze", "--sweep")])
def test_t_max_without_the_picking_option_is_a_usage_error(tmp_path, capsys, command, picker):
    cover = _write_cover(tmp_path)
    pay = tmp_path / "p.bin"
    pay.write_bytes(b"x")
    if command == "embed":
        argv = ["embed", str(cover), "--payload", str(pay), "--out", str(tmp_path / "m.pgm")]
    else:
        argv = ["analyze", str(tmp_path), "--report", str(tmp_path / "r.csv")]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--t-even", "1", "--t-odd", "4", "--t-max", "3"])
    assert exc.value.code == 2
    assert f"{command} --t-max needs {picker}" in capsys.readouterr().err
    assert not (tmp_path / "m.pgm").exists() and not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("options", [
    ("analyze", "--t-even", "0", "--t-odd", "4"),
    ("analyze", "--sweep", "--t-max", "0"),
    ("analyze", "--sweep", "--t-max", "130"),
    ("embed", "--auto", "--t-max", "128"),
], ids=" ".join)
def test_invalid_threshold_options_fail_before_any_file_is_read(tmp_path, capsys, options):
    command, *given = options
    cover = _write_cover(tmp_path)
    _write_cover(tmp_path, name="second.pgm", seed=31)
    pay = tmp_path / "p.bin"
    pay.write_bytes(b"x")
    if command == "embed":
        argv = ["embed", str(cover), "--payload", str(pay), "--out", str(tmp_path / "m.pgm")]
    else:
        argv = ["analyze", str(tmp_path), "--report", str(tmp_path / "r.csv")]
    with pytest.raises(SystemExit) as exc:
        main([*argv, *given])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "must be in [1, 127]" in err
    assert "skipping" not in err
    assert not (tmp_path / "m.pgm").exists() and not (tmp_path / "r.csv").exists()


def test_analyze_sweep_defaults_to_t_max_16(tmp_path):
    save_pgm(tmp_path / "z.pgm", np.zeros((8, 8), dtype=np.uint8))
    report = tmp_path / "r.csv"
    rc = main(["analyze", str(tmp_path), "--report", str(report), "--sweep"])
    assert rc == 0
    with open(report, newline="") as fh:
        cells = {(r["t_even"], r["t_odd"]) for r in csv.DictReader(fh)}
    assert cells == {(str(e), str(o)) for e in range(1, 17) for o in range(1, 17)}


def test_analyze_has_no_flavor_option(tmp_path):
    save_pgm(tmp_path / "a.pgm", smooth_image(31, 16, 16))
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(tmp_path), "--report", str(tmp_path / "r.csv"),
              "--t-even", "1", "--t-odd", "4", "--flavor", "P2"])
    assert exc.value.code == 2


def test_gen_fixtures_writes_corpus(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = main(["gen-fixtures", str(out)])
    assert rc == 0
    assert "wrote 76 images" in capsys.readouterr().out
    assert (out / "manifest.csv").exists()
    assert len(list(out.glob("*.pgm"))) == 76


def test_gen_fixtures_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = main(["gen-fixtures", str(out), "--seed", "-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be in [0, ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_analyze_fixed_cell_report(tmp_path):
    d = tmp_path / "imgs"
    d.mkdir()
    save_pgm(d / "a.pgm", smooth_image(31, 32, 32))
    save_pgm(d / "b.pgm", np.zeros((16, 16), dtype=np.uint8))
    report = tmp_path / "report.csv"
    mirror = tmp_path / "report.json"
    rc = main(["analyze", str(d), "--report", str(report), "--json", str(mirror),
               "--t-even", "1", "--t-odd", "4"])
    assert rc == 0
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["image"] for r in rows] == ["a.pgm", "b.pgm", "__mean__"]
    assert list(rows[0].keys()) == _REPORT_FIELDS
    assert rows[0]["r0_pct"] == "NA"          # smooth cover has no boundary pixels
    assert rows[1]["boundary_before"] == "256"
    assert rows[1]["r0_pct"] == "0.0000"
    assert rows[0]["psnr_db"] not in ("NA", "inf")
    data = json.loads(mirror.read_text())
    assert [r["image"] for r in data] == ["a.pgm", "b.pgm", "__mean__"]


def test_analyze_sweep_marks_selection(tmp_path):
    d = tmp_path / "imgs"
    d.mkdir()
    save_pgm(d / "z.pgm", np.zeros((24, 24), dtype=np.uint8))
    report = tmp_path / "report.csv"
    rc = main(["analyze", str(d), "--report", str(report), "--sweep", "--t-max", "3"])
    assert rc == 0
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    image_rows = [r for r in rows if r["image"] == "z.pgm"]
    assert len(image_rows) == 9
    assert sum(int(r["selected"]) for r in image_rows) == 1
    mean_rows = [r for r in rows if r["image"] == "__mean__"]
    assert len(mean_rows) == 9


def test_analyze_skips_unreadable_and_flags_exit(tmp_path, capsys):
    d = tmp_path / "imgs"
    d.mkdir()
    save_pgm(d / "good.pgm", smooth_image(32, 24, 24))
    (d / "broken.pgm").write_bytes(b"P5\n9 9\n255\nshort")
    report = tmp_path / "report.csv"
    rc = main(["analyze", str(d), "--report", str(report),
               "--t-even", "1", "--t-odd", "1"])
    assert rc == 5
    assert "skipping broken.pgm" in capsys.readouterr().err
    with open(report, newline="") as fh:
        names = [r["image"] for r in csv.DictReader(fh)]
    assert names == ["good.pgm", "__mean__"]


def test_analyze_empty_dir_is_validation_error(tmp_path):
    d = tmp_path / "imgs"
    d.mkdir()
    rc = main(["analyze", str(d), "--report", str(tmp_path / "r.csv"),
               "--t-even", "1", "--t-odd", "1"])
    assert rc == 2


def test_analyze_optional_artifacts(tmp_path):
    d = tmp_path / "imgs"
    d.mkdir()
    img = np.full((16, 16), 128, dtype=np.uint8)
    img[4:12, 4:12] = 0
    save_pgm(d / "blob.pgm", img)
    maps = tmp_path / "maps"
    hists = tmp_path / "hists"
    rc = main(["analyze", str(d), "--report", str(tmp_path / "r.csv"),
               "--t-even", "1", "--t-odd", "4",
               "--maps", str(maps), "--joint-hist", str(hists)])
    assert rc == 0
    vis = load_pgm(maps / "blob_map.pgm")
    assert set(np.unique(vis)) <= {0, 255}
    with open(hists / "blob_joint.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["value", "prediction", "count"]
    assert sum(int(r[2]) for r in rows[1:]) == img.size


def test_p2_output_flavor(tmp_path):
    cover = _write_cover(tmp_path)
    _, marked = _embed(tmp_path, cover, payload=b"q", extra=("--flavor", "P2"))
    assert marked.read_bytes().startswith(b"P2\n")
    rc = main(["extract", str(marked), "--payload-out", str(tmp_path / "o.bin"),
               "--out", str(tmp_path / "r.pgm")])
    assert rc == 0
    assert (tmp_path / "o.bin").read_bytes() == b"q"


def test_golden_corpus_report(tmp_path, corpus_dir):
    """Regenerating the fixed-cell corpus report reproduces the checked-in CSV."""
    report = tmp_path / "report.csv"
    rc = main(["analyze", str(corpus_dir), "--report", str(report),
               "--t-even", "1", "--t-odd", "4"])
    assert rc == 0
    golden = pathlib.Path(__file__).parent / "golden" / "corpus_report.csv"
    assert report.read_bytes() == golden.read_bytes()


def test_numpy_chain_gives_the_golden_report_and_the_same_round_trips(
        tmp_path, corpus_dir, monkeypatch):
    """forward and inverse through preprocess's NumPy chain, and the
    embedder's NumPy bodies, forced as the loader falls back without a
    compiler, write the golden corpus report and embed and extract the same
    files as through the kernel, where it loaded."""
    covers = [_write_cover(tmp_path, "smooth.pgm")]
    for name, cover in [("dark.pgm", _pooled_field(default_rng(113), 64, 64, 40, 45)),
                        ("blobs.pgm", _blobs(default_rng(114), 96, 80, 0.45))]:
        save_pgm(tmp_path / name, cover)
        covers.append(tmp_path / name)

    def round_trips(out):
        """The marked image and payload files of each cover, the dark and
        blobs ones embedded with an --auto pick."""
        out.mkdir()
        (out / "payload.bin").write_bytes(b"q")
        files = []
        for k, cover in enumerate(covers):
            cell = ["--auto", "--t-max", "4"] if k else ["--t-even", "1", "--t-odd", "4"]
            marked, restored, payload = out / f"{k}.marked.pgm", out / f"{k}.pgm", out / f"{k}.bin"
            assert main(["embed", str(cover), "--payload", str(out / "payload.bin"),
                         "--out", str(marked), *cell]) == 0
            assert main(["extract", str(marked), "--payload-out", str(payload),
                         "--out", str(restored)]) == 0
            assert restored.read_bytes() == cover.read_bytes()
            files += [marked.read_bytes(), payload.read_bytes()]
        return files

    expected = round_trips(tmp_path / "default")
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    fallback = codec._load_coder(str(cache))
    assert fallback[3:] == (None,) * 5
    for name, value in zip(("_encode", "_decode", "_pass_step", "_forward", "_inverse",
                            "_capacity", "_embed", "_extract"), fallback):
        monkeypatch.setattr(codec, name, value)
    assert round_trips(tmp_path / "numpy") == expected
    report = tmp_path / "report.csv"
    assert main(["analyze", str(corpus_dir), "--report", str(report),
                 "--t-even", "1", "--t-odd", "4"]) == 0
    golden = pathlib.Path(__file__).parent / "golden" / "corpus_report.csv"
    assert report.read_bytes() == golden.read_bytes()
