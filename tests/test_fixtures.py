import csv
import hashlib

import numpy as np
import pytest

from boundshift import ValidationError, count_boundary_pixels, load_pgm
from boundshift.fixtures import MANIFEST_FIELDS, MANIFEST_NAME, generate_corpus


def _dir_digest(path):
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _manifest_rows(path):
    with open(path / MANIFEST_NAME, newline="") as fh:
        return list(csv.DictReader(fh))


def test_generation_is_deterministic(tmp_path, corpus_dir):
    again = tmp_path / "again"
    generate_corpus(again)
    assert _dir_digest(again) == _dir_digest(corpus_dir)


def test_seed_changes_content(tmp_path, corpus_dir):
    other = tmp_path / "other"
    generate_corpus(other, seed=8)
    assert _dir_digest(other) != _dir_digest(corpus_dir)


def test_wrong_arguments_create_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for args in [("d", "x"), ("d", -1), ("d", True), (None,), (3,)]:
        with pytest.raises(ValidationError):
            generate_corpus(*args)
    assert list(tmp_path.iterdir()) == []


def test_manifest_inventory(corpus_dir):
    rows = _manifest_rows(corpus_dir)
    assert len(rows) == 76
    assert list(rows[0].keys()) == MANIFEST_FIELDS
    heavy = [r for r in rows if r["boundary_heavy"] == "1"]
    assert len(heavy) == 55
    kinds = {}
    for r in rows:
        kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
    assert kinds == {
        "constant": 5, "gradient": 6, "blobs": 30, "dark": 15,
        "bright": 5, "salt": 5, "noise": 4, "tiny": 6,
    }
    files = {p.name for p in corpus_dir.glob("*.pgm")}
    assert files == {r["file"] for r in rows}


def test_manifest_boundary_counts_match_recount(corpus_dir):
    for r in _manifest_rows(corpus_dir):
        img = load_pgm(corpus_dir / r["file"])
        assert img.shape == (int(r["height"]), int(r["width"]))
        assert count_boundary_pixels(img, 1) == int(r["boundary_t1"])


def test_size_envelope(corpus_dir):
    sizes = {load_pgm(p).shape for p in corpus_dir.glob("*.pgm")}
    assert (2, 2) in sizes
    assert (256, 256) in sizes


def test_blob_images_are_boundary_heavy(corpus_dir):
    rows = [r for r in _manifest_rows(corpus_dir) if r["kind"] == "blobs"]
    assert rows
    for r in rows:
        area = int(r["width"]) * int(r["height"])
        assert int(r["boundary_t1"]) > 0.3 * area, r["file"]


def test_dark_images_have_zero_mass(corpus_dir):
    rows = [r for r in _manifest_rows(corpus_dir) if r["kind"] == "dark"]
    assert rows
    for r in rows:
        img = load_pgm(corpus_dir / r["file"])
        assert (img == 0).mean() >= 0.05, r["file"]


def test_extreme_constants_present(corpus_dir):
    values = set()
    for r in _manifest_rows(corpus_dir):
        if r["kind"] == "constant":
            img = load_pgm(corpus_dir / r["file"])
            assert (img == img[0, 0]).all()
            values.add(int(img[0, 0]))
    assert {0, 255} <= values
