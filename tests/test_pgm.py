import numpy as np
import pytest
from numpy.random import default_rng

from boundshift import PgmFormatError, load_pgm, read_pgm, save_pgm, write_pgm


def test_write_p5_canonical_bytes():
    img = np.array([[0, 128, 255], [1, 2, 3]], dtype=np.uint8)
    out = write_pgm(img)
    assert out == b"P5\n3 2\n255\n" + bytes([0, 128, 255, 1, 2, 3])


def test_write_p2_one_row_per_line():
    img = np.array([[0, 10], [255, 7]], dtype=np.uint8)
    assert write_pgm(img, "P2") == b"P2\n2 2\n255\n0 10\n255 7\n"


def test_write_read_write_is_byte_stable():
    img = default_rng(0).integers(0, 256, (9, 13), dtype=np.int64).astype(np.uint8)
    for flavor in ("P5", "P2"):
        data = write_pgm(img, flavor)
        again = read_pgm(data)
        assert np.array_equal(again, img)
        assert write_pgm(again, flavor) == data


def test_p5_and_p2_agree():
    img = default_rng(1).integers(0, 256, (5, 4), dtype=np.int64).astype(np.uint8)
    assert np.array_equal(read_pgm(write_pgm(img, "P5")), read_pgm(write_pgm(img, "P2")))


def test_header_whitespace_and_comment_forms():
    raster = bytes([1, 2, 3, 4, 5, 6])
    variants = [
        b"P5 3 2 255 " + raster,
        b"P5\t3\r\n2\n255\n" + raster,
        b"P5\n# a comment\n3 2\n# another\n255\n" + raster,
        b"P5 # trailing comment\n3 2 255 " + raster,
        b"P5\x0b3\x0c2 # ended by a carriage return\r255\n" + raster,
    ]
    for data in variants:
        img = read_pgm(data)
        assert img.shape == (2, 3) and img.ravel().tolist() == [1, 2, 3, 4, 5, 6]


def test_p2_parses_arbitrary_separators():
    data = b"P2\n3 2 255\n1 2\t3\r\n4  5 6\n"
    assert read_pgm(data).ravel().tolist() == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("raster, values", [
    (b"0007 255 012 0\n", [7, 255, 12, 0]),     # leading zeros: sample by sample
    (b"1\x002 3 4", None),                      # a NUL byte is a non-numeric token
    (b"9 99 999 256", None),                     # above maxval
    (b"10 0010 1 2", [10, 10, 1, 2]),            # four digits cut to three would be 1
])
def test_p2_fast_and_per_sample_readers_agree(raster, values):
    data = b"P2\n2 2\n255\n" + raster
    if values is None:
        with pytest.raises(PgmFormatError):
            read_pgm(data)
    else:
        assert read_pgm(data).ravel().tolist() == values


def test_maxval_below_255_accepted_when_pixels_fit():
    img = read_pgm(b"P5\n2 1\n15\n" + bytes([0, 15]))
    assert img.tolist() == [[0, 15]]


@pytest.mark.parametrize(
    "data,offset",
    [
        (b"", 0),
        (b"P", 0),
        (b"P3\n1 1\n255\n0", 0),                       # wrong flavor
        (b"P5\nab 2\n255\n" + bytes(4), 3),            # non-numeric width
        (b"P5\n2 2\n65535\n" + bytes(4), 7),           # 16-bit maxval unsupported
        (b"P5\n0 2\n255\n", 3),                        # zero width
        (b"P5\n2 0\n255\n", 5),                        # zero height
        pytest.param(b"P5\n2147483648 2\n255\n", 3, id="width-of-10-digits-above-2**31-1"),
        (b"P5\n2 2\n255\n" + bytes(3), 14),            # truncated raster
        (b"P5\n2 2\n255\n" + bytes(5), 15),            # trailing byte
        (b"P5\n2 2\n255", 10),                         # missing raster separator
        (b"P5\n2 2\n255# c\n" + bytes(4), 10),         # comment where raster should start
        (b"P2\n2 2\n255\n1 2 3", 16),                  # truncated samples
        (b"P2\n4 4\n255\n1 2", 14),                    # fewer bytes than samples
        (b"P2\n2 1\n255\n1 x", 13),                    # non-numeric sample
        (b"P2\n2 1\n10\n1 11", 12),                    # sample above maxval
        (b"P2\n2 1\n255\n1 2 3", 15),                  # trailing sample
        pytest.param(b"P5\n" + b"9" * 5000 + b" 2\n255\n\x00", 3, id="width-of-5000-digits"),
        pytest.param(b"P2\n2 1\n10\n1 " + b"9" * 5000, 12, id="sample-of-5000-digits"),
        (b"P5\n2\x1c2\n255\n" + bytes(4), 3),          # \x1c is no separator
        (b"P2\n2 1\n255\n1\xa02", 11),                  # nor is \xa0
        pytest.param(b"P2\n1 1\n255\n" + b"x" * 10**6, 11, id="non-numeric-sample-of-1MB"),
    ],
)
def test_decode_errors_report_byte_offsets(data, offset):
    with pytest.raises(PgmFormatError) as exc:
        read_pgm(data)
    assert exc.value.offset == offset
    assert f"byte offset {offset}" in str(exc.value)
    assert len(str(exc.value)) < 200


def test_p5_pixel_above_maxval_offset_points_at_pixel():
    data = b"P5\n2 2\n10\n" + bytes([1, 2, 11, 3])
    with pytest.raises(PgmFormatError) as exc:
        read_pgm(data)
    assert exc.value.offset == len(b"P5\n2 2\n10\n") + 2


def test_file_round_trip(tmp_path):
    img = default_rng(2).integers(0, 256, (6, 6), dtype=np.int64).astype(np.uint8)
    p = tmp_path / "img.pgm"
    save_pgm(p, img)
    assert np.array_equal(load_pgm(p), img)
    save_pgm(p, img, "P2")
    assert np.array_equal(load_pgm(p), img)


def test_write_rejects_unknown_flavor():
    with pytest.raises(PgmFormatError):
        write_pgm(np.zeros((2, 2), dtype=np.uint8), "P4")
