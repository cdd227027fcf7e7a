"""Strict PGM (P5 binary, P2 ASCII) decoding and canonical encoding.

Decode errors always carry the byte offset of the offending data. The
encoder emits the canonical header form ``P5\\n<w> <h>\\n255\\n`` so that
write -> read -> write is byte-identical.
"""

import re

import numpy as np

from .errors import PgmFormatError
from .imagecore import as_gray

# In a bytes pattern \s is exactly PGM's whitespace, b" \t\n\r\x0b\x0c". A
# header token follows whitespace and '#' comments (running to the end of
# the line); a P2 sample follows whitespace alone. The captured token is
# empty only at the end of the data.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")
_SAMPLE = re.compile(rb"\s*(\S*)")
# The largest number a header or sample token may hold.
_MAX_INT = 2**31 - 1


def _int_token(pattern, data, pos, what):
    m = pattern.match(data, pos)
    tok, start = m.group(1), m.start(1)
    if not tok:
        raise PgmFormatError(f"unexpected end of data while reading {what}", offset=len(data))
    if not tok.isdigit():
        more = f"... of {len(tok)} bytes" if len(tok) > 16 else ""
        raise PgmFormatError(f"non-numeric {what} token {tok[:16]!r}{more}", offset=start)
    # rejected unconverted: int() refuses strings of more than 4300 digits,
    # leading zeros included
    digits = tok.lstrip(b"0")
    if len(digits) > len(str(_MAX_INT)):
        raise PgmFormatError(f"{what} token of {len(tok)} digits exceeds {_MAX_INT}",
                             offset=start)
    value = int(digits or b"0")
    if value > _MAX_INT:
        raise PgmFormatError(f"{what} {value} exceeds {_MAX_INT}", offset=start)
    return value, start, m.end()


def read_pgm(data):
    """Decode a PGM byte stream (P5 or P2) into a 2-D uint8 image."""
    data = bytes(data)
    if len(data) < 2 or data[:1] != b"P":
        raise PgmFormatError("not a PGM stream (bad magic)", offset=0)
    magic = data[:2]
    if magic not in (b"P5", b"P2"):
        raise PgmFormatError(f"unsupported PGM flavor {magic!r}", offset=0)
    pos = 2

    width, w_off, pos = _int_token(_HEADER_TOKEN, data, pos, "width")
    if width < 1:
        raise PgmFormatError("width must be positive", offset=w_off)
    height, h_off, pos = _int_token(_HEADER_TOKEN, data, pos, "height")
    if height < 1:
        raise PgmFormatError("height must be positive", offset=h_off)
    maxval, m_off, pos = _int_token(_HEADER_TOKEN, data, pos, "maxval")
    if not 1 <= maxval <= 255:
        raise PgmFormatError(f"maxval {maxval} unsupported (need 1..255)", offset=m_off)

    count = width * height
    if magic == b"P5":
        if not data[pos:pos + 1].isspace():
            raise PgmFormatError("maxval must be followed by one whitespace byte", offset=pos)
        pos += 1
        raster = data[pos:pos + count]
        if len(raster) < count:
            raise PgmFormatError(
                f"truncated raster: expected {count} bytes, found {len(raster)}",
                offset=len(data),
            )
        if len(data) > pos + count:
            raise PgmFormatError("trailing data after raster", offset=pos + count)
        pixels = np.frombuffer(raster, dtype=np.uint8)
        if maxval < 255:
            over = np.flatnonzero(pixels > maxval)
            if over.size:
                raise PgmFormatError(
                    f"pixel value {pixels[over[0]]} exceeds maxval {maxval}",
                    offset=pos + int(over[0]),
                )
        return pixels.reshape(height, width).copy()

    # P2: whitespace-separated ASCII sample values. Each needs at least one
    # byte plus a separator, which bounds the plausible sample count.
    if count > len(data) - pos + 1:
        raise PgmFormatError(
            f"truncated raster: expected {count} samples", offset=len(data)
        )
    # One pass reads samples of at most three digits: bytes.split() splits
    # at exactly PGM's whitespace, a token takes three bytes, zero-padded on
    # the right, and a longer one, cut short, leaves fewer digits than the
    # raster holds. Any other raster goes to the per-sample reader, which
    # finds the first fault or reads samples written with leading zeros.
    tokens = data[pos:].split()
    joined = b"".join(tokens)
    digits = np.array(tokens, dtype="S3").view(np.uint8).reshape(-1, 3)
    values = np.zeros(len(tokens), dtype=np.int16)
    for column in digits.T:
        values = np.where(column > 0, 10 * values + column - 48, values)
    if (len(tokens) == count and joined.isdigit() and np.count_nonzero(digits) == len(joined)
            and values.max() <= maxval):
        return values.astype(np.uint8).reshape(height, width)
    values = np.empty(count, dtype=np.uint8)
    for k in range(count):
        v, v_off, pos = _int_token(_SAMPLE, data, pos, "raster")
        if v > maxval:
            raise PgmFormatError(f"pixel value {v} exceeds maxval {maxval}", offset=v_off)
        values[k] = v
    tail = _SAMPLE.match(data, pos)
    if tail.group(1):
        raise PgmFormatError("trailing data after raster", offset=tail.start(1))
    return values.reshape(height, width)


def write_pgm(img, flavor="P5"):
    """Encode an image in the canonical header form; P2 emits one row per line."""
    a = as_gray(img)
    if flavor not in ("P5", "P2"):
        raise PgmFormatError(f"unsupported PGM flavor {flavor!r}")
    h, w = a.shape
    header = f"{flavor}\n{w} {h}\n255\n".encode("ascii")
    if flavor == "P5":
        return header + a.tobytes()
    body = "\n".join(" ".join(str(v) for v in row) for row in a.tolist())
    return header + body.encode("ascii") + b"\n"


def load_pgm(path):
    """Read a PGM file from disk."""
    with open(path, "rb") as fh:
        return read_pgm(fh.read())


def save_pgm(path, img, flavor="P5"):
    """Write an image to disk as PGM."""
    data = write_pgm(img, flavor)
    with open(path, "wb") as fh:
        fh.write(data)
