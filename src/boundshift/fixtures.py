"""Deterministic synthetic test corpus with a boundary-census manifest.

Kinds cover the interesting regimes: constants, gradients, clustered 0/255
blobs (boundary mass in large connected pieces), pooled dark/bright fields
(low-light-style images whose clipped tails form 0 or 255 pools), scattered
0/255 salt (worst case: isolated boundary pixels), plain noise, and tiny
grids down to 2x2. The blob/dark/bright/salt kinds are flagged
boundary_heavy in the manifest. Same seed, same bytes, every run.
"""

import csv
import os

import numpy as np

from .imagecore import as_path, check_param, count_boundary_pixels
from .pgm import write_pgm

MANIFEST_NAME = "manifest.csv"
MANIFEST_FIELDS = ["file", "kind", "width", "height", "boundary_t1", "boundary_heavy"]
_HEAVY_KINDS = ("blobs", "dark", "bright", "salt")


def _box_blur(field, k):
    """k x k mean filter (k odd) with edge-clamped padding, via cumulative sums."""
    pad = k // 2
    p = np.pad(field, pad, mode="edge").astype(np.float64)
    c = np.cumsum(p, axis=0)
    c = np.vstack([np.zeros((1, c.shape[1])), c])
    v = (c[k:, :] - c[:-k, :]) / k
    c2 = np.cumsum(v, axis=1)
    c2 = np.hstack([np.zeros((c2.shape[0], 1)), c2])
    return (c2[:, k:] - c2[:, :-k]) / k


def _constant(value, h, w):
    return np.full((h, w), value, dtype=np.uint8)


def _gradient(h, w, lo, hi, axis):
    if axis == "h":
        row = np.rint(np.linspace(lo, hi, w))
        grid = np.tile(row, (h, 1))
    elif axis == "v":
        col = np.rint(np.linspace(lo, hi, h))
        grid = np.tile(col[:, None], (1, w))
    else:
        ii = np.arange(h)[:, None] + np.arange(w)[None, :]
        grid = np.rint(lo + (hi - lo) * ii / max(1, ii.max()))
    return grid.astype(np.uint8)


def _blobs(rng, h, w, target_frac):
    """Disks of exact 0/255 on a mid ground until the boundary fraction
    reaches target_frac (so every blob image clears the >30% mark)."""
    img = np.full((h, w), int(rng.integers(96, 161)), dtype=np.uint8)
    yy = np.arange(h)[:, None]
    xx = np.arange(w)[None, :]
    lim = min(h, w)
    for _ in range(400):
        r = int(rng.integers(max(2, lim // 10), max(3, lim // 3)))
        cy = int(rng.integers(0, h))
        cx = int(rng.integers(0, w))
        value = 0 if rng.random() < 0.5 else 255
        img[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = value
        if ((img == 0) | (img == 255)).mean() >= target_frac:
            break
    return img


def _pooled_field(rng, h, w, mean, sigma):
    """Smoothed coarse Gaussian field; the clipped tail forms pools of 0."""
    cell = 8
    coarse = rng.normal(mean, sigma, ((h + cell - 1) // cell + 1, (w + cell - 1) // cell + 1))
    field = np.kron(coarse, np.ones((cell, cell)))[:h, :w]
    field = _box_blur(field, 5)
    return np.clip(np.rint(field), 0, 255).astype(np.uint8)


def _dark(rng, h, w):
    for _ in range(50):
        img = _pooled_field(rng, h, w, float(rng.uniform(3, 10)), float(rng.uniform(8, 16)))
        if (img == 0).mean() >= 0.05:
            return img
    return img


def _salt(rng, h, w):
    base = _box_blur(rng.uniform(70, 190, (h, w)), 5)
    img = np.clip(np.rint(base), 30, 225).astype(np.uint8)
    density = float(rng.uniform(0.02, 0.06))
    k = max(1, int(density * h * w))
    pos = rng.choice(h * w, size=k, replace=False)
    flat = img.ravel()
    flat[pos[: k // 2]] = 0
    flat[pos[k // 2:]] = 255
    return flat.reshape(h, w)


def _build_images(seed):
    rng = np.random.default_rng(seed)
    images = []

    def add(kind, img):
        images.append((kind, img))

    add("constant", _constant(0, 32, 32))
    add("constant", _constant(255, 32, 32))
    add("constant", _constant(128, 64, 64))
    add("constant", _constant(200, 48, 48))
    add("constant", _constant(128, 128, 128))

    add("gradient", _gradient(64, 64, 0, 255, "h"))
    add("gradient", _gradient(64, 64, 255, 0, "v"))
    add("gradient", _gradient(64, 64, 0, 255, "d"))
    add("gradient", _gradient(32, 32, 100, 160, "h"))
    add("gradient", _gradient(128, 128, 0, 255, "v"))
    add("gradient", _gradient(8, 8, 0, 255, "h"))

    for _ in range(28):
        add("blobs", _blobs(rng, 64, 64, float(rng.uniform(0.35, 0.6))))
    add("blobs", _blobs(rng, 128, 128, 0.45))
    add("blobs", _blobs(rng, 256, 256, 0.45))

    for _ in range(13):
        add("dark", _dark(rng, 64, 64))
    add("dark", _dark(rng, 128, 128))
    add("dark", _dark(rng, 128, 128))

    for _ in range(5):
        add("bright", 255 - _dark(rng, 64, 64))

    for _ in range(5):
        add("salt", _salt(rng, 64, 64))

    add("noise", rng.integers(0, 256, (64, 64)).astype(np.uint8))
    add("noise", rng.integers(0, 256, (64, 64)).astype(np.uint8))
    add("noise", rng.integers(0, 256, (32, 32)).astype(np.uint8))
    add("noise", rng.integers(0, 256, (128, 128)).astype(np.uint8))

    add("tiny", _constant(0, 2, 2))
    add("tiny", rng.integers(0, 256, (2, 2)).astype(np.uint8))
    add("tiny", _constant(0, 3, 3))
    add("tiny", _constant(255, 3, 3))
    add("tiny", rng.integers(0, 256, (4, 5)).astype(np.uint8))
    add("tiny", _gradient(8, 8, 20, 235, "v"))

    return images


def generate_corpus(out_dir, seed=7):
    """Write the corpus plus manifest.csv into out_dir; returns manifest rows.
    Both arguments are checked before anything is created."""
    out_dir = as_path(out_dir)
    seed = check_param("seed", seed, 0, 2**64 - 1)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    counters = {}
    for kind, img in _build_images(seed):
        n = counters.get(kind, 0)
        counters[kind] = n + 1
        h, w = img.shape
        name = f"{kind}_{n:03d}_{w}x{h}.pgm"
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(write_pgm(img, "P5"))
        rows.append(
            {
                "file": name,
                "kind": kind,
                "width": w,
                "height": h,
                "boundary_t1": count_boundary_pixels(img, 1),
                "boundary_heavy": int(kind in _HEAVY_KINDS),
            }
        )
    rows.sort(key=lambda r: r["file"])
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    return rows
