"""The three benchmark workloads: seeded inputs, one op each, and its checks.

Covers are synthesized here with a few lines of numpy that follow the
``boundshift.fixtures`` recipes, so renaming the library's private
helpers cannot break the benchmark. Each op times only the calls into
boundshift; its output checks run after the clock has stopped.
"""

import contextlib
import hashlib
import io
import os
import re
import time

import numpy as np

PARAMS = (1, 1, 4)  # (shift, t_even, t_odd) of roundtrip-512 and corpus-analyze


def _box_blur(field, k):
    pad = k // 2
    p = np.pad(field, pad, mode="edge").astype(np.float64)
    c = np.vstack([np.zeros((1, p.shape[1])), np.cumsum(p, axis=0)])
    v = (c[k:, :] - c[:-k, :]) / k
    c2 = np.hstack([np.zeros((v.shape[0], 1)), np.cumsum(v, axis=1)])
    return (c2[:, k:] - c2[:, :-k]) / k


def pooled_field(rng, n, mean, sigma):
    """Smoothed coarse Gaussian field; a dark mean leaves pools of 0."""
    coarse = rng.normal(mean, sigma, (n // 8 + 1, n // 8 + 1))
    field = _box_blur(np.kron(coarse, np.ones((8, 8)))[:n, :n], 5)
    return np.clip(np.rint(field), 0, 255).astype(np.uint8)


def blobs(rng, n, target_frac):
    """Disks of exact 0/255 on a mid-grey ground until target_frac of the
    pixels are boundary-valued."""
    img = np.full((n, n), int(rng.integers(96, 161)), dtype=np.uint8)
    yy = np.arange(n)[:, None]
    xx = np.arange(n)[None, :]
    for _ in range(400):
        r = int(rng.integers(max(2, n // 10), max(3, n // 3)))
        cy, cx = int(rng.integers(0, n)), int(rng.integers(0, n))
        img[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = 0 if rng.random() < 0.5 else 255
        if ((img == 0) | (img == 255)).mean() >= target_frac:
            break
    return img


def smooth_grey(rng, n):
    """Smooth mid-grey field with no boundary pixel at shift 1."""
    return np.clip(pooled_field(rng, n, 128, 24), 16, 239)


def pgm_bytes(img):
    """The canonical P5 encoding boundshift writes, for digests and files."""
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + np.ascontiguousarray(img).tobytes()


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class OpResult:
    """Phase times (ms) of one op, the cover pixels it completed, its mean
    net rate, and the output checks it failed."""

    def __init__(self):
        self.phases = {}
        self.pixels = 0
        self.net_bpp = 0.0
        self.failures = []


def _check_output(result, seen, key, value, pinned):
    """Equal to the pinned value at the default seed (pinned is not None);
    elsewhere equal to what the first op produced."""
    first = seen.setdefault(key, value)
    expected = first if pinned is None else pinned
    if value != expected:
        result.failures.append(f"{key}: {value[:16]} != expected {expected[:16]}")


class Roundtrip:
    """embed_full of a maximum-size payload then extract_full, cycling three
    512x512 covers: a dark pooled field, 0/255 blobs, a smooth grey field."""

    name = "roundtrip-512"
    cycle = 3
    scale_ops = True

    def __init__(self, program, seed, work_dir, smoke, reference):
        n = 64 if smoke else 512
        rng = np.random.default_rng(seed)
        self.program = program
        self.params = program.preprocess.PreprocessParams(*PARAMS)
        self.covers = [pooled_field(rng, n, 40, 45), blobs(rng, n, 0.45), smooth_grey(rng, n)]
        self.payloads = [
            rng.integers(0, 2, program.pipeline.max_payload(c, self.params), dtype=np.uint8)
            for c in self.covers
        ]
        self.reference = reference
        self.seen = {}
        self.fault = False

    def op(self, k, warm=False):
        i = k % self.cycle
        cover, payload = self.covers[i], self.payloads[i]
        pipeline = self.program.pipeline
        r = OpResult()
        t0 = time.perf_counter()
        res = pipeline.embed_full(cover, payload, self.params)
        t1 = time.perf_counter()
        bits, recovered = pipeline.extract_full(res.marked)
        t2 = time.perf_counter()
        r.phases = {"embed": (t1 - t0) * 1e3, "extract": (t2 - t1) * 1e3}
        r.pixels = cover.size
        r.net_bpp = res.r_emb
        if self.fault:
            recovered = recovered.copy()
            recovered[0, 0] ^= 1
        if not np.array_equal(bits, payload):
            r.failures.append(f"cover {i}: extracted payload differs")
        if recovered.shape != cover.shape or not np.array_equal(recovered, cover):
            r.failures.append(f"cover {i}: recovered cover differs")
        pinned = None if self.reference is None else self.reference["marked_sha256"][i]
        _check_output(r, self.seen, i, sha256(pgm_bytes(res.marked)), pinned)
        return r

    def describe(self):
        return {"marked_sha256": [self.seen.get(i) for i in range(self.cycle)]}


def _run_cli(program, argv):
    """boundshift.cli.main in-process; returns (exit code, stdout, stderr, ms)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = program.cli.main(argv)
        t1 = time.perf_counter()
    return rc, out.getvalue(), err.getvalue(), (t1 - t0) * 1e3


_AUTO_PICK = re.compile(r"auto-selected t_even=(\d+) t_odd=(\d+)")
_NET_RATE = re.compile(r"net rate ([0-9.]+) bpp")


class Auto:
    """`boundshift embed --auto` (t-max 16: 256 cells) then `extract`, on a
    128x128 dark cover and then a 128x128 blobs cover."""

    name = "auto-128"
    cycle = 1
    # An op lasts ~16 s, longer than one of the machine's speed regimes, so
    # it averages them itself; a kernel run beside it would only add noise.
    scale_ops = False

    def __init__(self, program, seed, work_dir, smoke, reference):
        n = 64 if smoke else 128
        rng = np.random.default_rng(seed)
        self.program = program
        self.smoke = smoke
        self.reference = reference
        self.seen = {}
        self.fault = False
        params = program.preprocess.PreprocessParams(1, 2, 2)
        self.cases = []
        for label, cover in (("dark", pooled_field(rng, n, 40, 45)), ("blobs", blobs(rng, n, 0.45))):
            # The sweep picks the cell of highest capacity, so a payload that
            # fits cell (2, 2), which the warm-up's 2x2 grid holds too, fits.
            nbytes = program.pipeline.max_payload(cover, params) // 8
            payload = rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()
            paths = {key: os.path.join(work_dir, f"auto_{label}_{key}")
                     for key in ("cover.pgm", "payload.bin", "marked.pgm", "out.bin", "rec.pgm")}
            cover_bytes = pgm_bytes(cover)
            with open(paths["cover.pgm"], "wb") as fh:
                fh.write(cover_bytes)
            with open(paths["payload.bin"], "wb") as fh:
                fh.write(payload)
            self.cases.append((label, cover.size, cover_bytes, payload, paths))

    def op(self, k, warm=False):
        r = OpResult()
        r.phases = {"embed": 0.0, "extract": 0.0}
        rates = []
        # The warm-up sweeps a 2x2 grid: every code path of the op at 1/64 of
        # the default 16x16 sweep's cost.
        t_max = ["--t-max", "2"] if warm or self.smoke else []
        for label, size, cover_bytes, payload, p in self.cases:
            rc, out, err, ms = _run_cli(self.program, [
                "embed", p["cover.pgm"], "--payload", p["payload.bin"],
                "--out", p["marked.pgm"], "--auto", *t_max])
            r.phases["embed"] += ms
            if rc != 0:
                r.failures.append(f"{label}: embed exit {rc}: {err.strip()}")
                continue
            rc, _, err, ms = _run_cli(self.program, [
                "extract", p["marked.pgm"], "--payload-out", p["out.bin"], "--out", p["rec.pgm"]])
            r.phases["extract"] += ms
            if rc != 0:
                r.failures.append(f"{label}: extract exit {rc}: {err.strip()}")
                continue
            r.pixels += size
            rates.append(float(_NET_RATE.search(out).group(1)))
            with open(p["out.bin"], "rb") as fh:
                if fh.read() != payload:
                    r.failures.append(f"{label}: extracted payload file differs")
            with open(p["rec.pgm"], "rb") as fh:
                recovered = fh.read()
            if self.fault:
                recovered = recovered[:-1] + bytes([recovered[-1] ^ 1])
            if recovered != cover_bytes:
                r.failures.append(f"{label}: recovered PGM differs from the cover")
            if warm:
                continue
            with open(p["marked.pgm"], "rb") as fh:
                digest = sha256(fh.read())
            pick = ",".join(_AUTO_PICK.search(out).groups())
            for key, value in (("marked_sha256", digest), ("pick", pick)):
                pinned = None if self.reference is None else self.reference[key][label]
                _check_output(r, self.seen, (key, label), value, pinned)
        r.net_bpp = sum(rates) / len(rates) if rates else 0.0
        return r

    def describe(self):
        return {key: {label: self.seen.get((key, label)) for label, *_ in self.cases}
                for key in ("marked_sha256", "pick")}


class CorpusAnalyze:
    """`boundshift analyze DIR --report R.csv --t-even 1 --t-odd 4` over the
    76-image generate_corpus set (mostly 64x64, down to 2x2)."""

    name = "corpus-analyze"
    cycle = 1
    scale_ops = True
    SMOKE_IMAGES = 8

    def __init__(self, program, seed, work_dir, smoke, reference):
        self.program = program
        self.corpus = os.path.join(work_dir, "corpus")
        rows = program.fixtures.generate_corpus(self.corpus, seed)
        if smoke:
            for row in rows[self.SMOKE_IMAGES:]:
                os.remove(os.path.join(self.corpus, row["file"]))
            rows = rows[:self.SMOKE_IMAGES]
        self.pixels = sum(int(row["width"]) * int(row["height"]) for row in rows)
        self.report = os.path.join(work_dir, "report.csv")
        self.reference = reference
        self.seen = {}

    def op(self, k, warm=False):
        r = OpResult()
        rc, _, err, ms = _run_cli(self.program, [
            "analyze", self.corpus, "--report", self.report,
            "--t-even", str(PARAMS[1]), "--t-odd", str(PARAMS[2])])
        r.phases = {"analyze": ms}
        if rc != 0:
            r.failures.append(f"analyze exit {rc}: {err.strip()}")
            return r
        r.pixels = self.pixels
        with open(self.report, "rb") as fh:
            report = fh.read()
        # The corpus mean of r_emb_bpp, from the report's __mean__ row.
        mean_row = next(line for line in report.decode("utf-8").splitlines()
                        if line.startswith("__mean__,"))
        r.net_bpp = float(mean_row.split(",")[12])
        if self.reference is not None and report != self.reference:
            r.failures.append("report differs from tests/golden/corpus_report.csv")
        _check_output(r, self.seen, "report", sha256(report), None)
        return r

    def describe(self):
        return {"report_sha256": self.seen.get("report")}


WORKLOADS = {w.name: w for w in (Roundtrip, Auto, CorpusAnalyze)}
