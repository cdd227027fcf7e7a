"""Command line front end.

Verbs: preprocess / restore (boundary clearing alone), embed / extract
(full reversible pipeline), analyze (per-image metrics, optional threshold
sweep), gen-fixtures (deterministic synthetic corpus). Exit codes: 0 ok,
2 validation, 3 capacity, 4 corruption, 5 I/O.
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .codec import compress, decompress, deserialize_side_file, serialize_side_file
from .embedder import bits_to_bytes, bytes_to_bits
from .errors import BoundShiftError, ValidationError
from .fixtures import generate_corpus
from .imagecore import count_boundary_pixels
from .pgm import load_pgm, save_pgm
from .pipeline import (
    PreprocessParams,
    embed_full,
    evaluate_cell,
    extract_full,
    max_payload,
    sweep,
)
from .predictor import predict_grid
from .preprocess import boundary_count_after, forward, inverse

_REPORT_FIELDS = [
    "image", "width", "height", "shift", "t_even", "t_odd",
    "boundary_before", "boundary_after", "map_bits_before", "map_bits_after",
    "r0_pct", "r1_pct", "r_emb_bpp", "psnr_db", "selected",
]


def cmd_preprocess(args):
    cover = load_pgm(args.image)
    params = PreprocessParams(args.shift, args.t_even, args.t_odd)
    out = forward(cover, params)
    cmap = compress(out.locmap)
    save_pgm(args.out, out.shifted, args.flavor)
    with open(args.map, "wb") as fh:
        fh.write(serialize_side_file(params, cmap))
    before = count_boundary_pixels(cover, params.shift)
    print(f"boundary pixels: {before} -> {boundary_count_after(out)}")
    print(f"map: {cmap.bit_length} bits compressed ({out.locmap.alphabet_size}-ary)")
    print(f"wrote {args.out} and {args.map}")
    return 0


def cmd_restore(args):
    shifted = load_pgm(args.image)
    with open(args.map, "rb") as fh:
        params, cmap = deserialize_side_file(fh.read())
    if (cmap.height, cmap.width) != shifted.shape:
        raise ValidationError(
            f"map shape {(cmap.height, cmap.width)} does not match image shape {shifted.shape}"
        )
    cover = inverse(shifted, decompress(cmap), params)
    save_pgm(args.out, cover, args.flavor)
    print(f"wrote {args.out}")
    return 0


def _read_payload_bits(path, bit_count):
    with open(path, "rb") as fh:
        bits = bytes_to_bits(fh.read())
    if bit_count is None:
        return bits
    if bit_count < 0 or bit_count > bits.size:
        raise ValidationError(
            f"--bits {bit_count} is outside the {bits.size} bits in {path}"
        )
    return bits[:bit_count]


def cmd_embed(args):
    cover = load_pgm(args.image)
    bits = _read_payload_bits(args.payload, args.bits)
    if args.auto:
        records = sweep(cover, range(1, args.t_max + 1), args.shift)
        chosen = next(r for r in records if r.selected)
        params = PreprocessParams(args.shift, chosen.t_even, chosen.t_odd)
        print(f"auto-selected t_even={params.t_even} t_odd={params.t_odd}")
    else:
        params = PreprocessParams(args.shift, args.t_even, args.t_odd)
    result = embed_full(cover, bits, params)
    save_pgm(args.out, result.marked, args.flavor)
    print(f"embedded {bits.size} payload bits (side info {result.side_info_bits} bits)")
    print(f"net rate {result.r_emb:.6f} bpp, psnr {_fmt_float(result.psnr_db, 4)} dB")
    print(f"wrote {args.out}")
    return 0


def cmd_extract(args):
    marked = load_pgm(args.image)
    payload, cover = extract_full(marked)
    with open(args.payload_out, "wb") as fh:
        fh.write(bits_to_bytes(payload))
    save_pgm(args.out, cover, args.flavor)
    print(f"extracted {payload.size} payload bits -> {args.payload_out}")
    print(f"wrote {args.out}")
    return 0


def _fmt_float(value, digits):
    if value is None:
        return "NA"
    if math.isinf(value):
        return "inf"
    return f"{value:.{digits}f}"


def _row_dict(image, width, height, shift, rec):
    return {
        "image": image,
        "width": width,
        "height": height,
        "shift": shift,
        "t_even": rec.t_even,
        "t_odd": rec.t_odd,
        "boundary_before": rec.boundary_before,
        "boundary_after": rec.boundary_after,
        "map_bits_before": rec.map_bits_before,
        "map_bits_after": rec.map_bits_after,
        "r0_pct": _fmt_float(rec.r0, 4),
        "r1_pct": _fmt_float(rec.r1, 4),
        "r_emb_bpp": f"{rec.r_emb:.6f}",
        "psnr_db": _fmt_float(rec.psnr_db, 4),
        "selected": int(rec.selected),
    }


def _mean_rows(per_image_records, shift):
    """Mean-over-corpus summary per threshold cell, undefined values skipped."""
    cells = {}
    for recs in per_image_records:
        for rec in recs:
            cells.setdefault((rec.t_even, rec.t_odd), []).append(rec)
    rows = []
    for (t_even, t_odd), recs in sorted(cells.items()):
        r0s = [r.r0 for r in recs if r.r0 is not None]
        r1s = [r.r1 for r in recs if r.r1 is not None]
        quals = [r.psnr_db for r in recs if r.psnr_db is not None and not math.isinf(r.psnr_db)]
        rows.append(
            {
                "image": "__mean__",
                "width": "",
                "height": "",
                "shift": shift,
                "t_even": t_even,
                "t_odd": t_odd,
                "boundary_before": _fmt_float(float(np.mean([r.boundary_before for r in recs])), 2),
                "boundary_after": _fmt_float(float(np.mean([r.boundary_after for r in recs])), 2),
                "map_bits_before": _fmt_float(float(np.mean([r.map_bits_before for r in recs])), 2),
                "map_bits_after": _fmt_float(float(np.mean([r.map_bits_after for r in recs])), 2),
                "r0_pct": _fmt_float(float(np.mean(r0s)) if r0s else None, 4),
                "r1_pct": _fmt_float(float(np.mean(r1s)) if r1s else None, 4),
                "r_emb_bpp": f"{float(np.mean([r.r_emb for r in recs])):.6f}",
                "psnr_db": _fmt_float(float(np.mean(quals)) if quals else None, 4),
                "selected": "",
            }
        )
    return rows


def _write_map_image(out_dir, stem, cover, params, flavor):
    out = forward(cover, params)
    clear = 2 * params.shift
    vis = np.where(out.locmap.symbols != clear, 255, 0).astype(np.uint8)
    save_pgm(os.path.join(out_dir, f"{stem}_map.pgm"), vis, flavor)


def _write_joint_hist(out_dir, stem, cover):
    pred = predict_grid(cover)
    pairs = np.stack([cover.ravel(), pred.ravel()], axis=1)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    path = os.path.join(out_dir, f"{stem}_joint.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "prediction", "count"])
        for (v, p), c in zip(uniq.tolist(), counts.tolist()):
            writer.writerow([v, p, c])


def cmd_analyze(args):
    names = sorted(n for n in os.listdir(args.dir) if n.lower().endswith(".pgm"))
    if not names:
        raise ValidationError(f"no .pgm files in {args.dir}")
    if args.maps:
        os.makedirs(args.maps, exist_ok=True)
    if args.joint_hist:
        os.makedirs(args.joint_hist, exist_ok=True)
    skipped = 0
    rows = []
    sweep_records = []
    for name in names:
        path = os.path.join(args.dir, name)
        try:
            cover = load_pgm(path)
            if args.sweep:
                recs = sweep(cover, range(1, args.t_max + 1), args.shift)
            else:
                params = PreprocessParams(args.shift, args.t_even, args.t_odd)
                rec = evaluate_cell(cover, params)
                rec.selected = True
                recs = [rec]
        except (BoundShiftError, OSError) as exc:
            print(f"warning: skipping {name}: {exc}", file=sys.stderr)
            skipped += 1
            continue
        h, w = cover.shape
        for rec in recs:
            rows.append(_row_dict(name, w, h, args.shift, rec))
        sweep_records.append(recs)
        chosen = next(r for r in recs if r.selected)
        chosen_params = PreprocessParams(args.shift, chosen.t_even, chosen.t_odd)
        stem = os.path.splitext(name)[0]
        if args.maps:
            _write_map_image(args.maps, stem, cover, chosen_params, "P5")
        if args.joint_hist:
            _write_joint_hist(args.joint_hist, stem, cover)
    rows.extend(_mean_rows(sweep_records, args.shift))
    with open(args.report, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_REPORT_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    print(f"analyzed {len(sweep_records)} images -> {args.report}"
          + (f" ({skipped} skipped)" if skipped else ""))
    return 5 if skipped else 0


def cmd_gen_fixtures(args):
    rows = generate_corpus(args.dir, args.seed)
    print(f"wrote {len(rows)} images + manifest to {args.dir}")
    return 0


def _add_flavor(p):
    p.add_argument("--flavor", choices=["P5", "P2"], default="P5",
                   help="PGM flavor for written images (default P5)")


def _add_params(p, required=True):
    p.add_argument("--shift", type=int, default=1,
                   help="boundary band half-width (default 1)")
    p.add_argument("--t-even", type=int, required=required,
                   help="threshold for the even checkerboard pass")
    p.add_argument("--t-odd", type=int, required=required,
                   help="threshold for the odd checkerboard pass")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="boundshift",
        description="Reversible data embedding for images full of boundary pixels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="clear boundary pixels, write map+params file")
    p.add_argument("image")
    p.add_argument("--out", required=True, help="shifted image (PGM)")
    p.add_argument("--map", required=True, help="map+params side file")
    _add_params(p)
    _add_flavor(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("restore", help="undo preprocess exactly")
    p.add_argument("image")
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True)
    _add_flavor(p)
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("embed", help="embed a payload file reversibly")
    p.add_argument("image")
    p.add_argument("--payload", required=True, help="file whose bytes are embedded")
    p.add_argument("--bits", type=int, default=None,
                   help="embed only the first N bits of the payload")
    p.add_argument("--out", required=True, help="marked image (PGM)")
    p.add_argument("--auto", action="store_true",
                   help="pick thresholds by sweeping for the best net rate")
    p.add_argument("--t-max", type=int, default=16,
                   help="sweep thresholds 1..t-max with --auto (default 16)")
    _add_params(p, required=False)
    _add_flavor(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="blind-extract payload and recover the cover")
    p.add_argument("image")
    p.add_argument("--payload-out", required=True)
    p.add_argument("--out", required=True, help="recovered cover image (PGM)")
    _add_flavor(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("analyze", help="per-image metrics report over a directory")
    p.add_argument("dir")
    p.add_argument("--report", required=True, help="CSV report path")
    p.add_argument("--json", default=None, help="also mirror rows as JSON")
    p.add_argument("--sweep", action="store_true",
                   help="evaluate the full threshold grid per image")
    p.add_argument("--t-max", type=int, default=16,
                   help="sweep thresholds 1..t-max (default 16)")
    p.add_argument("--maps", default=None,
                   help="directory for boundary-map visualizations")
    p.add_argument("--joint-hist", default=None,
                   help="directory for (value, prediction) histogram CSVs")
    _add_params(p, required=False)
    _add_flavor(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gen-fixtures", help="write the deterministic synthetic corpus")
    p.add_argument("dir")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_gen_fixtures)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "embed" and not args.auto:
        if args.t_even is None or args.t_odd is None:
            parser.error("embed needs --t-even and --t-odd (or --auto)")
    if args.command == "analyze" and not args.sweep:
        if args.t_even is None or args.t_odd is None:
            parser.error("analyze needs --t-even and --t-odd (or --sweep)")
    try:
        return args.func(args)
    except BoundShiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
