"""Command line front end.

Verbs: preprocess / restore (boundary clearing alone), embed / extract
(full reversible pipeline), analyze (per-image metrics, optional threshold
sweep), gen-fixtures (deterministic synthetic corpus). Exit codes: 0 ok,
2 validation, 3 capacity, 4 corruption, 5 I/O.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from .codec import compress, decompress
from .errors import BoundShiftError, ValidationError
from .fixtures import generate_corpus
from .formats import bits_to_bytes, bytes_to_bits, deserialize_side_file, serialize_side_file
from .imagecore import count_boundary_pixels
from .pgm import load_pgm, save_pgm
from .pipeline import (
    PreprocessParams,
    embed_full,
    evaluate_cell,
    extract_full,
    sweep,
)
from .predictor import predict_grid
from .preprocess import boundary_count_after, forward, inverse

# report column, SweepRecord field, decimals for a float or a mean
_CELL_COLUMNS = (
    ("boundary_before", "boundary_before", 2),
    ("boundary_after", "boundary_after", 2),
    ("map_bits_before", "map_bits_before", 2),
    ("map_bits_after", "map_bits_after", 2),
    ("r0_pct", "r0", 4),
    ("r1_pct", "r1", 4),
    ("r_emb_bpp", "r_emb", 6),
    ("psnr_db", "psnr_db", 4),
)
_REPORT_FIELDS = [
    "image", "width", "height", "shift", "t_even", "t_odd",
    *(column for column, _, _ in _CELL_COLUMNS), "selected",
]


def cmd_preprocess(args):
    cover = load_pgm(args.image)
    out = forward(cover, args.params)
    cmap = compress(out.locmap)
    save_pgm(args.out, out.shifted, args.flavor)
    with open(args.map, "wb") as fh:
        fh.write(serialize_side_file(args.params, cmap))
    before = count_boundary_pixels(cover, args.shift)
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
        records = sweep(cover, range(1, args.t_max + 1), args.shift, measure_psnr=False)
        chosen = next(r for r in records if r.selected)
        params = PreprocessParams(args.shift, chosen.t_even, chosen.t_odd)
        print(f"auto-selected t_even={params.t_even} t_odd={params.t_odd}")
    else:
        params = args.params
    result = embed_full(cover, bits, params)
    save_pgm(args.out, result.marked, args.flavor)
    print(f"embedded {bits.size} payload bits (side info {result.side_info_bits} bits)")
    print(f"net rate {result.r_emb:.6f} bpp, psnr {_fmt_float(result.psnr_db, 4)} dB")
    print(f"wrote {args.out}")
    return 0


def cmd_extract(args):
    marked = load_pgm(args.image)
    payload, cover = extract_full(marked, legacy_v1=args.legacy_v1)
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


def _row(lead, value, selected):
    """A report row in _REPORT_FIELDS order. lead holds image, width, height,
    shift, t_even and t_odd; value(field) gives each _CELL_COLUMNS field,
    written as it is if an integer and to the column's decimals if not."""
    row = dict(zip(_REPORT_FIELDS, lead))
    for column, field, digits in _CELL_COLUMNS:
        v = value(field)
        row[column] = v if isinstance(v, int) else _fmt_float(v, digits)
    row["selected"] = selected
    return row


def _mean(recs, field):
    """Mean of a field over the records' defined values; None if there are none."""
    defined = [v for v in (getattr(r, field) for r in recs)
               if v is not None and not math.isinf(v)]
    return float(np.mean(defined)) if defined else None


def _write_map_image(out_dir, stem, cover, params):
    out = forward(cover, params)
    clear = 2 * params.shift
    vis = np.where(out.locmap.symbols != clear, 255, 0).astype(np.uint8)
    save_pgm(os.path.join(out_dir, f"{stem}_map.pgm"), vis)


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
    for out_dir in (args.maps, args.joint_hist):
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
    skipped = 0
    rows = []
    cells = {}  # (t_even, t_odd) -> the records of every image, for the means
    for name in names:
        path = os.path.join(args.dir, name)
        try:
            cover = load_pgm(path)
            if args.sweep:
                recs = sweep(cover, range(1, args.t_max + 1), args.shift)
            else:
                rec = evaluate_cell(cover, args.params)
                rec.selected = True
                recs = [rec]
        except (BoundShiftError, OSError) as exc:
            print(f"warning: skipping {name}: {exc}", file=sys.stderr)
            skipped += 1
            continue
        h, w = cover.shape
        stem = os.path.splitext(name)[0]
        for rec in recs:
            rows.append(_row((name, w, h, args.shift, rec.t_even, rec.t_odd),
                             lambda field: getattr(rec, field), int(rec.selected)))
            cells.setdefault((rec.t_even, rec.t_odd), []).append(rec)
            if rec.selected and args.maps:
                chosen = PreprocessParams(args.shift, rec.t_even, rec.t_odd)
                _write_map_image(args.maps, stem, cover, chosen)
        if args.joint_hist:
            _write_joint_hist(args.joint_hist, stem, cover)
    for (t_even, t_odd), recs in sorted(cells.items()):
        rows.append(_row(("__mean__", "", "", args.shift, t_even, t_odd),
                         lambda field: _mean(recs, field), ""))
    with open(args.report, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_REPORT_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    print(f"analyzed {len(names) - skipped} images -> {args.report}"
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


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args leaves it as
    it was, so every call of main shares it."""
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
    p.add_argument("--t-max", type=int, default=None,
                   help="sweep thresholds 1..t-max with --auto (default 16)")
    _add_params(p, required=False)
    _add_flavor(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="blind-extract payload and recover the cover")
    p.add_argument("image")
    p.add_argument("--payload-out", required=True)
    p.add_argument("--out", required=True, help="recovered cover image (PGM)")
    p.add_argument("--legacy-v1", action="store_true",
                   help="also decode a version 1 frame, which carries no checksum")
    _add_flavor(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("analyze", help="per-image metrics report over a directory")
    p.add_argument("dir")
    p.add_argument("--report", required=True, help="CSV report path")
    p.add_argument("--json", default=None, help="also mirror rows as JSON")
    p.add_argument("--sweep", action="store_true",
                   help="evaluate the full threshold grid per image")
    p.add_argument("--t-max", type=int, default=None,
                   help="sweep thresholds 1..t-max (default 16)")
    p.add_argument("--maps", default=None,
                   help="directory for boundary-map visualizations")
    p.add_argument("--joint-hist", default=None,
                   help="directory for (value, prediction) histogram CSVs")
    _add_params(p, required=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gen-fixtures", help="write the deterministic synthetic corpus")
    p.add_argument("dir")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_gen_fixtures)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # embed and analyze take both thresholds, or the option that picks them;
    # --t-max goes with that option, so its default is set here
    picker = {"embed": "auto", "analyze": "sweep"}.get(args.command)
    sweeping = picker and getattr(args, picker)
    if sweeping:
        if args.t_even is not None or args.t_odd is not None:
            parser.error(f"{args.command} --{picker} takes no --t-even or --t-odd")
        if args.t_max is None:
            args.t_max = 16
    elif picker and (args.t_even is None or args.t_odd is None):
        parser.error(f"{args.command} needs --t-even and --t-odd (or --{picker})")
    elif picker and args.t_max is not None:
        parser.error(f"{args.command} --t-max needs --{picker}")
    # the threshold options are checked once, before any file is read; the
    # verbs take the checked values. A sweep's last cell is (t_max, t_max),
    # and checking it checks every cell.
    try:
        if sweeping:
            PreprocessParams(args.shift, args.t_max, args.t_max)
        elif hasattr(args, "t_even"):
            args.params = PreprocessParams(args.shift, args.t_even, args.t_odd)
    except ValidationError as exc:
        hint = f" (--{picker} runs t_even and t_odd up to --t-max)" if sweeping else ""
        parser.error(f"{exc}{hint}")
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
