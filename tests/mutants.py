"""One-line mutants of src/ and the runner that checks the suite kills them.

Each row of MUTANTS names a file, a text that occurs in it exactly once,
the text that replaces it, and the invariant the replacement breaks. An
equivalent mutant, one that no input can tell from the real code, carries
the reason why.

Run from the repository root (it takes several minutes, so it is not part
of Tier-1; a change that adds, moves or removes a check re-runs it):

    python3 tests/mutants.py                  # every mutant; writes MUTANTS.json
    python3 tests/mutants.py NAME [NAME ...]  # only these; prints the results

The tree is copied into a temporary directory, never changed in place. The
unmutated copy must pass the Tier-1 suite, less the table's own checks in
tests/test_mutants.py, first; then each mutant is applied to the copy in
turn, the suite runs there with -x, and the file is restored. A mutant is
killed when the suite fails, and the first failing test is recorded; where
a hypothesis test is the first to fail, which one that is can vary from
run to run.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# without tests/test_mutants.py, which checks this table against the tree:
# in a mutated copy it would fail for every mutant, whatever src/ does
SUITE = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--ignore=tests/test_mutants.py"]
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                               ".bench_work", ".bench_out")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    invariant: str
    equivalent: str | None = None


MUTANTS = [
    # the pick-only sweep
    Mutant("pick-codes-below-the-bound", "src/boundshift/pipeline.py",
           "        if most[i] < best or (most[i] == best and i >= pick):",
           "        if most[i] < best - 1 or (most[i] == best and i >= pick):",
           "a key whose room less the header and its map's floor is below the best "
           "payload room is not coded: it can neither beat the pick nor tie it"),
    Mutant("pick-codes-later-ties", "src/boundshift/pipeline.py",
           "        if most[i] < best or (most[i] == best and i >= pick):",
           "        if most[i] < best:",
           "a key whose bound only ties the best payload room from a cell after the "
           "pick's is not coded: it cannot win the tie"),
    Mutant("pick-skips-earlier-ties", "src/boundshift/pipeline.py",
           "        if most[i] < best or (most[i] == best and i >= pick):",
           "        if most[i] <= best:",
           "a key whose bound ties the best payload room from a cell before the "
           "pick's is coded: it could win the tie"),
    Mutant("pick-ignores-the-floor", "src/boundshift/pipeline.py",
           "measured[i][2] - FRAME_HEADER_BITS - measured[i][3]",
           "measured[i][2] - FRAME_HEADER_BITS - 1",
           "a key is bounded by its map's floor, not by one bit: a dark 96x96 cover "
           "codes fewer maps than room alone would"),
    Mutant("pick-trusts-twice-the-floor", "src/boundshift/pipeline.py",
           "measured[i][2] - FRAME_HEADER_BITS - measured[i][3]",
           "measured[i][2] - FRAME_HEADER_BITS - 2 * measured[i][3]",
           "a key is pruned only when its room less the header and its map's floor "
           "cannot beat the pick"),
    # the floor on a map's coded length
    Mutant("floor-rounds-up", "src/boundshift/codec.py",
           "    return max(1, math.floor(info - slack) - 1)",
           "    return max(1, math.floor(info - slack) + 1)",
           "the floor is at most the coded length, with a bit to spare for float rounding"),
    Mutant("floor-past-the-cap", "src/boundshift/codec.py",
           "    if m == 0 or m >= _MARKED_MAX:",
           "    if m == 0 or m > _MARKED_MAX:",
           "with 2048 or more other symbols a count besides the clear one's may halve "
           "the model, and no floor above one bit is given"),
    # the pick-only sweep's step per even pass
    Mutant("odd-steps-left-index", "src/boundshift/preprocess.py",
           '        index = np.searchsorted(thresholds, low.ravel()[cells], "right")',
           '        index = np.searchsorted(thresholds, low.ravel()[cells], "left")',
           "an odd cell predicted at v first moves at the first t_odd above "
           "min(v, 255 - v), not at one equal to it"),
    Mutant("odd-steps-direction-at-the-middle", "src/boundshift/preprocess.py",
           "np.where(pred.ravel()[cells] <= 127, t, -t)",
           "np.where(pred.ravel()[cells] < 127, t, -t)",
           "an odd cell predicted at or below 127 moves up, above it down",
           equivalent="a cell predicted 127 or 128 has min(v, 255 - v) = 127, and no "
                      "t_odd up to 127 moves it, so its direction is never read"),
    Mutant("odd-steps-direction-below-the-middle", "src/boundshift/preprocess.py",
           "np.where(pred.ravel()[cells] <= 127, t, -t)",
           "np.where(pred.ravel()[cells] <= 125, t, -t)",
           "an odd cell predicted 126, which t_odd 127 moves, moves up"),
    Mutant("carrier-upper-bound", "src/boundshift/embedder.py",
           "(twice < n * (value + 3))",
           "(twice <= n * (value + 3))",
           "an even cell predicted E + 2 is no carrier: 2S < n(2E + 3)"),
    Mutant("carrier-border-count", "src/boundshift/embedder.py",
           "    n, twice, value = packed & 15,",
           "    n, twice, value = 4,",
           "an even cell on the border ring is predicted from its two or three "
           "neighbours, not four"),
    Mutant("table-of-the-unclamped-cover", "src/boundshift/pipeline.py",
           "np.pad(np.clip(a, shift, 255 - shift).astype(np.int16)",
           "np.pad(a.astype(np.int16)",
           "the rooms' neighbour sums are over the clamped cover, whose odd cells are "
           "those of every even pass's clamped image"),
    Mutant("odd-key-off-by-one", "src/boundshift/pipeline.py",
           "np.cumsum(np.bincount(index, minlength=size))",
           "np.cumsum(np.bincount(index + 1, minlength=size))",
           "the odd count of the key of thresholds[j] counts the odd cells of first "
           "index at most j, not below j"),
    Mutant("floors-late-bound", "src/boundshift/codec.py",
           "    bound = _LATE + counts",
           "    bound = counts",
           "a map's late symbols lie at or past _LATE + m: only a symbol with at least "
           "1024 clear ones before it is bounded"),
    Mutant("floors-weighs-too-few-flips", "src/boundshift/codec.py",
           "    near = np.searchsorted(cells, _LATE + _MARKED_MAX)",
           "    near = np.searchsorted(cells, _LATE)",
           "a flip before any map's late bound, up to _LATE + _MARKED_MAX, changes its "
           "late count"),
    Mutant("pick-ties-to-the-last-cell", "src/boundshift/pipeline.py",
           "        if payload > best or (payload == best and i < pick):",
           "        if payload > best or (payload == best and i > pick):",
           "of equal payload rooms the pick is the first cell in sweep order"),
    Mutant("pick-no-first-cell-fallback", "src/boundshift/pipeline.py",
           "    best, pick = 0, 0",
           "    best, pick = 0, len(cells) - 1",
           "with no positive payload room the pick is the grid's first cell"),
    Mutant("pick-takes-a-zero-payload", "src/boundshift/pipeline.py",
           "    best, pick = 0, 0",
           "    best, pick = -1, 0",
           "a cell of zero payload room is not picked over the grid's first cell"),
    Mutant("sweep-ties-to-the-last-cell", "src/boundshift/pipeline.py",
           "    max(records, key=lambda rec: rec.r_emb).selected = True",
           "    max(reversed(records), key=lambda rec: rec.r_emb).selected = True",
           "a full sweep breaks rate ties toward the smallest (t_even, t_odd)"),
    # the transform and the sweep key
    Mutant("pass-upper-band-edge", "src/boundshift/preprocess.py",
           "(pred > 255 - threshold)",
           "(pred >= 255 - threshold)",
           "a pass moves the cells predicted above 255 - t, not those at it"),
    Mutant("key-upper-band-index", "src/boundshift/preprocess.py",
           "        return below[t + 128] + below[-1] - below[384 - t]",
           "        return below[t + 128] + below[-1] - below[383 - t]",
           "a key counts the cells a pass moves, so equal keys mean equal outputs"),
    Mutant("unclamp-consistency-check", "src/boundshift/preprocess.py",
           "    if bad.any():",
           "    if False:",
           "a map that marks a cell clamped whose value is no endpoint is corrupt"),
    Mutant("inverse-input-range", "src/boundshift/preprocess.py",
           "    if int(a.min()) < t or int(a.max()) > 255 - t:",
           "    if int(a.min()) < t - 1 or int(a.max()) > 256 - t:",
           "a shifted image holds no pixel outside [shift, 255 - shift]"),
    Mutant("inverse-output-range", "src/boundshift/preprocess.py",
           "    if int(undo_even.min()) < 0 or int(undo_even.max()) > 255:",
           "    if int(undo_even.min()) < -1 or int(undo_even.max()) > 256:",
           "a recovered cover lies in [0, 255]"),
    Mutant("predict-rounding", "src/boundshift/predictor.py",
           "        total -= total < 2",
           "        total -= total < 1",
           "interior predictions round halves away from zero",
           equivalent="a total of -1 rounds to 0 either way: (-1 + 2) >> 2 and "
                      "(-2 + 2) >> 2 are both 0"),
    Mutant("predict-border-rounding", "src/boundshift/predictor.py",
           "        ring = (2 * ring + count) // twice",
           "        ring = (2 * ring) // twice",
           "on a grid with no negative value a border cell's mean rounds halves up"),
    # the report's payload
    Mutant("report-payload-reuses-a-shorter-draw", "src/boundshift/pipeline.py",
           "kept is not None and kept.size >= bit_count",
           "kept is not None",
           "a request longer than the kept report payload draws again: a slice of the "
           "kept one would be short"),
    Mutant("report-payload-ignores-the-pair", "src/boundshift/pipeline.py",
           "pair == (t_even, t_odd) and kept is not None",
           "kept is not None",
           "a request for another threshold pair draws that pair's payload"),
    Mutant("report-payload-keeps-the-callers-draw", "src/boundshift/pipeline.py",
           "        _report_payload = ((t_even, t_odd), None)",
           "        _report_payload = ((t_even, t_odd), bits)",
           "a pair's first draw, which the caller may change, is not kept: only a "
           "read-only draw is"),
    # the embedder and the frame
    Mutant("capacity-peak", "src/boundshift/embedder.py",
           "        return int(np.count_nonzero((errors == 0) | (errors == -1)))",
           "        return int(np.count_nonzero((errors == 0) | (errors == 1)))",
           "capacity counts the carriers embed uses: errors 0 and -1"),
    Mutant("zero-payload-room", "src/boundshift/pipeline.py",
           "max(0, room - FRAME_HEADER_BITS - map_bits)",
           "(room - FRAME_HEADER_BITS - map_bits)",
           "a cell whose side information does not fit has zero payload room"),
    Mutant("record-fit-rule", "src/boundshift/pipeline.py",
           "if room >= FRAME_HEADER_BITS + map_bits else None",
           "if room > FRAME_HEADER_BITS + map_bits else None",
           "a frame that fills a cell's room exactly fits: its record has a PSNR"),
    Mutant("frame-length-test", "src/boundshift/formats.py",
           "    if need > stream.size:",
           "    if need >= stream.size:",
           "a frame that exactly fills the carriers decodes"),
    Mutant("frame-magic-check", "src/boundshift/formats.py",
           "    if magic != FRAME_MAGIC:",
           "    if False:",
           "a stream whose first byte is not the frame magic is refused"),
    Mutant("frame-version-check", "src/boundshift/formats.py",
           "    if row is None:",
           "    if False:",
           "a frame of a version with no header row is refused as corrupt"),
    Mutant("frame-declared-length-check", "src/boundshift/formats.py",
           "    if need > stream.size:",
           "    if False:",
           "a frame that declares more map and payload bits than the stream holds is "
           "refused"),
    Mutant("map-truncation-check", "src/boundshift/formats.py",
           "    if len(buf) < end:",
           "    if False:",
           "an LM container shorter than its declared bit length is refused as truncated"),
    Mutant("map-trailing-data-check", "src/boundshift/formats.py",
           "    if end != len(buf):",
           "    if False:",
           "an LM container with bytes past its declared bit length is refused"),
    Mutant("side-file-header-length-check", "src/boundshift/formats.py",
           "    if len(buf) < _SIDE_FILE_HEADER.size:",
           "    if False:",
           "an LP side file shorter than its header is refused as corrupt"),
    Mutant("side-file-magic-check", "src/boundshift/formats.py",
           "    if magic != SIDE_FILE_MAGIC:",
           "    if False:",
           "a side file that does not start with LP is refused"),
    Mutant("map-magic-check", "src/boundshift/formats.py",
           "    if magic != MAP_MAGIC:",
           "    if False:",
           "an LM container that does not start with LM is refused"),
    Mutant("map-header-length-check", "src/boundshift/formats.py",
           "    if len(buf) < _CONTAINER_HEADER.size:",
           "    if False:",
           "an LM container shorter than its header is refused as corrupt"),
    Mutant("header-parameter-check", "src/boundshift/formats.py",
           '        raise CorruptionError(f"corrupt {what} parameters: {exc}") from exc',
           "        raise",
           "a frame or side file whose header holds invalid parameters is refused as "
           "corrupt, not as invalid input"),
    Mutant("psnr-denominator", "src/boundshift/imagecore.py",
           "    mse = sse / x.size",
           "    mse = sse / (x.size + 1)",
           "PSNR divides the squared error by the pixel count"),
    Mutant("r1-denominator", "src/boundshift/pipeline.py",
           "        r1 = 100.0 * map_bits / before_bits if defined else None",
           "        r1 = 100.0 * map_bits / max(before_bits, 1) if defined else None",
           "r1 is the map's bits over the baseline map's",
           equivalent="r1 is computed only for a cover with a boundary pixel, whose "
                      "baseline map codes to at least one bit"),
    # the codec
    Mutant("decompress-shape-check", "src/boundshift/codec.py",
           "        if declared != expected:",
           "        if False:",
           "a map that declares another shape than the caller expects is refused "
           "before it is decoded"),
    Mutant("model-increment-python", "src/boundshift/codec.py",
           "_MODEL_INCREMENT = 32",
           "_MODEL_INCREMENT = 31",
           "the Python coder's model grows a count by 32, as the pinned bytes hold"),
    Mutant("model-increment-kernel", "src/boundshift/_coder.c",
           "#define INCREMENT 32",
           "#define INCREMENT 31",
           "the compiled coder's model grows a count by 32, as the pinned bytes hold"),
    Mutant("kernel-halving-test", "src/boundshift/_coder.c",
           "    if (freq[s] >= CAP) {",
           "    if (freq[s] > CAP) {",
           "the compiled coder halves its counts once one reaches 2**16, as the Python "
           "coder does"),
    Mutant("kernel-quotient-uncorrected", "src/boundshift/_coder.c",
           "    return q + ((q + 1) * total <= span * c);",
           "    return q;",
           "the shortcuts' quotient through the reciprocal is exact or one short, and the "
           "compare adds the missing 1"),
    Mutant("kernel-quotient-strict-compare", "src/boundshift/_coder.c",
           "(q + 1) * total <= span * c",
           "(q + 1) * total < span * c",
           "where span * c is a multiple of total and q is one short, (q + 1) * total "
           "equals span * c: the compare admits equality"),
    # the kernel's step per even pass
    Mutant("kernel-step-carrier-lower-bound", "src/boundshift/_coder.c",
           "n * (2 * value - 1) <= twice",
           "n * (2 * value - 1) < twice",
           "an even cell predicted exactly E (2S = n(2E - 1)) is a carrier, as "
           "embedder._carries holds"),
    Mutant("kernel-step-carrier-upper-bound", "src/boundshift/_coder.c",
           "twice < n * (2 * value + 3)",
           "twice <= n * (2 * value + 3)",
           "an even cell predicted E + 2 is no carrier: 2S < n(2E + 3)"),
    Mutant("kernel-step-direction-at-the-middle", "src/boundshift/_coder.c",
           "(p <= 127 ? shift : -shift)",
           "(p < 127 ? shift : -shift)",
           "an odd cell predicted at or below 127 moves up, above it down",
           equivalent="a cell predicted 127 or 128 has min(p, 255 - p) = 127, whose first "
                      "index is size for thresholds up to 127, so its direction is never read"),
    Mutant("kernel-step-direction-below-the-middle", "src/boundshift/_coder.c",
           "(p <= 127 ? shift : -shift)",
           "(p <= 125 ? shift : -shift)",
           "an odd cell predicted 126, which t_odd 127 moves, moves up"),
    Mutant("kernel-step-first-index-cut-off", "src/boundshift/_coder.c",
           "            if (j >= size)",
           "            if (j > size)",
           "an odd cell whose first index is size moves under no threshold and is not "
           "listed"),
    Mutant("kernel-step-sum-before-the-test", "src/boundshift/_coder.c",
           "    int32_t before = carries(table[e] + 16 * run[e], value);\n    run[e] += step;",
           "    run[e] += step;\n    int32_t before = carries(table[e] + 16 * run[e], value);",
           "a change's carrier test before it reads the even cell's running sum without "
           "the change"),
    # the kernel's forward and inverse
    Mutant("kernel-transform-low-tie", "src/boundshift/_coder.c",
           "(2 * total < n * (2 * threshold - 1))",
           "(2 * total <= n * (2 * threshold - 1))",
           "a border or last cell whose mean is a tie at threshold - 1/2 rounds up to "
           "threshold, which no pass moves up"),
    Mutant("kernel-transform-high-tie", "src/boundshift/_coder.c",
           "(2 * total >= n * (511 - 2 * threshold))",
           "(2 * total > n * (511 - 2 * threshold))",
           "a border or last cell whose mean is a tie at 255.5 - threshold rounds up to "
           "256 - threshold, which a pass moves down"),
    Mutant("kernel-transform-interior-low-tie", "src/boundshift/_coder.c",
           "low = (int16_t)(4 * threshold - 2)",
           "low = (int16_t)(4 * threshold - 1)",
           "an inner cell whose four neighbours sum to 4 threshold - 2 is predicted "
           "threshold (the tie rounds up), which no pass moves up"),
    Mutant("kernel-transform-interior-high-tie", "src/boundshift/_coder.c",
           "(total >= high)",
           "(total > high)",
           "an inner cell whose four neighbours sum to 1022 - 4 threshold is predicted "
           "256 - threshold (the tie rounds up), which a pass moves down"),
    Mutant("kernel-transform-negative-sum", "src/boundshift/_coder.c",
           "int16_t total = (int16_t)(up[j]",
           "uint16_t total = (uint16_t)(up[j]",
           "an inner cell whose four neighbours sum below 0 (a tie there included) is "
           "predicted at most 0, below every threshold, which a pass moves up"),
    Mutant("kernel-transform-border-count", "src/boundshift/_coder.c",
           "            total += in[i + 1];\n            n++;",
           "            total += in[i + 1];",
           "a border cell is predicted from its two or three in-grid neighbours, each "
           "counted"),
    Mutant("kernel-transform-first-column-of-the-parity", "src/boundshift/_coder.c",
           "moves + ((r + 1 + parity) & 1)",
           "moves + ((r + parity) & 1)",
           "a blocked row moves the cells of the pass's parity, from column 1 or 2 by "
           "the row's parity, and copies the others"),
    Mutant("kernel-transform-clamp-endpoint", "src/boundshift/_coder.c",
           "high = (int16_t)(255 - shift);",
           "high = (int16_t)(256 - shift);",
           "forward clamps into [shift, 255 - shift]"),
    Mutant("kernel-inverse-endpoint-check", "src/boundshift/_coder.c",
           "    if (bad) {",
           "    if (0) {",
           "a map that marks a cell clamped whose value is no endpoint is corrupt, at "
           "that cell"),
    Mutant("kernel-inverse-output-range", "src/boundshift/_coder.c",
           "(grid[j] < 0) | (grid[j] > 255)",
           "(grid[j] < -1) | (grid[j] > 256)",
           "a recovered cover lies in [0, 255]"),
    # the kernel's capacity, embed and extract
    Mutant("kernel-capacity-drops-error-zero", "src/boundshift/_coder.c",
           "(((uint16_t)(vb[j] - pb[j] + 1) <= 1) & mask[j])",
           "(((uint16_t)(vb[j] - pb[j] + 1) <= 0) & mask[j])",
           "an even cell of error 0 is a carrier, in a blocked row as elsewhere"),
    Mutant("kernel-capacity-drops-error-minus-one", "src/boundshift/_coder.c",
           "(((uint16_t)(vb[j] - pb[j] + 1) <= 1) & mask[j])",
           "(((uint16_t)(vb[j] - pb[j]) <= 0) & mask[j])",
           "an even cell of error -1 is a carrier, in a blocked row as elsewhere"),
    Mutant("kernel-capacity-last-cells-take-error-one", "src/boundshift/_coder.c",
           "room += (uint32_t)(v[c] - p[c] + 1) <= 1;",
           "room += (uint32_t)(v[c] - p[c] + 1) <= 2;",
           "an even cell past a row's last block is a carrier at errors 0 and -1 only"),
    Mutant("kernel-embed-drops-error-zero", "src/boundshift/_coder.c",
           "carries_bit = e == 0 || e == -1;",
           "carries_bit = e == -1;",
           "embed writes a bit into an even cell of error 0, as capacity counts it"),
    Mutant("kernel-embed-drops-error-minus-one", "src/boundshift/_coder.c",
           "carries_bit = e == 0 || e == -1;",
           "carries_bit = e == 0;",
           "embed writes a bit into an even cell of error -1, as capacity counts it"),
    Mutant("kernel-embed-keeps-error-one", "src/boundshift/_coder.c",
           "int32_t shift = (e >= 1) - (e <= -2),",
           "int32_t shift = (e >= 2) - (e <= -2),",
           "an even cell of error 1 moves up to 2, so no marked carrier reads as it"),
    Mutant("kernel-embed-keeps-error-minus-two", "src/boundshift/_coder.c",
           "int32_t shift = (e >= 1) - (e <= -2),",
           "int32_t shift = (e >= 1) - (e <= -3),",
           "an even cell of error -2 moves down to -3, so no marked carrier reads as it"),
    Mutant("kernel-embed-bit-index-on-every-cell", "src/boundshift/_coder.c",
           "            k += carrier[i];",
           "            k += 1;",
           "the payload's next bit goes to the next carrier, not to the next even cell"),
    Mutant("kernel-extract-window-below", "src/boundshift/_coder.c",
           "window = -2 <= c && c <= 1;",
           "window = -1 <= c && c <= 1;",
           "a code of -2, a carrier of error -1 holding a 1, carries a bit"),
    Mutant("kernel-extract-window-above", "src/boundshift/_coder.c",
           "window = -2 <= c && c <= 1;",
           "window = -2 <= c && c <= 0;",
           "a code of 1, a carrier of error 0 holding a 1, carries a bit"),
    Mutant("kernel-extract-negative-code-bit", "src/boundshift/_coder.c",
           "int32_t bit = c >= 0 ? c : -(c + 1),",
           "int32_t bit = c >= 0 ? c : -c,",
           "codes -1 and -2 read as bits 0 and 1"),
]

_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def _run_suite(tree):
    """(passed, first failing test or None, seconds) of the suite in tree."""
    shutil.rmtree(os.path.join(tree, ".hypothesis"), ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    start = time.perf_counter()
    done = subprocess.run(SUITE, cwd=tree, env=env, capture_output=True, text=True)
    seconds = round(time.perf_counter() - start, 1)
    found = _FIRST_FAILURE.search(done.stdout)
    return done.returncode == 0, found and found.group(1), seconds


def run(mutants):
    """Apply each mutant to a copy of the tree and run the suite; returns one
    result per mutant."""
    results = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = os.path.join(scratch, "tree")
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        passed, failure, _ = _run_suite(tree)
        if not passed:
            raise SystemExit(f"the unmutated tree fails the suite at {failure}")
        for m in mutants:
            path = os.path.join(tree, m.file)
            with open(path) as fh:
                source = fh.read()
            if source.count(m.old) != 1:
                raise SystemExit(f"{m.name}: its text occurs {source.count(m.old)} times "
                                 f"in {m.file}, not once")
            with open(path, "w") as fh:
                fh.write(source.replace(m.old, m.new))
            try:
                passed, failure, seconds = _run_suite(tree)
            finally:
                with open(path, "w") as fh:
                    fh.write(source)
            status = "killed" if not passed else "equivalent" if m.equivalent else "survived"
            result = {"name": m.name, "file": m.file, "old": m.old, "new": m.new,
                      "invariant": m.invariant, "status": status,
                      "first_failure": failure, "seconds": seconds}
            if m.equivalent:
                result["reason"] = m.equivalent
            print(f"{status:10} {m.name}  {failure or ''}", flush=True)
            results.append(result)
    return results


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        raise SystemExit(f"no mutant named {', '.join(sorted(unknown))}")
    results = run(chosen)
    if not names:
        with open(os.path.join(ROOT, "MUTANTS.json"), "w") as fh:
            json.dump({"suite": " ".join(["python3"] + SUITE[1:]), "mutants": results},
                      fh, indent=1)
            fh.write("\n")
    # a killed mutant listed as equivalent has a wrong reason
    wrong = [r["name"] for r in results
             if r["status"] == "survived" or (r["status"] == "killed" and "reason" in r)]
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
