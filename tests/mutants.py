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
           "    carrier = ((low <= twice) & (twice < high)).view(np.int8)",
           "    carrier = ((low <= twice) & (twice <= high)).view(np.int8)",
           "an even cell predicted E + 2 is no carrier: 2S < n(2E + 3)"),
    Mutant("carrier-border-count", "src/boundshift/embedder.py",
           "    n = packed & 15",
           "    n = 4",
           "an even cell on the border ring is predicted from its two or three "
           "neighbours, not four"),
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
    # the embedder and the frame
    Mutant("capacity-peak", "src/boundshift/embedder.py",
           "        return int(np.count_nonzero((errors == 0) | (errors == -1)))",
           "        return int(np.count_nonzero((errors == 0) | (errors == 1)))",
           "capacity counts the carriers embed uses: errors 0 and -1"),
    Mutant("zero-payload-room", "src/boundshift/pipeline.py",
           "    payload_room = max(0, room - side_info)",
           "    payload_room = room - side_info",
           "a cell whose side information does not fit has zero payload room"),
    Mutant("frame-length-test", "src/boundshift/formats.py",
           "    if need > stream.size:",
           "    if need >= stream.size:",
           "a frame that exactly fills the carriers decodes"),
    Mutant("frame-magic-check", "src/boundshift/formats.py",
           "    if magic != FRAME_MAGIC:",
           "    if False:",
           "a stream whose first byte is not the frame magic is refused"),
    Mutant("side-file-magic-check", "src/boundshift/formats.py",
           "    if magic != SIDE_FILE_MAGIC:",
           "    if False:",
           "a side file that does not start with LP is refused"),
    Mutant("psnr-denominator", "src/boundshift/imagecore.py",
           "    mse = sse / x.size",
           "    mse = sse / (x.size + 1)",
           "PSNR divides the squared error by the pixel count"),
    Mutant("r1-denominator", "src/boundshift/pipeline.py",
           "        r1=100.0 * map_bits / before_bits if defined and map_bits is not None else None,",
           "        r1=100.0 * map_bits / max(before_bits, 1) if defined and map_bits is not None "
           "else None,",
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
