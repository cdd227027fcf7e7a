"""boundshift benchmark: one process, one thread, a closed loop with one client.

    python3 bench/run.py --workload roundtrip-512 --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. ``--trace 0`` reports the end-to-end
metrics, with times scaled to a reference machine speed (calibrate.py);
``--trace 1`` reports the per-layer metrics of BENCHMARK.json, from ops
that alternate between untraced and traced cycles. See bench/README.md
for the workloads and what each metric should move.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

import calibrate
import spans
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "golden", "corpus_report.csv")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
DEFAULT_SEED = 7  # the corpus seed the golden report was made with
SETUP_REPEATS = 3
MODULES = ("cli", "pipeline", "preprocess", "embedder", "fixtures")


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def import_program():
    """Import boundshift afresh from src/, dropping any earlier copy, so that
    every set-up repeat pays the program's import cost."""
    if not os.path.isfile(os.path.join(SRC, "boundshift", "__init__.py")):
        raise SetupError(f"no boundshift package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "boundshift" or m.startswith("boundshift.")]:
        del sys.modules[name]
    program = SimpleNamespace(**{
        m: importlib.import_module(f"boundshift.{m}") for m in MODULES
    })
    if not os.path.abspath(program.cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"boundshift imported from {program.cli.__file__}, not {SRC}")
    return program


def load_reference(workload, seed, smoke):
    """Pinned outputs at the default seed, or None where only round-trip and
    across-op checks apply."""
    if smoke or seed != DEFAULT_SEED:
        return None
    if workload == "corpus-analyze":
        try:
            with open(GOLDEN, "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise SetupError(f"cannot read the golden report: {exc}") from exc
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[str(seed)][workload]


def set_up(cls, args, work_dir, reference):
    """Import, synthesize inputs and run one checked warm-up op; returns the
    workload, the warm-up's failures and the seconds it all took."""
    t0 = time.perf_counter()
    program = import_program()
    workload = cls(program, args.seed, work_dir, args.smoke, reference)
    warm = run_checked(lambda: workload.op(0, warm=True))
    return workload, SimpleNamespace(failures=warm.failures, seconds=time.perf_counter() - t0)


def run_checked(op):
    """Run one op; an op that raises is a failed op, not a crash."""
    try:
        return op()
    except Exception as exc:
        traceback.print_exc()
        return SimpleNamespace(phases={}, pixels=0, net_bpp=0.0,
                               failures=[f"raised {type(exc).__name__}: {exc}"])


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); (0, 0) when there are fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return 0.0, 0.0
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def measure(workload, seconds, tracer, fault):
    """Run whole cycles of ops until `seconds` have passed; with a tracer,
    untraced and traced cycles alternate and end on a traced one. Returns
    the untraced and traced OpResults. Each has a `scale`: from the kernel
    runs on either side of it where the workload scales its ops (see
    calibrate.py), else 1."""
    plain, traced = [], []
    kinds = (False, True) if tracer else (False,)
    k = 0
    start = time.perf_counter()
    kernel = calibrate.kernel_ms() if workload.scale_ops else None
    while True:
        for is_traced in kinds:
            for _ in range(workload.cycle):
                workload.fault = fault and k == 0
                if is_traced:
                    res = run_checked(lambda: tracer.run_op(k, lambda: workload.op(k)))
                else:
                    res = run_checked(lambda: workload.op(k))
                res.scale = 1.0
                if workload.scale_ops:
                    after = calibrate.kernel_ms()
                    res.scale = calibrate.factor(kernel, after)
                    kernel = after
                (traced if is_traced else plain).append(res)
                for failure in res.failures:
                    print(f"FAIL op {k}: {failure}", file=sys.stderr)
                k += 1
        if time.perf_counter() - start >= seconds:
            return plain, traced


def op_ms(res):
    return sum(res.phases.values())


def scaled_ms(res):
    return op_ms(res) * res.scale


def end_to_end(results, setups):
    """Set-up times, and op times where the workload scales them, are
    scaled to reference machine speed (see calibrate.py)."""
    ok = [r for r in results if not r.failures]
    return {
        "op_p50_ms": (statistics.median(map(scaled_ms, ok)) if ok else 0.0, "ms"),
        "mpix_per_s": (sum(r.pixels for r in ok) / 1e3 / sum(map(scaled_ms, ok)) if ok else 0.0,
                       "Mpx/s"),
        "net_bpp": (statistics.fmean(r.net_bpp for r in ok) if ok else 0.0, "bit/px"),
        "setup_s": (statistics.median(s.seconds * s.scale for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


PHASE_METRIC = {"embed": "embed_p50_ms", "extract": "extract_p50_ms", "analyze": "analyze_p50_ms"}
LAYER_UNITS = {"self_ms": "ms", "ns_per_symbol": "ns", "map_bits": "bit", "ratio": "ratio"}


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(workload, plain, traced, tracer):
    """Per-layer metrics and the names of expected spans that never fired."""
    missing = set()
    cycles = {}
    for op_id, op_spans in sorted(tracer.ops().items()):
        missing.update(spans.missing_spans(workload.name, op_spans))
        cycles.setdefault(op_id // workload.cycle, []).extend(op_spans)
    per_cycle = [spans.layer_metrics(c, workload.cycle, tracer.header_bits)
                 for c in cycles.values()]
    metrics = {name: (value, layer_unit(name))
               for name, value in spans.median_layer_metrics(per_cycle).items()}
    ok_plain = [r for r in plain if not r.failures]
    for phase, name in PHASE_METRIC.items():
        samples = [r.phases[phase] for r in ok_plain if phase in r.phases]
        value, pct = tail(samples)
        metrics[name] = (statistics.median(samples) if samples else 0.0, "ms")
        metrics[f"{phase}.tail_ms"] = (value, "ms")
        metrics[f"{phase}.tail_pct"] = (pct, "%")
        metrics[f"{phase}.samples"] = (len(samples), "count")
    ok_traced = [r for r in traced if not r.failures]
    if ok_plain and ok_traced:
        ratio = statistics.median(map(scaled_ms, ok_traced)) / statistics.median(map(scaled_ms, ok_plain))
        metrics["trace.overhead_pct"] = (100.0 * (ratio - 1.0), "%")
    else:
        metrics["trace.overhead_pct"] = (0.0, "%")
    attempted = len(plain) + len(traced)
    failed = sum(1 for r in plain + traced if r.failures)
    metrics["error_rate"] = (failed / attempted, "ratio")
    return metrics, sorted(missing)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the harness self-test")
    p.add_argument("--inject-fault", action="store_true",
                   help="flip one pixel of the first op's recovered cover (self-test)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}")
    cls = WORKLOADS[args.workload]
    work_dir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    try:
        reference = load_reference(args.workload, args.seed, args.smoke)
        os.makedirs(work_dir, exist_ok=True)
        calibrate.kernel_ms()  # the first run of the kernel is not used
        kernel = calibrate.kernel_ms()
        setups = []
        for _ in range(SETUP_REPEATS):
            workload, setup = set_up(cls, args, work_dir, reference)
            after = calibrate.kernel_ms()
            setup.scale = calibrate.factor(kernel, after)
            kernel = after
            setups.append(setup)
        setup_failures = [f for s in setups for f in s.failures]
        for failure in setup_failures:
            print(f"FAIL warm-up: {failure}", file=sys.stderr)
        tracer = spans.Tracer(workload.program) if args.trace else None
        plain, traced = measure(workload, args.seconds, tracer, args.inject_fault)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # Leave no inputs behind; only the span file below is kept.
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    results = plain + traced
    failed = sum(1 for r in results if r.failures)
    print(f"outputs: {json.dumps(workload.describe(), sort_keys=True)}")
    print(f"ops {len(results)} failed {failed} error_rate {failed / len(results):.6g}")
    print("op ms: " + " ".join(f"{op_ms(r):.0f}" for r in results))
    print("scale: " + " ".join(f"{r.scale:.3f}" for r in results))
    print("setup s: " + " ".join(f"{s.seconds:.3f}" for s in setups))
    print("setup scale: " + " ".join(f"{s.scale:.3f}" for s in setups))
    missing = []
    if tracer:
        metrics, missing = per_layer(workload, plain, traced, tracer)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        span_file = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(span_file)
        print(f"spans: {len(tracer.spans)} -> {os.path.relpath(span_file, ROOT)}")
        for name in missing:
            print(f"FAIL trace: expected span {name} never fired", file=sys.stderr)
    else:
        metrics = end_to_end(plain, setups)
    correct = failed == 0 and not setup_failures and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
