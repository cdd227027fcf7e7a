"""Self-test of the benchmark harness on tiny inputs.

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402
from run import tail  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_smoke(workload, trace, *extra):
    rc, out, err = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                             "--trace", str(trace), "--smoke", *extra)
    return rc, json.loads(out.strip().splitlines()[-1]), err


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    rc, result, err = run_smoke(workload, trace)
    assert rc == 0, err
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", ["roundtrip-512", "auto-128"])
def test_flipped_pixel_in_recovered_cover_is_counted(workload):
    rc, result, err = run_smoke(workload, 1, "--inject-fault")
    assert rc != 0
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["error_rate"]["value"] == 1 / result["attempted"]
    assert "differs" in err


def test_fails_without_the_program(tmp_path):
    """Holding only BENCHMARK.json and the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    for workload in SPEC["workloads"]:
        rc, out, _ = run_bench("--workload", workload["name"], "--seed", "7",
                               "--seconds", "1", "--trace", "0", cwd=tmp_path)
        assert rc != 0
        assert '"metrics"' not in out


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(10))) == (0.0, 0.0)
    assert tail(list(range(11))) == (0, 100.0 / 11)
    value, pct = tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert sum(1 for v in range(100) if v > value) == 10


def test_trace_self_check_names_spans_that_never_fired():
    fired = [[0, name, 0, 1, None, 0, 0, None]
             for name in sorted(spans.EXPECTED_SPANS["corpus-analyze"]) if name != "pgm.read"]
    assert spans.missing_spans("corpus-analyze", fired) == ["pgm.read"]
