"""Self-test of the end-to-end benchmark at its sub-minute ``--smoke`` size.

Run with ``pytest benchmarks/e2e -q`` (outside the tier-1 test paths).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = HERE / "bench.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from bench import judge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH), *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.jsonl"
    proc, lines = run_bench("--smoke", "--repeats", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(lines[-1]), json.loads(out.read_text())


def test_every_metric_printed_with_unit(smoke):
    text, line, _ = smoke
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for w in WORKLOADS:
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            got = line["metrics"][f"{w}/{m['name']}"]
            assert got["unit"] == m["unit"], (w, m["name"])
            assert isinstance(got["value"], (int, float))
            assert m["name"] in text
    assert "error_frac" in text


def test_traced_digest_equals_untraced(smoke):
    _, _, record = smoke
    for w, rep in record["workloads"].items():
        digests = {p["mode"]: p["digest"] for p in rep["passes"]}
        assert set(digests) == {"plain", "trace"}, w
        assert digests["plain"] == digests["trace"], w
        events = {p["events"] for p in rep["passes"]}
        assert len(events) == 1, (w, events)


def test_corrupted_pin_fails_every_pass(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    (tmp_path / "BENCHMARK.json").symlink_to(ROOT / "BENCHMARK.json")
    pins = json.loads((copy / "baseline.json").read_text())
    for by_seed in pins["pins"]["smoke"].values():
        for seed, digest in by_seed.items():
            by_seed[seed] = digest[::-1]
    (copy / "baseline.json").write_text(json.dumps(pins))
    proc = subprocess.run(
        [sys.executable, str(copy / "bench.py"), "--smoke", "--workload",
         "histo-flush", "--repeats", "2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1])
    assert proc.returncode != 0
    assert not line["correct"]
    assert line["failed"] == line["attempted"] == 2  # error_frac = 1
    assert "1.0000" in proc.stdout


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", "histo-flush",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_rule():
    # lower is better; the change wins 10/10 pairs by more than the IQR
    parent = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.01]
    faster = [(p, p * 0.8) for p in parent]
    assert judge(faster, "lower", 0.25).startswith("gain")
    assert judge(faster[:9], "lower", 0.25).startswith("no regression")
    slower = [(p, p * 1.4) for p in parent]
    assert judge(slower, "lower", 0.25).startswith("regression")
    noisy = [(p, c) for p, c in zip(parent, [0.5, 1.6] * 5)]
    assert judge(noisy, "lower", 0.25).startswith("unresolved")
    assert judge(faster, "higher", 0.1).startswith("regression")
