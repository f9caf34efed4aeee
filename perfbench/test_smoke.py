"""Smoke test of the benchmark command: every metric printed with its unit.

Run from the root of a checkout:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def smoke(workload, trace, tmp_path):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke",
           "--spans", str(tmp_path / "spans.json")]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().split("\n")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace, tmp_path):
    lines = smoke(workload, trace, tmp_path)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    # The report above the JSON line prints every metric as "name value unit".
    printed = {ln.split()[0]: ln.split()[2] for ln in lines[:-1] if len(ln.split()) >= 3}
    for metric in SPEC["end_to_end"] + (SPEC["per_layer"] if trace else []):
        assert printed.get(metric["name"]) == metric["unit"], metric
    assert any(ln.startswith("failed_frac ") and " ratio " in ln for ln in lines[:-1])
    if trace:
        spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
        assert spans and all({"name", "start", "end", "parent", "solve"} <= set(s) for s in spans)


def test_exits_without_library(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name)) as src:
                (tmp_path / "perfbench" / name).write_text(src.read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "network8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
