"""Smoke test of the sweep benchmark itself (not part of the lrmimo tests).

Runs every workload at tiny size in both modes and checks that every metric
declared in BENCHMARK.json is emitted with its unit, and that an altered
pinned count is reported as a failure.  Run from the checkout root:

    python3 -m pytest -q sweepbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import OUT_DIR  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, root=ROOT) -> dict:
    """Result line of a smallest run (--seconds 0) of the benchmark in `root`."""
    proc = subprocess.run(
        [sys.executable, "sweepbench/run.py", *args, "--seconds", "0"],
        capture_output=True, text=True, cwd=root, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(workload, trace, kind):
    res = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
    if trace:
        assert res["metrics"]["linalg.qr_per_clll"]["value"] == 3


def test_altered_pin_is_a_failure():
    """A copy of the checkout whose pins.json has one bit error more than the
    program makes in the first klr-zf row."""
    copy = OUT_DIR / "altered-pin"
    shutil.rmtree(copy, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
    shutil.copytree(HERE, copy / "sweepbench", ignore=skip)
    pins = workloads.load_pins()
    pins["klr-zf"]["rows"][0][3] += 1
    (copy / "sweepbench" / "pins.json").write_text(json.dumps(pins))
    res = bench("--workload", "klr-zf", "--trace", "0", root=copy)
    shutil.rmtree(copy)
    assert res["correct"] is False
    assert res["failed"] == 1
