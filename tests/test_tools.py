"""The scripts under bench/ still run against the package.

bench/stages.py wraps private sim functions by name, and bench/ab_bytes.py
calls private functions of several modules, so a change to them shows up
here as a failure rather than as a broken script.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the stages bench/stages.py times, each a name lrmimo.sim or, inside the
# chunk's selections, lrmimo.switched calls
STAGES = {
    "_draw_trial", "gen_channel", "_draw_packet", "sample_permutations",
    "_chunk_selections", "extend_channel", "_candidate_stack",
    "clll_reduce_batch", "_pick", "_identity", "_selection", "_lr_arrays",
    "_chunk_buffers", "_detect_trial", "_packet_symbols", "_decide",
    "_lr_estimate", "_lattice_indices", "_count_errors",
}


def test_stages_prints_its_figures():
    proc = subprocess.run(
        [sys.executable, "bench/stages.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {
        "workloads",
        "lone_us_per_basis",
        "batch_us_per_basis",
        "cli_minflt_per_trial",
    }
    names = {"klr-zf", "klr-mmse", "detect-16qam"}
    assert set(out["workloads"]) == names
    assert set(out["cli_minflt_per_trial"]) == names
    assert out["lone_us_per_basis"] > 0 and out["batch_us_per_basis"] > 0
    for name, figures in out["workloads"].items():
        assert set(figures) == {
            "stage_us_per_trial",
            "calls_per_trial",
            "sweep_us_per_trial",
            "wrapped_us_per_trial",
            "minflt_per_trial",
            "clll_calls",
            "bases_per_call",
            "loop_steps",
            "basis_steps",
            "peak_traced_mb",
        }, name
        self_us = figures["stage_us_per_trial"]
        assert set(self_us) == STAGES | {"other"}
        calls = figures["calls_per_trial"]
        assert set(calls) == STAGES
        assert all(v >= 0 for v in self_us.values()), (name, self_us)
        # every trial draws its channel and is detected once; each block
        # of SNR points slices and counts all its detections in one call
        assert calls["gen_channel"] == calls["_detect_trial"] == 1, name
        assert calls["_lattice_indices"] == calls["_count_errors"] >= 1, name
        assert calls["_decide"] >= calls["_lr_estimate"], name
        assert self_us["clll_reduce_batch"] > 0, name
        sweep = figures["sweep_us_per_trial"]
        wrapped = figures["wrapped_us_per_trial"]
        # the self times sum to the wrapped sweep time, up to rounding
        assert sum(self_us.values()) == pytest.approx(wrapped, rel=1e-3, abs=1.0)
        assert sum(self_us.values()) - self_us["other"] <= wrapped + 1.0
        assert sweep > 0 and wrapped > 0 and figures["peak_traced_mb"] > 0
        assert figures["clll_calls"] == len(figures["bases_per_call"]) >= 1
        assert 0 < figures["loop_steps"] <= figures["basis_steps"]
    # a page fault count: none at all is a valid reading
    faults = [
        *(f["minflt_per_trial"] for f in out["workloads"].values()),
        *out["cli_minflt_per_trial"].values(),
    ]
    assert all(isinstance(v, (int, float)) and v >= 0 for v in faults), out


def test_stages_restores_wrapped_names():
    # in a child, so that importing the script leaves this process as it is
    code = """
import pytest, stages
before = [getattr(m, n) for m, n in stages.WRAPPED]
def failing(name, fn):
    def call(*args, **kwargs):
        raise RuntimeError(name)
    return call
cfg = stages.sim.SimConfig(2, 2, 4, (10,), ("zf",), trials=1)
with pytest.raises(RuntimeError, match="_draw_trial"), stages.wrapped(failing):
    stages.sim.run_sweep(cfg)
assert [getattr(m, n) for m, n in stages.WRAPPED] == before
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT / "bench", capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_ab_bytes_prints_its_comparison():
    if not (ROOT / ".git").exists():
        pytest.skip("bench/ab_bytes.py extracts its ref from git")
    proc = subprocess.run(
        [sys.executable, "bench/ab_bytes.py", "--ref", "HEAD"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    # 1 reports differences, which a working tree may have against HEAD
    assert proc.returncode in (0, 1), proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {
        "ref",
        "parent_commit",
        "cases",
        "fields",
        "differing_cases",
        "differences",
    }
    assert out["cases"] > 0 and out["fields"] >= out["cases"]
    assert out["differing_cases"] == len(out["differences"])
    assert all(out["differences"].values())
    assert proc.returncode == (out["differing_cases"] > 0)


def test_ab_time_prints_its_ratios():
    if not (ROOT / ".git").exists():
        pytest.skip("bench/ab_time.py extracts its ref from git")
    proc = subprocess.run(
        [sys.executable, "bench/ab_time.py", "--ref", "HEAD", "--pairs", "2",
         "--trials", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"ref", "parent_commit", "pairs", "workloads"}
    assert set(out["workloads"]) == {"klr-zf", "klr-mmse", "detect-16qam"}
    for name, figures in out["workloads"].items():
        assert set(figures) == {
            "trials",
            "median_ratio",
            "ratio_q1",
            "ratio_q3",
            "ratio_iqr",
            "change_wins",
            "pairs",
            "parent_s",
            "change_s",
        }, name
        assert figures["trials"] == 1 and figures["pairs"] == 2
        assert 0 <= figures["change_wins"] <= 2
        assert figures["ratio_q1"] <= figures["median_ratio"] <= figures["ratio_q3"]
        assert figures["parent_s"] > 0 and figures["change_s"] > 0
