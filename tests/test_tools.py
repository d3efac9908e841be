"""The scripts under bench/ still run against the package.

bench/tail_timing.py drives private sim functions directly, and
bench/ab_bytes.py private functions of several modules, so a change to them
shows up here as a failure rather than as a broken script.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_tail_timing_prints_its_figures():
    proc = subprocess.run(
        [sys.executable, "bench/tail_timing.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {
        "trials",
        "lr_zf_ns_per_symbol",
        "klr_zf_variants_ns_per_symbol",
        "detect_16qam_variants_ns_per_symbol",
        "klr_mmse_variants_ns_per_symbol",
        "minflt_per_trial",
        "cli_minflt_per_trial",
        "draw_us_per_trial",
        "detect_16qam_stage_us_per_trial",
    }
    assert set(out["lr_zf_ns_per_symbol"]) == {"klr_zf_9x6x100", "detect_16qam_4x2000"}
    figures = [
        out["trials"],
        *out["lr_zf_ns_per_symbol"].values(),
        out["klr_zf_variants_ns_per_symbol"],
        out["detect_16qam_variants_ns_per_symbol"],
        out["klr_mmse_variants_ns_per_symbol"],
    ]
    assert all(isinstance(v, (int, float)) and v > 0 for v in figures), out
    draws = out["draw_us_per_trial"]
    assert set(draws) == {"klr_zf", "detect_16qam", "klr_mmse"}
    stages = out["detect_16qam_stage_us_per_trial"]
    assert set(stages) == {"zf_identity", "mmse_identity", "lr_zf_setup"}
    assert all(v > 0 for v in [*draws.values(), *stages.values()]), out
    for key in ("minflt_per_trial", "cli_minflt_per_trial"):
        faults = out[key]
        assert set(faults) == {"klr_zf", "detect_16qam", "klr_mmse"}
        # a page fault count: none at all is a valid reading
        assert all(isinstance(v, (int, float)) and v >= 0 for v in faults.values()), out


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
        "first_difference",
    }
    assert out["cases"] > 0 and out["fields"] >= out["cases"]
    assert (out["differing_cases"] == 0) == (out["first_difference"] is None)
    assert proc.returncode == (out["differing_cases"] > 0)
