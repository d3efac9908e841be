"""The measured process: imports lrmimo from the checkout and runs sweeps.

Started by run.py with BLAS pinned to one thread.  Modes:

  timed   run the golden sweep (warm-up and pin check), then timed sweeps
          through lrmimo.cli.main until the time budget is spent, each
          followed by a set-up probe (probe.py in a fresh process).
  traced  run the golden sweep traced, then seconds/2 pairs of untraced and
          traced sweeps of the same seed; their CSVs must be identical.

Prints one JSON object as its last line of standard output.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"
OUT_DIR = ROOT / ".sweepbench"
MIN_SWEEPS = 3


def _import_lrmimo():
    """The lrmimo package of this checkout, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import lrmimo.cli

    origin = Path(lrmimo.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"lrmimo imported from {origin}, not from {SRC}")
    return lrmimo


class Runner:
    """Runs sweeps of one workload through the public CLI entry point."""

    def __init__(self, cli, wl, pins: dict):
        self.cli, self.wl, self.pins = cli, wl, pins
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def sweep(self, trials: int, seed: int, tag: str, golden: bool = False):
        """One CLI sweep; returns (seconds, csv_text), or (None, None) on failure."""
        out = OUT_DIR / f"{self.wl.name}-{tag}.csv"
        self.attempted += 1
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(self.wl.argv(trials, seed, out))
        except Exception as exc:  # a raising sweep is a failed sweep
            self.fail(f"{tag} sweep, seed {seed}, raised {type(exc).__name__}: {exc}")
            return None, None
        dt = time.perf_counter() - t0
        if code != 0:
            self.fail(f"{tag} sweep, seed {seed}, exited with code {code}")
            return None, None
        text = out.read_text()
        found = workloads.check_csv(text, self.wl, trials)
        if golden:
            found += workloads.check_pins(text, self.wl, self.pins)
        if found:
            self.fail(f"{tag} sweep, seed {seed}: " + "; ".join(found))
            return None, None
        return dt, text

    def golden(self):
        return self.sweep(self.wl.golden_trials, self.wl.default_seed, "golden", golden=True)


def setup_time(wl, trials: int, seed: int) -> float:
    """Seconds from starting a fresh probe process to its "ready" line."""
    cmd = [sys.executable, str(PROBE), str(SRC), *wl.argv(trials, seed, "unused.csv")]
    t0 = time.perf_counter()
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (code {proc.returncode}): {err.strip()}")
    return t1 - t0


def _timed(runner, args, trials):
    """Timed sweeps until the time budget is spent, a set-up probe after each
    so that both medians sample the whole run and a burst of load on the
    machine moves few samples."""
    runner.golden()
    rates, setup = [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < MIN_SWEEPS or time.perf_counter() < deadline:
        dt, _ = runner.sweep(trials, workloads.sweep_seed(args.seed, i), "timed")
        if dt is not None:
            rates.append(trials / dt)
        setup.append(setup_time(runner.wl, trials, args.seed))
        i += 1
    return {"trials_per_s": rates, "setup_s": setup}


def _traced(runner, args, trials):
    """A fixed amount of traced work, so counts repeat exactly for a seed and
    layer times are totals over the same sweeps on every commit."""
    import tracing

    tracer = tracing.Tracer()
    with tracing.instrument(tracer) as patched:
        runner.golden()
    ratios = []
    for i in range(max(1, round(args.seconds / 2))):
        seed = workloads.sweep_seed(args.seed, i)
        runs = {}
        # alternate which side runs first so drift cancels in the median
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            ctx = tracing.instrument(tracer) if traced else contextlib.nullcontext()
            with ctx:
                runs[traced] = runner.sweep(trials, seed, "traced" if traced else "plain")
        (dt_plain, csv_plain), (dt_traced, csv_traced) = runs[False], runs[True]
        if csv_plain is not None and csv_traced is not None:
            if csv_plain != csv_traced:
                runner.fail(f"traced CSV differs from untraced at seed {seed}")
            else:
                ratios.append(dt_traced / dt_plain - 1.0)
    metrics, table = tracing.analyse(tracer.spans)
    metrics["trace.overhead_frac"] = (statistics.median(ratios) if ratios else 0.0, "ratio")
    metrics["trace.call_sites"] = (len(patched), "count")
    stem = OUT_DIR / f"{runner.wl.name}-seed{args.seed}"
    tracer.write(f"{stem}-spans.csv")
    with open(f"{stem}-functions.json", "w") as fh:
        json.dump([dict(zip(("name", "calls", "inclusive_s", "self_s"), r)) for r in table],
                  fh, indent=1)
    return {"layers": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("timed", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    lrmimo = _import_lrmimo()
    runner = Runner(lrmimo.cli, wl, workloads.load_pins())
    run = _timed if args.mode == "timed" else _traced
    result = run(runner, args, wl.sweep_trials)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(result), flush=True)
    return 0


def environment() -> dict:
    """Versions, BLAS build, core count, commit and thread variables."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

if __name__ == "__main__":
    sys.exit(main())
