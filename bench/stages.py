"""In-sweep time and calls of each stage of a trial, and the CLLL calls,
memory and page faults of the benchmark's sweeps.

Each workload of the benchmark (sweepbench/workloads.py) runs in a fresh
interpreter, since the allocator's state sets the fault counts.  First its
golden sweep and CLI_SWEEPS timed sweeps run through `cli.main`, as the
benchmark's worker runs them.  Then, at its sweep size and simulate seed 5,
the real `run_sweep` runs: one sweep that counts the `clll_reduce_batch`
calls, PAIRS interleaved pairs of an unwrapped and a wrapped sweep, and one
under tracemalloc.  The wrapped sweeps replace each name of SIM_STAGES
where `lrmimo.sim` looks it up, and each of SWITCHED_STAGES where
`lrmimo.switched` does, by a timer; every name is restored on exit.  Per
workload:

- `stage_us_per_trial`: each stage's self time (its time less that of the
  wrapped stages it calls) per trial of the wrapped sweeps, and `other`,
  the rest of `run_sweep`, summing to `wrapped_us_per_trial`, the wrapped
  sweeps' time per trial; and `calls_per_trial` of each stage;
- `sweep_us_per_trial` of the unwrapped sweeps and `minflt_per_trial`
  (their minor page faults per trial, by getrusage);
- `cli_us_per_trial` of the timed `cli.main` sweeps: beside
  `sweep_us_per_trial`, it shows the part of a benchmark sweep spent
  outside `run_sweep` (argument parsing, config, the CSV write);
- `clll_calls`, `bases_per_call`, `loop_steps` (per call, the largest
  iteration count of its bases, summed) and `basis_steps` (all iteration
  counts summed), which repeat exactly, and `peak_traced_mb`, the traced
  sweep's peak (MiB).

At the top level: `batch_us_per_basis`, the in-sweep `clll_reduce_batch`
time of `klr-mmse` per basis it reduces; `lone_us_per_basis`, the time of
`clll_reduce` on each of the first LONE of those bases alone (one trial's);
`cli_minflt_per_trial`, per workload the minor faults per trial of its
timed `cli.main` sweeps.  BLAS runs on one thread.  Prints one JSON line:

    python3 bench/stages.py
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "sweepbench"))

import workloads  # noqa: E402

from lrmimo import cli, clll_reduce, sim, switched  # noqa: E402

SEED, PAIRS, LONE, CLI_SWEEPS = 5, 3, 99, 10
# names run_sweep reaches through lrmimo.sim: the draws, the selections of a
# chunk and the detection of a trial, each with the helpers it calls; per
# block of SNR points, _decide and _lr_estimate once per distinct detection,
# then _lattice_indices and _count_errors once for all of them
SIM_STAGES = (
    "_draw_trial", "gen_channel", "_draw_packet", "sample_permutations",
    "_chunk_selections", "extend_channel", "_chunk_buffers", "_detect_trial",
    "_packet_symbols", "_decide", "_lr_estimate", "_lattice_indices",
    "_count_errors",
)
# the stages of the chunk's selections, which switched._select_all reaches
# through lrmimo.switched
SWITCHED_STAGES = (
    "_candidate_stack", "clll_reduce_batch", "_pick", "_identity", "_selection",
    "_lr_arrays",
)
WRAPPED = [(sim, n) for n in SIM_STAGES] + [(switched, n) for n in SWITCHED_STAGES]


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@contextlib.contextmanager
def wrapped(wrap):
    """Each WRAPPED name replaced by wrap(name, function) for the block,
    and restored on exit, also when the block raises."""
    saved = [(module, name, getattr(module, name)) for module, name in WRAPPED]
    try:
        for module, name, fn in saved:
            setattr(module, name, wrap(name, fn))
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


class StageTimer:
    """Self seconds and calls of each wrapped stage: a stage's self time is
    its time less that of the wrapped stages it calls, so the self times sum
    to the time spent in the stages."""

    def __init__(self):
        self.self_s, self.calls = Counter(), Counter()
        self.nested = [0.0]  # per running stage, the time of its callees

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            self.nested.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self.self_s[name] += elapsed - self.nested.pop()
                self.calls[name] += 1
                self.nested[-1] += elapsed

        return timed


def clll_counts(cfg) -> tuple:
    """(iterations of the bases of each clll_reduce_batch call, the first
    LONE bases of its first call's first stack) of one run_sweep of cfg."""
    iterations, first = [], []

    def counting(name, fn):
        def call(stacks, params):
            out = fn(stacks, params)
            first.extend(stacks[0][: LONE - len(first)])
            iterations.append([int(i) for s in out for i in s.iterations])
            return out

        return call if name == "clll_reduce_batch" else fn

    with wrapped(counting):
        sim.run_sweep(cfg)
    return iterations, first


def cli_sweeps(wl) -> tuple:
    """(minor page faults, µs) per trial of CLI_SWEEPS timed sweeps of
    benchmark workload wl, run through cli.main to one CSV path after its
    golden sweep, as the benchmark's worker runs them."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp) / "sweep.csv"
        golden = cli.main(wl.argv(wl.golden_trials, wl.default_seed, out))
        seeds = [workloads.sweep_seed(0, i) for i in range(CLI_SWEEPS)]
        f0, t0 = minflt(), perf_counter()
        codes = [cli.main(wl.argv(wl.sweep_trials, seed, out)) for seed in seeds]
        elapsed, faults = perf_counter() - t0, minflt() - f0
    if golden or any(codes):
        raise RuntimeError(f"a {wl.name} sweep failed")
    trials = CLI_SWEEPS * wl.sweep_trials
    return round(faults / trials, 2), round(1e6 * elapsed / trials, 1)


def figures(name: str) -> dict:
    """The figures of benchmark workload name (see the module docstring)."""
    wl = workloads.WORKLOADS[name]
    cli_minflt, cli_us = cli_sweeps(wl)
    cfg = sim.SimConfig(
        n_t=wl.n_t, n_r=wl.n_r, m=wl.m, snr_grid_db=wl.snr_points,
        detectors=wl.detectors, k_candidates=wl.k, trials=wl.sweep_trials,
        packet_len=wl.packet_len, seed=SEED,
    )
    iterations, first = clll_counts(cfg)
    timer, plain, timed, faults = StageTimer(), [], [], []
    for _ in range(PAIRS):
        f0, t0 = minflt(), perf_counter()
        sim.run_sweep(cfg)
        plain.append(perf_counter() - t0)
        faults.append(minflt() - f0)
        with wrapped(timer.wrap):
            t0 = perf_counter()
            sim.run_sweep(cfg)
            timed.append(perf_counter() - t0)
    tracemalloc.start()
    try:
        sim.run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trials = PAIRS * cfg.trials
    names = [n for _, n in WRAPPED]
    stage_us = {s: round(1e6 * timer.self_s[s] / trials, 1) for s in names}
    rest = sum(timed) - sum(timer.self_s.values())
    stage_us["other"] = round(1e6 * rest / trials, 1)
    bases = [len(i) for i in iterations]
    out = {
        "cli_minflt_per_trial": cli_minflt,
        "stage_us_per_trial": stage_us,
        "calls_per_trial": {s: round(timer.calls[s] / trials, 3) for s in names},
        "sweep_us_per_trial": round(1e6 * sum(plain) / trials, 1),
        "cli_us_per_trial": cli_us,
        "wrapped_us_per_trial": round(1e6 * sum(timed) / trials, 1),
        "minflt_per_trial": round(sum(faults) / trials, 2),
        "clll_calls": len(iterations),
        "bases_per_call": bases,
        "loop_steps": sum(max(i) for i in iterations),
        "basis_steps": sum(sum(i) for i in iterations),
        "peak_traced_mb": round(peak / 2**20, 3),
    }
    if name == "klr-mmse":
        clll_s = timer.self_s["clll_reduce_batch"] / PAIRS
        out["batch_us_per_basis"] = round(1e6 * clll_s / sum(bases), 1)
        t0 = perf_counter()
        for h in first:
            clll_reduce(h)
        out["lone_us_per_basis"] = round(1e6 * (perf_counter() - t0) / len(first), 1)
    return out


def fresh(name: str) -> dict:
    """The figures of workload name, from a fresh interpreter."""
    argv = [sys.executable, __file__, name]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv) -> int:
    if argv:  # a fresh interpreter's part: the name of one workload
        print(json.dumps(figures(argv[0])))
        return 0
    sweeps = {name: fresh(name) for name in workloads.WORKLOADS}
    cli_minflt = {name: f.pop("cli_minflt_per_trial") for name, f in sweeps.items()}
    print(json.dumps({
        "workloads": sweeps,
        "lone_us_per_basis": sweeps["klr-mmse"].pop("lone_us_per_basis"),
        "batch_us_per_basis": sweeps["klr-mmse"].pop("batch_us_per_basis"),
        "cli_minflt_per_trial": cli_minflt,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
