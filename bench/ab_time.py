"""Same-process timing A/B of `run_sweep`: a git ref against the working tree.

Extracts a git ref (default HEAD) with `git archive` into a temporary
directory, as bench/ab_bytes.py does, and imports both trees' lrmimo into
this one process under two package names, `lrmimo_parent` and
`lrmimo_change` (the package imports its own modules only relatively).  For
each workload of the benchmark (sweepbench/workloads.py) it runs `run_sweep`
at the workload's sweep size (or `--trials`) in `--pairs` interleaved pairs:
pair i runs both trees with simulate seed i, the parent first on
even i and the change first on odd i, and checks that the two trees'
records are equal.  One untimed sweep of each tree runs first.  BLAS runs on
one thread.  Prints one JSON line: the ref and its commit, the settings,
and per workload the median of the pairs' time ratios (change over parent),
their quartiles and IQR, the pairs the change ran faster, and each tree's
median seconds per sweep.  Run from the root of a checkout:

    python3 bench/ab_time.py --ref HEAD~1 --pairs 40
"""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import astuple  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "sweepbench"))

import workloads  # noqa: E402
from compare import extract, git  # noqa: E402


def load_sim(name: str, src: Path):
    """The sim module of the lrmimo package under src, imported as package
    `name`."""
    pkg = src / "lrmimo"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.sim")


def config(sim, wl, trials: int, seed: int):
    return sim.SimConfig(
        n_t=wl.n_t, n_r=wl.n_r, m=wl.m, snr_grid_db=wl.snr_points,
        detectors=wl.detectors, k_candidates=wl.k, trials=trials,
        packet_len=wl.packet_len, seed=seed,
    )


def timed(sim, wl, trials: int, seed: int) -> tuple:
    """(seconds, records as tuples) of one run_sweep of workload wl."""
    cfg = config(sim, wl, trials, seed)
    t0 = perf_counter()
    records = sim.run_sweep(cfg)
    return perf_counter() - t0, [astuple(r) for r in records]


def summary(pairs: list) -> dict:
    """The ratio statistics of (parent s, change s) pairs."""
    ratios = [c / p for p, c in pairs]
    q1, median, q3 = (
        statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    )
    return {
        "median_ratio": round(median, 4),
        "ratio_q1": round(q1, 4),
        "ratio_q3": round(q3, 4),
        "ratio_iqr": round(q3 - q1, 4),
        "change_wins": sum(c < p for p, c in pairs),
        "pairs": len(pairs),
        "parent_s": round(statistics.median(p for p, _ in pairs), 5),
        "change_s": round(statistics.median(c for _, c in pairs), 5),
    }


def compare(sims: dict, wl, trials: int, args) -> dict:
    """The summary of args.pairs interleaved pairs of sweeps of workload
    wl, after one untimed sweep of each tree; raises RuntimeError where a
    pair's records differ."""
    for sim in sims.values():
        timed(sim, wl, trials, 0)
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: timed(sims[side], wl, trials, i) for side in order}
        if runs["parent"][1] != runs["change"][1]:
            raise RuntimeError(f"{wl.name} pair {i}: the trees' records differ")
        pairs.append((runs["parent"][0], runs["change"][0]))
    return {"trials": trials, **summary(pairs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument(
        "--trials", type=int, help="trials per sweep (default: the workload's)"
    )
    args = parser.parse_args(argv)
    if args.pairs < 1 or (args.trials is not None and args.trials < 1):
        parser.error("--pairs and --trials must be >= 1")
    with tempfile.TemporaryDirectory(prefix="ab-time-parent-") as tmp:
        extract(args.ref, Path(tmp))
        sims = {
            "parent": load_sim("lrmimo_parent", Path(tmp) / "src"),
            "change": load_sim("lrmimo_change", ROOT / "src"),
        }
        out = {
            name: compare(sims, wl, args.trials or wl.sweep_trials, args)
            for name, wl in workloads.WORKLOADS.items()
        }
    print(json.dumps({
        "ref": args.ref,
        "parent_commit": git("rev-parse", args.ref),
        "pairs": args.pairs,
        "workloads": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
