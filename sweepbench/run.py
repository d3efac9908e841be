"""lrmimo sweep benchmark: trials/s of fixed `lrmimo simulate` workloads.

Run from the root of a checkout:

    python3 sweepbench/run.py --workload klr-zf --seed 1 --seconds 30 --trace 0
    python3 sweepbench/run.py --workload all --seconds 30 --trace 1

--trace 0 prints the end-to-end metrics: trials_per_s (median over timed
sweeps), setup_s (median over fresh probe.py processes, one started after
each timed sweep, timed from start to ready to sweep: interpreter, import
lrmimo, config validation) and peak_rss_mb of the measuring process.  --trace 1 runs a fixed number of untraced and traced sweeps in
pairs and prints the per-layer metrics of the traced ones.
Every sweep's CSV is checked, the golden sweep against pinned error counts;
sweeps that raise or fail a check count in `failed` out of `attempted`.

All lrmimo code runs in child processes with BLAS pinned to one thread.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Outputs go to .sweepbench/ in the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from worker import OUT_DIR, ROOT, THREAD_VARS

WORKER = Path(__file__).resolve().parent / "worker.py"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _worker_cmd(mode, wl, args) -> list:
    return [
        sys.executable, str(WORKER), mode,
        "--workload", wl.name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]


def worker_timeout(seconds: float) -> float:
    """Time a worker may take before the run is abandoned.  Both modes take
    about `seconds` plus the golden sweep; the margin leaves room for a
    program several times slower than at the commit that defined the
    benchmark."""
    return 2 * seconds + 120


def run_worker(mode, wl, args) -> dict:
    try:
        proc = subprocess.run(
            _worker_cmd(mode, wl, args), capture_output=True, text=True,
            env=_env(), timeout=worker_timeout(args.seconds),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker of {wl.name} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker of {wl.name} failed: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def measure(wl, args) -> tuple[dict, dict]:
    """Metrics {name: (value, unit)} of one workload and the full record."""
    if args.trace:
        res = run_worker("traced", wl, args)
        metrics = {k: tuple(v) for k, v in res["layers"].items()}
        notes = {}
    else:
        res = run_worker("timed", wl, args)
        rates, setup = res["trials_per_s"], res["setup_s"]
        if not rates:
            raise BenchError(f"no timed sweep of {wl.name} succeeded: {res['problems']}")
        metrics = {
            "trials_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        notes = {"trials_per_s": _spread(rates), "setup_s": _spread(setup)}
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{wl.name:13s} {name:30s} {value:.6g} {unit}{note}")
    failed_frac = res["failed"] / res["attempted"]
    print(f"{wl.name:13s} {'failed_frac':30s} {failed_frac:.6g} "
          f"({res['failed']} of {res['attempted']} sweeps)")
    for problem in res["problems"]:
        print(f"{wl.name:13s} FAILED: {problem}")
    return metrics, res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lrmimo" / "__init__.py").is_file():
        print(f"error: no lrmimo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    single = len(names) == 1
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            wl_metrics, res = measure(workloads.WORKLOADS[name], args)
            attempted += res["attempted"]
            failed += res["failed"]
            for metric, (value, unit) in wl_metrics.items():
                metrics[metric if single else f"{name}/{metric}"] = {"value": value, "unit": unit}
            record = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps(
                {"args": vars(args), "metrics": wl_metrics, **res}, indent=1))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
