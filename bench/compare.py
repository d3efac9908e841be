"""Before/after comparison of the sweep benchmark on one host.

Extracts a git ref (default HEAD~1) with `git archive` into a temporary
directory, then runs `sweepbench/run.py --trace 0` on that copy ("parent")
and on the working tree ("change") in alternating pairs for each workload of
BENCHMARK.json, every run as long as its `run_seconds` sets: pair i runs both
sides with benchmark seed `--seed + i`, the parent first on even i and the
change first on odd i.  Each side uses the benchmark files of its own
checkout.  Writes one JSON file with every run's end-to-end metrics
(each a median over that run's sweeps), per metric the quartiles of each
side, the change/parent ratio of the medians and of each pair, the pairs the
change wins, and the host facts, among them the type and mount options of
the file system that holds the checkout (a sweep rewrites its CSV there).
Run from the root of a checkout:

    python3 bench/compare.py --ref HEAD~1 --pairs 10 --out BENCH.json
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(ref: str, dest: Path) -> None:
    """Write the files of `ref` into dest, as `git archive` gives them."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, check=True,
        capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def run_bench(root: Path, workload: str, seed: int) -> dict:
    """One `sweepbench/run.py --trace 0` run in checkout `root`."""
    cmd = [
        sys.executable, "sweepbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
    ]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{cmd} in {root} failed: {proc.stderr.strip()}")
    res = json.loads(lines[-1])
    return {
        "seed": seed,
        "started": t0,
        "wall_s": time.time() - t0,
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: m["value"] for name, m in res["metrics"].items()},
    }


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list) -> dict:
    """Per end-to-end metric: each side's quartiles, ratios and pair wins."""
    out = {}
    for metric in SPEC["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        pairs = [
            (p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in runs
        ]
        parent = quartiles([a for a, _ in pairs])
        change = quartiles([b for _, b in pairs])
        wins = sum((b > a) if higher else (b < a) for a, b in pairs)
        worse = (parent["median"] - change["median"]) if higher else (
            change["median"] - parent["median"])
        out[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": parent,
            "change": change,
            "ratio_of_medians": change["median"] / parent["median"],
            "pair_ratios": [b / a for a, b in pairs],
            "change_wins": wins,
            "pairs": len(pairs),
            "parent_iqr": parent["q3"] - parent["q1"],
            "worse_beyond_bound": worse > metric["bound"] * parent["median"],
        }
    return out


def mount_facts(path: Path, mounts: Path = Path("/proc/self/mounts")) -> dict:
    """Mount point, type and options of the file system that holds path:
    the entry of the longest mount point containing it, the last of equal
    ones (a later mount hides an earlier one).  Empty where mounts is absent."""
    if not mounts.is_file():
        return {}
    path = str(path.resolve())
    best = None
    for line in mounts.read_text().splitlines():
        fields = line.split()
        if len(fields) < 4:
            continue
        # spaces and the like in a mount point are written as octal escapes
        point = re.sub(r"\\([0-7]{3})", lambda m: chr(int(m.group(1), 8)), fields[1])
        inside = path == point or path.startswith(point.rstrip("/") + "/")
        if inside and (best is None or len(point) >= len(best[0])):
            best = (point, fields[2], fields[3])
    if best is None:
        return {}
    return {"fs_mount": best[0], "fs_type": best[1], "fs_options": best[2]}


def host_facts() -> dict:
    import numpy

    facts = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    facts.update(mount_facts(ROOT))
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", default="HEAD~1", help="git ref of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of pair 0")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    record = {
        "parent_ref": args.ref,
        "parent_commit": git("rev-parse", args.ref),
        "change_commit": git("rev-parse", "HEAD"),
        "change_uncommitted": bool(
            git("status", "--porcelain", "--", "src", "sweepbench")
        ),
        "settings": {
            "pairs": args.pairs, "seconds": SPEC["run_seconds"], "seed": args.seed
        },
        "host": host_facts(),
        "load_avg_start": os.getloadavg(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_root = Path(tmp)
        extract(args.ref, parent_root)
        sides = {"parent": parent_root, "change": ROOT}
        for name in WORKLOADS:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_bench(sides[side], name, seed)
                    rate = pair[side]["metrics"]["trials_per_s"]
                    print(f"{name} pair {i} {side}: trials_per_s {rate:.4g}",
                          flush=True)
                runs.append(pair)
            record["workloads"][name] = {"runs": runs, "summary": summarise(runs)}
    record["load_avg_end"] = os.getloadavg()
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")

    for name, wl in record["workloads"].items():
        for metric, s in wl["summary"].items():
            print(
                f"{name:13s} {metric:13s} parent {s['parent']['median']:.4g} "
                f"change {s['change']['median']:.4g} ratio {s['ratio_of_medians']:.3f} "
                f"wins {s['change_wins']}/{s['pairs']}"
                + ("  WORSE BEYOND BOUND" if s["worse_beyond_bound"] else "")
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
