"""Set-up probe: what `lrmimo simulate` does before its sweep, and no more.

    python3 sweepbench/probe.py <src dir> simulate --nt 6 --nr 6 ... --out x.csv

Puts <src dir> first on sys.path, imports lrmimo.cli, parses the simulate
arguments, builds and validates the SimConfig, prints "ready" and exits.  It
imports nothing of the benchmark, so the time from starting it to its "ready"
line is the program's own set-up: interpreter, `import lrmimo`, validation.
"""

import sys

sys.path.insert(0, sys.argv[1])
import lrmimo.cli  # noqa: E402

args = lrmimo.cli.build_parser().parse_args(sys.argv[2:])
start, step, stop = (float(v) for v in args.snr.split(":"))
lrmimo.SimConfig(
    n_t=args.nt,
    n_r=args.nr,
    m={"qpsk": 4, "16qam": 16, "64qam": 64}[args.mod],
    snr_grid_db=tuple(start + i * step for i in range(round((stop - start) / step) + 1)),
    detectors=tuple(args.detectors.split(",")),
    k_candidates=tuple(int(k) for k in args.k.split(",")),
    trials=args.trials,
    packet_len=args.packet_len,
    seed=args.seed,
    delta=args.delta,
)
print("ready", flush=True)
