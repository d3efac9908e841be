"""Command-line front end: BER sweeps and single-matrix reduction inspection."""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .errors import BudgetExceededError, SingularMatrixError, ValidationError
from .reduction import ReductionParams, clll_reduce
from .sim import (
    DETECTORS,
    SimConfig,
    format_complex_matrix,
    load_complex_matrix,
    open_records,
    run_sweep,
    write_records,
)
from .switched import klr_select

_MODS = {"qpsk": 4, "16qam": 16, "64qam": 64}

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


def _parse_snr_grid(text: str) -> tuple:
    try:
        start, step, stop = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise ValidationError(f"SNR grid must be start:step:stop, got {text!r}") from exc
    if not all(math.isfinite(v) for v in (start, step, stop)):
        raise ValidationError(f"SNR grid bounds must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise ValidationError(f"bad SNR grid {text!r}")
    grid = []
    v = start
    while v <= stop + 1e-9:
        point = round(v, 10)
        # a step below the rounding, or below an ulp of v, would repeat the
        # point for ever
        if grid and point == grid[-1]:
            raise ValidationError(f"SNR grid {text!r}: the step does not advance {v!r}")
        grid.append(point)
        v += step
    return tuple(grid)


def _parse_list(text: str, conv, option: str):
    try:
        return tuple(conv(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"{option}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lrmimo")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo BER sweep")
    sim.add_argument("--nt", type=int, required=True)
    sim.add_argument("--nr", type=int, required=True)
    sim.add_argument("--mod", choices=sorted(_MODS), default="qpsk")
    sim.add_argument("--snr", default="0:5:35", help="grid as start:step:stop (dB)")
    sim.add_argument("--detectors", default="zf,clr-zf,klr-zf")
    sim.add_argument("--k", default="1", help="comma list of candidate counts")
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--packet-len", type=int, default=100)
    sim.add_argument("--delta", type=float, default=0.75)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)

    red = sub.add_parser("reduce", help="inspect the reduction of one matrix")
    red.add_argument("--in", dest="infile", required=True)
    red.add_argument("--delta", type=float, default=0.75)
    red.add_argument("--k", type=int, default=0, help="switched candidates (0 = plain)")
    red.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_simulate(args) -> int:
    cfg = SimConfig(
        n_t=args.nt,
        n_r=args.nr,
        m=_MODS[args.mod],
        snr_grid_db=_parse_snr_grid(args.snr),
        detectors=_parse_list(args.detectors, str, "--detectors"),
        k_candidates=_parse_list(args.k, int, "--k"),
        trials=args.trials,
        packet_len=args.packet_len,
        seed=args.seed,
        delta=args.delta,
    )
    # found before the sweep, not after it
    out_dir = Path(args.out).resolve().parent
    if not out_dir.is_dir():
        raise ValidationError(f"--out directory {str(out_dir)!r} does not exist")
    if Path(args.out).is_dir():
        raise ValidationError(f"--out {args.out!r} is a directory, not a file")
    # opened once, here: an open-and-close probe would end a FIFO's stream
    try:
        out = open_records(args.out)
    except OSError as exc:
        raise ValidationError(f"cannot write --out {args.out!r}: {exc}") from exc
    with out:
        records = run_sweep(cfg)
        write_records(records, out)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    if args.k < 0 or args.seed < 0:
        raise ValidationError("--k and --seed must be >= 0")
    h = load_complex_matrix(args.infile)
    params = ReductionParams(args.delta)
    if args.k > 0:
        rng = np.random.default_rng(args.seed)
        res = klr_select(h, args.k, params, rng)
        basis = res.basis
        print(f"ODF baseline: {res.odf_baseline!r}")
        print(f"ODF selected: {res.odf_selected!r}")
        print(f"permutation:  {tuple(p + 1 for p in res.perm)}")
    else:
        basis = clll_reduce(h, params)
        print(f"ODF: {basis.odf_value!r}")
    print("H~:")
    print(format_complex_matrix(basis.h_tilde))
    print("U:")
    print(format_complex_matrix(basis.u))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_reduce(args)
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SingularMatrixError, BudgetExceededError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
