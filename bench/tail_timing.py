"""Time per detected symbol, per packet draw and per trial stage, and page
faults per trial, of the detection tail.

The tail is what a sweep does with one trial after its bases are reduced
and selected: form the received blocks, estimate, take slice indices and
count bit and symbol errors (`sim._detect_trial`).  Draws 32 seeded trials
of three benchmark shapes, reduces and selects them as `run_sweep` does,
and times `_detect_trial` on each:

- `klr-zf`: 6x6 QPSK, 9 SNR points (14:1:22 dB), packet 100, so one call
  detects a 9x6x100 block;
- `detect-16qam`: 4x4 16-QAM, 3 SNR points (10:6:22 dB), packet 2000, one
  4x2000 block per call (8x2000 for the extended SIC input);
- `klr-mmse`: the `klr-zf` shape with the extended (MMSE) detectors, whose
  LR estimators work on the 9x12x100 stack of padded blocks.

`lr_zf` detects with the `clr-zf` variant alone, the LR-ZF tail of one
block.  The `*_variants` figures detect with every variant of a workload in
one call, as the sweep does: `klr_zf` with clr-zf, klr-zf K=1 and K=10,
`detect_16qam` with zf, mmse, clr-zf and clr-mmse-sic, and `klr_mmse` with
mmse, clr-mmse, klr-mmse K=10, clr-mmse-sic and klr-mmse-sic K=10.  Each
figure is ns per detected symbol (points x n_t x packet_len per variant),
the median of 15 passes over the trials.  Every pass draws each packet
(`sim._draw_packet`: level index pairs and unit noise) from its trial's
stream, detects it with its selections (which carry their LR filters,
formed for all trials at once, as a sweep forms them for a chunk) into
the pass's block buffers (`sim._chunk_buffers`, formed once per pass as a
sweep forms them per chunk) and frees it, as `run_sweep` does; the draw
is timed apart, as `draw_us_per_trial`.  The symbols and sent slice
indices are formed from the pairs inside `_detect_trial`, so their time
counts as detection.
`minflt_per_trial` gives, for each workload's variant set, the minor page
faults of the process per trial of a pass (getrusage, median pass): the
packet and the block temporaries that the allocator hands back to the
kernel are faulted in again on the next trial.  How much it hands back
depends on what the process allocated before, so each workload's variant
figures (ns, faults, draw) come from a fresh interpreter that draws and
reduces that workload's trials alone, as a sweep's process does.
`cli_minflt_per_trial` gives, for each benchmark workload, the minor page
faults per trial of its timed sweeps run through `cli.main` after its
golden sweep, as the benchmark's worker (`sweepbench/worker.py`) runs
them, in a fresh interpreter: the faults of 10 sweeps over their trials.
The count depends on that context: the golden sweep and the CSV writing
leave the heap other than the passes above do, and from one sweep to the
next the count of a switched workload swings by more than its mean (0 to
16 per trial on `klr_zf`) with where the previous sweep left the heap.
`detect_16qam_stage_us_per_trial` times, on the `detect-16qam` trials, the
selections that depend only on the channels, formed for all trials at
once as a sweep forms them for a chunk: `zf_identity` and `mmse_identity`
(the identity selections on which zf and mmse detect, of the plain
channels and of the extended channels at the 3 points, each built by
`switched._identity` and one `_selection` call, as `sim._chunk_selections`
builds them) and `lr_zf_setup` (`switched._lr_arrays`: T, T^-1, offset and
LR-ZF filter of the plain CLLL selections, one call over their kept
bases, Q already factored); each is the median over passes of µs per
trial.  The figures are printed as one JSON line.  BLAS runs on one
thread.  Run from the root of a checkout:

    python3 bench/tail_timing.py
"""

import contextlib
import copy
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lrmimo.modem import ConstellationSpec  # noqa: E402
from lrmimo.reduction import ReducedStack, ReductionParams  # noqa: E402
from lrmimo.sim import (  # noqa: E402
    SimConfig,
    _chunk_buffers,
    _chunk_selections,
    _detect_trial,
    _draw_packet,
    _draw_trial,
    _selection_ks,
    _switched,
    _variants,
    snr_config,
)
from lrmimo.switched import (  # noqa: E402
    _identity,
    _lr_arrays,
    _selection,
    extend_channel,
)

TRIALS, PASSES = 32, 15
CLI_SWEEPS = 10
SHAPES = {
    "klr_zf": SimConfig(
        n_t=6, n_r=6, m=4, snr_grid_db=tuple(range(14, 23)),
        detectors=("clr-zf", "klr-zf"), k_candidates=(1, 10), packet_len=100,
    ),
    "detect_16qam": SimConfig(
        n_t=4, n_r=4, m=16, snr_grid_db=(10, 16, 22),
        detectors=("zf", "mmse", "clr-zf", "clr-mmse-sic"), k_candidates=(1,),
        packet_len=2000,
    ),
    "klr_mmse": SimConfig(
        n_t=6, n_r=6, m=4, snr_grid_db=tuple(range(14, 23)),
        detectors=("mmse", "clr-mmse", "klr-mmse", "clr-mmse-sic", "klr-mmse-sic"),
        k_candidates=(10,), packet_len=100,
    ),
}
VARIANTS = {name: _variants(cfg) for name, cfg in SHAPES.items()}


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def prepared(cfg: SimConfig) -> tuple:
    """(spec, sigma2s, channels, streams, selections) of the seeded trials:
    each stream stands after its channel, where the packet draw begins."""
    spec = ConstellationSpec(cfg.m)
    switched = _switched(cfg.detectors)
    ks = _selection_ks(cfg)
    sigma2s = [snr_config(s, cfg)[0] for s in cfg.snr_grid_db]
    trials = [_draw_trial(cfg, t, spec, switched) for t in range(TRIALS)]
    sels = _chunk_selections(trials, sigma2s, ks, ReductionParams(cfg.delta))
    heads = [_draw_trial(cfg, t, spec, set()) for t in range(TRIALS)]
    return spec, sigma2s, [h for h, *_ in heads], [r for _, r, *_ in heads], sels


def plain_kept(sels) -> tuple:
    """(kept, perms): the kept bases of the trials' plain K = 0 selections
    as one ReducedStack, its Q factored, and their permutations, as
    _chunk_selections holds them for a chunk."""
    parts = [sel[(False, 0)] for sel in sels]
    columns = [[getattr(p.basis, f.name) for p in parts] for f in fields(ReducedStack)]
    kept = ReducedStack(*map(np.concatenate, columns))
    kept.q  # factored by the selection, before its filters
    return kept, tuple(p.perms[0] for p in parts)


def tail_figures(cfg: SimConfig, variants) -> tuple:
    """(ns per detected symbol, minor page faults per trial, µs per packet
    draw) of _detect_trial, each the median over passes."""
    spec, sigma2s, channels, streams, sels = prepared(cfg)
    errs = {v: np.zeros((2, len(sigma2s)), dtype=np.int64) for v in variants}
    symbols = TRIALS * len(sigma2s) * cfg.n_t * cfg.packet_len * len(variants)
    times, faults, draws = [], [], []
    for _ in range(PASSES):
        rngs = [copy.deepcopy(r) for r in streams]
        bufs = _chunk_buffers(cfg, spec)
        detect = draw = 0.0
        f0 = minflt()
        for h, rng, sel in zip(channels, rngs, sels):
            t0 = time.perf_counter()
            packet = _draw_packet(cfg, spec, rng)
            t1 = time.perf_counter()
            _detect_trial(h, packet, sel, variants, sigma2s, spec, None, errs, bufs)
            detect += time.perf_counter() - t1
            draw += t1 - t0
            del packet
        faults.append(minflt() - f0)
        times.append(1e9 * detect / symbols)
        draws.append(1e6 * draw / TRIALS)
    return tuple(
        round(float(np.median(v)) / scale, 2)
        for v, scale in ((times, 1), (faults, TRIALS), (draws, 1))
    )


def stage_figures(cfg: SimConfig) -> dict:
    """µs per trial of each selection stage that depends only on the
    channels, formed for all trials at once, the median over passes."""
    _, sigma2s, channels, _, sels = prepared(cfg)
    kept, perms = plain_kept(sels)
    plain = np.stack(channels)
    extended = np.concatenate([extend_channel(h, np.sqrt(sigma2s)) for h in channels])
    stages = {
        "zf_identity": lambda: _selection(*_identity(plain), False),
        "mmse_identity": lambda: _selection(*_identity(extended), True),
        "lr_zf_setup": lambda: _lr_arrays(perms, kept),
    }
    out = {}
    for name, stage in stages.items():
        times = []
        for _ in range(PASSES):
            t0 = time.perf_counter()
            stage()
            times.append(1e6 * (time.perf_counter() - t0) / TRIALS)
        out[name] = round(float(np.median(times)), 2)
    return out


def cli_faults(name: str) -> float:
    """Minor page faults per trial of CLI_SWEEPS timed sweeps of benchmark
    workload name, run through cli.main after its golden sweep as the
    benchmark's worker runs them."""
    sys.path.insert(0, str(ROOT / "sweepbench"))
    import workloads
    from lrmimo import cli

    wl = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp) / "sweep.csv"
        golden = cli.main(wl.argv(wl.golden_trials, wl.default_seed, out))
        f0 = minflt()
        codes = [
            cli.main(wl.argv(wl.sweep_trials, workloads.sweep_seed(0, i), out))
            for i in range(CLI_SWEEPS)
        ]
        faults = minflt() - f0
    if golden or any(codes):
        raise RuntimeError(f"a {name} sweep failed")
    return round(faults / (CLI_SWEEPS * wl.sweep_trials), 2)


def fresh(*argv):
    """The JSON figures this script prints for argv, from a fresh
    interpreter: the allocator then holds only what that workload's own
    run left, as in a sweep's own process, so its page faults do not
    depend on the workloads measured before it."""
    proc = subprocess.run(
        [sys.executable, __file__, *argv], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def main(argv) -> int:
    if argv[:1] == ["cli"]:  # one benchmark workload's cli_faults
        print(json.dumps(cli_faults(argv[1])))
        return 0
    if argv:  # one workload's variant figures
        print(json.dumps(tail_figures(SHAPES[argv[0]], VARIANTS[argv[0]])))
        return 0
    out = {"trials": TRIALS}
    faults, draws, cli_minflt = {}, {}, {}
    for name in VARIANTS:
        ns, faults[name], draws[name] = fresh(name)
        out[f"{name}_variants_ns_per_symbol"] = ns
        cli_minflt[name] = fresh("cli", name.replace("_", "-"))
    out["minflt_per_trial"] = faults
    out["cli_minflt_per_trial"] = cli_minflt
    out["draw_us_per_trial"] = draws
    zf, qam = SHAPES["klr_zf"], SHAPES["detect_16qam"]
    out["lr_zf_ns_per_symbol"] = {
        "klr_zf_9x6x100": tail_figures(zf, [("clr-zf", 0)])[0],
        "detect_16qam_4x2000": tail_figures(qam, [("clr-zf", 0)])[0],
    }
    out["detect_16qam_stage_us_per_trial"] = stage_figures(qam)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
