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
stream, detects it with a fresh copy of its selections (whose LR filters
are not yet formed, as in a sweep) and frees it, as `run_sweep` does; the
draw is timed apart, as `draw_us_per_trial`.  The symbols and sent slice
indices are formed from the pairs inside `_detect_trial`, so their time
counts as detection.
`minflt_per_trial` gives, for each workload's variant set, the minor page
faults of the process per trial of a pass (getrusage, median pass): the
packet and the block temporaries that the allocator hands back to the
kernel are faulted in again on the next trial.  How much it hands back
depends on what the process allocated before, so each workload's variant
figures (ns, faults, draw) come from a fresh interpreter that draws and
reduces that workload's trials alone, as a sweep's process does.
`detect_16qam_stage_us_per_trial` times, on the `detect-16qam` trials, the
work of a trial that depends only on the trial, formed once per trial:
`pseudoinverse` (the conventional ZF filter), `mmse_filters` (the
conventional MMSE filters of the 3 points, one stacked solve) and
`lr_zf_setup` (the LR-ZF filter and offset of the plain selection); each
is the median over passes of µs per trial.  The figures are printed as one
JSON line.  BLAS runs on one thread.  Run from the root of a checkout:

    python3 bench/tail_timing.py
"""

import copy
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lrmimo.detectors import mmse_filter_direct  # noqa: E402
from lrmimo.linalg import pseudoinverse  # noqa: E402
from lrmimo.modem import ConstellationSpec  # noqa: E402
from lrmimo.reduction import ReductionParams  # noqa: E402
from lrmimo.sim import (  # noqa: E402
    SimConfig,
    _chunk_selections,
    _detect_trial,
    _draw_packet,
    _draw_trial,
    _reduction_ks,
    _switched,
    snr_config,
)

TRIALS, PASSES = 32, 15
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
VARIANTS = {
    "klr_zf": [("clr-zf", 0), ("klr-zf", 1), ("klr-zf", 10)],
    "detect_16qam": [("zf", 0), ("mmse", 0), ("clr-zf", 0), ("clr-mmse-sic", 0)],
    "klr_mmse": [
        ("mmse", 0), ("clr-mmse", 0), ("klr-mmse", 10), ("clr-mmse-sic", 0),
        ("klr-mmse-sic", 10),
    ],
}


def prepared(cfg: SimConfig) -> tuple:
    """(spec, sigma2s, channels, streams, selections) of the seeded trials:
    each stream stands after its channel, where the packet draw begins."""
    spec = ConstellationSpec(cfg.m)
    switched = _switched(cfg.detectors)
    ks = _reduction_ks(cfg)
    sigma2s = [snr_config(s, cfg)[0] for s in cfg.snr_grid_db]
    trials = [_draw_trial(cfg, t, spec, switched) for t in range(TRIALS)]
    sels = _chunk_selections(trials, sigma2s, ks, ReductionParams(cfg.delta))
    heads = [_draw_trial(cfg, t, spec, set()) for t in range(TRIALS)]
    return spec, sigma2s, [h for h, *_ in heads], [r for _, r, *_ in heads], sels


def fresh(sels) -> list:
    """Copies of the selections whose cached LR filters are not formed yet."""
    return [{key: s[:] for key, s in sel.items()} for sel in sels]


def tail_figures(cfg: SimConfig, variants) -> tuple:
    """(ns per detected symbol, minor page faults per trial, µs per packet
    draw) of _detect_trial, each the median over passes."""
    spec, sigma2s, channels, streams, sels = prepared(cfg)
    errs = {v: np.zeros((2, len(sigma2s)), dtype=np.int64) for v in variants}
    symbols = TRIALS * len(sigma2s) * cfg.n_t * cfg.packet_len * len(variants)
    times, faults, draws = [], [], []
    for _ in range(PASSES):
        rngs, pass_sels = [copy.deepcopy(r) for r in streams], fresh(sels)
        detect = draw = 0.0
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for h, rng, sel in zip(channels, rngs, pass_sels):
            t0 = time.perf_counter()
            packet = _draw_packet(cfg, spec, rng)
            t1 = time.perf_counter()
            _detect_trial(h, packet, sel, variants, sigma2s, spec, None, errs)
            detect += time.perf_counter() - t1
            draw += t1 - t0
            del packet
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
        times.append(1e9 * detect / symbols)
        draws.append(1e6 * draw / TRIALS)
    return tuple(
        round(float(np.median(v)) / scale, 2)
        for v, scale in ((times, 1), (faults, TRIALS), (draws, 1))
    )


def stage_figures(cfg: SimConfig) -> dict:
    """µs per trial of each stage of a trial that depends only on the trial,
    the median over passes."""
    spec, sigma2s, channels, _, sels = prepared(cfg)
    stages = {
        "pseudoinverse": lambda h, sel: pseudoinverse(h),
        "mmse_filters": lambda h, sel: mmse_filter_direct(h, sigma2s),
        "lr_zf_setup": lambda h, sel: (sel[(False, 0)].pinv, sel[(False, 0)].offset),
    }
    out = {}
    for name, stage in stages.items():
        times = []
        for _ in range(PASSES):
            pass_sels = fresh(sels)
            t0 = time.perf_counter()
            for h, sel in zip(channels, pass_sels):
                stage(h, sel)
            times.append(1e6 * (time.perf_counter() - t0) / TRIALS)
        out[name] = round(float(np.median(times)), 2)
    return out


def workload_figures(name: str) -> list:
    """tail_figures of one workload's variant set, run in a fresh
    interpreter: the allocator then holds only what drawing and reducing
    that workload's trials left, as in a sweep's own process, so its page
    faults do not depend on the workloads measured before it."""
    proc = subprocess.run(
        [sys.executable, __file__, name], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def main(argv) -> int:
    if argv:  # one workload's variant figures, for workload_figures
        print(json.dumps(tail_figures(SHAPES[argv[0]], VARIANTS[argv[0]])))
        return 0
    out = {"trials": TRIALS}
    faults, draws = {}, {}
    for name in VARIANTS:
        ns, faults[name], draws[name] = workload_figures(name)
        out[f"{name}_variants_ns_per_symbol"] = ns
    out["minflt_per_trial"] = faults
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
