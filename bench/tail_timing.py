"""Time per detected symbol and page faults per trial of the detection tail.

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
the median of 15 passes over the trials.  `minflt_per_trial` gives, for
each workload's variant set, the minor page faults of the process per
`_detect_trial` call (getrusage, median pass): block temporaries that the
allocator hands back to the kernel are faulted in again on the next call.
The packets are drawn before the passes and held, whereas a sweep draws
and frees one per trial, so the heap differs from a sweep's: the count
compares two trees under one layout, not a sweep's own count.  The figures are printed as one JSON line.  BLAS runs on one thread.  Run
from the root of a checkout:

    python3 bench/tail_timing.py
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lrmimo.modem import ConstellationSpec  # noqa: E402
from lrmimo.reduction import ReductionParams  # noqa: E402
from lrmimo.sim import (  # noqa: E402
    _DETECTOR_TABLE,
    SimConfig,
    _chunk_selections,
    _detect_trial,
    _draw_packet,
    _draw_trial,
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


def tail_figures(cfg: SimConfig, variants) -> tuple:
    """(ns per detected symbol, minor page faults per trial) of
    _detect_trial, each the median over passes."""
    spec = ConstellationSpec(cfg.m)
    switched = _switched(cfg.detectors)
    flavours = {_DETECTOR_TABLE[d][0] for d in cfg.detectors} - {None}
    ks = {f: cfg.k_candidates if f in switched else () for f in flavours}
    sigma2s = [snr_config(s, cfg)[0] for s in cfg.snr_grid_db]
    trials = [_draw_trial(cfg, t, spec, switched) for t in range(TRIALS)]
    sels = _chunk_selections(trials, sigma2s, ks, ReductionParams(cfg.delta))
    # the packets a non-switched sweep draws as it detects, drawn untimed
    packets = [p or _draw_packet(cfg, spec, rng) for _, rng, p, _ in trials]
    errs = {v: np.zeros((2, len(sigma2s)), dtype=np.int64) for v in variants}
    symbols = TRIALS * len(sigma2s) * cfg.n_t * cfg.packet_len * len(variants)
    times, faults = [], []
    for _ in range(PASSES):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        for (h, *_), packet, sel in zip(trials, packets, sels):
            _detect_trial(h, packet, sel, variants, sigma2s, spec, None, errs)
        times.append(1e9 * (time.perf_counter() - t0) / symbols)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    return (
        round(float(np.median(times)), 2),
        round(float(np.median(faults)) / TRIALS, 1),
    )


def main() -> int:
    zf, qam = SHAPES["klr_zf"], SHAPES["detect_16qam"]
    out = {
        "trials": TRIALS,
        "lr_zf_ns_per_symbol": {
            "klr_zf_9x6x100": tail_figures(zf, [("clr-zf", 0)])[0],
            "detect_16qam_4x2000": tail_figures(qam, [("clr-zf", 0)])[0],
        },
    }
    faults = {}
    for name, variants in VARIANTS.items():
        ns, faults[name] = tail_figures(SHAPES[name], variants)
        out[f"{name}_variants_ns_per_symbol"] = ns
    out["minflt_per_trial"] = faults
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
