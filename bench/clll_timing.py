"""CLLL cost per basis and per trial, by how many bases share one call.

Builds the bases that one trial of the `klr-mmse` benchmark workload reduces
(a 6x6 i.i.d. channel extended for each SNR point of 14:1:22 dB, each
followed by its 10 column-permuted candidates: 99 bases of 12x6) and times
`clll_reduce_batch` on the whole trial and `clll_reduce` on each basis alone,
for 20 seeded trials, and times reducing those trials 1, 2, 5 and 10 per
`clll_reduce_batch` call (the sweep's chunk holds at most 512 bases, 5 such
trials).  Then builds 64 trials of the `klr-zf` shape (a 6x6 channel and
its 10 candidates: 11 bases of 6x6) and times reducing them 1, 4, 16 and
64 trials per call, the chunk sizes the sweep can choose.  Last, builds
64 trials of the `detect-16qam` shape (a 4x4 channel and its three 8x4
extended channels at 10, 16 and 22 dB: 4 bases in two stacks, no
candidates) and times them 1, 16 and 64 trials per call.  One trial per
call is what a chunk gets when it holds 2000-symbol packets (a switched
sweep's chunk does); 64 is the whole benchmark sweep in one call, as a
non-switched sweep, which draws each packet at detection, makes it.  All
times include the final QR and ODF.  Prints the median microseconds per
`klr-mmse` basis over the trials, and for every shape the milliseconds per
trial by trials per call (median of 3 passes over the trials), as one JSON
line.  Run from the root of a checkout:

    python3 bench/clll_timing.py
"""

import json
import os
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lrmimo import clll_reduce, clll_reduce_batch  # noqa: E402
from lrmimo.switched import extend_channel, sample_permutations  # noqa: E402

N, K, SNR_DB = 6, 10, range(14, 23)
TRIALS, PER_CALL = 20, (1, 2, 5, 10)
ZF_TRIALS, ZF_PER_CALL, PASSES = 64, (1, 4, 16, 64), 3
QAM_N, QAM_SNR_DB, QAM_TRIALS, QAM_PER_CALL = 4, (10, 16, 22), 64, (1, 16, 64)


def trial_stack(rng) -> np.ndarray:
    """The 99 extended bases of one trial, each followed by its candidates."""
    h = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / np.sqrt(2)
    perms = sample_permutations(N, K, rng).perms
    out = []
    for snr in SNR_DB:
        ext = extend_channel(h, np.sqrt(N / 10.0 ** (snr / 10.0)))
        out.append(ext)
        out.extend(ext[:, list(p)] for p in perms)
    return np.stack(out)


def zf_trial_stack(rng) -> np.ndarray:
    """The 11 plain bases of one klr-zf trial: the channel, then its candidates."""
    h = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / np.sqrt(2)
    perms = sample_permutations(N, K, rng).perms
    return np.stack([h] + [h[:, list(p)] for p in perms])


def qam_trial_stacks(rng) -> list:
    """The bases of one detect-16qam trial: the 4x4 channel, then its
    extended channel at each SNR point."""
    n = QAM_N
    h = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    ext = [extend_channel(h, np.sqrt(n / 10.0 ** (snr / 10.0))) for snr in QAM_SNR_DB]
    return [h[np.newaxis], np.stack(ext)]


def ms_per_trial(trials, per_call: int) -> float:
    """Median over passes of CLLL ms per trial, per_call trials per call.
    A trial is a list of stacks of bases that differ in rows; a call
    concatenates the trials stack by stack."""
    passes = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        for i in range(0, len(trials), per_call):
            chunk = trials[i : i + per_call]
            clll_reduce_batch([np.concatenate(s) for s in zip(*chunk)])
        passes.append(1e3 * (time.perf_counter() - t0) / len(trials))
    return float(np.median(passes))


def main() -> int:
    rng = np.random.default_rng(0)
    batch_us, lone_us = [], []
    mmse = [trial_stack(rng) for _ in range(TRIALS)]
    for stack in mmse:
        t0 = time.perf_counter()
        clll_reduce_batch([stack])
        batch_us.append(1e6 * (time.perf_counter() - t0) / len(stack))
        t0 = time.perf_counter()
        for h in stack:
            clll_reduce(h)
        lone_us.append(1e6 * (time.perf_counter() - t0) / len(stack))
    batch, lone = float(np.median(batch_us)), float(np.median(lone_us))
    zf = [zf_trial_stack(rng) for _ in range(ZF_TRIALS)]
    qam = [qam_trial_stacks(rng) for _ in range(QAM_TRIALS)]
    print(json.dumps({
        "bases_per_trial": len(stack),
        "trials": TRIALS,
        "batch_us_per_basis": round(batch, 1),
        "lone_us_per_basis": round(lone, 1),
        "lone_over_batch": round(lone / batch, 2),
        "klr_mmse_ms_per_trial_by_trials_per_call": {
            str(c): round(ms_per_trial([[t] for t in mmse], c), 3) for c in PER_CALL
        },
        "klr_zf": {
            "bases_per_trial": len(zf[0]),
            "trials": ZF_TRIALS,
            "ms_per_trial_by_trials_per_call": {
                str(c): round(ms_per_trial([[t] for t in zf], c), 3) for c in ZF_PER_CALL
            },
        },
        "detect_16qam": {
            "bases_per_trial": sum(len(s) for s in qam[0]),
            "trials": len(qam),
            "ms_per_trial_by_trials_per_call": {
                str(c): round(ms_per_trial(qam, c), 3) for c in QAM_PER_CALL
            },
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
