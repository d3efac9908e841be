"""CLLL cost per basis: one batch per trial against one basis at a time.

Builds the bases that one trial of the `klr-mmse` benchmark workload reduces
(a 6x6 i.i.d. channel extended for each SNR point of 14:1:22 dB, each
followed by its 10 column-permuted candidates: 99 bases of 12x6) and times
`clll_reduce_batch` on the whole trial and `clll_reduce` on each basis alone,
for 20 seeded trials.  Both times include the final QR and ODF.  Prints the
median microseconds per basis over the trials, as one JSON line.  Run from
the root of a checkout:

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
TRIALS = 20


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


def main() -> int:
    rng = np.random.default_rng(0)
    batch_us, lone_us = [], []
    for _ in range(TRIALS):
        stack = trial_stack(rng)
        t0 = time.perf_counter()
        clll_reduce_batch([stack])
        batch_us.append(1e6 * (time.perf_counter() - t0) / len(stack))
        t0 = time.perf_counter()
        for h in stack:
            clll_reduce(h)
        lone_us.append(1e6 * (time.perf_counter() - t0) / len(stack))
    batch, lone = float(np.median(batch_us)), float(np.median(lone_us))
    print(json.dumps({
        "bases_per_trial": len(stack),
        "trials": TRIALS,
        "batch_us_per_basis": round(batch, 1),
        "lone_us_per_basis": round(lone, 1),
        "lone_over_batch": round(lone / batch, 2),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
