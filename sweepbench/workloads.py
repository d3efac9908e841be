"""Sweep workloads of the benchmark and the checks on their CSV output.

Each workload is one fixed `lrmimo simulate` shape.  A run times several
sweeps of that shape, each with its own simulate seed derived from the
benchmark seed, and checks every CSV it produces.  The golden sweep of each
workload (its default seed and pinned trial count) must reproduce the
per-row error counts stored in pins.json exactly.
"""

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

CSV_HEADER = (
    "detector,k,snr_db,ebn0_db,trials,packet_len,bits_total,bit_errors,ber,sym_errors"
)
_MODS = {"qpsk": 4, "16qam": 16, "64qam": 64}
_KLR = {"klr-zf", "klr-mmse", "klr-mmse-sic"}


@dataclass(frozen=True)
class Workload:
    name: str
    n_t: int
    n_r: int
    mod: str
    snr_grid: str  # --snr as start:step:stop (dB)
    detectors: tuple
    k: tuple
    packet_len: int
    sweep_trials: int  # trials per timed sweep
    golden_trials: int  # trials of the pinned golden sweep
    default_seed: int = 0

    def argv(self, trials: int, seed: int, out) -> list:
        """Arguments of `lrmimo simulate` for one sweep of this shape."""
        return [
            "simulate",
            "--nt", str(self.n_t),
            "--nr", str(self.n_r),
            "--mod", self.mod,
            "--snr", self.snr_grid,
            "--detectors", ",".join(self.detectors),
            "--k", ",".join(str(k) for k in self.k),
            "--trials", str(trials),
            "--packet-len", str(self.packet_len),
            "--seed", str(seed),
            "--out", str(out),
        ]

    @property
    def m(self) -> int:
        return _MODS[self.mod]

    @property
    def snr_points(self) -> tuple:
        start, step, stop = (float(v) for v in self.snr_grid.split(":"))
        count = int(round((stop - start) / step)) + 1
        return tuple(start + i * step for i in range(count))

    def variants(self) -> list:
        """(detector, k) pairs in CSV order; k is 0 for non-switched detectors."""
        out = []
        for det in self.detectors:
            if det in _KLR:
                out.extend((det, k) for k in self.k)
            else:
                out.append((det, 0))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="klr-zf",
            n_t=6, n_r=6, mod="qpsk",
            snr_grid="14:1:22",
            detectors=("clr-zf", "klr-zf"), k=(1, 10),
            packet_len=100, sweep_trials=64, golden_trials=24,
        ),
        Workload(
            name="klr-mmse",
            n_t=6, n_r=6, mod="qpsk",
            snr_grid="14:1:22",
            detectors=("mmse", "clr-mmse", "klr-mmse", "clr-mmse-sic", "klr-mmse-sic"),
            k=(10,),
            packet_len=100, sweep_trials=16, golden_trials=24,
        ),
        Workload(
            name="detect-16qam",
            n_t=4, n_r=4, mod="16qam",
            snr_grid="10:6:22",
            detectors=("zf", "mmse", "clr-zf", "clr-mmse-sic"), k=(1,),
            packet_len=2000, sweep_trials=64, golden_trials=24,
        ),
    )
}


def sweep_seed(seed: int, index: int) -> int:
    """Simulate seed of timed sweep `index` in a run with benchmark seed `seed`."""
    return seed * 10_000 + index + 1


def parse_rows(text: str) -> list:
    """CSV text -> list of row dicts; raises ValueError on a wrong header."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADER.split(","):
        raise ValueError(f"CSV header {header!r} differs from {CSV_HEADER!r}")
    return [dict(zip(header, row)) for row in reader]


def check_csv(text: str, wl: Workload, trials: int) -> list:
    """Return the problems found in one sweep's CSV (empty when it is sound).

    Checks the header, the row set and order, the totals, Eb/N0 and BER
    arithmetic, and the Gray-mapping invariant
    sym_errors <= bit_errors <= bits_per_symbol * sym_errors.
    """
    try:
        rows = parse_rows(text)
    except ValueError as exc:
        return [str(exc)]
    m = wl.m
    bps = int(math.log2(m))
    vectors = trials * wl.packet_len
    bits_total = vectors * wl.n_t * bps
    expect = [(det, k, snr) for det, k in wl.variants() for snr in wl.snr_points]
    got = [(r["detector"], int(r["k"]), float(r["snr_db"])) for r in rows]
    if got != expect:
        return [f"row keys {got} differ from {expect}"]
    problems = []
    for r, (_, _, snr) in zip(rows, expect):
        be, se = int(r["bit_errors"]), int(r["sym_errors"])
        ebn0 = snr + 10.0 * math.log10(wl.n_r / (wl.n_t * math.log2(m)))
        bad = (
            int(r["trials"]) != trials
            or int(r["packet_len"]) != wl.packet_len
            or int(r["bits_total"]) != bits_total
            or abs(float(r["ebn0_db"]) - ebn0) > 1e-9
            or float(r["ber"]) != be / bits_total
            or not (0 <= se <= be <= bps * se)
            or se > vectors * wl.n_t
        )
        if bad:
            problems.append(f"inconsistent row {r}")
    return problems


def error_counts(text: str) -> list:
    """[detector, k, snr_db, bit_errors, sym_errors] of every CSV row."""
    return [
        [r["detector"], int(r["k"]), float(r["snr_db"]),
         int(r["bit_errors"]), int(r["sym_errors"])]
        for r in parse_rows(text)
    ]


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def check_pins(text: str, wl: Workload, pins: dict) -> list:
    """Problems of a golden-sweep CSV against the pinned error counts."""
    pin = pins.get(wl.name)
    if pin is None:
        return [f"no pinned counts for workload {wl.name}"]
    if (pin["seed"], pin["trials"]) != (wl.default_seed, wl.golden_trials):
        return [f"pins of {wl.name} are for another golden sweep shape"]
    got = error_counts(text)
    if got == pin["rows"]:
        return []
    diff = [
        f"{g} != pinned {p}" for g, p in zip(got, pin["rows"]) if g != p
    ] or [f"{len(got)} rows != {len(pin['rows'])} pinned rows"]
    return [f"golden counts of {wl.name} differ: " + "; ".join(diff[:5])]
