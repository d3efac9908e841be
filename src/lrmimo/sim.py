"""Monte Carlo link-level BER harness.

Block fading: one channel per trial, static over the packet.  Per-trial RNG
streams are spawned from the master seed by trial index, so results are
independent of execution order and bitwise reproducible.  Noise and channel
realizations are shared across detectors, candidate counts, and SNR points
(common random numbers): the same unit-variance noise block is rescaled per
SNR point.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .detectors import (
    _lattice_indices,
    _level_indices,
    _lr_estimate,
    _ml_search,
    _ml_table,
    ml_candidates,
    mmse_filter_direct,
    pseudoinverse,
)
from .errors import ValidationError
from .modem import ConstellationSpec, _level_index_pairs
from .reduction import ReductionParams, clll_reduce_batch
from .switched import (
    _candidate_stack,
    _k_limit,
    _pick,
    _selection,
    extend_channel,
    sample_permutations,
)

# detector -> (reduction flavour, estimator).  Flavour None runs the estimator
# on H directly; False reduces H, True the extended channel [H; sigma_n I].
# The "klr-" detectors pick among switched candidates, one row per K.
_DETECTOR_TABLE = {
    "zf": (None, "zf"),
    "clr-zf": (False, "zf"),
    "klr-zf": (False, "zf"),
    "mmse": (None, "mmse"),
    "clr-mmse": (True, "mmse"),
    "klr-mmse": (True, "mmse"),
    "clr-mmse-sic": (True, "sic-mmse"),
    "klr-mmse-sic": (True, "sic-mmse"),
    "ml": (None, "ml"),
}
DETECTORS = tuple(_DETECTOR_TABLE)

# Received columns per detection call: the SNR points of a trial are detected
# together until their blocks hold this many, which shares the fixed cost of
# each numpy call among short packets and keeps the temporaries of a long
# packet at the size of one point's.  Only the work that differs per point
# runs per block (received signals, estimates, slicing, error counts and the
# filters of the extended selections); what depends only on the trial (its
# symbols and sent indices, H x, the conventional filters, the plain
# selection's LR filter) is formed once per trial, however many blocks its
# points take.
_COLUMNS_PER_CALL = 2048

# Bytes of the input stacks of one CLLL call (rows x n_t complex entries per
# basis), what 512 extended 12x6 bases take: the channels of a chunk of
# trials are drawn together and all their bases go through one
# clll_reduce_batch call, which shares the fixed cost of each step of its
# masked loop among them.  The call's state and output are a few times its
# input, so this bounds its memory.  A call takes 5 trials of 99 extended
# 12x6 bases (the klr-mmse benchmark shape), 93 of 11 plain 6x6 bases
# (klr-zf) or 329 of one plain and three extended 4x4 channels
# (detect-16qam).
_CALL_BYTES = 512 * 12 * 6 * 16

# Bytes of the packets a chunk of a switched sweep holds, each its level
# index pairs and unit noise as _draw_packet gives them, from the chunk's
# draw (a trial's packet precedes its permutations in its stream) to its
# detection, where _packet_symbols forms the symbols and sent indices of
# one trial at a time.  1 MiB holds 97 packets of 100 symbols on a 6x6 QPSK
# channel (10 800 bytes each); packets of 7490 symbols or more on a 3x4
# one (70 bytes per symbol) are held one per chunk.  A sweep without
# switched detectors draws each packet only when its trial is detected, so
# its chunks are capped by _CALL_BYTES alone, whatever the packet length.
_HELD_BYTES = 1 << 20

CSV_HEADER = (
    "detector,k,snr_db,ebn0_db,trials,packet_len,bits_total,bit_errors,ber,sym_errors"
)


@dataclass(frozen=True)
class SimConfig:
    n_t: int
    n_r: int
    m: int
    snr_grid_db: tuple
    detectors: tuple
    k_candidates: tuple = (1,)
    trials: int = 1000
    packet_len: int = 100
    seed: int = 0
    delta: float = 0.75

    def __post_init__(self):
        if self.n_t < 1 or self.n_r < self.n_t:
            raise ValidationError("need 1 <= n_t <= n_r")
        if self.trials < 1 or self.packet_len < 1:
            raise ValidationError("trials and packet_len must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not self.snr_grid_db:
            raise ValidationError("empty SNR grid")
        for d in self.detectors:
            if d not in DETECTORS:
                raise ValidationError(f"unknown detector {d!r}")
        # a repeated entry would add its errors to the same row twice
        for what, vals in (
            ("detector", self.detectors),
            ("K value", self.k_candidates),
            ("SNR point", self.snr_grid_db),
        ):
            if len(set(vals)) != len(vals):
                raise ValidationError(f"duplicate {what} in {vals}")
        # K only matters to the switched detectors, and n_t = 1 allows none
        switched = _switched(self.detectors)
        if switched and not self.k_candidates:
            raise ValidationError("switched detectors need at least one K value")
        cap = _k_limit(self.n_t) if switched else math.inf
        for k in self.k_candidates:
            if not (1 <= k <= cap):
                raise ValidationError(f"k={k} outside [1, {cap}]")
        ConstellationSpec(self.m)  # validates the modulation order
        ReductionParams(self.delta)  # validates delta


@dataclass(frozen=True)
class BerRecord:
    detector: str
    k: int
    snr_db: float
    ebn0_db: float
    trials: int
    packet_len: int
    bits_total: int
    bit_errors: int
    ber: float
    sym_errors: int


def gen_channel(n_r: int, n_t: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. circularly symmetric complex Gaussian entries, unit variance."""
    if n_t > n_r:
        raise ValidationError("need n_t <= n_r")
    return (
        rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))
    ) / np.sqrt(2.0)


def snr_config(snr_db: float, cfg: SimConfig) -> tuple[float, float]:
    """Noise variance and Eb/N0 for one SNR point.

    SNR = N_T sigma_x^2 / sigma_n^2 with unit symbol power, so
    sigma_n^2 = N_T / 10^(SNR/10); Eb/N0 = SNR * N_R / (N_T * log2(M)).
    """
    sigma_n2 = cfg.n_t / (10.0 ** (snr_db / 10.0))
    r_m = math.log2(cfg.m)
    ebn0_db = snr_db + 10.0 * math.log10(cfg.n_r / (cfg.n_t * r_m))
    return sigma_n2, ebn0_db


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def _switched(detectors) -> set:
    """Reduction flavours on which some listed detector needs switched candidates."""
    return {_DETECTOR_TABLE[d][0] for d in detectors if d.startswith("klr-")}


def _draw_trial(cfg: SimConfig, trial: int, spec, switched) -> tuple:
    """(h, stream, packet, permutations) of one trial.

    The trial's own stream yields h, the packet (level index pairs and unit
    noise; see _draw_packet) and the permutations in that order.  Only a
    switched sweep needs the permutations before detection, so only it
    draws the packet here; otherwise packet is None, the stream stands
    after h, and _draw_packet draws the packet from it when the trial is
    detected.
    """
    rng = _trial_rng(cfg.seed, trial)
    h = gen_channel(cfg.n_r, cfg.n_t, rng)
    if not switched:
        return h, rng, None, ()
    packet = _draw_packet(cfg, spec, rng)
    perms = sample_permutations(cfg.n_t, max(cfg.k_candidates), rng).perms
    return h, rng, packet, perms


def _draw_packet(cfg: SimConfig, spec, rng) -> tuple:
    """(idx, unit noise) of one trial: the I and Q level indices
    (packet_len, n_t, 2) of its symbols, in the smallest unsigned type that
    holds side - 1, and a noise block (n_r, packet_len) of unit variance.
    _packet_symbols forms the symbols and their slice indices from idx.

    The bits are Gray-decoded to level indices once.  The noise is one draw
    of its real parts, then its imaginary parts, scaled by 1/sqrt(2) into
    its complex buffer: the numbers of (a + 1j * b) / np.sqrt(2.0), without
    the temporaries.
    """
    bits = rng.integers(0, 2, size=(cfg.packet_len, cfg.n_t, spec.bits_per_symbol))
    idx = _level_index_pairs(bits, spec)  # (packet_len, n_t, 2)
    del bits  # its memory serves the noise draw
    noise_unit = np.empty((cfg.n_r, cfg.packet_len), dtype=np.complex128)
    parts = noise_unit.view(np.float64).reshape(cfg.n_r, cfg.packet_len, 2)
    np.multiply(
        rng.standard_normal((2, cfg.n_r, cfg.packet_len)),
        1.0 / np.sqrt(2.0),
        out=np.moveaxis(parts, -1, 0),
    )
    return idx, noise_unit


def _packet_symbols(idx, spec) -> tuple:
    """(x, sent) of the level index pairs idx of a packet: its symbols
    (n_t, packet_len) and their slice indices (n_t, 2 packet_len), I and Q
    interleaved as _level_indices gives them.

    x looks the indices up and sent reorders them, so the symbols are never
    sliced.  x is the transposed view of the symbols laid out as map_bits
    lays them out.
    """
    x = spec.levels.take(idx).view(np.complex128)[..., 0].T
    # each symbol's I and Q index pair read as one word, so the transpose
    # moves words, not bytes
    words = idx.view(np.dtype(f"u{2 * idx.itemsize}"))[..., 0]
    sent = np.ascontiguousarray(words.T).view(idx.dtype)
    return x, sent


def _reduction_ks(cfg: SimConfig) -> dict:
    """The K values of each reduction flavour the sweep uses: its K values
    where a detector picks among switched candidates, () elsewhere."""
    switched = _switched(cfg.detectors)
    flavours = {_DETECTOR_TABLE[d][0] for d in cfg.detectors} - {None}
    return {f: cfg.k_candidates if f in switched else () for f in flavours}


def _chunk_trials(cfg: SimConfig) -> int:
    """Trials per chunk: as many as keep the input stacks of the chunk's
    CLLL call within _CALL_BYTES and, in a switched sweep, the packets the
    chunk holds within _HELD_BYTES; at least one.  Both are counted from
    shapes."""
    # per flavour, its channels times (1 + candidates), each rows x n_t
    call = 16 * cfg.n_t * sum(
        (len(cfg.snr_grid_db) if f else 1)
        * (1 + max(k, default=0))
        * (cfg.n_r + cfg.n_t if f else cfg.n_r)
        for f, k in _reduction_ks(cfg).items()
    )
    chunk = _CALL_BYTES // max(call, 1)
    if _switched(cfg.detectors):  # its chunks hold their trials' packets
        side = ConstellationSpec(cfg.m).side
        index = np.min_scalar_type(side - 1).itemsize
        held = cfg.packet_len * (2 * cfg.n_t * index + 16 * cfg.n_r)
        chunk = min(chunk, _HELD_BYTES // held)
    return max(1, chunk)


def _chunk_selections(trials, sigma2s, ks, params) -> list:
    """Selections of each trial of a chunk, keyed (extended, k), each a
    KlrStack: one member per SNR point for the extended flavour, one member
    that serves every point for the plain one.

    ks maps each reduction flavour the sweep uses to its K values.  Every
    basis of the chunk goes through one clll_reduce_batch call, one stack per
    flavour: for each trial in order, its plain channel or its extended
    channel at each SNR point, each followed by its permuted candidates.
    k = 0 keeps the CLLL baseline; k >= 1 picks among the first k
    candidates.  Each (flavour, k) is one KlrStack over the chunk, and a
    trial's entry is a slice of it.
    """
    sels = [{} for _ in trials]
    if not ks:
        return sels
    flavours = sorted(ks)
    width = {f: max(ks[f], default=0) for f in flavours}
    sigmas = np.sqrt(sigma2s)
    stacks = [
        np.concatenate(
            [
                _candidate_stack(
                    extend_channel(h, sigmas) if f else h[np.newaxis], perms[: width[f]]
                )
                for h, *_, perms in trials
            ]
        )
        for f in flavours
    ]
    reduced = clll_reduce_batch(stacks, params)
    del stacks  # the selections need only the reduced bases
    for extended in flavours:
        stack = reduced.pop(0)
        per = len(sigma2s) if extended else 1  # channels per trial
        groups = [perms[: width[extended]] for *_, perms in trials for _ in range(per)]
        picks = {k: _pick(stack, groups, k) for k in (0, *ks[extended])}
        # the picks hold copies of their bases: Q and the transforms are
        # formed after the whole stack is released
        del stack
        for k, pick in picks.items():
            found = _selection(*pick, extended)
            for t, sel in enumerate(sels):
                sel[(extended, k)] = found[t * per : (t + 1) * per]
    return sels


def run_sweep(cfg: SimConfig) -> list[BerRecord]:
    """Run the full Monte Carlo sweep and return one record per curve point."""
    spec = ConstellationSpec(cfg.m)
    params = ReductionParams(cfg.delta)
    switched = _switched(cfg.detectors)
    ks = _reduction_ks(cfg)

    variants = []  # (detector, k) in output order
    for det in cfg.detectors:
        if det.startswith("klr-"):
            variants.extend((det, k) for k in cfg.k_candidates)
        else:
            variants.append((det, 0))

    # per variant, bit and symbol errors at each SNR point
    errs = {v: np.zeros((2, len(cfg.snr_grid_db)), dtype=np.int64) for v in variants}
    cands = ml_candidates(cfg.n_t, spec) if "ml" in cfg.detectors else None

    sigma2s = [snr_config(snr, cfg)[0] for snr in cfg.snr_grid_db]
    chunk = _chunk_trials(cfg)
    for first in range(0, cfg.trials, chunk):
        trials = [
            _draw_trial(cfg, t, spec, switched)
            for t in range(first, min(first + chunk, cfg.trials))
        ]
        sels = _chunk_selections(trials, sigma2s, ks, params)
        for (h, rng, packet, _), sel in zip(trials, sels):
            packet = packet or _draw_packet(cfg, spec, rng)
            _detect_trial(h, packet, sel, variants, sigma2s, spec, cands, errs)
        # free this chunk before the next one is drawn
        del trials, sels, sel, packet

    records = []
    vectors = cfg.trials * cfg.packet_len
    bits_total = vectors * cfg.n_t * spec.bits_per_symbol
    for det, k in variants:
        for i, snr in enumerate(cfg.snr_grid_db):
            sigma2, ebn0 = snr_config(snr, cfg)
            be, se = (int(e) for e in errs[(det, k)][:, i])
            records.append(
                BerRecord(
                    detector=det,
                    k=k,
                    snr_db=float(snr),
                    ebn0_db=ebn0,
                    trials=cfg.trials,
                    packet_len=cfg.packet_len,
                    bits_total=bits_total,
                    bit_errors=be,
                    ber=be / bits_total,
                    sym_errors=se,
                )
            )
    return records


def _detect_trial(h, packet, sel, variants, sigma2s, spec, cands, errs):
    """Detect one trial, channel h and packet (level index pairs, unit
    noise), with every variant at every SNR point and add the bit and
    symbol errors to errs.  sel holds the trial's selections, cands the ML
    candidates (None without the ml detector).

    What depends only on the trial is formed once, before the blocks of
    SNR points: its symbols and sent indices, H x, the conventional ZF and MMSE filters (the MMSE one of
    every point in one stacked solve), the ML table and, through the cache
    of the plain selection that serves every block, its LR filter and
    offset.  Each block forms its received signals and, for the extended
    selections, whose members differ per point, their filters.  Variants
    that run the same estimator on the same selected bases (clr-zf and a
    klr-zf that kept the baseline, or two K that chose the same candidate)
    share one detection.
    """
    pairs, noise_unit = packet
    x, sent = _packet_symbols(pairs, spec)
    fixed = {
        "zf": pseudoinverse(h) if ("zf", 0) in variants else None,
        "mmse": mmse_filter_direct(h, sigma2s) if ("mmse", 0) in variants else None,
        "ml": None if cands is None else _ml_table(h, cands),
    }
    sigmas = np.sqrt(sigma2s)[:, np.newaxis, np.newaxis]
    per_call = max(1, _COLUMNS_PER_CALL // x.shape[1])
    hx = h @ x
    for lo in range(0, len(sigma2s), per_call):
        pts = slice(lo, lo + per_call)
        y = sigmas[pts] * noise_unit  # (points, n_r, packet_len)
        y += hx
        # the selections at these points: the extended stack has one member
        # per point, the plain one a member that serves them all
        at = {key: s[pts] if s.extended else s for key, s in sel.items()}
        counts = {}
        for det, k in variants:
            key = _detection_key(det, k, at)
            if key not in counts:
                idx = _indices(det, k, y, pts, spec, at, fixed)
                counts[key] = _count_errors(idx, sent)
            errs[det, k][:, pts] += counts[key]


def _detection_key(det, k, at):
    """What decides the detection of a variant at some SNR points, given
    the selections at them: its estimator and, for the LR detectors, the
    reduction flavour and the permutation selected at each point (one
    permutation of a channel is one reduced basis)."""
    extended, kind = _DETECTOR_TABLE[det]
    if extended is None:
        return det
    return kind, extended, at[(extended, k)].perms


def _indices(det, k, y, pts, spec, at, fixed) -> np.ndarray:
    """Slice indices (points, n_t, 2 packet_len) of one detector variant at
    the SNR points pts, whose received blocks are y, I and Q interleaved.
    at holds the selections at those points, fixed the trial's ZF filter,
    its MMSE filters at every point and its _ml_table (None where no
    detector uses them).
    """
    extended, kind = _DETECTOR_TABLE[det]
    if extended is not None:
        tm = _lr_estimate(y, at[(extended, k)], kind, spec)[1]
        return _lattice_indices(tm, spec)
    if kind == "zf":
        est = fixed["zf"] @ y
    elif kind == "mmse":
        est = fixed["mmse"][pts] @ y
    else:
        est = np.stack([_ml_search(y_s, fixed["ml"]) for y_s in y])
    return _level_indices(est, spec)


def _count_errors(idx, sent) -> np.ndarray:
    """Bit and symbol errors (2, points) of slice indices against the sent
    ones, both unsigned with I and Q interleaved.

    The bit errors of a level are the bits in which the Gray labels
    g(i) = i ^ (i >> 1) of the decided and the sent index differ.  Gray
    labelling is linear over XOR, so those bits are g(idx ^ sent).  Read as
    one word twice as wide, a symbol's I and Q labels give its bit errors as
    the word's set bits; the symbol is in error when the word is not zero.
    """
    diff = idx ^ sent
    diff ^= diff >> 1
    words = diff.view(np.dtype(f"u{2 * diff.itemsize}"))
    return np.stack(
        [
            np.bitwise_count(words).sum(axis=(1, 2), dtype=np.int64),
            # count_nonzero is faster per point than along axes
            [np.count_nonzero(w) for w in words],
        ]
    )


# --- persistence ---------------------------------------------------------------

def write_records(records, path) -> None:
    """Write BER records as CSV with the canonical header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for rec in records:
            writer.writerow(
                [
                    rec.detector,
                    rec.k,
                    repr(rec.snr_db),
                    repr(rec.ebn0_db),
                    rec.trials,
                    rec.packet_len,
                    rec.bits_total,
                    rec.bit_errors,
                    repr(rec.ber),
                    rec.sym_errors,
                ]
            )


def load_complex_matrix(path) -> np.ndarray:
    """Read a complex matrix from text: one row per line, entries like 1.5-0.5j."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([complex(tok.strip()) for tok in line.split(",")])
            except ValueError as exc:
                raise ValidationError(f"bad matrix entry in {path}: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValidationError("matrix file rows must be nonempty and equal length")
    return np.array(rows, dtype=np.complex128)


def format_complex_matrix(m: np.ndarray) -> str:
    return "\n".join(
        ",".join(f"{z.real:g}{z.imag:+g}j" for z in row) for row in np.asarray(m)
    )
