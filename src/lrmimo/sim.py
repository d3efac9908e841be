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
import numbers
import os
import stat
from dataclasses import astuple, dataclass

import numpy as np

from .detectors import (
    _lattice_indices,
    _lr_estimate,
    _ml_search,
    _ml_table,
    _round_shifted,
    ml_candidates,
)
from .errors import ValidationError
from .modem import ConstellationSpec, _level_index_pairs, _level_values
from .reduction import ReductionParams
from .switched import _k_limit, _select_all, extend_channel, sample_permutations

# detector -> (flavour, estimator).  The estimator filters a basis of H
# (False) or of [H; sigma_n I] (True): zf and mmse the identity (U = I), the
# "clr-" detectors its CLLL basis, the "klr-" ones the pick among switched
# candidates, one row per K.  ml (None) searches H itself.
_DETECTOR_TABLE = {
    "zf": (False, "zf"),
    "clr-zf": (False, "zf"),
    "klr-zf": (False, "zf"),
    "mmse": (True, "mmse"),
    "clr-mmse": (True, "mmse"),
    "klr-mmse": (True, "mmse"),
    "clr-mmse-sic": (True, "sic-mmse"),
    "klr-mmse-sic": (True, "sic-mmse"),
    "ml": (None, "ml"),
}
DETECTORS = tuple(_DETECTOR_TABLE)

# Received columns per detection call: the SNR points of a trial are detected
# together until their blocks hold this many, which shares the fixed cost of
# each numpy call among short packets and keeps the block arrays of a long
# packet (_chunk_buffers) at the size of one point's per detection.  Only the
# work that differs per point runs per block (received signals, estimates,
# slicing, error counts), and the slicing and counting of all the block's
# detections in one call each; what depends only on the trial (its symbols
# and sent indices, H x, the ML table) is formed once per trial, however
# many blocks its points take, and the Q and the filters of the selections,
# identity or LR, once per chunk.
_COLUMNS_PER_CALL = 2048

# Bytes of the input stacks of one CLLL call (rows x n_t complex entries per
# basis), what 512 extended 12x6 bases take: the channels of a chunk of
# trials are drawn together and all their bases go through one
# clll_reduce_batch call, which shares the fixed cost of each step of its
# masked loop among them.  The call's state and output are a few times its
# input, so this bounds its memory; a flavour with only identity
# selections counts its channels, and every sweep, ml alone too, its plain
# ones, which it draws before it detects them.  A call takes 5 trials of
# 99 extended 12x6 bases (the klr-mmse benchmark shape), 93 of 11 plain
# 6x6 bases (klr-zf) or 329 of one plain and three extended 4x4 channels
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
        ints = (self.n_t, self.n_r, self.seed, self.trials, self.packet_len)
        ints += tuple(self.k_candidates)
        if not all(isinstance(v, numbers.Integral) for v in ints):
            raise ValidationError(
                "n_t, n_r, seed, trials, packet_len and K values must be integers"
            )
        if self.n_t < 1 or self.n_r < self.n_t:
            raise ValidationError("need 1 <= n_t <= n_r")
        if self.trials < 1 or self.packet_len < 1:
            raise ValidationError("trials and packet_len must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not self.snr_grid_db:
            raise ValidationError("empty SNR grid")
        if not all(math.isfinite(snr) for snr in self.snr_grid_db):
            raise ValidationError(f"SNR points must be finite, got {self.snr_grid_db}")
        if not self.detectors:
            raise ValidationError("no detectors")
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
    # int32 entries take one 32-bit draw each, as int64 ones do: the same
    # numbers from the same stream, in half the memory
    shape = (cfg.packet_len, cfg.n_t, spec.bits_per_symbol)
    bits = rng.integers(0, 2, size=shape, dtype=np.int32)
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


def _packet_symbols(idx, spec, out=None) -> tuple:
    """(x, sent) of the level index pairs idx of a packet: its symbols
    (n_t, packet_len) and their slice indices (n_t, 2 packet_len), I and Q
    interleaved as _lattice_indices gives them.  out is None, which
    allocates, or an (x, sent) pair of arrays to write them to, x the
    transposed view of a contiguous complex array.

    x forms the levels of the indices and sent reorders them, so the
    symbols are never sliced.  x is the transposed view of the symbols laid
    out as map_bits lays them out.
    """
    length, n_t = idx.shape[:2]
    x, sent = out or (
        np.empty((length, n_t), dtype=np.complex128).T,
        np.empty((n_t, 2 * length), dtype=idx.dtype),
    )
    _level_values(idx.reshape(length, 2 * n_t), spec, out=x.T.view(np.float64))
    # each symbol's I and Q index pair read as one word, so the transpose
    # moves words, not bytes
    words = idx.view(np.dtype(f"u{2 * idx.itemsize}"))[..., 0]
    np.copyto(sent.view(words.dtype), words.T)
    return x, sent


def _variants(cfg: SimConfig) -> list:
    """(detector, k) of each curve, in output order, k its selection's:
    None for zf and mmse (the identity) and ml (none), 0 for the "clr-"
    detectors (the CLLL baseline), each K for the "klr-" ones.  A row
    reads k = 0 for None."""
    variants = []
    for det in cfg.detectors:
        if det.startswith("klr-"):
            variants.extend((det, k) for k in cfg.k_candidates)
        else:
            variants.append((det, 0 if det.startswith("clr-") else None))
    return variants


def _selection_ks(cfg: SimConfig) -> dict:
    """The k of the selections each flavour of the sweep detects on."""
    ks = {}
    for det, k in _variants(cfg):
        flavour = _DETECTOR_TABLE[det][0]
        if flavour is not None:
            ks.setdefault(flavour, set()).add(k)
    return ks


def _chunk_trials(cfg: SimConfig) -> int:
    """Trials per chunk: as many as keep the input stacks of the chunk's
    CLLL call, and its plain channels where none is reduced, within
    _CALL_BYTES and, in a switched sweep, the packets the chunk holds
    within _HELD_BYTES; at least one.  Both are counted from shapes."""
    # per flavour, its channels times (1 + candidates), each rows x n_t
    call = 16 * cfg.n_t * sum(
        (len(cfg.snr_grid_db) if f else 1)
        * (1 + max(k - {None}, default=0))
        * (cfg.n_r + cfg.n_t if f else cfg.n_r)
        for f, k in {False: set(), **_selection_ks(cfg)}.items()
    )
    chunk = _CALL_BYTES // call
    if _switched(cfg.detectors):  # its chunks hold their trials' packets
        side = ConstellationSpec(cfg.m).side
        index = np.min_scalar_type(side - 1).itemsize
        held = cfg.packet_len * (2 * cfg.n_t * index + 16 * cfg.n_r)
        chunk = min(chunk, _HELD_BYTES // held)
    return max(1, chunk)


def _chunk_selections(trials, sigma2s, ks, params, filtered=()) -> list:
    """Selections of each trial of a chunk, keyed (extended, k) as ks
    (_selection_ks) lists them, each a slice of one switched._select_all
    call over the chunk: one member per SNR point for the extended flavour
    (the trial's channel extended at each point, with the trial's
    permutations), one that serves every point for the plain one.  The
    filters of the keys in filtered, those a linear detector reads, are
    formed for the whole chunk before it is split; a slice forms the
    filters of the others when they are read (KlrStack.pinv)."""
    per = {False: 1, True: len(sigma2s)}  # channels per trial
    sigmas = np.sqrt(sigma2s)
    chans = {False: np.stack([h for h, *_ in trials])}
    if True in ks:
        chans[True] = np.concatenate([extend_channel(h, sigmas) for h in chans[False]])
    perms = np.array([p for *_, p in trials], dtype=np.intp)
    perms = {f: np.repeat(perms, per[f], axis=0) for f in ks}  # per channel
    found = _select_all(chans, perms, ks, params)
    for key in filtered:
        found[key].pinv  # formed on this first read, for the whole chunk
    return [
        {(f, k): s[t * per[f] : (t + 1) * per[f]] for (f, k), s in found.items()}
        for t in range(len(trials))
    ]


def _chunk_buffers(cfg: SimConfig, spec) -> tuple:
    """The arrays a chunk's detection writes to, each the size of a block
    or of a trial's packet, for _detect_trial: the trial's symbols x (the
    transposed view of a contiguous array), its sent slice indices and
    H x; then for a block of SNR points its received signals y, the SIC
    input [y / a; 0] (with no rows if no detector runs SIC) and the LR
    decisions m of a selection other than the identity; then, flat, for
    each distinct detection of the block a row of the integer images of
    its decisions (T m, or m itself for an identity selection; their float
    view is written over with the slice values), of slice indices, and of
    error words (_count_errors).  The block arrays hold _COLUMNS_PER_CALL
    columns' worth of points, at least one and at most the grid's, and the
    flat ones a row per variant, the most distinct detections a block can
    have; a shorter last block and a block with fewer distinct detections
    use their leading entries.

    run_sweep forms them once per chunk, after its selections, and frees
    them with the chunk: each trial and block writes into the same memory
    instead of allocating its own, which the allocator would hand back to
    the kernel and fault in again, and the next chunk's reduction can take
    the memory back.
    """
    n_t, n_r, length = cfg.n_t, cfg.n_r, cfg.packet_len
    points = min(len(cfg.snr_grid_db), max(1, _COLUMNS_PER_CALL // length))
    rows = len(_variants(cfg)) * points  # (detection, point) rows at most
    index = np.min_scalar_type(spec.side - 1)
    x = np.empty((length, n_t), dtype=np.complex128).T
    sent = np.empty((n_t, 2 * length), dtype=index)
    hx = np.empty((n_r, length), dtype=np.complex128)
    y = np.empty((points, n_r, length), dtype=np.complex128)
    sic = any(_DETECTOR_TABLE[d][1].startswith("sic") for d in cfg.detectors)
    work = np.empty((points, n_r + n_t if sic else 0, length), dtype=np.complex128)
    est = np.empty((points, n_t, length), dtype=np.complex128)
    tm = np.empty(rows * n_t * length, dtype=np.complex128)
    idx = np.empty(rows * n_t * 2 * length, dtype=index)
    words = np.empty((rows, _padded(n_t * 2 * length, index)), dtype=index)
    return x, sent, hx, y, work, est, tm, idx, words


def _padded(size: int, dtype) -> int:
    """Entries of dtype that hold size of them in whole 8-byte words."""
    return -(-size * dtype.itemsize // 8) * 8 // dtype.itemsize


def run_sweep(cfg: SimConfig) -> list[BerRecord]:
    """Run the full Monte Carlo sweep and return one record per curve point."""
    spec = ConstellationSpec(cfg.m)
    params = ReductionParams(cfg.delta)
    switched = _switched(cfg.detectors)
    ks = _selection_ks(cfg)
    variants = _variants(cfg)

    # bit and symbol errors of each variant at each SNR point
    errs = np.zeros((2, len(variants), len(cfg.snr_grid_db)), dtype=np.int64)
    ml = None  # the ML candidates and their integer images, T = I
    if "ml" in cfg.detectors:
        cands = ml_candidates(cfg.n_t, spec)
        ml = cands, _round_shifted(cands, 0.5 + 0.5j, spec.a)

    # the selections whose filters a linear detector reads
    filtered = {
        (_DETECTOR_TABLE[det][0], k)
        for det, k in variants
        if _DETECTOR_TABLE[det][1] in ("zf", "mmse")
    }
    sigma2s = [snr_config(snr, cfg)[0] for snr in cfg.snr_grid_db]
    chunk = _chunk_trials(cfg)
    for first in range(0, cfg.trials, chunk):
        trials = [
            _draw_trial(cfg, t, spec, switched)
            for t in range(first, min(first + chunk, cfg.trials))
        ]
        sels = _chunk_selections(trials, sigma2s, ks, params, filtered)
        bufs = _chunk_buffers(cfg, spec)
        for (h, rng, packet, _), sel in zip(trials, sels):
            packet = packet or _draw_packet(cfg, spec, rng)
            _detect_trial(h, packet, sel, variants, sigma2s, spec, ml, errs, bufs)
        # free this chunk before the next one is drawn
        del trials, sels, sel, packet, bufs

    records = []
    vectors = cfg.trials * cfg.packet_len
    bits_total = vectors * cfg.n_t * spec.bits_per_symbol
    for v, (det, k) in enumerate(variants):
        for i, snr in enumerate(cfg.snr_grid_db):
            sigma2, ebn0 = snr_config(snr, cfg)
            be, se = (int(e) for e in errs[:, v, i])
            records.append(
                BerRecord(
                    detector=det,
                    k=k or 0,
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


def _detect_trial(h, packet, sel, variants, sigma2s, spec, ml, errs, bufs):
    """Detect one trial, channel h and packet (level index pairs, unit
    noise), with every variant at every SNR point and add the bit and
    symbol errors to errs (2, variants, SNR points).  sel holds the trial's
    selections, ml the ML candidates and their images (None without the ml
    detector), bufs the chunk's arrays (_chunk_buffers), which every array
    the size of a block or of the packet is written to.

    What depends only on the trial is formed once, before the blocks of
    SNR points: its symbols and sent indices, H x and the ML table.  The
    selections carry their filters and offsets, formed for the whole
    chunk, the identity ones of zf and mmse as the LR ones: the plain
    selections serve every block, the extended ones have a member per
    point.  Each block forms its received signals, then the integer images
    of each distinct detection in a row of its own, and slices and counts
    all rows in one call each.  Variants that run the same estimator on
    the same selected bases (clr-zf and a klr-zf that kept the baseline, or
    two K that chose the same candidate) share one row.
    """
    pairs, noise_unit = packet
    x, sent, hx, y_all, work, est, tm_all, idx_all, words = bufs
    _packet_symbols(pairs, spec, out=(x, sent))
    search = None if ml is None else (ml[1], _ml_table(h, ml[0]))
    # real: each part of the noise is scaled on the float view, the bits of
    # the complex product with sigma + 0j
    sigmas = np.sqrt(sigma2s)[:, np.newaxis, np.newaxis]
    per_call = len(y_all)
    np.matmul(h, x, out=hx)
    for lo in range(0, len(sigma2s), per_call):
        pts = slice(lo, lo + per_call)
        # the leading points of the block arrays, fewer in a short last block
        points = len(sigmas[pts])
        y = y_all[:points]  # (points, n_r, packet_len)
        np.multiply(sigmas[pts], noise_unit.view(np.float64), out=y.view(np.float64))
        y += hx
        # the selections at these points: the extended stack has one member
        # per point, the plain one a member that serves them all
        at = {key: s[pts] if s.extended else s for key, s in sel.items()}
        rows, row_of = {}, []  # the distinct detections, and each variant's
        for det, k in variants:
            key = _detection_key(det, k, at)
            row_of.append(rows.setdefault(key, (len(rows), det, k))[0])
        shape = (len(rows), points, *x.shape)
        tm = tm_all[: math.prod(shape)].reshape(shape)
        for row, (_, det, k) in zip(tm, rows.values()):
            _decide(det, k, y, spec, at, search, (work[:points], est[:points], row))
        # the slice values over the images' float view, then their indices
        values = tm.view(np.float64)
        idx = idx_all[: values.size].reshape(values.shape)
        counts = _count_errors(_lattice_indices(tm, spec, (values, idx)), sent, words)
        errs[:, :, pts] += counts[:, row_of]


def _detection_key(det, k, at):
    """What decides the detection of a variant at some SNR points, given
    the selections at them: its estimator and, but for ml, the flavour,
    whether it is the identity (whose perms are the CLLL baseline's) and
    the permutation selected at each point (one reduced basis each)."""
    extended, kind = _DETECTOR_TABLE[det]
    if extended is None:
        return det
    return kind, extended, k is None, at[(extended, k)].perms


def _decide(det, k, y, spec, at, search, out) -> None:
    """Write the integer images (points, n_t, packet_len) of one detector
    variant's decisions on the received blocks y to row, out being (work,
    m, row) of the block's arrays (_chunk_buffers): the ML decisions, or
    T m of the LR ones.  An LR estimate writes m to m, but that of an
    identity selection (k None), whose T m is m, straight to row.  at
    holds the selections at those points, search the ML candidates'
    images and the trial's _ml_table (None without the ml detector).
    """
    work, m, row = out
    extended, kind = _DETECTOR_TABLE[det]
    if extended is None:
        images, table = search
        for y_s, row_s in zip(y, row):
            np.take(images, _ml_search(y_s, table), axis=1, out=row_s, mode="clip")
    else:
        m = row if k is None else m
        _lr_estimate(y, at[(extended, k)], kind, spec, (work, m, row))


def _count_errors(idx, sent, words=None) -> np.ndarray:
    """Bit and symbol errors (2, ...) of a stack of slice indices
    (..., n_t, 2 packet_len) against the sent ones (n_t, 2 packet_len),
    both unsigned with I and Q interleaved: one count of each per leading
    entry, a point or a (detection, point) pair.  words is None, which
    allocates, or an array of idx's dtype with a row for each leading
    entry, of _padded(sent.size) entries, to write the error words to.

    The bit errors of a level are the bits in which the Gray labels
    g(i) = i ^ (i >> 1) of the decided and the sent index differ, the set
    bits of g(idx) ^ g(sent).  Padded with zeros to whole 8-byte words,
    each row's set bits are counted 8 bytes at a time.  Read as one word
    twice as wide as an index, a symbol's I and Q labels give a word that
    is not zero when the symbol is in error, since g is one to one.
    """
    lead, size = idx.shape[:-2], sent.size
    count = math.prod(lead)
    if words is None:
        words = np.empty((count, _padded(size, idx.dtype)), dtype=idx.dtype)
    words = words[:count]
    labels, flat = words[:, :size], idx.reshape(count, size)
    np.right_shift(flat, 1, out=labels)
    labels ^= flat
    labels ^= sent.reshape(size) ^ (sent.reshape(size) >> 1)
    words[:, size:] = 0
    bits = np.bitwise_count(words.view(np.uint64)).sum(axis=1, dtype=np.int64)
    symbols = words.view(np.dtype(f"u{2 * words.itemsize}"))
    # count_nonzero is faster per row than along an axis
    counts = np.stack([bits, [np.count_nonzero(w) for w in symbols]])
    return counts.reshape(2, *lead)


# --- persistence ---------------------------------------------------------------

def open_records(path):
    """path opened as a text file for write_records: created if missing,
    with the mode open(path, "w") gives it, but not truncated.  Truncating
    a file that holds the last sweep's CSV can stall for tens of ms (ext4
    mounted with discard); write_records cuts the old tail after it writes
    instead, which leaves the same bytes and keeps the inode."""
    return open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="")


def write_records(records, out) -> None:
    """Write BER records as CSV with the canonical header, one row of each
    record's fields; csv writes a float, numpy's too, as str gives it: the
    shortest digits that read back as the same float.  out is a path, or a
    file from open_records that is left open.  A regular file is cut at the
    written end, so a longer old file keeps no tail; a device, FIFO or pipe
    (/dev/null, /dev/stdout) cannot be cut and has no tail to cut."""
    if isinstance(out, (str, os.PathLike)):
        with open_records(out) as fh:
            write_records(records, fh)
        return
    writer = csv.writer(out)
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows(astuple(rec) for rec in records)
    if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
        out.truncate()


def load_complex_matrix(path) -> np.ndarray:
    """Read a complex matrix from text: one row per line, entries like 1.5-0.5j.
    A missing file raises FileNotFoundError; a path that cannot be read as
    text, such as a directory or undecodable bytes, ValidationError."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (IsADirectoryError, PermissionError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read matrix file {path}: {exc}") from exc
    rows = []
    for line in lines:
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
