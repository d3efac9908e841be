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
from .reduction import ReductionParams, clll_reduce_batch
from .switched import (
    _candidate_stack,
    _identity,
    _k_limit,
    _pick,
    _selection,
    extend_channel,
    sample_permutations,
)

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
# packet (_chunk_buffers) at the size of one point's.  Only the work that
# differs per point runs per block (received signals, estimates, slicing,
# error counts); what depends only on the trial (its symbols and sent
# indices, H x, the ML table) is formed once per trial, however many blocks
# its points take, and the filters of every selection, identity or LR,
# once per chunk.
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


def _chunk_selections(trials, sigma2s, ks, params) -> list:
    """Selections of each trial of a chunk, keyed (extended, k), each a
    KlrStack: one member per SNR point for the extended flavour, one member
    that serves every point for the plain one.

    ks maps each flavour the sweep detects on to the k of its selections
    (_selection_ks): None the identity selection of the channels, 0 the
    CLLL baseline, k >= 1 the pick among the first k candidates.  Every
    basis reduced goes through one clll_reduce_batch call, one stack per
    flavour: for each trial in order, its plain channel or its extended
    channel at each SNR point, each followed by its permuted candidates.
    Each (flavour, k) is one KlrStack over the chunk, formed by one
    _selection call, and a trial's entry is a slice of it.
    """
    sels = [{} for _ in trials]
    sigmas = np.sqrt(sigma2s)
    chans = {  # per flavour and trial, its plain channel or its extended ones
        f: [extend_channel(h, sigmas) if f else h[np.newaxis] for h, *_ in trials]
        for f in ks
    }
    reducing = sorted(f for f in ks if ks[f] - {None})
    # per flavour reduced and trial, the permutations of its candidates
    cands = {f: [perms[: max(ks[f] - {None})] for *_, perms in trials] for f in reducing}
    stacks = [
        np.concatenate([_candidate_stack(c, p) for c, p in zip(chans[f], cands[f])])
        for f in reducing
    ]
    reduced = clll_reduce_batch(stacks, params) if stacks else []
    del stacks  # the selections need only the reduced bases
    for extended in sorted(ks):
        per = len(sigma2s) if extended else 1  # channels per trial
        picks = {}
        if extended in reducing:
            stack = reduced.pop(0)
            groups = [p for p in cands[extended] for _ in range(per)]
            picks = {k: _pick(stack, groups, k) for k in ks[extended] - {None}}
            # the picks hold copies of their bases: Q, T, T^-1, d and the
            # filters are formed after the whole stack is released, one call
            # each per (flavour, k) of the chunk
            del stack
        if None in ks[extended]:
            picks[None] = _identity(np.concatenate(chans[extended]))
        for k, pick in picks.items():
            found = _selection(*pick, extended)
            for t, sel in enumerate(sels):
                sel[(extended, k)] = found[t * per : (t + 1) * per]
    return sels


def _chunk_buffers(cfg: SimConfig, spec) -> tuple:
    """The arrays a chunk's detection writes to, each the size of a block
    or of a trial's packet, for _detect_trial: the trial's symbols x (the
    transposed view of a contiguous array), its sent slice indices and
    H x; then for a block of SNR points its received signals y, the padded
    LR input [y; 0] (with no rows if no detector is extended), the LR
    decisions m, the integer images T m of the LR or ML decisions, the
    float slice values (the decisions' own float view: they are written
    over the decisions) and the slice indices.  The block arrays
    hold _COLUMNS_PER_CALL columns' worth of points, at least one and at
    most the grid's; a shorter last block uses their leading points.

    run_sweep forms them once per chunk, after its selections, and frees
    them with the chunk: each trial and block writes into the same memory
    instead of allocating its own, which the allocator would hand back to
    the kernel and fault in again, and the next chunk's reduction can take
    the memory back.
    """
    n_t, n_r, length = cfg.n_t, cfg.n_r, cfg.packet_len
    points = min(len(cfg.snr_grid_db), max(1, _COLUMNS_PER_CALL // length))
    index = np.min_scalar_type(spec.side - 1)
    x = np.empty((length, n_t), dtype=np.complex128).T
    sent = np.empty((n_t, 2 * length), dtype=index)
    hx = np.empty((n_r, length), dtype=np.complex128)
    y = np.empty((points, n_r, length), dtype=np.complex128)
    est = np.empty((points, n_t, length), dtype=np.complex128)
    tm = np.empty((points, n_t, length), dtype=np.complex128)
    idx = np.empty((points, n_t, 2 * length), dtype=index)
    rows = n_r + n_t if any(_DETECTOR_TABLE[d][0] for d in cfg.detectors) else 0
    work = np.empty((points, rows, length), dtype=np.complex128)
    return x, sent, hx, y, work, est, tm, est.view(np.float64), idx


def run_sweep(cfg: SimConfig) -> list[BerRecord]:
    """Run the full Monte Carlo sweep and return one record per curve point."""
    spec = ConstellationSpec(cfg.m)
    params = ReductionParams(cfg.delta)
    switched = _switched(cfg.detectors)
    ks = _selection_ks(cfg)
    variants = _variants(cfg)

    # per variant, bit and symbol errors at each SNR point
    errs = {v: np.zeros((2, len(cfg.snr_grid_db)), dtype=np.int64) for v in variants}
    ml = None  # the ML candidates and their integer images, T = I
    if "ml" in cfg.detectors:
        cands = ml_candidates(cfg.n_t, spec)
        ml = cands, _round_shifted(cands, 0.5 + 0.5j, spec.a)

    sigma2s = [snr_config(snr, cfg)[0] for snr in cfg.snr_grid_db]
    chunk = _chunk_trials(cfg)
    for first in range(0, cfg.trials, chunk):
        trials = [
            _draw_trial(cfg, t, spec, switched)
            for t in range(first, min(first + chunk, cfg.trials))
        ]
        sels = _chunk_selections(trials, sigma2s, ks, params)
        bufs = _chunk_buffers(cfg, spec)
        for (h, rng, packet, _), sel in zip(trials, sels):
            packet = packet or _draw_packet(cfg, spec, rng)
            _detect_trial(h, packet, sel, variants, sigma2s, spec, ml, errs, bufs)
        # free this chunk before the next one is drawn
        del trials, sels, sel, packet, bufs

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
    symbol errors to errs.  sel holds the trial's selections, ml the ML
    candidates and their images (None without the ml detector), bufs the
    chunk's arrays (_chunk_buffers), which every array the size of a block
    or of the packet is written to.

    What depends only on the trial is formed once, before the blocks of
    SNR points: its symbols and sent indices, H x and the ML table.  The
    selections carry their filters and offsets, formed for the whole
    chunk, the identity ones of zf and mmse as the LR ones: the plain
    selections serve every block, the extended ones have a member per
    point.  Each block forms its received signals, estimates, slice
    indices and error counts.  Variants that run the same estimator on the
    same selected bases (clr-zf and a klr-zf that kept the baseline, or two
    K that chose the same candidate) share one detection.
    """
    pairs, noise_unit = packet
    x, sent, hx, *block = bufs
    _packet_symbols(pairs, spec, out=(x, sent))
    search = None if ml is None else (ml[1], _ml_table(h, ml[0]))
    # complex, as numpy casts them to scale the noise, so the product needs
    # no cast buffer
    sigmas = np.sqrt(sigma2s).astype(np.complex128)[:, np.newaxis, np.newaxis]
    per_call = len(block[0])
    np.matmul(h, x, out=hx)
    for lo in range(0, len(sigma2s), per_call):
        pts = slice(lo, lo + per_call)
        # the leading points of the block arrays, fewer in a short last block
        y, *out = (b[: len(sigmas[pts])] for b in block)
        np.multiply(sigmas[pts], noise_unit, out=y)  # (points, n_r, packet_len)
        y += hx
        # the selections at these points: the extended stack has one member
        # per point, the plain one a member that serves them all
        at = {key: s[pts] if s.extended else s for key, s in sel.items()}
        counts = {}
        for det, k in variants:
            key = _detection_key(det, k, at)
            if key not in counts:
                idx = _indices(det, k, y, spec, at, search, out)
                counts[key] = _count_errors(idx, sent)
            errs[det, k][:, pts] += counts[key]


def _detection_key(det, k, at):
    """What decides the detection of a variant at some SNR points, given
    the selections at them: its estimator and, but for ml, the flavour,
    whether it is the identity (whose perms are the CLLL baseline's) and
    the permutation selected at each point (one reduced basis each)."""
    extended, kind = _DETECTOR_TABLE[det]
    if extended is None:
        return det
    return kind, extended, k is None, at[(extended, k)].perms


def _indices(det, k, y, spec, at, search, out) -> np.ndarray:
    """Slice indices (points, n_t, 2 packet_len) of one detector variant at
    some SNR points, whose received blocks are y, I and Q interleaved.  at
    holds the selections at those points, search the ML candidates' images
    and the trial's _ml_table (None without the ml detector).  out holds
    the block's arrays after y (see _chunk_buffers): the decisions, their
    integer images and indices are written to them.
    """
    work, est, tm, values, idx = out
    extended, kind = _DETECTOR_TABLE[det]
    if extended is None:
        images, table = search
        for s, y_s in enumerate(y):
            tm[s] = images[:, _ml_search(y_s, table)]
    else:
        _lr_estimate(y, at[(extended, k)], kind, spec, (work, est, tm))
    return _lattice_indices(tm, spec, (values, idx))


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
    """Write BER records as CSV with the canonical header, one row of each
    record's fields; csv writes a float, numpy's too, as str gives it: the
    shortest digits that read back as the same float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(astuple(rec) for rec in records)


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
