"""End-to-end acceptance checks.

Each test verifies one headline claim and records a single PASS/FAIL line that
the terminal summary hook in conftest.py prints after the run.  The Monte Carlo
checks share module-scoped sweeps (common random numbers across detectors and
candidate counts) and interpolate BER-threshold crossings log-linearly between
SNR grid points.

PAPER.md (the abstract) promises that switched CLLL selection approaches the
performance of the optimal, Korkin-Zolotarev (KZ) reduced, basis at a
reasonable cost; it gives no dB figure.  Criteria 01-03 therefore check the
switched detectors against oracles computed on the same channels, bits and
noise (the ``zf_oracle`` fixture) or against their own baselines.  They first
asserted fixed figures that have no source in the repository and that no
choice of basis reaches on these fixtures:

- 01: KLR-ZF(10) gains >= 3.5 dB over CLR-ZF at BER 1e-3.  Measured: 0.54 dB.
  LR-ZF on the KZ basis gains 0.28 dB, and a per-channel genie choice among
  the baseline and all 10 switched candidates gains 1.24 dB.
- 02: KLR-ZF(1) gains >= 1 dB.  Measured: 0.20 dB; the genie choice between
  the baseline and the single candidate gains 0.68 dB (0.46 dB over 4000
  trials).
- 03: at 25 dB only KLR-MMSE(10) is below BER 1e-4.  CLR-MMSE makes no bit
  error at 25 dB: the extended-channel LR-MMSE (criteria 09, 10) crosses 1e-4
  near 20 dB, as does LR-MMSE on the KZ basis, so the claim is checked at the
  switched detector's own 1e-4 crossing instead.

Criterion 04 keeps its 1 dB figure: a per-channel choice among its candidates
could reach it, so it stays an open gate on the selection rule.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from lrmimo.detectors import lr_detect, sic_detect
from lrmimo.kz import EnumerationBudget, kz_reduce, shortest_vector
from lrmimo.linalg import gram_det, pseudoinverse
from lrmimo.modem import ConstellationSpec, map_bits
from lrmimo.reduction import (
    ReductionParams,
    clll_reduce,
    is_clll_reduced,
    is_unimodular,
)
from lrmimo.sim import BerRecord, SimConfig, run_sweep, snr_config
from lrmimo.switched import (
    KlrResult,
    extend_channel,
    klr_select,
    sample_permutations,
)

from conftest import crandn
from oracles import mmse_filter_direct, unmap_symbols

RESULTS = []


def check(name, ok, detail):
    RESULTS.append(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def snr_at_ber(records, target):
    """SNR where the BER curve crosses target, log-linear between grid points."""
    pts = [
        (r.snr_db, r.ber)
        for r in sorted(records, key=lambda r: r.snr_db)
        if r.ber > 0
    ]
    for (s0, b0), (s1, b1) in zip(pts, pts[1:]):
        if b0 >= target >= b1:
            if b0 == b1:
                return s0
            t = (math.log10(b0) - math.log10(target)) / (
                math.log10(b0) - math.log10(b1)
            )
            return s0 + t * (s1 - s0)
    return None


def curve(records, detector, k=0):
    return [r for r in records if r.detector == detector and r.k == k]


# --- Monte Carlo sweeps (module scope: run once, shared between criteria) ------

ZF_CONFIG = SimConfig(
    n_t=6,
    n_r=6,
    m=4,
    snr_grid_db=tuple(float(s) for s in range(14, 23)),
    detectors=("clr-zf", "klr-zf"),
    k_candidates=(1, 10),
    trials=1000,
    packet_len=100,
    seed=2024,
)


@pytest.fixture(scope="module")
def zf_sweep():
    return run_sweep(ZF_CONFIG)


def _lone(basis, perm):
    """The selection of one reduced basis of the channel's columns perm,
    which no channel-level entry gives for a KZ or a chosen basis."""
    return KlrResult(
        basis=basis,
        perm=perm,
        odf_selected=basis.odf_value,
        odf_baseline=basis.odf_value,
        candidate_odfs=(),
    )


def _lr_zf_errors(ys, h, klr, bits, x, spec):
    """Bit and symbol errors per SNR block of ys for LR-ZF on one selection."""
    n_snr = ys.shape[1] // x.shape[1]
    x_hat = lr_detect(ys, h, klr, "zf", spec)
    bit_hat = unmap_symbols(x_hat.T, spec).reshape((n_snr,) + bits.shape)
    bit_err = np.sum(bit_hat != bits, axis=(1, 2, 3))
    sym_bad = np.abs(x_hat - np.tile(x, n_snr)) > spec.a / 4
    sym_err = np.sum(sym_bad.reshape(x.shape[0], n_snr, -1), axis=(0, 2))
    return bit_err, sym_err


@pytest.fixture(scope="module")
def zf_oracle(zf_sweep):
    """LR-ZF on oracle bases over the channels, bits and noise of zf_sweep.

    Replays run_sweep's per-trial draws in its order (channel, bits, unit
    noise, then the permutations) and returns BerRecords for three curves:

    - ``clr-zf``: the CLLL baseline, ``klr_select`` at k = 0.  Its counts
      must equal the sweep's row for row, which proves the replay before any
      oracle number is used.
    - ``kz-zf``: the KZ basis, from KZ-reducing the CLLL basis (enumeration
      starts from its input, so CLLL first keeps it cheap) and composing both
      unimodular transforms.
    - ``best-zf`` with k=1: per trial and SNR, the fewer bit errors of the
      baseline and the first switched candidate.  No per-channel selection
      between those two bases can do better.
    """
    cfg = ZF_CONFIG
    spec = ConstellationSpec(cfg.m)
    bps = spec.bits_per_symbol
    params = ReductionParams(cfg.delta)
    budget = EnumerationBudget(max_dim=cfg.n_t)
    ident = tuple(range(cfg.n_t))
    errs = {
        c: np.zeros((2, len(cfg.snr_grid_db)), dtype=np.int64)
        for c in (("clr-zf", 0), ("kz-zf", 0), ("best-zf", 1))
    }
    for trial in range(cfg.trials):
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(trial,))
        rng = np.random.default_rng(seq)
        h = crandn(rng, cfg.n_r, cfg.n_t)
        bits = rng.integers(0, 2, size=(cfg.packet_len, cfg.n_t, bps))
        x = map_bits(bits, spec).T
        noise_unit = crandn(rng, cfg.n_r, cfg.packet_len)
        perm = sample_permutations(cfg.n_t, max(cfg.k_candidates), rng).perms[0]
        ys = np.hstack(
            [
                h @ x + np.sqrt(snr_config(snr, cfg)[0]) * noise_unit
                for snr in cfg.snr_grid_db
            ]
        )

        base = klr_select(h, 0, params)
        kz = kz_reduce(base.basis.h_tilde, budget)
        kz = replace(kz, u=base.basis.u @ kz.u, u_inv=kz.u_inv @ base.basis.u_inv)
        cand = _lone(clll_reduce(h[:, list(perm)], params), perm)
        e_base = _lr_zf_errors(ys, h, base, bits, x, spec)
        e_cand = _lr_zf_errors(ys, h, cand, bits, x, spec)
        errs[("clr-zf", 0)] += e_base
        errs[("kz-zf", 0)] += _lr_zf_errors(ys, h, _lone(kz, ident), bits, x, spec)
        errs[("best-zf", 1)] += np.where(e_cand[0] < e_base[0], e_cand, e_base)

    bits_total = cfg.trials * cfg.packet_len * cfg.n_t * bps
    records = []
    for (det, k), counts in errs.items():
        for snr, be, se in zip(cfg.snr_grid_db, *counts.tolist()):
            records.append(
                BerRecord(
                    detector=det,
                    k=k,
                    snr_db=snr,
                    ebn0_db=snr_config(snr, cfg)[1],
                    trials=cfg.trials,
                    packet_len=cfg.packet_len,
                    bits_total=bits_total,
                    bit_errors=be,
                    ber=be / bits_total,
                    sym_errors=se,
                )
            )
    assert curve(records, "clr-zf") == curve(zf_sweep, "clr-zf"), (
        "oracle replay does not reproduce the CLR-ZF counts of zf_sweep"
    )
    return records


@pytest.fixture(scope="module")
def mmse_sweep():
    cfg = SimConfig(
        n_t=6,
        n_r=6,
        m=4,
        snr_grid_db=(14.0, 16.0, 17.0, 18.0, 19.0, 20.0, 21.0, 22.0, 25.0),
        detectors=("mmse", "clr-mmse", "klr-mmse", "clr-mmse-sic", "klr-mmse-sic"),
        k_candidates=(10,),
        trials=1000,
        packet_len=100,
        seed=2025,
    )
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def modulation_sweeps():
    dets = (
        "zf",
        "clr-zf",
        "klr-zf",
        "mmse",
        "clr-mmse",
        "klr-mmse",
        "clr-mmse-sic",
        "klr-mmse-sic",
    )
    out = {}
    for m in (4, 16):
        cfg = SimConfig(
            n_t=6,
            n_r=6,
            m=m,
            snr_grid_db=(6.0, 10.0, 14.0),
            detectors=dets,
            k_candidates=(1,),
            trials=300,
            packet_len=50,
            seed=2026,
        )
        out[m] = run_sweep(cfg)
    return out


@pytest.fixture(scope="module")
def anchored_sweep():
    cfg = SimConfig(
        n_t=2,
        n_r=2,
        m=4,
        snr_grid_db=(10.0, 15.0, 20.0, 25.0),
        detectors=("zf", "clr-zf", "clr-mmse-sic", "ml"),
        k_candidates=(1,),
        trials=1000,
        packet_len=100,
        seed=2027,
    )
    return run_sweep(cfg)


# --- BER criteria --------------------------------------------------------------

def _db(s):
    return "none" if s is None else f"{s:.2f} dB"


def _gain(s_ref, s):
    return "none" if None in (s_ref, s) else f"{s_ref - s:.2f} dB"


def test_01_switched_zf_gain(zf_sweep, zf_oracle):
    s_clr = snr_at_ber(curve(zf_sweep, "clr-zf"), 1e-3)
    s_k10 = snr_at_ber(curve(zf_sweep, "klr-zf", 10), 1e-3)
    s_kz = snr_at_ber(curve(zf_oracle, "kz-zf"), 1e-3)
    ok = None not in (s_clr, s_k10, s_kz) and s_k10 < s_clr and s_k10 <= s_kz
    check(
        "01 switched ZF (K=10) crosses BER 1e-3 below CLR-ZF, not after the KZ basis",
        ok,
        f"CLR-ZF at {_db(s_clr)}, KLR-ZF(10) at {_db(s_k10)}, "
        f"gain {_gain(s_clr, s_k10)}; LR-ZF on the KZ basis at {_db(s_kz)}, "
        f"gain {_gain(s_clr, s_kz)}; no longer asserted: gain >= 3.5 dB",
    )


def test_02_single_candidate_gain(zf_sweep, zf_oracle):
    s_clr = snr_at_ber(curve(zf_sweep, "clr-zf"), 1e-3)
    s_k1 = snr_at_ber(curve(zf_sweep, "klr-zf", 1), 1e-3)
    s_best = snr_at_ber(curve(zf_oracle, "best-zf", 1), 1e-3)
    ok = None not in (s_clr, s_k1, s_best) and s_best <= s_k1 < s_clr
    check(
        "02 switched ZF (K=1) crosses BER 1e-3 below CLR-ZF, not below best-of-2",
        ok,
        f"CLR-ZF at {_db(s_clr)}, KLR-ZF(1) at {_db(s_k1)}, "
        f"gain {_gain(s_clr, s_k1)}; best-of-2 oracle at {_db(s_best)}, "
        f"gain {_gain(s_clr, s_best)}; no longer asserted: gain >= 1 dB",
    )


def test_03_switched_mmse_threshold(mmse_sweep):
    klr = curve(mmse_sweep, "klr-mmse", 10)
    assert klr[0].bits_total >= 5e5  # a true 1e-4 rate would give >= 50 bit errors
    s_klr = snr_at_ber(klr, 1e-4)
    s_clr = snr_at_ber(curve(mmse_sweep, "clr-mmse"), 1e-4)
    # linear MMSE up to the first grid point at or beyond the switched
    # crossing: above 1e-4 there means above it at the crossing too
    mmse = curve(mmse_sweep, "mmse")
    upto = min(r.snr_db for r in mmse if s_klr is None or r.snr_db >= s_klr)
    mmse_ber = min(r.ber for r in mmse if r.snr_db <= upto)
    ok = None not in (s_klr, s_clr) and s_klr < s_clr and mmse_ber > 1e-4
    clr25 = next(r for r in curve(mmse_sweep, "clr-mmse") if r.snr_db == 25.0)
    check(
        "03 switched MMSE (K=10) reaches BER 1e-4 where MMSE and CLR-MMSE have not",
        ok,
        f"KLR-MMSE(10) at {_db(s_klr)}, CLR-MMSE at {_db(s_clr)}, "
        f"gap {_gain(s_clr, s_klr)}; MMSE BER {mmse_ber:.3g} at {upto:g} dB; "
        f"no longer asserted: the 25 dB operating point, where CLR-MMSE has "
        f"{clr25.bit_errors} bit errors",
    )


def test_04_switched_mmse_sic_gain(mmse_sweep):
    s_clr = snr_at_ber(curve(mmse_sweep, "clr-mmse-sic"), 1e-4)
    s_klr = snr_at_ber(curve(mmse_sweep, "klr-mmse-sic", 10), 1e-4)
    ok = s_clr is not None and s_klr is not None and (s_clr - s_klr) >= 1.0
    gain = None if None in (s_clr, s_klr) else s_clr - s_klr
    check(
        "04 switched MMSE-SIC gain >= 1 dB at BER 1e-4 (K=10)",
        ok,
        f"CLR-MMSE-SIC at {s_clr}, KLR-MMSE-SIC(10) at {s_klr}, gain {gain} dB",
    )


def test_05_modulation_ordering(modulation_sweeps):
    worst = None
    ok = True
    qpsk = {(r.detector, r.k, r.snr_db): r.ber for r in modulation_sweeps[4]}
    for r in modulation_sweeps[16]:
        ref = qpsk[(r.detector, r.k, r.snr_db)]
        if r.ber <= ref:
            ok = False
            worst = (r.detector, r.snr_db, r.ber, ref)
    check(
        "05 16-QAM BER above QPSK for every detector and SNR",
        ok,
        "all curve points ordered" if ok else f"violated at {worst}",
    )


# --- property criteria ---------------------------------------------------------

def test_06_clll_contract():
    rng = np.random.default_rng(606)
    bad = 0
    total = 10_000
    for i in range(total):
        n = 2 + i % 7  # cycles 2..8
        h = crandn(rng, n, n)
        out = clll_reduce(h)
        ok = (
            is_clll_reduced(out.r) == (True, True)
            and is_unimodular(out.u)
            and np.linalg.norm(h @ out.u - out.h_tilde)
            <= 1e-9 * np.linalg.norm(h)
            and abs(gram_det(out.h_tilde) - gram_det(h)) <= 1e-8 * gram_det(h)
        )
        bad += not ok
    check(
        "06 CLLL contract on 10000 random bases (2x2..8x8)",
        bad == 0,
        f"{bad} violations out of {total}",
    )


def test_07_selection_contract():
    rng = np.random.default_rng(707)
    bad = 0
    total = 200
    for _ in range(total):
        n = int(rng.integers(3, 7))
        cap = min(math.factorial(n) - 1, 10)
        k = int(rng.integers(1, cap + 1))
        res = klr_select(crandn(rng, n, n), k, rng=rng)
        ident = res.perm == tuple(range(n))
        if res.odf_selected > res.odf_baseline:
            bad += 1
        elif ident != (res.odf_selected == res.odf_baseline):
            bad += 1
    check(
        "07 selection never worse than baseline, equal only when baseline kept",
        bad == 0,
        f"{bad} violations out of {total}",
    )


def test_08_kz_oracle():
    rng = np.random.default_rng(808)
    bad = 0
    total = 100
    for _ in range(total):
        h = crandn(rng, 3, 3)
        out = kz_reduce(h)
        v, _ = shortest_vector(h)
        first = np.linalg.norm(out.h_tilde[:, 0])
        ok = (
            abs(first - np.linalg.norm(v)) <= 1e-9 * np.linalg.norm(v)
            and is_clll_reduced(out.r) == (True, True)
        )
        bad += not ok
    check(
        "08 KZ first column is the enumerated shortest vector; KZ passes CLLL",
        bad == 0,
        f"{bad} violations out of {total}",
    )


def test_09_mmse_equals_extended_zf():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(1000):
        n_t = int(rng.integers(2, 7))
        n_r = int(rng.integers(n_t, 7))
        h = crandn(rng, n_r, n_t)
        sigma = float(rng.uniform(0.1, 1.0))
        direct = mmse_filter_direct(h, sigma**2)
        ext = pseudoinverse(extend_channel(h, sigma))[:, :n_r]
        worst = max(worst, float(np.max(np.abs(direct - ext))))
    check(
        "09 MMSE filter equals extended-system ZF on 1000 random triples",
        worst <= 1e-10,
        f"max |difference| {worst:.2e}",
    )


def test_10_zero_noise_exactness():
    spec = ConstellationSpec(4)
    rng = np.random.default_rng(1010)
    bad = 0

    def run_all(h, x_cols, k):
        y = h @ x_cols
        plain = klr_select(h, k, rng=rng)
        ext = klr_select(h, k, rng=rng, sigma_n=0.0)
        fails = 0
        for klr, kind in (
            (plain, "zf"),
            (plain, "sic-zf"),
            (ext, "mmse"),
            (ext, "sic-mmse"),
        ):
            x_hat = lr_detect(y, h, klr, kind, spec)
            fails += int(not np.allclose(x_hat, x_cols))
        return fails

    # exhaustive over all 16 transmit vectors at 2x2
    all_2 = np.array(
        list(itertools.product(spec.alphabet, repeat=2)), dtype=complex
    ).T
    for _ in range(200):
        bad += run_all(crandn(rng, 2, 2), all_2, 1)
    # 100 random 6x6 channels, exhaustive over all 4096 transmit vectors
    all_6 = np.array(
        list(itertools.product(spec.alphabet, repeat=6)), dtype=complex
    ).T
    for _ in range(100):
        bad += run_all(crandn(rng, 6, 6), all_6, 10)
    check(
        "10 zero-noise LR detection is exact (2x2 exhaustive, 100 6x6 channels)",
        bad == 0,
        f"{bad} detector/channel combinations with errors",
    )


def test_11_sic_equals_layer_peeling_oracle():
    rng = np.random.default_rng(1111)
    bad = 0
    total = 1000
    for _ in range(total):
        n = int(rng.integers(2, 6))
        h = crandn(rng, n, n)
        y = crandn(rng, n)
        # oracle: peel layers top-down with explicit interference projection
        z = np.zeros(n, dtype=complex)
        resid = y.copy()
        for i in range(n - 1, -1, -1):
            if i:
                basis = h[:, :i]
                p = np.eye(n) - basis @ np.linalg.pinv(basis)
            else:
                p = np.eye(n)
            eff = p @ h[:, i]
            est = eff.conj() @ (p @ resid) / (eff.conj() @ eff)
            z[i] = complex(np.round(est.real) + 1j * np.round(est.imag))
            resid = resid - h[:, i] * z[i]
        bad += not np.array_equal(sic_detect(h, y), z)
    check(
        "11 SIC equals the layer-peeling oracle on 1000 random instances",
        bad == 0,
        f"{bad} mismatches out of {total}",
    )


def test_12_ml_anchored_ordering(anchored_sweep):
    order = (("ml", 0), ("clr-mmse-sic", 0), ("clr-zf", 0), ("zf", 0))
    by_key = {(r.detector, r.k, r.snr_db): r for r in anchored_sweep}
    ok = True
    worst = None
    for snr in (10.0, 15.0, 20.0, 25.0):
        recs = [by_key[(d, k, snr)] for d, k in order]
        assert recs[0].trials * recs[0].packet_len >= 1e5
        for lo, hi in zip(recs, recs[1:]):
            n = lo.bits_total
            tol = 3.0 * math.sqrt(
                (lo.ber * (1 - lo.ber) + hi.ber * (1 - hi.ber)) / n
            )
            if lo.ber > hi.ber + tol:
                ok = False
                worst = (lo.detector, hi.detector, snr, lo.ber, hi.ber)
    check(
        "12 BER(ML) <= BER(LR-SIC) <= BER(LR-ZF) <= BER(ZF) within 3 sigma",
        ok,
        "ordering holds at SNR 10-25 dB" if ok else f"violated: {worst}",
    )
