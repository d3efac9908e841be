import collections
import csv
import io
import math
import os
import resource
import stat
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from lrmimo import cli, linalg, reduction, sim, switched
from lrmimo.cli import EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from lrmimo.detectors import lr_detect, ml_detect
from lrmimo.errors import ValidationError
from lrmimo.linalg import pseudoinverse
from lrmimo.modem import ConstellationSpec, map_bits
from lrmimo.reduction import ReductionParams
from lrmimo.sim import (
    CSV_HEADER,
    DETECTORS,
    BerRecord,
    SimConfig,
    format_complex_matrix,
    gen_channel,
    load_complex_matrix,
    run_sweep,
    snr_config,
    write_records,
)
from lrmimo.switched import (
    PermutationSet,
    extend_channel,
    klr_select,
    sample_permutations,
)

from oracles import (
    _bit_distance,
    _slice_index,
    hard_slice,
    mmse_filter_direct,
    unmap_symbols,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def small_cfg(**kw):
    base = dict(
        n_t=2,
        n_r=2,
        m=4,
        snr_grid_db=(10.0, 20.0),
        detectors=("zf", "clr-zf"),
        trials=5,
        packet_len=4,
        seed=7,
    )
    base.update(kw)
    return SimConfig(**base)


class TestSimConfig:
    def test_valid(self):
        small_cfg()

    def test_numpy_integers_accepted(self):
        cfg = small_cfg(
            n_t=np.int64(2),
            n_r=np.int32(2),
            trials=np.int64(5),
            packet_len=np.int32(4),
            seed=np.int64(7),
        )
        assert run_sweep(cfg) == run_sweep(small_cfg())

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_t=0),
            dict(n_t=3),  # exceeds n_r
            dict(trials=0),
            dict(packet_len=0),
            dict(snr_grid_db=()),
            dict(detectors=("zf", "bogus")),
            dict(k_candidates=(0,)),
            dict(k_candidates=(2,), detectors=("klr-zf",)),  # n_t=2 allows only k=1
            dict(m=8),
            dict(delta=0.4),
            dict(detectors=("zf", "zf")),
            dict(k_candidates=(1, 1), detectors=("klr-zf",)),
            dict(snr_grid_db=(10.0, 10.0)),
            dict(k_candidates=(), detectors=("klr-zf",)),
            dict(seed=-1),
            dict(snr_grid_db=(10.0, math.nan)),
            dict(snr_grid_db=(-math.inf, 10.0)),
            dict(snr_grid_db=(math.inf,)),
            dict(trials=2.5),
            dict(packet_len=2.5),
            dict(trials=5.0),
            dict(n_r=2.5),
            dict(n_t=2.0),
            dict(seed=2.0),
            dict(n_t=3, n_r=3, detectors=("klr-zf",), k_candidates=(1.5,)),
            dict(detectors=()),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValidationError):
            small_cfg(**kw)

    def test_k_ignored_without_switched_detectors(self):
        # n_t = 1 has no non-identity permutation, so K is capped at 0
        cfg = small_cfg(n_t=1, detectors=("zf", "clr-zf", "mmse"))
        assert len(run_sweep(cfg)) == 6
        with pytest.raises(ValidationError):
            small_cfg(n_t=1, detectors=("zf", "klr-zf"))


class TestSnrConfig:
    def test_noise_variance(self):
        cfg = small_cfg(snr_grid_db=(10.0,))
        sigma2, _ = snr_config(10.0, cfg)
        # SNR = n_t * E|x|^2 / sigma_n^2 with unit symbol power
        assert cfg.n_t / sigma2 == pytest.approx(10.0)

    def test_ebn0_square_qpsk(self):
        # square system, QPSK: Eb/N0 = SNR / log2(M) -> -3.01 dB offset
        _, ebn0 = snr_config(20.0, small_cfg())
        assert ebn0 == pytest.approx(20.0 - 10.0 * math.log10(2.0))

    def test_ebn0_receive_diversity(self):
        cfg = SimConfig(
            n_t=2, n_r=4, m=16, snr_grid_db=(0.0,), detectors=("zf",), trials=1
        )
        _, ebn0 = snr_config(0.0, cfg)
        assert ebn0 == pytest.approx(10.0 * math.log10(4 / (2 * 4)))


class TestGenChannel:
    def test_unit_variance_entries(self):
        h = gen_channel(40, 40, np.random.default_rng(0))
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.05)
        assert abs(np.mean(h)) < 0.05

    def test_shape_guard(self):
        with pytest.raises(ValidationError):
            gen_channel(2, 3, np.random.default_rng(0))


class TestRunSweep:
    def test_record_layout(self):
        cfg = small_cfg(detectors=("zf", "klr-zf"), k_candidates=(1,))
        recs = run_sweep(cfg)
        # zf once + klr-zf per k, each over both SNR points
        assert [(r.detector, r.k, r.snr_db) for r in recs] == [
            ("zf", 0, 10.0),
            ("zf", 0, 20.0),
            ("klr-zf", 1, 10.0),
            ("klr-zf", 1, 20.0),
        ]
        for r in recs:
            assert r.bits_total == cfg.trials * cfg.packet_len * cfg.n_t * 2
            assert r.ber == r.bit_errors / r.bits_total

    def test_deterministic(self):
        a = run_sweep(small_cfg())
        b = run_sweep(small_cfg())
        assert a == b

    def test_common_random_numbers(self):
        # each detector sees the same channels/bits/noise regardless of which
        # other detectors run alongside it
        alone = run_sweep(small_cfg(detectors=("zf",)))
        combined = run_sweep(small_cfg(detectors=("mmse", "zf", "clr-zf")))
        zf_combined = [r for r in combined if r.detector == "zf"]
        assert alone == zf_combined

    def test_ber_decreases_with_snr(self):
        cfg = small_cfg(
            snr_grid_db=(0.0, 30.0), detectors=("zf",), trials=30, packet_len=20
        )
        recs = run_sweep(cfg)
        assert recs[0].bit_errors > recs[1].bit_errors

    def test_all_detectors_run(self):
        cfg = SimConfig(
            n_t=2,
            n_r=2,
            m=4,
            snr_grid_db=(15.0,),
            detectors=(
                "zf",
                "clr-zf",
                "klr-zf",
                "mmse",
                "clr-mmse",
                "klr-mmse",
                "clr-mmse-sic",
                "klr-mmse-sic",
                "ml",
            ),
            k_candidates=(1,),
            trials=3,
            packet_len=5,
            seed=1,
        )
        recs = run_sweep(cfg)
        assert len(recs) == 9
        for r in recs:
            assert 0.0 <= r.ber <= 1.0

    def test_lr_matches_conventional_at_high_snr(self):
        # with negligible noise every detector must be error free
        cfg = small_cfg(
            snr_grid_db=(60.0,),
            detectors=("zf", "mmse", "clr-zf", "clr-mmse", "clr-mmse-sic", "ml"),
            trials=10,
            packet_len=10,
        )
        for r in run_sweep(cfg):
            assert r.bit_errors == 0
            assert r.sym_errors == 0


def reference_sweep(cfg):
    """run_sweep written as a loop over SNR points and detector variants.

    Each (trial, SNR point, variant) makes its own detection, slicing and
    demapping call through the public API, with symbol errors counted as
    |x_hat - x| > a/4 on the sliced symbols.
    """
    spec = ConstellationSpec(cfg.m)
    params = ReductionParams(cfg.delta)
    bps = spec.bits_per_symbol
    switched = any(d.startswith("klr-") for d in cfg.detectors)
    variants = [
        (d, k)
        for d in cfg.detectors
        for k in (cfg.k_candidates if d.startswith("klr-") else (0,))
    ]
    errs = {(d, k, snr): [0, 0] for d, k in variants for snr in cfg.snr_grid_db}
    for trial in range(cfg.trials):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(trial,)))
        h = gen_channel(cfg.n_r, cfg.n_t, rng)
        bits = rng.integers(0, 2, size=(cfg.packet_len, cfg.n_t, bps))
        x = map_bits(bits, spec).T
        noise = (
            rng.standard_normal((cfg.n_r, cfg.packet_len))
            + 1j * rng.standard_normal((cfg.n_r, cfg.packet_len))
        ) / np.sqrt(2.0)
        perms = (
            sample_permutations(cfg.n_t, max(cfg.k_candidates), rng).perms
            if switched
            else ()
        )

        def select(mat, k, extended):
            sets = PermutationSet(cfg.n_t, perms[:k]) if k else None
            res = klr_select(mat, k, params, perms=sets)
            return replace(res, extended=extended)

        for snr in cfg.snr_grid_db:
            sigma2, _ = snr_config(snr, cfg)
            y = h @ x + np.sqrt(sigma2) * noise
            for det, k in variants:
                if det == "zf":
                    x_hat = hard_slice(pseudoinverse(h) @ y, spec)
                elif det == "mmse":
                    x_hat = hard_slice(mmse_filter_direct(h, sigma2) @ y, spec)
                elif det == "ml":
                    x_hat = ml_detect(y, h, spec)
                elif det.endswith("-zf"):
                    x_hat = lr_detect(y, h, select(h, k, False), "zf", spec)
                else:
                    kind = "sic-mmse" if det.endswith("-sic") else "mmse"
                    ext = select(extend_channel(h, np.sqrt(sigma2)), k, True)
                    x_hat = lr_detect(y, h, ext, kind, spec)
                e = errs[(det, k, snr)]
                e[0] += int(np.sum(unmap_symbols(x_hat.T, spec) != bits))
                e[1] += int(np.sum(np.abs(x_hat - x) > spec.a / 4))
    bits_total = cfg.trials * cfg.packet_len * cfg.n_t * bps
    return [
        BerRecord(
            detector=det,
            k=k,
            snr_db=float(snr),
            ebn0_db=snr_config(snr, cfg)[1],
            trials=cfg.trials,
            packet_len=cfg.packet_len,
            bits_total=bits_total,
            bit_errors=errs[(det, k, snr)][0],
            ber=errs[(det, k, snr)][0] / bits_total,
            sym_errors=errs[(det, k, snr)][1],
        )
        for det, k in variants
        for snr in cfg.snr_grid_db
    ]


def long_packet_cfg(
    detectors, trials, seed, m=4, packet_len=sim._COLUMNS_PER_CALL + 52
):
    """A 3x4 sweep (QPSK unless m is given) at 3 SNR points whose packets
    exceed the columns of one detection call: one point per block."""
    return SimConfig(
        n_t=3,
        n_r=4,
        m=m,
        snr_grid_db=(6.0, 14.0, 22.0),
        detectors=detectors,
        k_candidates=(1, 3),
        trials=trials,
        packet_len=packet_len,
        seed=seed,
    )


# bytes of the CLLL input stacks of one trial of long_packet_cfg without
# klr- detectors: its 4x3 plain channel and its three 7x3 extended ones
LONG_PACKET_CALL_BYTES = (4 + 3 * 7) * 3 * 16


class TestReferenceReplay:
    @pytest.mark.parametrize(
        "seed, m, packet_len, trials",
        [
            (1, 16, 15, 10),  # every SNR point in one detection call, one chunk
            (2, 4, 700, 3),  # two points per call, then one; chunks of 2, then 1
        ],
    )
    def test_run_sweep_equals_per_snr_loop(self, seed, m, packet_len, trials):
        cfg = SimConfig(
            n_t=3,
            n_r=4,
            m=m,
            snr_grid_db=(6.0, 14.0, 22.0),
            detectors=DETECTORS,
            k_candidates=(1, 3),
            trials=trials,
            packet_len=packet_len,
            seed=seed,
        )
        got = run_sweep(cfg)
        assert got == reference_sweep(cfg)
        assert sum(r.bit_errors for r in got) > 0

    def test_extended_trials_span_several_chunks(self):
        # 3 extended channels per trial, each with 10 candidates: 33 bases
        cfg = SimConfig(
            n_t=6,
            n_r=6,
            m=4,
            snr_grid_db=(10.0, 14.0, 18.0),
            detectors=("mmse", "clr-mmse", "klr-mmse", "klr-mmse-sic"),
            k_candidates=(10,),
            trials=40,
            packet_len=10,
            seed=3,
        )
        per_chunk = sim._chunk_trials(cfg)
        # at least three CLLL calls, the last one with fewer trials
        assert cfg.trials > 2 * per_chunk and cfg.trials % per_chunk
        got = run_sweep(cfg)
        assert got == reference_sweep(cfg)
        assert all(r.bit_errors > 0 for r in got if r.snr_db == 10.0)


    def test_long_packets_span_several_chunks(self, monkeypatch):
        cfg = long_packet_cfg(("zf", "mmse", "clr-zf", "clr-mmse-sic", "ml"), 5, 4)
        # 4 bases per trial, the plain channel and 3 extended ones: 2 trials
        # per CLLL call, so three calls, the last one with 1 trial
        monkeypatch.setattr(sim, "_CALL_BYTES", 2 * LONG_PACKET_CALL_BYTES)
        got = run_sweep(cfg)
        assert got == reference_sweep(cfg)
        assert all(r.bit_errors > 0 for r in got if r.snr_db == 6.0)


    @pytest.mark.parametrize("m, seed", [(16, 9), (64, 10)])
    def test_long_qam_packets_one_point_per_block(self, m, seed):
        dets = ("zf", "mmse", "clr-zf", "clr-mmse", "clr-mmse-sic")
        cfg = long_packet_cfg(dets, 3, seed, m=m)
        got = run_sweep(cfg)
        assert got == reference_sweep(cfg)
        assert all(r.bit_errors > 0 for r in got if r.snr_db <= 14.0)


class TestDrawPacket:
    """_draw_packet and _packet_symbols against the three lines they
    replace: from the same generator calls, x with the bytes and strides of
    map_bits(bits).T, noise with the bytes of (a + 1j b) / sqrt(2), sent
    indices equal to slicing x, and the generator left in the same state.
    A packet is held as its level index pairs and its noise, and x and sent
    are formed from the pairs."""

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    @pytest.mark.parametrize("packet_len", [1, 7, 2000])
    def test_equals_three_line_formula(self, m, packet_len):
        cfg = SimConfig(
            n_t=3,
            n_r=5,
            m=m,
            snr_grid_db=(10.0,),
            detectors=("zf",),
            packet_len=packet_len,
            seed=m + packet_len,
        )
        spec = ConstellationSpec(m)
        old, new = sim._trial_rng(cfg.seed, 0), sim._trial_rng(cfg.seed, 0)
        bits = old.integers(0, 2, size=(packet_len, cfg.n_t, spec.bits_per_symbol))
        want_x = map_bits(bits, spec).T
        shape = (cfg.n_r, packet_len)
        want_noise = (
            old.standard_normal(shape) + 1j * old.standard_normal(shape)
        ) / np.sqrt(2.0)
        pairs, noise = sim._draw_packet(cfg, spec, new)
        assert new.bit_generator.state == old.bit_generator.state
        assert (pairs.shape, pairs.dtype) == ((packet_len, cfg.n_t, 2), np.uint8)
        x, sent = sim._packet_symbols(pairs, spec)
        assert (x.shape, x.strides, x.dtype) == (
            want_x.shape,
            want_x.strides,
            want_x.dtype,
        )
        assert x.tobytes() == want_x.tobytes()
        assert (noise.shape, noise.dtype) == (want_noise.shape, want_noise.dtype)
        assert noise.tobytes() == want_noise.tobytes()
        # each part of each symbol sliced, I and Q interleaved
        parts = [_slice_index(v, spec) for v in (want_x.real, want_x.imag)]
        want_sent = np.stack(parts, axis=-1).reshape(cfg.n_t, -1).astype(np.uint8)
        assert (sent.shape, sent.strides, sent.dtype) == (
            want_sent.shape,
            want_sent.strides,
            want_sent.dtype,
        )
        assert np.array_equal(sent, want_sent)


class TestTrialInvariants:
    """What depends only on the trial is formed once per trial, however
    many blocks of SNR points its packet takes; the filters once per
    chunk, with its selections: zf and mmse detect on identity selections
    through the one LR estimator."""

    def test_filters_formed_once_per_chunk(self, monkeypatch):
        cfg = long_packet_cfg(("zf", "mmse", "clr-zf", "clr-mmse-sic"), 3, 8, m=16)
        counts = []  # per trial, the calls of each counted function
        solves = collections.Counter()  # per sweep, the filter solves
        conventional = collections.Counter()  # per sweep, the per-channel filters
        detect = sim._detect_trial

        def counting_detect(*args):
            counts.append(collections.Counter())
            return detect(*args)

        def count(module, name, counter=lambda: counts[-1]):
            func = getattr(module, name)

            def counting(*args):
                counter()[name] += 1
                return func(*args)

            monkeypatch.setattr(module, name, counting)

        count(linalg, "pseudoinverse", lambda: conventional)
        count(switched, "_pinv_from_qr", lambda: solves)
        count(sim, "_lr_estimate")
        monkeypatch.setattr(sim, "_detect_trial", counting_detect)
        got = run_sweep(cfg)
        assert not conventional
        # one chunk: one solve for each of the 3 selection stacks a filter
        # is read from, the plain and extended identity ones and the plain
        # CLLL one; clr-mmse-sic reads the Q and R of the extended CLLL one
        assert solves == {"_pinv_from_qr": 3}
        assert len(counts) == cfg.trials
        for c in counts:
            # 3 blocks of one point for each of the 4 estimators
            assert c == {"_lr_estimate": 12}
        assert got == reference_sweep(cfg)

    def test_identity_members_have_the_zf_filter(self):
        cfg = long_packet_cfg(("zf",), 5, 3, packet_len=10)
        spec = ConstellationSpec(cfg.m)
        trials = [sim._draw_trial(cfg, t, spec, set()) for t in range(cfg.trials)]
        sigma2s = [snr_config(snr, cfg)[0] for snr in cfg.snr_grid_db]
        ks = sim._selection_ks(cfg)
        assert ks == {False: {None}}
        sels = sim._chunk_selections(trials, sigma2s, ks, ReductionParams())
        for (h, *_), sel in zip(trials, sels):
            ident = sel[(False, None)]
            assert len(ident) == 1 and ident.perms == ((0, 1, 2),)
            assert ident.pinv[0].tobytes() == pseudoinverse(h).tobytes()


class TestChunkBuffers:
    """Detection writes every array the size of a block or of a trial's
    packet into the arrays _chunk_buffers forms once per chunk."""

    @pytest.mark.parametrize(
        "m, packet_len, seed",
        [
            (4, 700, 11),  # blocks of 2 points, then a short one of 1
            (16, sim._COLUMNS_PER_CALL + 52, 12),  # one point per block
        ],
    )
    def test_stale_buffers_give_the_reference(self, monkeypatch, m, packet_len, seed):
        # every chunk's buffers start filled with NaN (integer ones with
        # their largest value): no value may be read before it is written
        form, chunks = sim._chunk_buffers, []

        def stale_buffers(*args):
            bufs = form(*args)
            for b in bufs:
                b[...] = np.nan if b.dtype.kind in "fc" else np.iinfo(b.dtype).max
            chunks.append(bufs)
            return bufs

        monkeypatch.setattr(sim, "_chunk_buffers", stale_buffers)
        monkeypatch.setattr(sim, "_chunk_trials", lambda cfg: 2)
        cfg = long_packet_cfg(DETECTORS, 3, seed, m=m, packet_len=packet_len)
        got = run_sweep(cfg)
        assert len(chunks) == 2  # of 2 trials, then 1
        assert got == reference_sweep(cfg)
        assert all(r.bit_errors > 0 for r in got if r.snr_db == 6.0)

    def test_no_block_sized_allocations(self, monkeypatch):
        # the detect-16qam benchmark shape: one 4x2000 block per point
        cfg = SimConfig(
            n_t=4,
            n_r=4,
            m=16,
            snr_grid_db=(10.0, 16.0, 22.0),
            detectors=("zf", "mmse", "clr-zf", "clr-mmse-sic"),
            trials=4,
            packet_len=2000,
            seed=5,
        )
        block = 16 * cfg.n_t * cfg.packet_len  # one point's complex estimates
        peaks = []  # per trial, the most _detect_trial held at once
        detect = sim._detect_trial

        def traced_detect(*args):
            # a ufunc that broadcasts or casts iterates through buffers of
            # getbufsize() elements (128 KiB of complex by default), which
            # would hide an array of a block; at 1024 they are 16 KiB
            bufsize = np.setbufsize(1024)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                detect(*args)
            finally:
                np.setbufsize(bufsize)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)

        monkeypatch.setattr(sim, "_detect_trial", traced_detect)
        tracemalloc.start()
        try:
            got = run_sweep(cfg)
        finally:
            tracemalloc.stop()
        assert sim._chunk_trials(cfg) >= cfg.trials  # one chunk
        assert len(peaks) == cfg.trials
        # the arrays of a block or a packet are the chunk's; what a trial
        # allocates is smaller, the slice indices and error words included
        assert max(peaks) < block / 2, peaks
        assert got == reference_sweep(cfg)

    def test_ml_sweep_memory_is_bounded(self):
        # 4096 candidates x 2000 columns per point: the whole cost matrix
        # would take 128 MiB of complex products alone
        cfg = small_cfg(m=64, detectors=("ml",), trials=1, packet_len=2000)
        tracemalloc.start()
        try:
            got = run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20, peak
        assert got == reference_sweep(cfg)


class TestChunks:
    """A chunk's CLLL call is capped by the bytes of its input stacks, and
    a sweep with nothing to reduce by its plain channels.  A non-switched
    sweep draws its packets when it detects them, so that is its only cap;
    a switched one holds its packets, so a chunk is also capped by their
    bytes, and a long packet keeps one trial per chunk."""

    @staticmethod
    def count_calls(monkeypatch) -> list:
        """Bases of each clll_reduce_batch call the sweep makes, all of
        them through switched._select_all."""
        calls = []
        reduce = switched.clll_reduce_batch

        def counting_reduce(stacks, params):
            calls.append(sum(len(s) for s in stacks))
            return reduce(stacks, params)

        monkeypatch.setattr(switched, "clll_reduce_batch", counting_reduce)
        return calls

    def test_non_switched_long_packets_share_calls(self, monkeypatch):
        monkeypatch.setattr(sim, "_CALL_BYTES", 4 * LONG_PACKET_CALL_BYTES)
        calls = self.count_calls(monkeypatch)
        cfg = long_packet_cfg(("clr-zf", "clr-mmse"), 10, 5)
        run_sweep(cfg)
        per_call = 4  # trials of 4 bases each
        assert len(calls) == math.ceil(cfg.trials / per_call)
        assert calls == [4 * per_call, 4 * per_call, 4 * 2]

    def test_ml_only_chunks_count_plain_channels(self, monkeypatch):
        cfg = small_cfg(n_r=3, m=16, detectors=("ml",), trials=7)
        assert sim._chunk_trials(cfg) == sim._CALL_BYTES // (16 * 3 * 2)
        # three trials' 3x2 channels per chunk: chunks of 3, 3 and 1
        monkeypatch.setattr(sim, "_CALL_BYTES", 3 * 16 * 3 * 2)
        chunks = []
        select = sim._chunk_selections

        def counting_select(trials, *args):
            chunks.append(len(trials))
            return select(trials, *args)

        monkeypatch.setattr(sim, "_chunk_selections", counting_select)
        got = run_sweep(cfg)
        assert chunks == [3, 3, 1]
        assert got == reference_sweep(cfg)

    def test_switched_long_packets_keep_one_trial_per_call(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        # 3 level index bytes twice and 4 noise entries of 16 bytes per
        # received column: two packets exceed what a chunk holds
        cfg = long_packet_cfg(
            ("clr-zf", "klr-zf"), 3, 6, packet_len=sim._HELD_BYTES // (2 * 70) + 1
        )
        spec = ConstellationSpec(cfg.m)
        packet = sim._draw_packet(cfg, spec, np.random.default_rng(0))
        assert 2 * sum(a.nbytes for a in packet) > sim._HELD_BYTES
        got = run_sweep(cfg)
        # per trial the channel and its 3 candidates
        assert calls == [4] * cfg.trials
        assert got == reference_sweep(cfg)

    def test_klr_zf_sweep_in_one_call(self, monkeypatch):
        # the benchmark's klr-zf shape: 64 trials of a 6x6 channel and its
        # 10 candidates, 704 plain bases and 64 held packets of 100 symbols
        calls = self.count_calls(monkeypatch)
        solves = []
        pinv_from_qr = switched._pinv_from_qr

        def counting_solve(q, r):
            solves.append(len(r))
            return pinv_from_qr(q, r)

        monkeypatch.setattr(switched, "_pinv_from_qr", counting_solve)
        cfg = SimConfig(
            n_t=6,
            n_r=6,
            m=4,
            snr_grid_db=(14.0, 18.0, 22.0),
            detectors=("clr-zf", "klr-zf"),
            k_candidates=(1, 10),
            trials=64,
            packet_len=100,
            seed=5,
        )
        got = run_sweep(cfg)
        assert calls == [64 * 11]
        # one LR filter solve per K (0, 1 and 10), each over all 64 trials
        assert solves == [64] * 3
        assert got == reference_sweep(cfg)
        assert all(r.bit_errors > 0 for r in got if r.snr_db == 14.0)

    def test_inverse_formed_for_kept_members_only(self, monkeypatch):
        # the benchmark's klr-mmse shape: a chunk of C extended channels
        # reduces 11 C bases, and U^-1 is formed for the C baselines and
        # the C K = 10 picks alone (the identity selections give theirs)
        calls = self.count_calls(monkeypatch)
        formed = collections.defaultdict(list)
        inverse = reduction._inverse

        def counting_inverse(u):
            formed[len(calls)].append(len(u))
            return inverse(u)

        monkeypatch.setattr(reduction, "_inverse", counting_inverse)
        monkeypatch.setattr(sim, "_chunk_trials", lambda cfg: 3)
        cfg = SimConfig(
            n_t=6,
            n_r=6,
            m=4,
            snr_grid_db=(14.0, 18.0, 22.0),
            detectors=("mmse", "clr-mmse", "klr-mmse", "clr-mmse-sic", "klr-mmse-sic"),
            k_candidates=(10,),
            trials=5,
            packet_len=20,
            seed=5,
        )
        got = run_sweep(cfg)
        # chunks of 3 and 2 trials, 3 SNR points each
        assert calls == [99, 66]
        assert dict(formed) == {1: [9, 9], 2: [6, 6]}
        assert got == reference_sweep(cfg)


class TestCountErrors:
    """sim._count_errors XORs Gray labels; oracles._bit_distance is the table
    of Gray-label distances it must agree with."""

    @staticmethod
    def table_count(idx, sent, table):
        dist = table[idx, sent]
        per_symbol = dist[..., 0::2] + dist[..., 1::2]
        return np.stack(
            [per_symbol.sum(axis=(1, 2)), np.count_nonzero(per_symbol, axis=(1, 2))]
        )

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_every_level_pair(self, m):
        spec = ConstellationSpec(m)
        side, table = spec.side, _bit_distance(spec)
        dtype = np.min_scalar_type(side - 1)
        for s in range(side):
            # point d decides level d where s was sent: on I in its first
            # symbol, on Q in its second; the other parts are right
            idx = np.zeros((side, 1, 4), dtype=dtype)
            idx[:, 0, 0] = idx[:, 0, 3] = np.arange(side)
            sent = np.array([[s, 0, 0, s]], dtype=dtype)
            got = sim._count_errors(idx, sent)
            assert got.dtype == np.int64
            assert np.array_equal(got[0], 2 * table[:, s])
            assert np.array_equal(got[1], 2 * (np.arange(side) != s))

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_random_blocks(self, rng, m):
        spec = ConstellationSpec(m)
        side, table = spec.side, _bit_distance(spec)
        dtype = np.min_scalar_type(side - 1)
        sent = rng.integers(0, side, (5, 2 * 300)).astype(dtype)
        idx = np.repeat(sent[np.newaxis], 7, axis=0)
        # point p gets errors on a share p/7 of the parts
        wrong = rng.random(idx.shape) < np.arange(7)[:, None, None] / 7
        idx[wrong] = rng.integers(0, side, int(wrong.sum()))
        got = sim._count_errors(idx, sent)
        assert np.array_equal(got, self.table_count(idx, sent, table))
        assert got[0, 0] == 0 and got[1, -1] > 0

    @pytest.mark.parametrize("m", [4, 16, 256])
    @pytest.mark.parametrize(
        "n_t, length",
        # n_t 2L index bytes per point: 16000, 8, 42, 30, 2 and 36
        [(4, 2000), (4, 1), (3, 7), (5, 3), (1, 1), (2, 9)],
    )
    def test_stacks_of_detections(self, rng, m, n_t, length):
        # (variants, points, n_t, 2L) slice indices; every length but 16000
        # and 8 bytes per point is padded to whole 8-byte words
        spec = ConstellationSpec(m)
        side, table = spec.side, _bit_distance(spec)
        dtype = np.min_scalar_type(side - 1)
        sent = rng.integers(0, side, (n_t, 2 * length)).astype(dtype)
        idx = np.repeat(sent[np.newaxis, np.newaxis], 12, axis=0).reshape(
            3, 4, n_t, 2 * length
        )
        # each (variant, point) gets errors on its own share of the parts
        share = np.arange(12).reshape(3, 4, 1, 1) / 12
        wrong = rng.random(idx.shape) < share
        idx[wrong] = rng.integers(0, side, int(wrong.sum()))
        want = self.table_count(idx.reshape(12, n_t, -1), sent, table).reshape(2, 3, 4)
        got = sim._count_errors(idx, sent)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        # into stale error words, rows to spare
        width = sim._padded(sent.size, np.dtype(dtype))
        assert width >= sent.size and width * dtype.itemsize % 8 == 0
        words = np.full((20, width), np.iinfo(dtype).max, dtype=dtype)
        assert np.array_equal(sim._count_errors(idx, sent, words), want)
        # a lone point, as the sweep's (points, n_t, 2L) blocks were counted
        assert np.array_equal(sim._count_errors(idx[1, 2], sent), want[:, 1, 2])


class TestSharedDetections:
    def test_variants_with_one_selection_detect_once(self, monkeypatch):
        # 3 variants, both SNR points in one detection call per trial
        cfg = SimConfig(
            n_t=4,
            n_r=4,
            m=4,
            snr_grid_db=(8.0, 16.0),
            detectors=("clr-zf", "klr-zf"),
            k_candidates=(1, 10),
            trials=12,
            packet_len=10,
            seed=1,
        )
        calls = []  # LR estimator calls, one entry per trial
        estimate, detect = sim._lr_estimate, sim._detect_trial

        def counting_estimate(*args):
            calls[-1] += 1
            return estimate(*args)

        def counting_detect(*args):
            calls.append(0)
            return detect(*args)

        monkeypatch.setattr(sim, "_lr_estimate", counting_estimate)
        monkeypatch.setattr(sim, "_detect_trial", counting_detect)
        got = run_sweep(cfg)
        assert len(calls) == cfg.trials
        # 1: K=1 and K=10 both kept the baseline; 2: one of them did, or
        # both chose the same candidate; 3: three distinct bases
        assert set(calls) == {1, 2, 3}
        assert got == reference_sweep(cfg)

    def test_ml_shared_keys_and_a_short_last_block(self, monkeypatch):
        # 700 columns: blocks of 2 points, then 1; ml and six LR variants
        # slice and count in one call per block, clr-zf and klr-zf sharing
        # rows where a K kept the baseline
        cfg = SimConfig(
            n_t=3,
            n_r=3,
            m=16,
            snr_grid_db=(8.0, 14.0, 20.0),
            detectors=("ml", "zf", "clr-zf", "klr-zf", "mmse", "clr-mmse-sic"),
            k_candidates=(1, 3),
            trials=4,
            packet_len=700,
            seed=2,
        )
        estimates, blocks = [], []
        estimate, count = sim._lr_estimate, sim._count_errors

        def counting_estimate(*args):
            estimates.append(len(args[0]))
            return estimate(*args)

        def counting_count(idx, *args):
            blocks.append(idx.shape[:2])
            return count(idx, *args)

        monkeypatch.setattr(sim, "_lr_estimate", counting_estimate)
        monkeypatch.setattr(sim, "_count_errors", counting_count)
        got = run_sweep(cfg)
        assert got == reference_sweep(cfg)
        assert [points for _, points in blocks] == [2, 1] * cfg.trials
        # a row for ml and one per LR estimate, fewer than the 6 LR variants
        # of each block where rows are shared
        assert sum(rows for rows, _ in blocks) == len(blocks) + len(estimates)
        assert len(estimates) < 6 * len(blocks)
        assert all(r.bit_errors > 0 for r in got if r.snr_db == 8.0)


class TestPersistence:
    def test_csv_header_and_roundtrip(self, tmp_path):
        recs = run_sweep(small_cfg())
        out = tmp_path / "ber.csv"
        write_records(recs, out)
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(recs)
        for row, rec in zip(rows, recs):
            assert row["detector"] == rec.detector
            assert float(row["ber"]) == rec.ber
            assert int(row["bit_errors"]) == rec.bit_errors
            assert float(row["snr_db"]) == rec.snr_db

    def test_numpy_snr_grid_writes_plain_numbers(self, tmp_path):
        # Eb/N0 of a numpy SNR point is a numpy float, whose repr is
        # np.float64(...): the CSV must hold the number alone
        cfg = small_cfg()
        paths = [tmp_path / "float.csv", tmp_path / "numpy.csv"]
        for grid, path in zip((cfg.snr_grid_db, tuple(np.array(cfg.snr_grid_db))), paths):
            write_records(run_sweep(replace(cfg, snr_grid_db=grid)), path)
        assert "np." not in paths[1].read_text()
        assert paths[1].read_text() == paths[0].read_text()

    @staticmethod
    def old_bytes(recs) -> bytes:
        """The CSV as open(path, "w", newline="") and csv.writer wrote it."""
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(astuple(rec) for rec in recs)
        return buf.getvalue().encode()

    def test_overwrites_a_longer_file(self, tmp_path):
        # three blocks of an old file: the rewrite in place leaves no tail
        recs = run_sweep(small_cfg())
        out = tmp_path / "ber.csv"
        out.write_bytes(b"x" * 9000)
        write_records(recs, out)
        assert out.read_bytes() == self.old_bytes(recs)

    def test_bytes_of_the_old_writer(self, tmp_path):
        recs = run_sweep(small_cfg(snr_grid_db=(0.0, 2.5, 7.25)))
        out = tmp_path / "ber.csv"
        write_records(recs, out)
        assert out.read_bytes() == self.old_bytes(recs)
        # and over a shorter file
        out.write_bytes(b"y" * 10)
        write_records(recs, out)
        assert out.read_bytes() == self.old_bytes(recs)

    def test_keeps_inode_and_mode(self, tmp_path):
        out = tmp_path / "ber.csv"
        out.write_bytes(b"z" * 5000)
        out.chmod(0o640)
        before = out.stat()
        write_records(run_sweep(small_cfg()), out)
        after = out.stat()
        assert after.st_ino == before.st_ino
        assert stat.S_IMODE(after.st_mode) == 0o640

    def test_writes_through_a_symlink(self, tmp_path):
        recs = run_sweep(small_cfg())
        target = tmp_path / "target.csv"
        target.write_bytes(b"w" * 9000)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_records(recs, link)
        assert link.is_symlink()
        assert target.read_bytes() == self.old_bytes(recs)

    def test_never_truncates_on_open(self, tmp_path, monkeypatch):
        # the stall this avoids is a matter of time; the flags are not
        calls = []
        real_open = os.open

        def recording(path, flags, *args, **kwargs):
            calls.append((str(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        out = tmp_path / "ber.csv"
        write_records(run_sweep(small_cfg()), out)
        out2 = tmp_path / "cli.csv"
        args = ["simulate", "--nt", "2", "--nr", "2", "--snr", "10:10:20",
                "--trials", "2", "--packet-len", "4", "--out", str(out2)]
        assert main(args) == EXIT_OK
        assert [p for p, _ in calls] == [str(out), str(out2)]
        assert all(not flags & os.O_TRUNC for _, flags in calls)

    def test_out_dev_null(self, capsys):
        args = ["simulate", "--nt", "2", "--nr", "2", "--snr", "10:10:20",
                "--trials", "2", "--packet-len", "4", "--out", os.devnull]
        assert main(args) == EXIT_OK
        assert "wrote 6 records" in capsys.readouterr().out

    def test_out_fifo(self, tmp_path, capsys):
        # a FIFO cannot be cut, and its reader gets the whole CSV
        fifo = tmp_path / "ber.fifo"
        os.mkfifo(fifo)
        got = []

        def read():
            with open(fifo, "rb") as fh:
                got.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        args = ["simulate", "--nt", "2", "--nr", "2", "--snr", "10:10:20",
                "--trials", "2", "--packet-len", "4", "--seed", "3", "--out", str(fifo)]
        assert main(args) == EXIT_OK
        reader.join(timeout=30)
        assert not reader.is_alive()
        cfg = small_cfg(snr_grid_db=(10.0, 20.0), detectors=("zf", "clr-zf", "klr-zf"),
                        k_candidates=(1,), trials=2, seed=3)
        assert got == [self.old_bytes(run_sweep(cfg))]

    def test_matrix_roundtrip(self, tmp_path):
        m = np.array([[1.5 - 0.5j, 2 + 1j], [0 + 0j, -3 - 2j]])
        path = tmp_path / "h.txt"
        path.write_text(format_complex_matrix(m) + "\n")
        assert np.allclose(load_complex_matrix(path), m)

    def test_bad_matrix_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1+2j,3\nnot-a-number\n")
        with pytest.raises(ValidationError):
            load_complex_matrix(path)
        path.write_text("1,2\n3\n")
        with pytest.raises(ValidationError):
            load_complex_matrix(path)


class TestCli:
    def test_simulate_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main(
            [
                "simulate",
                "--nt", "2", "--nr", "2",
                "--mod", "qpsk",
                "--snr", "10:10:20",
                "--detectors", "zf,clr-zf",
                "--trials", "3",
                "--packet-len", "4",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert "wrote 4 records" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_simulate_validation_error(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--nt", "3", "--nr", "2",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_simulate_bad_snr_grid(self, tmp_path):
        code = main(
            [
                "simulate",
                "--nt", "2", "--nr", "2",
                "--snr", "20:5:10",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("grid", ["0:1:inf", "nan:1:5", "0:inf:5"])
    def test_simulate_non_finite_snr_grid(self, tmp_path, capsys, grid):
        code = main(
            [
                "simulate",
                "--nt", "2", "--nr", "2",
                "--snr", grid,
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err

    def test_simulate_negative_seed(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--nt", "2", "--nr", "2",
                "--snr", "10:10:20",
                "--trials", "2",
                "--seed", "-1",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_simulate_empty_k_list(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--nt", "2", "--nr", "2",
                "--detectors", "klr-zf",
                "--k", ",",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "K value" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["1e17:1:1e17", "0:1e-300:1"])
    def test_simulate_stalled_snr_grid(self, tmp_path, grid):
        # a step that leaves the grid value where it was once looped for
        # ever, growing its list: run in a child with capped memory and a
        # timeout, so a relapse fails instead of hanging
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
        args = ["--nt", "2", "--nr", "2", "--snr", grid, "--out", str(tmp_path / "x.csv")]
        proc = subprocess.run(
            [sys.executable, "-m", "lrmimo.cli", "simulate", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_memory,
        )
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "does not advance" in proc.stderr

    @pytest.mark.parametrize(
        "text, grid",
        [
            ("14:1:22", tuple(float(v) for v in range(14, 23))),
            ("0:0.1:0.3", (0.0, 0.1, 0.2, 0.3)),
            ("-5:2.5:5", (-5.0, -2.5, 0.0, 2.5, 5.0)),
            ("1e17:1e17:2e17", (1e17, 2e17)),
        ],
    )
    def test_snr_grid_values(self, text, grid):
        assert cli._parse_snr_grid(text) == grid

    @pytest.mark.parametrize("k", ["1.5", "abc", "1,x"])
    def test_simulate_non_integer_k(self, tmp_path, capsys, k):
        code = main(
            [
                "simulate",
                "--nt", "2", "--nr", "2",
                "--detectors", "klr-zf",
                "--k", k,
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "error: --k:" in capsys.readouterr().err

    def test_simulate_missing_out_directory(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_sweep", lambda cfg: calls.append(cfg) or [])
        out = tmp_path / "missing" / "x.csv"
        code = main(["simulate", "--nt", "2", "--nr", "2", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "does not exist" in capsys.readouterr().err
        assert calls == []  # the sweep is never entered
        # in an existing directory the same command reaches the sweep
        out = tmp_path / "x.csv"
        assert main(["simulate", "--nt", "2", "--nr", "2", "--out", str(out)]) == EXIT_OK
        assert len(calls) == 1

    def test_simulate_unwritable_out(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_sweep", lambda cfg: calls.append(cfg) or [])

        def refusing(path, flags, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(os, "open", refusing)
        out = tmp_path / "x.csv"
        code = main(["simulate", "--nt", "2", "--nr", "2", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: cannot write --out")
        assert calls == []  # the sweep is never entered
        assert not out.exists()

    def test_simulate_out_is_a_directory(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_sweep", lambda cfg: calls.append(cfg) or [])
        code = main(["simulate", "--nt", "2", "--nr", "2", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "is a directory" in capsys.readouterr().err
        assert calls == []  # the sweep is never entered

    def test_reduce_plain(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("1+0j,1+0j\n0+0j,1+0j\n")
        assert main(["reduce", "--in", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ODF: 1.0" in out
        assert "H~:" in out and "U:" in out

    def test_reduce_switched(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("1.2-0.3j,0.4+1j\n-0.7+0.2j,0.9-1.1j\n")
        assert main(["reduce", "--in", str(path), "--k", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ODF baseline:" in out
        assert "ODF selected:" in out

    @pytest.mark.parametrize(
        "args", [["--k", "-3"], ["--k", "2", "--seed", "-1"]]
    )
    def test_reduce_negative_k_or_seed(self, tmp_path, capsys, args):
        path = tmp_path / "h.txt"
        path.write_text("1.2-0.3j,0.4+1j\n-0.7+0.2j,0.9-1.1j\n")
        assert main(["reduce", "--in", str(path), *args]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "must be >= 0" in captured.err
        assert captured.out == ""

    def test_reduce_missing_file(self, tmp_path, capsys):
        assert main(["reduce", "--in", str(tmp_path / "nope.txt")]) == EXIT_VALIDATION

    def test_reduce_input_is_a_directory(self, tmp_path, capsys):
        assert main(["reduce", "--in", str(tmp_path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read matrix file")
        assert captured.out == ""

    def test_reduce_undecodable_input(self, tmp_path, capsys):
        path = tmp_path / "h.bin"
        path.write_bytes(b"\xff\xfe1+0j,0\n")
        assert main(["reduce", "--in", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read matrix file")
        assert captured.out == ""

    def test_reduce_singular_matrix(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1+0j,1+0j\n1+0j,1+0j\n")
        assert main(["reduce", "--in", str(path)]) == EXIT_NUMERIC
