import itertools

import numpy as np
import pytest

from lrmimo import detectors
from lrmimo.detectors import (
    DETECTOR_KINDS,
    _lattice_indices,
    _lattice_symbols,
    _lr_estimate,
    _ml_search,
    _ml_table,
    _round_shifted,
    _sic,
    lr_detect,
    ml_candidates,
    ml_detect,
    sic_detect,
)
from lrmimo.errors import BudgetExceededError, SingularMatrixError, ValidationError
from lrmimo.linalg import _pinv_from_qr, pseudoinverse
from lrmimo.modem import ConstellationSpec
from lrmimo.reduction import ReductionParams
from lrmimo.switched import (
    _select_all,
    extend_channel,
    klr_select,
    sample_permutations,
)

from conftest import crandn
from oracles import (
    _slice_index,
    hard_slice,
    mmse_filter_direct,
    round_gaussian,
    shift_scale_quantize,
)

QPSK = ConstellationSpec(4)
QAM16 = ConstellationSpec(16)


def random_symbols(rng, spec, *shape):
    return spec.alphabet[rng.integers(0, spec.m, size=shape)]


class TestLinearFilters:
    """The ZF filter (the pseudoinverse) and the MMSE filter of the oracle,
    which LR detection on an identity selection reproduces."""

    def test_zf_left_inverse(self, rng):
        h = crandn(rng, 6, 4)
        assert np.linalg.norm(pseudoinverse(h) @ h - np.eye(4)) <= 1e-9

    def test_mmse_zero_noise_is_zf(self, rng):
        h = crandn(rng, 5, 4)
        assert np.allclose(mmse_filter_direct(h, 0.0), pseudoinverse(h))

    def test_mmse_push_through_identity(self, rng):
        # independent form: H^H (H H^H + sigma^2 I)^-1
        h = crandn(rng, 5, 4)
        s2 = 0.4
        alt = h.conj().T @ np.linalg.inv(h @ h.conj().T + s2 * np.eye(5))
        assert np.allclose(mmse_filter_direct(h, s2), alt)

    def test_mmse_equals_extended_zf(self, rng):
        h = crandn(rng, 4, 4)
        sigma = 0.7
        h_ext = extend_channel(h, sigma)
        assert np.allclose(
            mmse_filter_direct(h, sigma**2), pseudoinverse(h_ext)[:, :4]
        )

    def test_extend_system(self, rng):
        # the extended system [H; sigma I], on which MMSE is ZF
        h = crandn(rng, 3, 2)
        h_ext = extend_channel(h, 0.2)
        assert h_ext.shape == (5, 2)
        assert np.array_equal(h_ext[:3], h)
        assert np.allclose(h_ext[3:], 0.2 * np.eye(2))
        with pytest.raises(ValidationError):
            extend_channel(h, -0.1)


class TestSic:
    def test_noise_free_integer_recovery(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            h = crandn(rng, n, n)
            z = (rng.integers(-4, 5, n) + 1j * rng.integers(-4, 5, n)).astype(
                complex
            )
            assert np.array_equal(sic_detect(h, h @ z), z)

    def test_matches_manual_back_substitution(self, rng):
        h = crandn(rng, 3, 3)
        y = crandn(rng, 3)
        # layer-peeling oracle built from projections instead of a stored QR
        z = np.zeros(3, dtype=complex)
        resid = y.copy()
        for i in (2, 1, 0):
            basis = h[:, :i]  # interference still to be resolved
            p = basis @ np.linalg.pinv(basis) if i else np.zeros((3, 3))
            eff = (np.eye(3) - p) @ h[:, i]
            est = eff.conj() @ ((np.eye(3) - p) @ resid) / (eff.conj() @ eff)
            z[i] = complex(np.round(est.real) + 1j * np.round(est.imag))
            resid = resid - h[:, i] * z[i]
        assert np.array_equal(sic_detect(h, y), z)

    def test_batch_consistency(self, rng):
        h = crandn(rng, 4, 4)
        ys = crandn(rng, 4, 9)
        zb = sic_detect(h, ys)
        assert zb.shape == (4, 9)
        for j in range(9):
            assert np.array_equal(zb[:, j], sic_detect(h, ys[:, j]))
        assert np.array_equal(sic_detect(h, ys[np.newaxis])[0], zb)


class TestQuantizeAndSlice:
    """The oracle's quantizer and float slicer (tests/oracles.py), which
    the integer tail is checked against."""

    def test_quantize_identity_transform_fixes_constellation(self, rng):
        for spec in (QPSK, QAM16):
            x = random_symbols(rng, spec, 5)
            out = shift_scale_quantize(x, np.eye(5), spec)
            assert np.allclose(out, x)

    def test_quantize_snaps_to_shifted_lattice(self, rng):
        spec = QAM16
        v = 3.0 * crandn(rng, 6)
        out = shift_scale_quantize(v, np.eye(6), spec)
        frac = out / spec.a - 0.5 * (1 + 1j)
        assert np.allclose(frac.real, np.round(frac.real))
        assert np.allclose(frac.imag, np.round(frac.imag))
        # idempotent
        assert np.allclose(shift_scale_quantize(out, np.eye(6), spec), out)

    def test_quantize_respects_transform_offset(self, rng):
        # with U^-1 = 2I the shift is (1+j) per entry, so the lattice is
        # a*(Z[i] + (1+j)); a*(1+j) must be a fixed point while a*(1+j)/2 is not
        spec = QPSK
        u_inv = 2.0 * np.eye(2)
        pt = spec.a * np.array([1 + 1j, 1 + 1j])
        assert np.allclose(shift_scale_quantize(pt, u_inv, spec), pt)

    def test_slice_matches_nearest_alphabet(self, rng):
        for spec in (QPSK, QAM16):
            v = 2.0 * crandn(rng, 200)
            sliced = hard_slice(v, spec)
            for x, s in zip(v, sliced):
                dists = np.abs(spec.alphabet - x)
                assert abs(x - s) <= dists.min() + 1e-12

    def test_slice_clips(self):
        big = np.array([100.0 + 100.0j, -100.0 - 100.0j])
        out = hard_slice(big, QAM16)
        corner = 1.5 * QAM16.a
        assert np.allclose(out, [corner + corner * 1j, -corner - corner * 1j])

    def test_slice_midpoint_tie_to_lower_magnitude(self):
        assert hard_slice(np.array([0.0 + 0.0j]), QPSK)[0] == pytest.approx(
            -QPSK.a / 2 * (1 + 1j)
        )
        a = QAM16.a
        assert hard_slice(np.array([a + 0.0j]), QAM16)[0].real == pytest.approx(a / 2)
        assert hard_slice(np.array([-a + 0.0j]), QAM16)[0].real == pytest.approx(-a / 2)


def nearest_level_oracle(v, spec):
    """Nearest level of each real value by distance; on a tie the level closer
    to zero, and between the +-a/2 pair the lower one."""
    lv = spec.levels
    dist = np.abs(v[:, np.newaxis] - lv)
    best = dist.min(axis=1, keepdims=True)
    out = []
    for row in dist == best:
        tied = lv[row]
        out.append(tied[np.lexsort((tied, np.abs(tied)))][0])
    return np.array(out)


class TestSliceIndex:
    """The oracle's slice index against the nearest level by distance."""

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_lookup_equals_hard_slice_and_nearest_level(self, rng, m):
        spec = ConstellationSpec(m)
        a, side = spec.a, spec.side
        center = (side - 1) / 2
        # midpoints between adjacent levels are integer multiples of a; the
        # one at 0 lies between the +-a/2 pair
        mids = np.arange(side - 1) - center + 0.5
        assert np.all((mids * a) / a == mids)  # exact midpoints, not near ones
        spread = side * a * rng.standard_normal(500)  # in and beyond the grid
        far = np.array([1e6, -1e6, side * a, -side * a])
        v = np.concatenate([spread, far, mids * a, [0.0, -0.0, np.inf, -np.inf]])
        idx = _slice_index(v, spec)
        assert idx.dtype == np.intp and idx.min() >= 0 and idx.max() < side
        lookup = spec.levels[idx]
        assert np.array_equal(lookup, hard_slice(v, spec).real)
        on_q = np.zeros(len(v), dtype=np.complex128)
        on_q.imag = v  # 1j * inf would put a NaN on the real axis
        assert np.array_equal(lookup, hard_slice(on_q, spec).imag)
        # off the midpoints (distances tie only in exact arithmetic there)
        plain = np.concatenate([spread, far])
        assert np.array_equal(lookup[: len(plain)], nearest_level_oracle(plain, spec))
        assert np.array_equal(lookup[-2:], [spec.levels[-1], spec.levels[0]])
        assert np.array_equal(lookup[-4:-2], spec.levels[[side // 2 - 1] * 2])
        # a tie goes toward zero: every midpoint but 0 lands on the inner level
        at_mids = spec.levels[_slice_index(mids * a, spec)]
        expected = np.where(mids > 0, mids - 0.5, mids + 0.5) * a
        expected[mids == 0] = -a / 2
        assert np.allclose(at_mids, expected, rtol=0, atol=1e-12)

    def test_stacked_values(self, rng):
        v = 2.0 * rng.standard_normal((3, 4, 5))
        idx = _slice_index(v, QAM16)
        assert idx.shape == v.shape
        assert np.array_equal(idx.ravel(), _slice_index(v.ravel(), QAM16))


def ml_oracle(y, h, spec):
    """Plain nested-loop exhaustive search (independent of ml_detect)."""
    best, bestx = None, None
    for combo in itertools.product(spec.alphabet, repeat=h.shape[1]):
        x = np.array(combo)
        c = float(np.linalg.norm(y - h @ x))
        if best is None or c < best - 1e-12:
            best, bestx = c, x
    return bestx


class TestMl:
    def test_noise_free_recovery(self, rng):
        for _ in range(20):
            h = crandn(rng, 3, 3)
            x = random_symbols(rng, QPSK, 3)
            out = ml_detect(h @ x, h, QPSK)
            assert out.shape == (3,)
            assert np.allclose(out, x)

    def test_matches_loop_oracle(self, rng):
        for _ in range(15):
            h = crandn(rng, 3, 3)
            x = random_symbols(rng, QPSK, 3)
            y = h @ x + 0.4 * crandn(rng, 3)
            assert np.allclose(ml_detect(y, h, QPSK), ml_oracle(y, h, QPSK))

    def test_matches_loop_oracle_16qam(self, rng):
        h = crandn(rng, 2, 2)
        y = crandn(rng, 2)
        assert np.allclose(ml_detect(y, h, QAM16), ml_oracle(y, h, QAM16))

    def test_tie_breaks_lexicographic(self):
        out = ml_detect(np.zeros(2), np.eye(2), QPSK)
        assert np.allclose(out, [QPSK.alphabet[0], QPSK.alphabet[0]])

    def test_candidate_cap(self, rng):
        # 64^4 > ML_DEFAULT_CAP = 10^6 candidates: raised before any is formed
        with pytest.raises(BudgetExceededError):
            ml_detect(crandn(rng, 4), crandn(rng, 4, 4), ConstellationSpec(64))

    @pytest.mark.parametrize("m", [4, 16, 64])
    @pytest.mark.parametrize("n_t", [1, 2, 3])
    def test_candidates_equal_product_oracle(self, m, n_t):
        spec = ConstellationSpec(m)
        want = np.array(list(itertools.product(spec.alphabet, repeat=n_t))).T
        got = ml_candidates(n_t, spec)
        assert got.dtype == np.complex128 and got.shape == (n_t, m**n_t)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("entries", [64, 1 << 10, detectors._ML_BLOCK_ENTRIES])
    def test_blocked_search_equals_one_argmin(self, rng, monkeypatch, entries):
        # 16-QAM on 3 transmit antennas: 4096 candidates, listed twice, so
        # candidate c + 4096 ties with c; 403 columns, the first all zero
        cands = ml_candidates(3, QAM16)
        cands = np.concatenate([cands, cands], axis=1)
        h = crandn(rng, 3, 3)
        y = h @ QAM16.alphabet[rng.integers(0, 16, (3, 403))]
        y += 0.5 * crandn(rng, 3, 403)
        y[:, 0] = 0
        s, norms = table = _ml_table(h, cands)
        want = np.argmin(norms[:, np.newaxis] - 2.0 * np.real(s.conj().T @ y), axis=0)
        monkeypatch.setattr(detectors, "_ML_BLOCK_ENTRIES", entries)
        got = _ml_search(y, table)
        assert np.array_equal(got, want)
        assert got.max() < 4096  # every tie goes to the first copy

    def test_batch_consistency(self, rng):
        h = crandn(rng, 2, 2)
        ys = crandn(rng, 2, 7)
        xb = ml_detect(ys, h, QAM16)
        assert xb.shape == (2, 7)
        for j in range(7):
            assert np.array_equal(xb[:, j], ml_detect(ys[:, j], h, QAM16))
        assert np.array_equal(ml_detect(ys[np.newaxis], h, QAM16)[0], xb)


class TestLrDetect:
    @pytest.mark.parametrize("kind", ["zf", "sic-zf"])
    def test_noise_free_exact_plain(self, rng, kind):
        for spec in (QPSK, QAM16):
            for _ in range(20):
                h = crandn(rng, 4, 4)
                klr = klr_select(h, 3, rng=rng)
                x = random_symbols(rng, spec, 4)
                out = lr_detect(h @ x, h, klr, kind, spec)
                assert np.allclose(out, x)

    @pytest.mark.parametrize("kind", ["mmse", "sic-mmse"])
    def test_small_noise_extended(self, rng, kind):
        sigma = 0.05
        errs = 0
        for _ in range(20):
            h = crandn(rng, 4, 4)
            klr = klr_select(h, 3, rng=rng, sigma_n=sigma)
            x = random_symbols(rng, QPSK, 4)
            y = h @ x + sigma * crandn(rng, 4)
            out = lr_detect(y, h, klr, kind, QPSK)
            errs += int(not np.allclose(out, x))
        assert errs == 0

    def test_flavor_mismatch_rejected(self, rng):
        h = crandn(rng, 3, 3)
        plain = klr_select(h, 2, rng=rng)
        ext = klr_select(h, 2, rng=rng, sigma_n=0.1)
        y = crandn(rng, 3)
        with pytest.raises(ValidationError):
            lr_detect(y, h, plain, "mmse", QPSK)
        with pytest.raises(ValidationError):
            lr_detect(y, h, ext, "zf", QPSK)
        with pytest.raises(ValidationError):
            lr_detect(y, h, plain, "nope", QPSK)

    def test_identity_reduction_reproduces_conventional_zf(self, rng):
        h = crandn(rng, 4, 4)
        y = h @ random_symbols(rng, QAM16, 4) + 0.3 * crandn(rng, 4)
        out = lr_detect(y, h, klr_select(h, None), "zf", QAM16)
        assert np.allclose(out, hard_slice(pseudoinverse(h) @ y, QAM16))

    def test_identity_reduction_reproduces_conventional_mmse(self, rng):
        sigma = 0.5
        h = crandn(rng, 4, 4)
        y = h @ random_symbols(rng, QPSK, 4) + sigma * crandn(rng, 4)
        out = lr_detect(y, h, klr_select(h, None, sigma_n=sigma), "mmse", QPSK)
        conv = hard_slice(mmse_filter_direct(h, sigma**2) @ y, QPSK)
        assert np.allclose(out, conv)

    def test_batch_consistency(self, rng):
        h = crandn(rng, 3, 3)
        klr = klr_select(h, 2, rng=rng)
        ys = h @ random_symbols(rng, QPSK, 3, 8) + 0.2 * crandn(rng, 3, 8)
        for kind in ("zf", "sic-zf"):
            xb = lr_detect(ys, h, klr, kind, QPSK)
            assert xb.shape == (3, 8)
            for j in range(8):
                assert np.array_equal(xb[:, j], lr_detect(ys[:, j], h, klr, kind, QPSK))

    @staticmethod
    def _selections(rng, kind, count, k=2):
        """A 4x3 channel and a KlrStack of count distinct selections for
        detector kind, from _select_all: of the channel at count noise
        levels for the MMSE kinds, of count shears of it for the ZF kinds."""
        h = crandn(rng, 4, 3)
        extended = kind in ("mmse", "sic-mmse")
        if extended:
            mats = extend_channel(h, 0.3 + 0.2 * np.arange(count))
        else:
            mats = np.stack([h @ _shear(rng, 3) for _ in range(count)])
        groups = [sample_permutations(3, k, rng).perms for _ in range(count)]
        ks = {extended: {k}}
        found = _select_all({extended: mats}, {extended: groups}, ks, ReductionParams())
        return h, found[extended, k]

    @pytest.mark.parametrize("kind", ["zf", "mmse", "sic-zf", "sic-mmse"])
    def test_stack_equals_separate_calls(self, rng, kind):
        for spec in (QPSK, QAM16):
            h, sels = self._selections(rng, kind, 4)
            ys = h @ random_symbols(rng, spec, 4, 3, 7) + 0.4 * crandn(rng, 4, 4, 7)
            stacked = lr_detect(ys, h, sels, kind, spec)
            assert stacked.shape == (4, 3, 7)
            for s in range(4):
                one = lr_detect(ys[s], h, sels[s], kind, spec)
                assert np.array_equal(stacked[s], one)
            # one selection serves every block of a stack, as a KlrResult
            # or as a KlrStack of one
            shared = lr_detect(ys, h, sels[1], kind, spec)
            assert np.array_equal(lr_detect(ys, h, sels[1:2], kind, spec), shared)
            for s in range(4):
                assert np.array_equal(shared[s], lr_detect(ys[s], h, sels[1], kind, spec))

    def test_stack_flavour_and_length_checked(self, rng):
        h, plain = self._selections(rng, "zf", 2)
        ext = self._selections(rng, "mmse", 2)[1]
        ys = crandn(rng, 2, 4, 4)
        with pytest.raises(ValidationError):
            lr_detect(ys, h, ext, "zf", QPSK)
        with pytest.raises(ValidationError):
            lr_detect(ys, h, plain, "mmse", QPSK)
        with pytest.raises(ValidationError):
            lr_detect(ys, h, ext, "sic-zf", QPSK)
        with pytest.raises(ValidationError):
            lr_detect(ys[0], h, plain[0], "sic-mmse", QPSK)
        with pytest.raises(ValidationError):
            lr_detect(ys, h, self._selections(rng, "zf", 3)[1], "zf", QPSK)
        # a stack of S selections needs a stack of S blocks
        with pytest.raises(ValidationError):
            lr_detect(ys[0], h, plain, "zf", QPSK)

    def test_empty_stack_rejected(self, rng):
        h, sels = self._selections(rng, "zf", 2)
        with pytest.raises(ValidationError):
            lr_detect(crandn(rng, 2, 4, 3), h, sels[0:0], "zf", QPSK)
        for empty in ((0, 4, 3), (4, 0), (0,)):
            with pytest.raises(ValidationError):
                lr_detect(np.zeros(empty, dtype=complex), h, sels[0], "zf", QPSK)

    @pytest.mark.parametrize("kind", ["zf", "mmse", "sic-zf", "sic-mmse"])
    def test_row_count_mismatch_rejected(self, rng, kind):
        h = crandn(rng, 3, 3)
        if kind in ("mmse", "sic-mmse"):
            klr = klr_select(h, 2, rng=rng, sigma_n=0.2)
        else:
            klr = klr_select(h, 2, rng=rng)
        with pytest.raises(ValidationError):
            lr_detect(crandn(rng, 2), h, klr, kind, QPSK)
        with pytest.raises(ValidationError):
            lr_detect(crandn(rng, 2, 5), h, klr, kind, QPSK)
        with pytest.raises(ValidationError):
            lr_detect(crandn(rng, 4, 2, 5), h, klr, kind, QPSK)
        # a channel that does not match the selection
        with pytest.raises(ValidationError):
            lr_detect(crandn(rng, 4, 5), crandn(rng, 4, 3), klr, kind, QPSK)

    def test_channel_shape_mismatch_rejected(self, rng):
        h = crandn(rng, 4, 4)
        y = crandn(rng, 4, 5)
        plain = klr_select(h, 2, rng=rng)
        # the received rows match, but the channel lost a column
        with pytest.raises(ValidationError):
            lr_detect(y, h[:, :3], plain, "zf", QPSK)
        with pytest.raises(ValidationError):
            lr_detect(y[:, 0], h[:, :3], plain, "zf", QPSK)
        # an extended selection of a 4x4 channel (8x4 basis) and a 4x3 or
        # 4x5 channel
        ext = klr_select(h, 2, rng=rng, sigma_n=0.3)
        for wrong in (h[:, :3], crandn(rng, 4, 5)):
            with pytest.raises(ValidationError):
                lr_detect(y, wrong, ext, "mmse", QPSK)
            with pytest.raises(ValidationError):
                lr_detect(y[:, 0], wrong, ext, "sic-mmse", QPSK)
        # the right shapes still detect
        assert lr_detect(y, h, plain, "zf", QPSK).shape == (4, 5)
        assert lr_detect(y, h, ext, "mmse", QPSK).shape == (4, 5)


class TestInputCheck:
    """lr_detect, ml_detect and sic_detect check the received signal once:
    a vector, block or stack of blocks is detected in its shape, and the
    same signal with a wrong row count or a non-finite entry raises
    ValidationError, as does one with 0 or more than 3 dimensions."""

    @staticmethod
    def _detect(rng, name):
        h = crandn(rng, 3, 2)
        if name == "lr":
            sel = klr_select(h, 1, rng=rng)
            return lambda y: lr_detect(y, h, sel, "zf", QPSK)
        if name == "ml":
            return lambda y: ml_detect(y, h, QPSK)
        return lambda y: sic_detect(h, y)

    @pytest.mark.parametrize("name", ["lr", "ml", "sic"])
    @pytest.mark.parametrize("shape", [(3,), (3, 5), (2, 3, 5)], ids=["vector", "block", "stack"])
    @pytest.mark.parametrize("defect", ["rows", "nan", "inf"])
    def test_defect_raises(self, rng, name, shape, defect):
        detect = self._detect(rng, name)
        y = crandn(rng, *shape)
        out = detect(y)
        rows = 1 if len(shape) == 3 else 0
        assert out.shape == shape[:rows] + (2,) + shape[rows + 1 :]
        if defect == "rows":
            bad = crandn(rng, *shape[:rows], 4, *shape[rows + 1 :])
        else:
            bad = y.copy()
            bad.flat[-1] = complex(1.0, np.nan if defect == "nan" else np.inf)
        with pytest.raises(ValidationError):
            detect(bad)

    @pytest.mark.parametrize("name", ["lr", "ml", "sic"])
    @pytest.mark.parametrize("shape", [(), (1, 2, 3, 5)], ids=["0-d", "4-d"])
    def test_dimensions_rejected(self, rng, name, shape):
        y = crandn(rng, *shape) if shape else np.complex128(1.0)
        with pytest.raises(ValidationError):
            self._detect(rng, name)(y)


class TestStackedEstimator:
    """_lr_estimate on an S-member KlrStack from _select_all, in one call,
    against lr_detect on each block with that member alone."""

    @pytest.mark.parametrize("kind", ["zf", "mmse", "sic-zf", "sic-mmse"])
    def test_members_equal_single_detections(self, rng, kind):
        extended = kind in ("mmse", "sic-mmse")
        n_r, n, count, width = 5, 4, 6, 3
        if extended:
            # one channel at several noise levels, as a sweep reduces it
            h = crandn(rng, n_r, n)
            chans = [h] * count
            sigmas = 0.2 + 0.15 * np.arange(count)
            mats = np.stack(
                [np.vstack([h, s * np.eye(n, dtype=complex)]) for s in sigmas]
            )
        else:
            chans = list(crandn(rng, count, n_r, n))
            mats = np.stack(chans)
        groups = [sample_permutations(n, width, rng).perms for _ in range(count)]
        ks = {extended: {0, width}}
        found = _select_all({extended: mats}, {extended: groups}, ks, ReductionParams())
        ident = tuple(range(n))
        for spec in (QPSK, QAM16):
            x = random_symbols(rng, spec, count, n, 9)
            y = np.stack([h @ xs for h, xs in zip(chans, x)])
            y += 0.3 * crandn(rng, *y.shape)
            for k in (0, width):
                sel = found[extended, k]
                assert len(sel) == count >= 3
                kept = sum(sel[s].perm != ident for s in range(count))
                assert kept == 0 if k == 0 else kept >= 1
                m, tm = _lr_estimate(y, sel, kind, spec)
                got = _lattice_symbols(tm, spec)
                assert got.shape == (count, n, 9)
                for s in range(count):
                    one = sel[s]
                    want = lr_detect(y[s], chans[s], one, kind, spec)
                    assert np.array_equal(got[s], want)
                    m1, tm1 = _lr_estimate(y[s][np.newaxis], one, kind, spec)
                    assert m1.tobytes() == m[s].tobytes()
                    assert tm1.tobytes() == tm[s].tobytes()


def reference_sic_estimate(y, sel, spec):
    """m and T m of the SIC kinds, the input built by concatenation and
    subtraction: [y; 0] for an extended selection, then y / a - H~ d."""
    basis = sel.basis
    n = basis.r.shape[-1]
    d = 0.5 * (sel.transform_inv @ np.full(n, 1.0 + 1.0j))[..., np.newaxis]
    if sel.extended:
        pad = np.zeros((len(y), n, y.shape[2]), dtype=np.complex128)
        y = np.concatenate([y, pad], axis=1)
    m = _sic(basis.q, basis.r, y / spec.a - basis.h_tilde @ d)
    return m, sel.transform @ m


class TestSicInput:
    """_lr_estimate's SIC kinds build their input in one buffer of their own;
    m and T m keep the bytes of the concatenate-and-subtract reference."""

    @pytest.mark.parametrize("kind", ["sic-zf", "sic-mmse"])
    def test_equals_concatenate_and_subtract(self, rng, kind):
        extended = kind == "sic-mmse"
        n_r, n, count, width = 5, 4, 5, 3
        h = crandn(rng, n_r, n)
        sigmas = 0.1 + 0.2 * np.arange(count)
        mats = extend_channel(h, sigmas) if extended else crandn(rng, count, n_r, n)
        groups = [sample_permutations(n, width, rng).perms for _ in range(count)]
        ks = {extended: {width}}
        sel = _select_all({extended: mats}, {extended: groups}, ks, ReductionParams())
        sel = sel[extended, width]
        for spec in (QPSK, QAM16, ConstellationSpec(64)):
            y = 2.0 * crandn(rng, count, n_r, 30)
            y_before = y.copy()
            # a stack of S members, one that serves every block, a KlrResult
            for s in (sel, sel[1:2], sel[2]):
                m, tm = _lr_estimate(y, s, kind, spec)
                m_ref, tm_ref = reference_sic_estimate(y, s, spec)
                assert m.tobytes() == m_ref.tobytes()
                assert tm.tobytes() == tm_ref.tobytes()
            assert y.tobytes() == y_before.tobytes()  # the input is left alone


class TestIdentityRow:
    """An identity selection's m may be written where T m goes: its T m is
    m, for every kind, whose parts are those of the allocating call."""

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_m_written_as_t_m(self, rng, kind):
        sigma = 0.3 if kind in ("mmse", "sic-mmse") else None
        h = crandn(rng, 4, 3)
        sel = klr_select(h, None, sigma_n=sigma)
        y = 2.0 * crandn(rng, 2, 4, 40)
        m, tm = _lr_estimate(y, sel, kind, QAM16)
        row = np.full((2, 3, 40), complex(np.nan, np.nan))
        work = np.full((2, sel.basis.h_tilde.shape[0], 40), complex(np.nan, np.nan))
        m_row, tm_row = _lr_estimate(y, sel, kind, QAM16, (work, row, row))
        assert np.shares_memory(m_row, row) and np.shares_memory(tm_row, row)
        assert np.array_equal(m_row, m) and np.array_equal(tm_row, tm)


def _shear(rng, n):
    """A random unimodular Gaussian-integer matrix (unit upper triangular)."""
    u = np.eye(n, dtype=np.complex128)
    iu = np.triu_indices(n, 1)
    u[iu] = rng.integers(-2, 3, len(iu[0])) + 1j * rng.integers(-2, 3, len(iu[0]))
    return u


def _transform(rng, n, big=False):
    """A random unimodular Gaussian-integer T = P U and its exact inverse.

    U is a product of small shears, or with big one shear whose entry is
    near 2^40; P permutes the columns.
    """
    t, t_inv = np.eye(n, dtype=np.complex128), np.eye(n, dtype=np.complex128)
    for _ in range(1 if big else 6):
        i, j = rng.choice(n, 2, replace=False)
        c = complex(*rng.integers(-2, 3, 2))
        if big:
            c += complex(2**40 - int(rng.integers(1, 100)), int(rng.integers(-50, 50)))
        e = np.zeros((n, n), dtype=np.complex128)
        e[i, j] = c
        t, t_inv = t @ (np.eye(n) + e), (np.eye(n) - e) @ t_inv
    p = np.eye(n, dtype=np.complex128)[:, rng.permutation(n)]
    assert np.array_equal(p @ t @ t_inv @ p.T, np.eye(n))
    return p @ t, t_inv @ p.T


def float_tail(y, klr, kind, spec):
    """LR detection of a (rows, batch) block through the float tail.

    The reduced-domain estimate z = a (round(w) + d) is mapped back to T z
    and sliced there; returns (z, sliced symbols).
    """
    q, r = klr.basis.q, klr.basis.r
    n = r.shape[1]
    if kind in ("mmse", "sic-mmse"):
        y = np.concatenate([y, np.zeros((n, y.shape[1]), dtype=np.complex128)])
    if kind in ("zf", "mmse"):
        z = shift_scale_quantize(_pinv_from_qr(q, r) @ y, klr.transform_inv, spec)
    else:
        d = 0.5 * (klr.transform_inv @ np.full(n, 1.0 + 1.0j))[:, np.newaxis]
        z = spec.a * (_sic(q, r, y / spec.a - klr.basis.h_tilde @ d) + d)
    return z, hard_slice(klr.transform @ z, spec)


class TestIntegerTail:
    """The LR tail slices the integer image T m of the rounded estimate m.

    T d = (1+j)/2 per entry for the offset d = T^-1 (1+j)/2, so the float
    image T z = a (T m + (1+j)/2) sits exactly half a level from a decision
    boundary and slicing it gives the index clip(T m + side/2).
    """

    @pytest.mark.parametrize("m", [4, 16, 64])
    @pytest.mark.parametrize("big", [False, True])
    def test_indices_equal_float_slice(self, rng, m, big):
        spec = ConstellationSpec(m)
        a, side, n, stack, batch = spec.a, spec.side, 4, 5, 80
        t, t_inv = (np.stack(v) for v in zip(*(_transform(rng, n, big) for _ in range(stack))))
        # half the columns are exact lattice points a (T^-1 x + d) for
        # Gaussian integers x in and beyond the grid, half are noise
        x = rng.integers(-side, side, (stack, n, batch)) + 1j * rng.integers(
            -side, side, (stack, n, batch)
        )
        z_breve = a * (t_inv @ (x + 0.5 + 0.5j))
        noisy = rng.random(batch) < 0.5
        noisy[:4] = True
        z_breve[..., noisy] = side * a * crandn(rng, stack, n, int(noisy.sum()))
        z_breve[0, 0, :4] *= 1e6  # far out: clipped at both ends
        z = shift_scale_quantize(z_breve, t_inv, spec)
        old = _slice_index((t @ z).view(np.float64), spec)
        d = 0.5 * (t_inv @ np.full(n, 1.0 + 1.0j))[..., np.newaxis]
        new = _lattice_indices(t @ round_gaussian(z_breve / a - d), spec)
        assert new.dtype == np.uint8
        assert np.array_equal(new, old)
        assert new.min() == 0 and new.max() == side - 1
        # the exact lattice points come back as x, clipped to the grid
        pairs = new.reshape(stack, n, batch, 2)[..., ~noisy, :]
        for part, got in ((x.real, pairs[..., 0]), (x.imag, pairs[..., 1])):
            assert np.array_equal(got, np.clip(part[..., ~noisy] + side // 2, 0, side - 1))

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_ml_candidate_images(self, m):
        # ML decides points of the lattice itself (T = I, d = (1+j)/2): the
        # sweep slices the integer images of its candidates as it does T m
        spec = ConstellationSpec(m)
        cands = ml_candidates(2, spec)
        idx = _lattice_indices(_round_shifted(cands, 0.5 + 0.5j, spec.a), spec)
        assert (idx.shape, idx.dtype) == ((2, 2 * m**2), np.uint8)
        assert np.array_equal(idx[:, 0::2], _slice_index(cands.real, spec))
        assert np.array_equal(idx[:, 1::2], _slice_index(cands.imag, spec))
        assert idx.min() == 0 and idx.max() == spec.side - 1

    def test_nan_image_raises(self):
        image = np.array([[1.0 + 0.0j, np.nan + 2.0j]])
        with pytest.raises(SingularMatrixError):
            _lattice_indices(image, QAM16)

    @pytest.mark.parametrize("kind", ["zf", "mmse", "sic-zf", "sic-mmse"])
    def test_detect_equals_float_tail(self, rng, kind):
        for spec in (QPSK, QAM16, ConstellationSpec(64)):
            h, sels = TestLrDetect._selections(rng, kind, 3)
            # moderate and heavy noise: the heavy one clips
            sent = random_symbols(rng, spec, 3, 3, 40)
            ys = h @ sent + np.array([0.2, 0.6, 3.0])[:, None, None] * crandn(rng, 3, 4, 40)
            stacked = lr_detect(ys, h, sels, kind, spec)
            # the reduced-domain estimate a (m + d) of the integer tail
            m, _ = _lr_estimate(ys, sels, kind, spec)
            z_hat = spec.a * (m + sels.offset[..., None])
            for s in range(len(sels)):
                klr = sels[s]
                z, x = float_tail(ys[s], klr, kind, spec)
                assert np.array_equal(z_hat[s], z)
                assert np.array_equal(stacked[s], x)
                assert np.array_equal(lr_detect(ys[s], h, klr, kind, spec), x)
                for j in range(0, 40, 7):
                    out = lr_detect(ys[s, :, j], h, klr, kind, spec)
                    assert np.array_equal(out, x[:, j])
