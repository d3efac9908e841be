from dataclasses import replace

import numpy as np
import pytest

from lrmimo import linalg, switched
from lrmimo.errors import ValidationError
from lrmimo.linalg import _pinv_from_qr
from lrmimo.reduction import ReductionParams, clll_reduce, is_unimodular
from lrmimo.switched import (
    KlrResult,
    PermutationSet,
    _candidate_stack,
    _offset,
    _k_limit,
    _select_all,
    extend_channel,
    klr_select,
    sample_permutations,
)

from conftest import crandn


class TestSamplePermutations:
    def test_two_columns_single_choice(self, rng):
        ps = sample_permutations(2, 1, rng)
        assert ps.perms == ((1, 0),)

    def test_distinct_non_identity(self, rng):
        ps = sample_permutations(3, 5, rng)
        assert len(ps.perms) == 5
        assert len(set(ps.perms)) == 5
        assert (0, 1, 2) not in ps.perms

    def test_cap_ten(self, rng):
        ps = sample_permutations(6, 10, rng)
        assert len(ps.perms) == 10

    @pytest.mark.parametrize("n,k", [(3, 0), (3, 6), (2, 2), (6, 11), (1, 1)])
    def test_out_of_range(self, rng, n, k):
        with pytest.raises(ValidationError):
            sample_permutations(n, k, rng)

    def test_deterministic(self):
        a = sample_permutations(5, 8, np.random.default_rng(9))
        b = sample_permutations(5, 8, np.random.default_rng(9))
        assert a == b

    def test_equals_one_at_a_time_loop(self):
        # the draw of every missing row in one call against the loop of one
        # rng.permutation per row: the same tuples and generator state
        def loop(n, k, rng):
            ident, seen, out = tuple(range(n)), set(), []
            while len(out) < k:
                p = tuple(int(v) for v in rng.permutation(n))
                if p == ident or p in seen:
                    continue
                seen.add(p)
                out.append(p)
            return tuple(out)

        for seed in range(150):
            for n in range(2, 9):
                for k in sorted({1, 1 + seed % _k_limit(n), _k_limit(n)}):
                    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
                    assert sample_permutations(n, k, got).perms == loop(n, k, want)
                    assert got.bit_generator.state == want.bit_generator.state

    def test_drawn_set_is_not_checked_again(self, monkeypatch):
        # the draw keeps only distinct non-identity permutations, so its
        # set is built without PermutationSet's check
        def check(self):
            raise AssertionError("checked again")

        monkeypatch.setattr(PermutationSet, "__post_init__", check)
        got = sample_permutations(6, 10, np.random.default_rng(4))
        monkeypatch.undo()
        assert got == PermutationSet(6, got.perms)

    def test_set_validation(self):
        with pytest.raises(ValidationError):
            PermutationSet(n=2, perms=((0, 1),))  # identity excluded
        with pytest.raises(ValidationError):
            PermutationSet(n=2, perms=((1, 0), (1, 0)))  # duplicates

    def test_set_of_lists_and_arrays(self):
        # each permutation becomes a tuple of Python ints, so a list or an
        # array row makes the set that tuples make, and the checks apply
        want = PermutationSet(3, ((1, 0, 2), (2, 1, 0)))
        for perms in (
            ([1, 0, 2], [2, 1, 0]),
            [[1, 0, 2], (2, 1, 0)],
            np.array([[1, 0, 2], [2, 1, 0]]),
            (np.array([1, 0, 2], dtype=np.int32), np.array([2, 1, 0])),
        ):
            got = PermutationSet(3, perms)
            assert got == want and hash(got) == hash(want)
            assert all(type(v) is int for p in got.perms for v in p)
        for bad in (
            ([0, 1, 2],),  # identity
            np.array([[0, 1, 2]]),
            ([1, 0, 2], np.array([1, 0, 2])),  # duplicates
            ([1.0, 0, 2],),  # not integers
            np.array([[1.5, 0.0, 2.0]]),
            ([1, 0, 3],),  # not a permutation
            (1,),
        ):
            with pytest.raises(ValidationError):
                PermutationSet(3, bad)


class TestKlrSelect:
    def test_selected_never_worse(self, rng):
        for _ in range(50):
            h = crandn(rng, 4, 4)
            res = klr_select(h, 3, rng=rng)
            assert res.odf_selected <= res.odf_baseline
            assert res.odf_selected == min(
                [res.odf_baseline, *res.candidate_odfs[:3]]
            )

    def test_equality_only_for_baseline(self, rng):
        for _ in range(50):
            h = crandn(rng, 4, 4)
            res = klr_select(h, 3, rng=rng)
            if res.odf_selected == res.odf_baseline:
                assert res.perm == (0, 1, 2, 3)
            else:
                assert res.perm != (0, 1, 2, 3)

    def test_orthogonal_channel_keeps_baseline(self, rng):
        q, _ = np.linalg.qr(crandn(rng, 4, 4))
        res = klr_select(q, 3, rng=rng)
        assert res.odf_baseline == pytest.approx(1.0, abs=1e-9)
        assert res.perm == (0, 1, 2, 3)

    def test_composition(self, rng):
        h = crandn(rng, 5, 5)
        res = klr_select(h, 4, rng=rng)
        assert np.linalg.norm(
            h[:, list(res.perm)] @ res.basis.u - res.basis.h_tilde
        ) <= 1e-9 * np.linalg.norm(h)
        assert np.linalg.norm(
            h @ res.transform - res.basis.h_tilde
        ) <= 1e-9 * np.linalg.norm(h)

    def test_transform_unimodular_and_exact(self, rng):
        h = crandn(rng, 4, 4)
        res = klr_select(h, 5, rng=rng)
        t, tinv = res.transform, res.transform_inv
        assert is_unimodular(t)
        assert np.array_equal(t @ tinv, np.eye(4).astype(complex))
        # integer round trip through the composed transform is exact
        z = np.array([3 - 2j, 1 + 1j, -4 + 0j, 2 + 5j])
        assert np.array_equal(tinv @ (t @ z), z)

    def test_deterministic(self, rng):
        h = crandn(rng, 4, 4)
        a = klr_select(h, 3, rng=np.random.default_rng(11))
        b = klr_select(h, 3, rng=np.random.default_rng(11))
        assert a.perm == b.perm
        assert a.candidate_odfs == b.candidate_odfs
        assert np.array_equal(a.basis.h_tilde, b.basis.h_tilde)

    def test_monotone_in_k_with_nested_sets(self, rng):
        h = crandn(rng, 5, 5)
        perms = sample_permutations(5, 10, rng)
        prev = np.inf
        for k in range(1, 11):
            subset = PermutationSet(n=5, perms=perms.perms[:k])
            res = klr_select(h, k, perms=subset)
            assert res.odf_selected <= prev + 1e-12
            prev = res.odf_selected

    def test_mismatched_permutation_size(self, rng):
        perms = sample_permutations(3, 2, rng)
        with pytest.raises(ValidationError):
            klr_select(crandn(rng, 4, 4), 2, perms=perms)


class TestStackedSelection:
    """_select_all on several channels, each with its own permutations, as
    the sweep selects, against klr_select on each channel alone with its
    explicit permutations (what klr_select_with took)."""

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("delta", [0.75, 0.99])
    def test_members_equal_klr_select_with(self, rng, extended, delta):
        n, width, params = 4, 5, ReductionParams(delta)
        chans = crandn(rng, 8, 5, n)
        if extended:
            chans = np.stack([extend_channel(h, 0.4) for h in chans])
        groups = [sample_permutations(n, width, rng).perms for _ in chans]
        stack = _candidate_stack(chans, groups)
        assert stack.flags.c_contiguous and len(stack) == len(chans) * (1 + width)
        for g, (h, perms) in enumerate(zip(chans, groups)):
            want = [h] + [h[:, list(p)] for p in perms]
            assert stack[g * (1 + width) : (g + 1) * (1 + width)].tobytes() == (
                np.stack(want).tobytes()
            )
        ks = {extended: {0, 2, width}}
        found = _select_all({extended: chans}, {extended: groups}, ks, params)
        replaced = 0
        for k in (0, 2, width):
            sel = found[extended, k]
            assert len(sel) == len(chans)
            for g, h in enumerate(chans):
                got = sel[g]
                sets = PermutationSet(n, groups[g][:k]) if k else None
                want = klr_select(h, k, params, perms=sets)
                assert got.extended == extended
                assert got.perm == want.perm
                assert got.odf_selected == want.odf_selected
                assert got.odf_baseline == want.odf_baseline
                assert got.candidate_odfs == want.candidate_odfs
                assert got.basis.iteration_count == want.basis.iteration_count
                assert got.basis.odf_value == want.basis.odf_value
                for name in ("h_tilde", "u", "u_inv", "q", "r"):
                    assert np.array_equal(
                        getattr(got.basis, name), getattr(want.basis, name)
                    ), name
                assert np.array_equal(got.transform, want.transform)
                assert np.array_equal(got.transform_inv, want.transform_inv)
                replaced += got.perm != tuple(range(n))
        assert replaced > 0


class TestLrArrays:
    """T, T^-1, d and pinv are arrays of a selection, formed with it: a
    KlrStack, its slices and its members, a KlrResult built by its
    constructor and a replace(..., extended=True) copy of one each hold
    those of their own basis and permutations, with the bytes of the
    per-call forms."""

    NAMES = ("transform", "transform_inv", "offset", "pinv")

    @staticmethod
    def check(part, perms):
        """T = P U and T^-1 = U^-1 P^T, where P moves row j of U to row
        perm[j] (by value: signed zeros may differ), and d and pinv with
        the bytes of _offset(T^-1) and _pinv_from_qr(Q, R)."""
        basis = part.basis
        inv = np.argsort(np.array(perms), axis=-1)
        t = np.take_along_axis(basis.u, inv[..., :, np.newaxis], axis=-2)
        t_inv = np.take_along_axis(basis.u_inv, inv[..., np.newaxis, :], axis=-1)
        assert np.array_equal(part.transform, t)
        assert np.array_equal(part.transform_inv, t_inv)
        want = _pinv_from_qr(basis.q, basis.r)
        assert part.pinv.shape == want.shape
        assert part.pinv.tobytes() == want.tobytes()
        assert part.offset.tobytes() == _offset(part.transform_inv).tobytes()

    @pytest.mark.parametrize("extended", [False, True])
    def test_stack_arrays_equal_per_call_forms(self, rng, extended):
        n, width = 4, 3
        chans = crandn(rng, 6, 5, n)
        if extended:
            chans = np.stack([extend_channel(h, 0.3) for h in chans])
        groups = [sample_permutations(n, width, rng).perms for _ in chans]
        ks, params = {extended: {width}}, ReductionParams()
        sel = _select_all({extended: chans}, {extended: groups}, ks, params)
        sel = sel[extended, width]
        assert any(p != tuple(range(n)) for p in sel.perms)
        for part in (sel, sel[1:4], sel[2:3]):
            self.check(part, part.perms)
        for i in range(len(sel)):
            member = sel[i]
            self.check(member, member.perm)
            for name in self.NAMES:
                got, want = getattr(member, name), getattr(sel, name)[i]
                assert got.tobytes() == want.tobytes(), name

    def test_constructed_and_replaced_results(self, rng):
        h = crandn(rng, 5, 4)
        found = klr_select(h, 3, rng=rng)
        # as test_acceptance._lr_zf_errors builds one
        klr = KlrResult(
            basis=found.basis,
            perm=found.perm,
            odf_selected=found.basis.odf_value,
            odf_baseline=found.basis.odf_value,
            candidate_odfs=(),
        )
        self.check(klr, klr.perm)
        ext = klr_select(extend_channel(h, 0.3), 3, rng=rng)
        copy = replace(ext, extended=True)
        assert copy.extended and not ext.extended
        self.check(copy, copy.perm)
        for name in self.NAMES:
            assert getattr(copy, name).tobytes() == getattr(ext, name).tobytes()


class TestFormedOnce:
    """A selection's Q is formed where its stack is built, and its LR filter
    when first read, for the whole stack: each public selection is a stack
    of one, formed once, and a member of a stack, or a replace() copy of
    one, holds views of the stack's arrays and forms none of its own."""

    @staticmethod
    def counts(monkeypatch) -> dict:
        """Filter solves, QRs and Q-forming QRs made from here on."""
        calls = {"solve": 0, "qr": 0, "q": 0}
        pinv, qr = switched._pinv_from_qr, linalg._qr

        def solve(q, r):
            calls["solve"] += 1
            return pinv(q, r)

        def factor(a, with_q, *out):
            calls["qr"] += 1
            calls["q"] += with_q
            return qr(a, with_q, *out)

        monkeypatch.setattr(switched, "_pinv_from_qr", solve)
        monkeypatch.setattr(linalg, "_qr", factor)
        return calls

    @pytest.mark.parametrize(
        "select,qrs",
        [
            # CLLL's two R-only QRs, of the input and of H U, then Q
            (lambda h, rng: klr_select(h, 3, rng=rng), 3),
            (lambda h, rng: klr_select(h, 3, rng=rng, sigma_n=0.3), 3),
            # U = I: one QR of the channel gives Q and R
            (lambda h, rng: klr_select(h, None), 1),
            (lambda h, rng: klr_select(h, None, sigma_n=0.3), 1),
        ],
        ids=["klr_select", "klr_select_extended", "identity", "identity_extended"],
    )
    def test_public_selection_forms_once(self, rng, monkeypatch, select, qrs):
        h = crandn(rng, 5, 4)
        calls = self.counts(monkeypatch)
        res = select(h, rng)
        want = {"solve": 1, "qr": qrs, "q": 1}
        assert calls == want
        copy = replace(res, extended=not res.extended)
        assert calls == want
        for name in TestLrArrays.NAMES:
            assert np.shares_memory(getattr(copy, name), getattr(res, name)), name

    def test_members_are_views_of_the_stack(self, rng, monkeypatch):
        n, width = 4, 3
        chans = crandn(rng, 5, 5, n)
        groups = [sample_permutations(n, width, rng).perms for _ in chans]
        ks, params = {False: {width}}, ReductionParams()
        sel = _select_all({False: chans}, {False: groups}, ks, params)[False, width]
        calls = self.counts(monkeypatch)
        for i in range(len(sel)):
            member = sel[i]
            assert np.shares_memory(member.transform, sel.transform)
            assert np.shares_memory(member.pinv, sel.pinv)
            assert np.shares_memory(member.basis.q, sel.basis.q)
            assert member.pinv.tobytes() == sel.pinv[i].tobytes()
        # the stack's filter, formed when the first member reads it
        assert calls == {"solve": 1, "qr": 0, "q": 0}


class TestKlrSelectExtended:
    def test_shape(self, rng):
        h = crandn(rng, 6, 6)
        res = klr_select(h, 3, rng=rng, sigma_n=0.3)
        assert res.extended
        assert res.basis.h_tilde.shape == (12, 6)
        assert res.odf_selected <= res.odf_baseline

    def test_zero_sigma_matches_plain(self, rng):
        h = crandn(rng, 4, 4)
        plain = klr_select(h, 3, rng=np.random.default_rng(21))
        ext = klr_select(h, 3, rng=np.random.default_rng(21), sigma_n=0.0)
        assert ext.perm == plain.perm
        assert np.allclose(ext.basis.h_tilde[:4, :], plain.basis.h_tilde)
        assert np.allclose(ext.basis.h_tilde[4:, :], 0.0)

    def test_negative_sigma_rejected(self, rng):
        with pytest.raises(ValidationError):
            klr_select(crandn(rng, 3, 3), 2, rng=rng, sigma_n=-0.1)


class TestExtendChannel:
    def test_sigma_array_stacks_scalar_calls(self, rng):
        h = crandn(rng, 5, 3)
        sigmas = np.sqrt(3 / 10.0 ** (np.arange(14, 23) / 10.0))
        got = extend_channel(h, sigmas)
        want = np.stack([extend_channel(h, float(s)) for s in sigmas])
        assert got.shape == (9, 8, 3) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert extend_channel(h, sigmas[:1]).tobytes() == want[:1].tobytes()

    @pytest.mark.parametrize(
        "sigma",
        [-0.1, np.inf, np.nan, np.array([0.2, -0.1, 0.3]), np.full((2, 2), 0.3)],
    )
    def test_bad_sigma_rejected(self, rng, sigma):
        with pytest.raises(ValidationError):
            extend_channel(crandn(rng, 3, 3), sigma)


class TestIdentityResult:
    def test_identity_transform(self, rng):
        h = crandn(rng, 4, 4)
        res = klr_select(h, None)
        assert np.array_equal(res.transform, np.eye(4).astype(complex))
        assert np.allclose(res.basis.h_tilde, h)

    def test_extended_flavor(self, rng):
        h = crandn(rng, 4, 4)
        res = klr_select(h, None, sigma_n=0.2)
        assert res.extended
        assert res.basis.h_tilde.shape == (8, 4)


class TestOneEntry:
    """klr_select on a channel or a stack: k None (the identity), 0 (the
    CLLL baseline) or k >= 1, with explicit or sampled permutations, plain
    or extended by sigma_n."""

    FIELDS = ("h_tilde", "u", "u_inv", "r", "q", "odf_value", "iteration_count")
    ARRAYS = ("transform", "transform_inv", "offset", "pinv")

    @classmethod
    def assert_same(cls, got, want):
        """got and want hold the same selection, array for array in bytes."""
        names = "perm", "odf_selected", "odf_baseline", "candidate_odfs", "extended"
        for name in names:
            assert getattr(got, name) == getattr(want, name), name
        for name in cls.FIELDS:
            a, b = getattr(got.basis, name), getattr(want.basis, name)
            assert np.asarray(a).dtype == np.asarray(b).dtype, name
            assert np.shape(a) == np.shape(b), name
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
        for name in cls.ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("source", ["explicit", "sampled"])
    @pytest.mark.parametrize("extended", [False, True])
    def test_stack_members_equal_lone_calls(self, rng, extended, source):
        n, count, params = 4, 5, ReductionParams(0.99)
        chans = crandn(rng, count, 5, n)
        sigmas = 0.1 + 0.1 * np.arange(count) if extended else [None] * count
        sets = [sample_permutations(n, 6, rng) for _ in chans]
        replaced = 0
        for k in (None, 0, 1, 3, 6):
            kw = {"sigma_n": sigmas} if extended else {}
            if source == "explicit" and k:
                stack = klr_select(chans, k, params, perms=sets, **kw)
                lone = [
                    klr_select(h, k, params, perms=p, sigma_n=s)
                    for h, p, s in zip(chans, sets, sigmas)
                ]
            else:
                # the stack draws its channels' permutations in channel
                # order, as lone calls on one generator draw them
                stack = klr_select(chans, k, params, np.random.default_rng(5), **kw)
                draws = np.random.default_rng(5)
                lone = [
                    klr_select(h, k, params, draws, sigma_n=s)
                    for h, s in zip(chans, sigmas)
                ]
            assert len(stack) == count and stack.extended == extended
            for b in range(count):
                self.assert_same(stack[b], lone[b])
                assert stack[b].basis.h_tilde.shape == (5 + n * extended, n)
                replaced += stack[b].perm != tuple(range(n))
        assert replaced > 0

    @pytest.mark.parametrize("sigma_n", [None, 0.3])
    def test_baseline_is_clll_reduce(self, rng, sigma_n):
        for rows, n in ((4, 4), (5, 3), (6, 6)):
            h = crandn(rng, rows, n)
            params = ReductionParams(0.99 if n == 3 else 0.75)
            sel = klr_select(h, 0, params, sigma_n=sigma_n)
            mat = h if sigma_n is None else extend_channel(h, sigma_n)
            want = clll_reduce(mat, params)
            for name in ("h_tilde", "u", "r"):
                got = getattr(sel.basis, name)
                assert got.tobytes() == getattr(want, name).tobytes(), name
            assert sel.basis.odf_value == want.odf_value
            assert sel.odf_selected == sel.odf_baseline == want.odf_value
            assert sel.perm == tuple(range(n)) and sel.candidate_odfs == ()
            assert sel.extended == (sigma_n is not None)

    @pytest.mark.parametrize("k", [None, 0, 2])
    def test_sigma_alone_selects_extended(self, rng, k):
        h = crandn(rng, 4, 3)
        res = klr_select(h, k, rng=rng, sigma_n=0.3)
        assert res.extended
        assert res.basis.h_tilde.shape == (4 + 3, 3)
        assert not klr_select(h, k, rng=rng).extended
        stack = klr_select(np.stack([h, h]), k, rng=rng, sigma_n=[0.3, 0.0])
        assert stack.extended and stack.basis.h_tilde.shape == (2, 7, 3)
        assert not np.any(stack.basis.h_tilde[1, 4:])  # sigma_n 0: a zero block

    def test_ignored_or_mismatched_arguments_rejected(self, rng):
        h = crandn(rng, 4, 3)
        chans = crandn(rng, 2, 4, 3)
        p2 = sample_permutations(3, 2, rng)
        cases = [
            lambda: klr_select(h, None, perms=p2),  # perms with the identity
            lambda: klr_select(h, 0, perms=p2),  # perms with the baseline
            lambda: klr_select(h, 3, perms=p2),  # fewer perms than k
            lambda: klr_select(h, 2, rng=rng, perms=p2),  # rng and perms
            lambda: klr_select(h, 2, perms=sample_permutations(4, 2, rng)),
            lambda: klr_select(h, 2, perms=[p2]),  # a list for one channel
            lambda: klr_select(chans, 2, perms=p2),  # one set for a stack
            lambda: klr_select(chans, 2, perms=[p2]),  # a set short
            lambda: klr_select(chans, 2, perms=[p2, (1, 0, 2)]),
            lambda: klr_select(h, -1),
            lambda: klr_select(h, 1.0),
            lambda: klr_select(h, 2, rng=rng, sigma_n=[0.3]),  # 1-D, one channel
            lambda: klr_select(chans, 2, rng=rng, sigma_n=[0.3, 0.2, 0.1]),
            lambda: klr_select(chans, 2, rng=rng, sigma_n=[[0.3, 0.2]]),
            lambda: klr_select(chans, None, sigma_n=[0.3, -0.2]),
            lambda: klr_select(chans[np.newaxis], 2, rng=rng),  # 4-D
            lambda: klr_select(chans[:0], 0),  # an empty stack
        ]
        for case in cases:
            with pytest.raises(ValidationError):
                case()
