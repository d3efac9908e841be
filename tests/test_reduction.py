import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrmimo import reduction
from lrmimo.errors import BudgetExceededError, SingularMatrixError, ValidationError
from lrmimo.linalg import gram_det
from lrmimo.reduction import (
    ReducedBasis,
    ReducedStack,
    ReductionParams,
    clll_reduce,
    clll_reduce_batch,
    is_clll_reduced,
    is_unimodular,
    odf,
)
from lrmimo.switched import _candidate_stack, extend_channel, sample_permutations

from conftest import column_operations, crandn


class TestReductionParams:
    @pytest.mark.parametrize("delta", [0.75, 0.51, 1.0])
    def test_valid(self, delta):
        ReductionParams(delta)

    @pytest.mark.parametrize("delta", [0.5, 0.0, 1.1, -1.0])
    def test_invalid(self, delta):
        with pytest.raises(ValidationError):
            ReductionParams(delta)


class TestClllReduce:
    def test_identity_passthrough(self):
        out = clll_reduce(np.eye(4))
        assert np.allclose(out.h_tilde, np.eye(4))
        assert np.array_equal(out.u, np.eye(4))
        assert out.iteration_count == 3  # one visit per column pair, no swaps

    def test_single_size_reduction(self):
        h = np.array([[1, 1], [0, 1]], dtype=complex)
        out = clll_reduce(h, ReductionParams(0.75))
        assert np.allclose(out.h_tilde, np.eye(2))
        assert np.array_equal(out.u, np.array([[1, -1], [0, 1]]))

    def test_random_passes_predicate(self, rng):
        for _ in range(50):
            h = crandn(rng, 4, 4)
            out = clll_reduce(h, ReductionParams(0.75))
            assert is_clll_reduced(out.r, ReductionParams(0.75)) == (True, True)
            assert np.linalg.norm(h @ out.u - out.h_tilde) <= 1e-9 * np.linalg.norm(h)

    def test_transform_bookkeeping(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            h = crandn(rng, n, n)
            out = clll_reduce(h)
            assert is_unimodular(out.u)
            assert is_unimodular(out.u_inv)
            # integer-valued floats multiply exactly: identity with zero error
            assert np.array_equal(out.u @ out.u_inv, np.eye(n).astype(complex))

    def test_gram_det_preserved(self, rng):
        for _ in range(50):
            h = crandn(rng, 5, 4)
            out = clll_reduce(h)
            assert gram_det(out.h_tilde) == pytest.approx(gram_det(h), rel=1e-8)

    def test_tall_basis(self, rng):
        out = clll_reduce(crandn(rng, 8, 4))
        assert out.h_tilde.shape == (8, 4)
        assert is_clll_reduced(out.r) == (True, True)

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularMatrixError):
            clll_reduce(np.array([[1, 1], [1, 1]], dtype=complex))

    def test_nonfinite_raises(self):
        with pytest.raises(ValidationError):
            clll_reduce(np.array([[np.inf, 0], [0, 1]]))


# Exact CLLL outcomes of seeded bases: plain 6x6 and extended 12x6 ([H; sigma I]
# at the SNR given, sigma^2 = n / 10^(SNR/10)) at both deltas, n = 1..8, and
# near-dependent 6x6 and 12x6 bases (column 1 = (1+0.3j) column 0 + 1e-3
# noise).  Columns: seed, rows of H, n, SNR in dB (None: plain H; "near": the
# near-dependent H), delta, iteration count, U as rows separated by ";".
CLLL_PINS = [
    (1, 6, 6, None, 0.75, 39,
     "1,0,0,0,0,0;-1+1j,0,0,0,0,-1j;-1-1j,-1,-1-1j,0,0,1;-1+1j,0,0,0,1,0;"
     "-1-1j,-1,-1,0,1j,0;1,1,1,1,-1j,1"),
    (1, 6, 6, None, 0.99, 39,
     "1,0,0,-1,0,1j;-1+1j,0,0,1-1j,0,-1j;-1-1j,0,1,2+1j,1-1j,1;"
     "-1+1j,0,0,2-1j,0,-1-1j;-1-1j,0,1,2+2j,-1j,1-1j;1,-1,-1,-2-1j,1j,1j"),
    (2, 6, 6, None, 0.75, 11,
     "1,0,0,0,0,1;0,1,0,0,0,-1;0,0,0,0,0,1;0,0,1,0,0,0;0,0,0,1,-1j,-1+1j;"
     "0,0,0,0,1,-1j"),
    (2, 6, 6, None, 0.99, 17,
     "1,-1,-1,0,0,2;0,1,-1j,0,0,-1+1j;0,0,0,0,0,1;0,1,1-1j,0,0,-1;"
     "0,1,-1j,-1,-1j,-1+2j;0,0,0,0,1,-1j"),
    (3, 6, 6, None, 0.75, 32,
     "0,0,0,0,1,0;0,0,0,1,1j,-1j;0,0,1j,1+1j,-1,0;0,0,0,0,0,1;"
     "0,1j,1+1j,1,-1-2j,2j;1,-1-1j,-1-1j,-2-1j,4+1j,-1-1j"),
    (3, 6, 6, None, 0.99, 48,
     "0,0,1j,-1,1,0;0,0,-1,-1j,1+1j,-1j;0,0,-1j,2,-1+1j,0;0,0,0,0,0,1;"
     "1j,0,2-1j,2+1j,-1-1j,2j;-1-1j,1,-1+4j,-5,4-1j,-1-1j"),
    (4, 6, 6, None, 0.75, 17,
     "1,0,0,1j,0,0;0,1,0,-1+1j,-1,-1;0,0,0,-1j,1-1j,-1j;0,0,1,1-2j,1,0;"
     "0,0,1,1-1j,1,0;0,0,0,1,1,1-1j"),
    (4, 6, 6, None, 0.99, 38,
     "0,0,0,0,0,-1;0,1-1j,0,-1,-1-1j,-1-1j;-1j,-1+1j,0,1,1+1j,1+1j;"
     "-1j,-2+1j,1,1+1j,2+2j,2+2j;-1j,-2+1j,1,1+1j,1+2j,1+2j;"
     "1,-1,0,1,1j,-1+1j"),
    (5, 6, 6, 14, 0.75, 15,
     "1,-1j,-1,0,1j,-1;0,0,1,1,1-1j,1+1j;0,0,0,0,1,-1+1j;0,1,-1j,1,0,-1j;"
     "0,0,0,0,0,1;0,0,1,0,-1j,1+1j"),
    (5, 6, 6, 14, 0.99, 31,
     "-1+1j,-1,0,1-1j,1j,-1;1-1j,1,1,-1,1-1j,1;0,0,0,0,1,-1+1j;"
     "-1j,0,0,1j,0,-1j;0,0,0,0,0,1;1-1j,1,0,-1,-1j,1"),
    (6, 6, 6, 18, 0.75, 7,
     "1,-1,0,-1+1j,0,0;0,1,1,-1j,0,0;0,0,1,-1,1j,0;0,0,0,1,0,0;0,0,0,0,0,1;"
     "0,0,0,0,1,0"),
    (6, 6, 6, 18, 0.99, 9,
     "1,0,-1,1j,1j,0;0,1,1,-1-1j,-1j,0;0,1,0,-1,0,0;0,0,0,1,0,0;0,0,0,0,0,1;"
     "0,0,0,0,1,0"),
    (7, 6, 6, 22, 0.75, 22,
     "0,1,0,-1,0,-1j;-1j,1,-1j,0,1+1j,-1+3j;0,0,0,0,0,1;0,0,0,0,1,2j;"
     "1j,-1,1+1j,0,-1,-1-3j;1,1j,1,-1j,-1+1j,-3-1j"),
    (7, 6, 6, 22, 0.99, 38,
     "-1j,0,-1,0,1j,1-1j;0,-1,1+1j,-1,1-1j,2j;0,0,0,0,0,1;0,0,1,0,-1j,1j;"
     "0,1-1j,-1,1,1j,-2-2j;1,-1j,-1,-1j,1+1j,-2+1j"),
    (8, 1, 1, None, 0.75, 0,
     "1"),
    (9, 2, 2, None, 0.99, 3,
     "1,0;2-1j,1"),
    (10, 4, 3, None, 0.75, 3,
     "0,1,-1;1,-1,1+1j;0,0,1"),
    (11, 4, 4, None, 0.99, 19,
     "0,0,1j,0;0,-1j,0,0;0,1,0,1;1,1,-1j,-1j"),
    (12, 5, 5, None, 0.75, 11,
     "0,0,1,1,1j;1,0,-1-1j,-2-2j,1-2j;0,0,0,0,1;0,1,2+1j,3+1j,3j;0,0,0,1,0"),
    (13, 8, 7, None, 0.99, 35,
     "0,-1+1j,1,-1+1j,0,-1-1j,1j;0,0,0,0,0,1,0;0,0,0,1,0,0,0;1,1,1,0,0,1j,0;"
     "0,-1j,0,-1j,0,1,0;0,0,0,0,1,-1j,0;0,1,0,1,0,1j,-1j"),
    (14, 8, 8, None, 0.75, 42,
     "-1j,1+1j,0,-1j,-1j,1,1+2j,1;2-1j,-2+1j,0,2,2,1+2j,-2+1j,1;"
     "1j,-1j,0,1j,1j,-1,-1j,0;1-1j,-1+1j,0,1,1,1+1j,1j,1;"
     "1+4j,-1-4j,1,-2+3j,-2+3j,-4+2j,-1-1j,2j;2-2j,-2+2j,0,2,2,2+2j,-1+2j,1;"
     "2-1j,-2+1j,0,1,2,1+2j,-1+1j,1;0,0,0,0,0,1,1,-1j"),
    (15, 8, 8, None, 0.99, 51,
     "-1,-1j,0,1,1+1j,1j,-1j,0;0,1,0,0,0,0,0,1j;-1j,1,1,-1+1j,-1,-1,1j,0;"
     "1,1j,0,-1j,0,1-1j,-1-1j,-1-1j;-1j,1+1j,0,0,1j,-1,0,-2;0,0,0,0,0,0,0,1;"
     "1,1j,0,-1-1j,-1j,-1j,-1,-1;0,0,0,1+1j,1j,1j,1-1j,-1j"),
    (16, 6, 6, "near", 0.75, 14,
     "-10-3j,-1+40j,32+401j,416-339j,290-30j,-517-511j;"
     "10,-10-37j,-139-359j,-289+425j,-258+106j,613+327j;0,0,0,1,1j,0;0,0,0,0,0,1;"
     "0,0,1,-1-1j,-1j,-1+1j;0,0,0,0,1,-1j"),
    (16, 6, 6, "near", 0.99, 22,
     "-10-3j,-1+40j,290-30j,32+401j,78+344j,-113-553j;"
     "10,-10-37j,-258+106j,-139-359j,-165-294j,254+476j;0,0,1j,0,0,0;0,0,0,0,0,1;"
     "0,0,-1j,1,1,-1;0,0,1,0,1j,-1j"),
    (17, 12, 6, "near", 0.75, 12,
     "-10-3j,-3-26j,-527-124j,-340+309j,57+297j,371-262j;"
     "10,10+23j,518-31j,227-377j,-134-257j,-268+343j;0,0,1,0,0,0;0,0,0,0,1,0;"
     "0,0,0,0,0,1;0,0,0,1,0,0"),
    (17, 12, 6, "near", 0.99, 14,
     "-10-3j,-3-26j,-340+309j,-527-124j,57+297j,371-262j;"
     "10,10+23j,227-377j,518-31j,-134-257j,-268+343j;0,0,0,1,0,0;0,0,0,0,1,0;"
     "0,0,0,0,0,1;0,0,1,0,0,0"),
]


def pinned_basis(seed, rows, n, snr_db):
    rng = np.random.default_rng(seed)
    h = crandn(rng, rows, n)
    if snr_db == "near":
        h[:, 1] = (1 + 0.3j) * h[:, 0] + 1e-3 * crandn(rng, rows)
    elif snr_db is not None:
        h = extend_channel(h, np.sqrt(n / 10 ** (snr_db / 10)))
    return h


def parse_u(text):
    return np.array([[complex(t) for t in row.split(",")] for row in text.split(";")])


@pytest.mark.parametrize("seed,rows,n,snr_db,delta,iters,u_text", CLLL_PINS)
def test_clll_pinned_outcomes(seed, rows, n, snr_db, delta, iters, u_text):
    out = clll_reduce(pinned_basis(seed, rows, n, snr_db), ReductionParams(delta))
    assert out.iteration_count == iters
    assert np.array_equal(out.u, parse_u(u_text))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == np.ascontiguousarray(b).tobytes()


def hard_basis(rng, rows):
    """6-column basis scrambled by 40 random Gaussian-integer column shears."""
    h = crandn(rng, rows, 6)
    for _ in range(40):
        i, j = rng.choice(6, 2, replace=False)
        h[:, j] += complex(*rng.integers(-3, 4, 2)) * h[:, i]
    return h


class TestClllReduceBatch:
    @pytest.mark.parametrize("delta", [0.75, 0.99])
    def test_batch_invariance(self, rng, delta):
        """A basis gets bitwise its lone result inside a shuffled mixed-height batch."""
        params = ReductionParams(delta)
        bases = [pinned_basis(*c[:4]) for c in CLLL_PINS if c[2] == 6]
        bases += [hard_basis(rng, rows) for rows in (6, 12, 6, 12)]
        alone = [clll_reduce(h, params) for h in bases]
        easy = max(out.iteration_count for out in alone[:-4])
        assert min(out.iteration_count for out in alone[-4:]) > 2 * easy

        order = rng.permutation(len(bases))
        by_rows = {6: [], 12: []}
        for i in order:
            by_rows[bases[i].shape[0]].append(i)
        stacks = [np.stack([bases[i] for i in idx]) for idx in by_rows.values()]
        for idx, outs in zip(by_rows.values(), clll_reduce_batch(stacks, params)):
            for i, out in zip(idx, outs):
                ref = alone[i]
                assert out.iteration_count == ref.iteration_count
                assert out.odf_value == ref.odf_value
                for name in ("h_tilde", "u", "u_inv", "q", "r"):
                    assert same_bits(getattr(out, name), getattr(ref, name)), name

    def test_trial_chunk_equals_per_trial_calls(self):
        """The 11 bases of each of 16 klr-zf-shaped trials (a 6x6 channel and
        10 column permutations) get bitwise their per-trial results when all
        176 go through one call."""
        rng = np.random.default_rng(2026)
        trials = []
        for _ in range(16):
            h = crandn(rng, 1, 6, 6)
            trials.append(_candidate_stack(h, [sample_permutations(6, 10, rng).perms]))
        chunk = clll_reduce_batch([np.concatenate(trials)])[0]
        for t, stack in enumerate(trials):
            for i, ref in enumerate(clll_reduce_batch([stack])[0]):
                out = chunk[t * len(stack) + i]
                assert out.iteration_count == ref.iteration_count
                assert out.odf_value == ref.odf_value
                for name in ("h_tilde", "u", "u_inv", "q", "r"):
                    assert same_bits(getattr(out, name), getattr(ref, name)), name

    def test_reduced_stack_indexing(self, rng):
        stack = clll_reduce_batch([crandn(rng, 5, 4, 3)])[0]
        assert isinstance(stack, ReducedStack) and len(stack) == len(list(stack)) == 5
        one = stack[3]
        assert isinstance(one, ReducedBasis)
        assert one.odf_value == stack.odf[3]
        assert one.iteration_count == stack.iterations[3]
        for name in ("h_tilde", "u", "u_inv", "q", "r"):
            assert same_bits(getattr(one, name), getattr(stack, name)[3]), name
        part = stack[1:3]
        assert isinstance(part, ReducedStack) and same_bits(part.odf, stack.odf[1:3])
        picked = stack[np.array([4, 0])]
        assert same_bits(picked.u_inv, stack.u_inv[[4, 0]])
        assert same_bits(picked.iterations, stack.iterations[[4, 0]])

    @pytest.mark.parametrize("stack,pos", [(0, 0), (0, 3), (1, 1)])
    def test_rank_deficient_member_raises(self, rng, stack, pos):
        stacks = [crandn(rng, 4, 5, 3), crandn(rng, 2, 8, 3)]
        h = stacks[stack][pos]
        h[:, 2] = h[:, 0] - 1j * h[:, 1]
        with pytest.raises(SingularMatrixError):
            clll_reduce_batch(stacks)

    def test_stacks_must_share_column_count(self, rng):
        with pytest.raises(ValidationError):
            clll_reduce_batch([crandn(rng, 2, 4, 3), crandn(rng, 2, 4, 4)])

    def test_empty_stacks(self, rng):
        empty = np.zeros((0, 4, 3))
        (out,) = clll_reduce_batch([empty])
        assert len(out) == 0 and list(out) == []
        assert out.h_tilde.shape == out.q.shape == (0, 4, 3)
        assert out.u.shape == out.u_inv.shape == out.r.shape == (0, 3, 3)
        full = crandn(rng, 2, 5, 3)
        none, some = clll_reduce_batch([empty, full])
        assert len(none) == 0 and none.h_tilde.shape == (0, 4, 3)
        ref = clll_reduce_batch([full])[0]
        for name in ("h_tilde", "u", "u_inv", "q", "r", "odf", "iterations"):
            assert same_bits(getattr(some, name), getattr(ref, name)), name

    def test_call_holds_its_input_state_and_one_block(self):
        """At its peak, a call on 800 extended 12x6 bases (8 klr-mmse
        trials) holds its input, its packed state of R and U (as large as
        the input here) and the working set of one QR block: the block's
        H U, the copy LAPACK factors and numpy's buffers, at most three
        blocks' bytes.  An engine that also held a stack-sized H U, a copy
        of U and its final QR's copies took about 4.6 KB per basis."""
        rng = np.random.default_rng(30)
        clll_reduce_batch([extend_channel(crandn(rng, 6, 6), 0.3)[np.newaxis]])
        tracemalloc.start()
        try:
            chans = crandn(rng, 800, 6, 6)
            stack = np.stack([extend_channel(h, 0.3) for h in chans])
            del chans
            clll_reduce_batch([stack])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = 800 * 6 * 12 * 16
        assert peak <= stack.nbytes + state + 3 * reduction._QR_BLOCK_BYTES

    def test_iteration_cap_names_the_basis(self, rng, monkeypatch):
        hard = hard_basis(rng, 6)
        needed = clll_reduce(hard).iteration_count
        # a 6x6 identity takes 5 iterations, one per column pair
        stacks = [np.stack([np.eye(6)] * 2), np.stack([np.eye(6), hard])]
        monkeypatch.setattr(reduction, "MAX_ITERATIONS", needed)
        clll_reduce_batch(stacks)
        monkeypatch.setattr(reduction, "MAX_ITERATIONS", needed - 1)
        with pytest.raises(BudgetExceededError, match="basis 1 of stack 1"):
            clll_reduce_batch(stacks)
        with pytest.raises(BudgetExceededError, match="basis 0 of stack 0"):
            clll_reduce(hard)


class TestIllConditionedBasis:
    """A 4x4 basis whose column 1 is (1+0.3j) column 0 plus eps noise: far
    above the rank tolerance, yet for small eps the final QR of H U drifts
    from the R the loop reduced, and the output R is not size-reduced."""

    @staticmethod
    def probe(eps):
        rng = np.random.default_rng(0)
        h = crandn(rng, 4, 4)
        h[:, 1] = (1 + 0.3j) * h[:, 0] + eps * crandn(rng, 4)
        return h

    @pytest.mark.parametrize("eps", [1e-9, 1e-11])
    def test_unreduced_output_raises(self, eps):
        with pytest.raises(SingularMatrixError, match="basis 0 "):
            clll_reduce(self.probe(eps))

    def test_failing_member_of_a_batch_is_named(self, rng):
        stack = crandn(rng, 4, 4, 4)
        stack[2] = self.probe(1e-9)
        with pytest.raises(SingularMatrixError, match="basis 2 of stack 1"):
            clll_reduce_batch([crandn(rng, 3, 5, 4), stack])

    def test_reduced_output_returns(self):
        out = clll_reduce(self.probe(1e-6))
        assert is_clll_reduced(out.r) == (True, True)
        assert is_unimodular(out.u)


def gaussian_ints(a):
    """The entries of an integer-valued complex array as (re, im) pairs of
    Python ints, row by row; asserts that every part is an integer."""
    assert np.array_equal(a.view(np.float64), np.rint(a.view(np.float64)))
    return [[(int(z.real), int(z.imag)) for z in row] for row in a]


def exact_product(a, b):
    """a b of two Gaussian-integer matrices (gaussian_ints), exactly."""
    return [
        [
            (
                sum(p[0] * q[0] - p[1] * q[1] for p, q in zip(row, col)),
                sum(p[0] * q[1] + p[1] * q[0] for p, q in zip(row, col)),
            )
            for col in zip(*b)
        ]
        for row in a
    ]


class TestContractOverConditioning:
    """Over bases from well conditioned to all but rank deficient, CLLL
    either raises SingularMatrixError or meets its whole contract."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        log_eps=st.floats(-12.0, 0.0),
        n=st.integers(2, 6),
        tall=st.booleans(),
        delta=st.sampled_from([0.75, 0.99]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reduced_or_raises(self, log_eps, n, tall, delta, seed):
        rng = np.random.default_rng(seed)
        rows = 2 * n if tall else n
        h = crandn(rng, rows, n)
        h[:, 1] = (1 + 0.3j) * h[:, 0] + 10.0**log_eps * crandn(rng, rows)
        params = ReductionParams(delta)
        try:
            out = clll_reduce(h, params)
        except SingularMatrixError:
            return
        assert is_clll_reduced(out.r, params) == (True, True)
        assert is_unimodular(out.u)
        eye = [[(int(i == j), 0) for j in range(n)] for i in range(n)]
        assert exact_product(gaussian_ints(out.u), gaussian_ints(out.u_inv)) == eye
        assert same_bits(out.h_tilde, h @ out.u)


class TestIsClllReduced:
    def test_identity(self):
        assert is_clll_reduced(np.eye(3)) == (True, True)

    def test_size_violation(self):
        r = np.array([[1, 1], [0, 1]], dtype=complex)
        size_ok, _ = is_clll_reduced(r)
        assert not size_ok

    def test_lovasz_violation(self):
        r = np.array([[1, 0], [0, 0.5]], dtype=complex)
        _, lovasz_ok = is_clll_reduced(r, ReductionParams(0.75))
        assert not lovasz_ok

    def test_non_triangular_rejected(self):
        with pytest.raises(ValidationError):
            is_clll_reduced(np.array([[1, 0], [1, 1]], dtype=complex))

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            is_clll_reduced(np.array([[-1, 0], [0, 1]], dtype=complex))


class TestOdf:
    def test_orthogonal_basis(self, rng):
        q, _ = np.linalg.qr(crandn(rng, 4, 4))
        assert odf(q * np.array([1.0, 2.0, 0.5, 3.0])) == pytest.approx(1.0, abs=1e-9)

    def test_hand_example(self):
        assert odf(np.array([[1, 1], [0, 1]], dtype=complex)) == pytest.approx(2.0)

    def test_reduction_improves(self):
        h = np.array([[1, 1], [0, 1]], dtype=complex)
        assert clll_reduce(h).odf_value == pytest.approx(1.0)

    def test_lower_bound(self, rng):
        for _ in range(200):
            assert odf(crandn(rng, 5, 5)) >= 1.0 - 1e-9

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            odf(np.array([[1, 1], [1, 1]], dtype=complex))

    @pytest.mark.parametrize(
        "scale", [1e40, 1e150, 1e-60, 1e-150, 2.0**-400],
        ids=["1e40", "1e150", "1e-60", "1e-150", "2^-400"],
    )
    def test_scale_free(self, rng, scale):
        # the ODF does not depend on scale, though on a 6-column basis its
        # two products leave float range from about 1e40 and 1e-60
        h = crandn(rng, 6, 6)
        assert odf(scale * h) == pytest.approx(odf(h), rel=1e-13)
        got, want = (clll_reduce_batch([s * h[np.newaxis]])[0] for s in (scale, 1.0))
        assert np.array_equal(got.u, want.u)
        assert got.odf == pytest.approx(want.odf, rel=1e-13)


class TestInverseOnRead:
    """U^-1 is formed where it is read, exactly: U X = I in integers, with
    no -0 part, or SingularMatrixError."""

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(1, 8),
        rounds=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_or_raises(self, n, rounds, seed):
        rng = np.random.default_rng(seed)
        u = np.eye(n, dtype=complex)
        for _ in range(rounds):  # products of column operations, parts <= 2^26
            more = u @ column_operations(rng, n)
            if np.abs(more.view(np.float64)).max() > 2.0**26:
                break
            u = more
        x = reduction._inverse(u[np.newaxis])[0]
        eye = [[(int(i == j), 0) for j in range(n)] for i in range(n)]
        assert exact_product(gaussian_ints(u), gaussian_ints(x)) == eye
        parts = x.view(np.float64)
        assert not (np.signbit(parts) & (parts == 0)).any()  # no -0
        scaled = u.copy()
        scaled[:, rng.integers(n)] *= 1 + 1j
        with pytest.raises(SingularMatrixError, match="basis 1 "):
            reduction._inverse(np.stack([u, scaled]))

    @pytest.mark.parametrize("part", [2.0**40, 2.0**53, 1j * 2.0**60])
    def test_parts_too_large_to_confirm_raise(self, part):
        eye = np.eye(3, dtype=complex)
        u = eye.copy()
        u[0, 2] = part  # a unimodular shear, its inverse -part
        with pytest.raises(SingularMatrixError, match="basis 1 "):
            reduction._inverse(np.stack([eye, u]))

    def test_parts_are_formed_for_their_members(self, rng, monkeypatch):
        formed = []
        inverse = reduction._inverse
        monkeypatch.setattr(
            reduction, "_inverse", lambda u: formed.append(len(u)) or inverse(u)
        )
        stack = clll_reduce_batch([np.stack([hard_basis(rng, 6) for _ in range(6)])])[0]
        kept = stack[np.array([4, 1])]
        part = stack[2:5]
        assert formed == []
        assert same_bits(kept.u_inv, stack.u_inv[[4, 1]])
        assert same_bits(part.u_inv, stack.u_inv[2:5])
        assert formed == [2, 6, 3]
        assert same_bits(stack[3:].u_inv, stack.u_inv[3:])  # kept from the whole
        assert formed == [2, 6, 3]


class TestIsUnimodular:
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_column_operations(self, n, seed):
        # swaps and unit scalings by +-j put zeros on the pivots of the
        # real embedding, so the elimination swaps rows too
        rng = np.random.default_rng(seed)
        u = column_operations(rng, n)
        assert is_unimodular(u)
        j, k = rng.integers(n, size=2)
        for scale in (1 + 1j, 2):
            scaled = u.copy()
            scaled[:, j] *= scale
            assert not is_unimodular(scaled)
        off = u.copy()
        off[j, k] += 0.25
        assert not is_unimodular(off)

    def test_identity(self):
        assert is_unimodular(np.eye(3))

    def test_shear(self):
        assert is_unimodular(np.array([[1, -1], [0, 1]], dtype=complex))

    def test_complex_units(self):
        assert is_unimodular(np.array([[0, 1j], [1, 0]], dtype=complex))

    def test_determinant_two(self):
        assert not is_unimodular(np.array([[2, 0], [0, 1]], dtype=complex))

    def test_non_integer_entries(self):
        assert not is_unimodular(np.array([[1, 0.5], [0, 1]], dtype=complex))

    def test_non_square(self):
        assert not is_unimodular(np.ones((2, 3)))
