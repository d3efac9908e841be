import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrmimo.errors import BudgetExceededError, ValidationError
from lrmimo.kz import (
    EnumerationBudget,
    _to_front,
    is_kz_reduced,
    kz_reduce,
    shortest_vector,
)
from lrmimo.linalg import _qr_r
from lrmimo.reduction import (
    _columns,
    _split_columns,
    clll_reduce,
    is_clll_reduced,
    is_unimodular,
)
from lrmimo.sim import gen_channel

from conftest import column_operations, crandn


def brute_force_shortest(h, radius=3, reduce_first=False):
    """Exhaustive search over Gaussian coefficients with |Re|, |Im| <= radius.

    With reduce_first the basis is CLLL-reduced before the boxed search, which
    keeps the shortest vector's coefficients small enough for a modest radius.
    """
    if reduce_first:
        h = clll_reduce(np.asarray(h, dtype=complex)).h_tilde
    n = h.shape[1]
    rng_vals = range(-radius, radius + 1)
    best = None
    for parts in itertools.product(rng_vals, repeat=2 * n):
        c = np.array(parts[0::2], dtype=float) + 1j * np.array(parts[1::2], dtype=float)
        if not np.any(c):
            continue
        ln = np.linalg.norm(h @ c)
        if best is None or ln < best:
            best = ln
    return best


class TestShortestVector:
    def test_unit_lattice(self):
        v, c = shortest_vector(np.eye(2))
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.any(c)

    def test_diagonal_lattice(self):
        v, c = shortest_vector(np.diag([2.0, 3.0]))
        assert np.linalg.norm(v) == pytest.approx(2.0)

    def test_skewed_basis(self):
        h = np.array([[1.0, 1.1], [0.0, 0.1]], dtype=complex)
        v, c = shortest_vector(h)
        assert np.linalg.norm(v) == pytest.approx(np.sqrt(0.02))
        assert np.allclose(h @ c, v)

    def test_matches_brute_force_2x2(self, rng):
        for _ in range(20):
            h = crandn(rng, 2, 2)
            v, _ = shortest_vector(h)
            assert np.linalg.norm(v) == pytest.approx(brute_force_shortest(h), rel=1e-9)

    def test_matches_brute_force_3x3(self, rng):
        for _ in range(3):
            h = crandn(rng, 3, 3)
            v, _ = shortest_vector(h)
            assert np.linalg.norm(v) == pytest.approx(
                brute_force_shortest(h, radius=2, reduce_first=True), rel=1e-9
            )

    def test_dimension_budget(self, rng):
        with pytest.raises(BudgetExceededError):
            shortest_vector(crandn(rng, 5, 5), EnumerationBudget(max_dim=4))

    def test_node_budget(self, rng):
        with pytest.raises(BudgetExceededError):
            shortest_vector(crandn(rng, 4, 4), EnumerationBudget(max_nodes=3))

    def test_budget_validation(self):
        with pytest.raises(ValidationError):
            EnumerationBudget(max_dim=0)


class TestKzReduce:
    def test_identity(self):
        out = kz_reduce(np.eye(3))
        assert np.allclose(out.h_tilde, np.eye(3))
        assert is_unimodular(out.u)

    def test_first_column_is_shortest(self, rng):
        for _ in range(30):
            h = crandn(rng, 3, 3)
            out = kz_reduce(h)
            v, _ = shortest_vector(h)
            assert np.linalg.norm(out.h_tilde[:, 0]) == pytest.approx(
                np.linalg.norm(v), rel=1e-9
            )

    def test_kz_implies_clll(self, rng):
        for n in (2, 3, 4):
            for _ in range(10):
                out = kz_reduce(crandn(rng, n, n))
                assert is_clll_reduced(out.r) == (True, True)

    def test_lattice_preserved(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            h = crandn(rng, n, n)
            out = kz_reduce(h)
            assert np.linalg.norm(h @ out.u - out.h_tilde) <= 1e-9 * np.linalg.norm(h)
            assert is_unimodular(out.u)
            assert np.array_equal(out.u @ out.u_inv, np.eye(n).astype(complex))

    def test_predicate_self_consistent(self, rng):
        for _ in range(20):
            out = kz_reduce(crandn(rng, 3, 3))
            assert is_kz_reduced(out.r)

    def test_dimension_budget(self, rng):
        with pytest.raises(BudgetExceededError):
            kz_reduce(crandn(rng, 6, 6))

    def test_raw_channel_is_pre_reduced(self):
        # trial 282 of seed 2024: enumerating from the raw basis exhausts
        # 1e7 nodes, from its CLLL-reduced basis it needs 374
        seq = np.random.SeedSequence(2024, spawn_key=(282,))
        h = gen_channel(6, 6, np.random.default_rng(seq))
        budget = EnumerationBudget(max_dim=6, max_nodes=10_000)
        out = kz_reduce(h, budget)
        assert is_kz_reduced(out.r, budget)
        assert np.array_equal(h @ out.u, out.h_tilde)
        assert np.array_equal(out.u @ out.u_inv, np.eye(6).astype(complex))


def packed(h):
    """The packed columns of h's R and U = I, as kz_reduce's levels see them."""
    n = h.shape[1]
    return _columns(_qr_r(h)[np.newaxis], np.eye(n, dtype=complex)[np.newaxis])


class TestToFront:
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_vector_reaches_column_j(self, n, seed):
        rng = np.random.default_rng(seed)
        h = crandn(rng, n + 1, n)
        j = int(rng.integers(n))
        # a column of a unimodular matrix is primitive
        c = (column_operations(rng, n - j) @ column_operations(rng, n - j))[:, 0]
        cols = packed(h)
        _to_front(cols, j, c)
        r, u = (np.array(part[0]) for part in _split_columns(cols))
        want = np.zeros(n, dtype=complex)
        want[j:] = c
        assert any(np.array_equal(u[:, j], w * want) for w in (1, 1j, -1, -1j))
        assert is_unimodular(u)
        assert not np.tril(r, -1).any()
        d = np.diagonal(r)
        assert (d.real > 0).all() and not d.imag.any()
        assert np.abs(r - _qr_r(h @ u)).max() <= 1e-9 * np.abs(r).max()

    @pytest.mark.parametrize("factor", [1 + 1j, 2, 0])
    def test_non_primitive_vector_raises(self, rng, factor):
        c = factor * column_operations(rng, 3)[:, 0]
        with pytest.raises(ValidationError, match="not primitive"):
            _to_front(packed(crandn(rng, 4, 4)), 1, c)


class TestIsKzReduced:
    def test_identity(self):
        assert is_kz_reduced(np.eye(3))

    def test_first_column_not_shortest(self):
        # (0, 1) generates a length-1 vector, shorter than the first column
        assert not is_kz_reduced(np.diag([2.0, 1.0]).astype(complex))

    def test_size_condition_violated(self):
        r = np.array([[1.0, 0.9], [0.0, 1.2]], dtype=complex)
        assert not is_kz_reduced(r)

    @pytest.mark.parametrize(
        "r",
        [[[1, 0], [5, 1]], [[-1, 0.2], [0, 1]], [[0, 0], [0, 1]], [[1j, 0.2], [0, 1]]],
        ids=["lower-triangular", "negative-diagonal", "singular", "imaginary-diagonal"],
    )
    def test_malformed_r_rejected(self, r):
        # the R check of is_clll_reduced, which is_kz_reduced shares
        r = np.array(r, dtype=complex)
        with pytest.raises(ValidationError):
            is_clll_reduced(r)
        with pytest.raises(ValidationError):
            is_kz_reduced(r)

    def test_clll_output_can_fail_kz(self, rng):
        # CLLL does not guarantee the shortest vector first; find a case
        from lrmimo.reduction import clll_reduce

        found = False
        for _ in range(200):
            out = clll_reduce(crandn(rng, 4, 4))
            if not is_kz_reduced(out.r):
                found = True
                break
        assert found
