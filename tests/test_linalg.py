import numpy as np
import pytest

from lrmimo.errors import SingularMatrixError, ValidationError
from lrmimo.linalg import _qr_r, gram_det, pseudoinverse, qr_decompose

from conftest import crandn


class TestQrDecompose:
    def test_identity(self):
        q, r = qr_decompose(np.eye(3))
        assert np.allclose(q, np.eye(3))
        assert np.allclose(r, np.eye(3))

    def test_already_triangular(self):
        a = np.array([[1, 1], [0, 1]], dtype=complex)
        q, r = qr_decompose(a)
        assert np.allclose(q, np.eye(2))
        assert np.allclose(r, a)

    def test_random_complex(self, rng):
        a = crandn(rng, 4, 4)
        q, r = qr_decompose(a)
        assert np.linalg.norm(q.conj().T @ q - np.eye(4)) <= 1e-10
        assert np.linalg.norm(q @ r - a) / np.linalg.norm(a) <= 1e-10

    def test_positive_real_diagonal(self, rng):
        for _ in range(50):
            _, r = qr_decompose(crandn(rng, 5, 3))
            d = np.diagonal(r)
            assert np.all(d.real > 0)
            assert np.all(d.imag == 0)

    def test_reconstruction_many(self, rng):
        for _ in range(1000):
            rows = int(rng.integers(2, 7))
            cols = int(rng.integers(1, rows + 1))
            a = crandn(rng, rows, cols)
            q, r = qr_decompose(a)
            assert np.linalg.norm(q @ r - a) / np.linalg.norm(a) <= 1e-10

    def test_rank_deficient_raises(self):
        a = np.array([[1, 2], [2, 4]], dtype=complex)
        with pytest.raises(SingularMatrixError):
            qr_decompose(a)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValidationError):
            qr_decompose(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            qr_decompose(np.array([[np.nan, 0], [0, 1]]))

    # (300, 8, 4) spans several of the blocks in which _qr forms the column
    # norms of a stack
    @pytest.mark.parametrize(
        "shape", [(5, 6, 4), (2, 3, 4, 4), (1, 3, 1), (300, 8, 4)]
    )
    def test_stack_matches_matrix_by_matrix(self, rng, shape):
        a = crandn(rng, *shape)
        a[(0,) * (len(shape) - 2)] *= 1e-20  # rank is judged per matrix
        q, r = qr_decompose(a)
        for i in np.ndindex(shape[:-2]):
            qi, ri = qr_decompose(a[i])
            assert q[i].tobytes() == qi.tobytes()
            assert r[i].tobytes() == ri.tobytes()

    def test_stack_rejects_what_a_matrix_rejects(self, rng):
        a = crandn(rng, 3, 4, 2)
        a[1, 2, 0] = np.inf
        with pytest.raises(ValidationError):
            qr_decompose(a)
        with pytest.raises(ValidationError):
            qr_decompose(crandn(rng, 3, 2, 4))
        b = crandn(rng, 3, 4, 2)
        b[2, :, 1] = 2j * b[2, :, 0]
        with pytest.raises(SingularMatrixError):
            qr_decompose(b)


class TestQrChecks:
    """The QR wrapper checks finiteness in one pass over the complex entries
    and ranks each matrix by its largest column norm.  Every entry point
    still raises ValidationError for a non-finite real or imaginary part
    and SingularMatrixError for a rank-deficient member of a stack."""

    FUNCS = [qr_decompose, _qr_r, pseudoinverse]

    @pytest.mark.parametrize("f", FUNCS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_non_finite_part_raises(self, rng, f, bad, part, stacked):
        a = crandn(rng, 3, 4, 3) if stacked else crandn(rng, 4, 3)
        at = (1, 2, 0) if stacked else (2, 0)
        z = a[at]
        a[at] = complex(bad, z.imag) if part == "real" else complex(z.real, bad)
        with pytest.raises(ValidationError, match="finite"):
            f(a)

    @pytest.mark.parametrize("f", FUNCS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("member", [0, 2])
    def test_rank_deficient_member_raises(self, rng, f, member):
        a = crandn(rng, 3, 4, 3)
        a[member, :, 2] = (0.5 - 1j) * a[member, :, 0]
        with pytest.raises(SingularMatrixError):
            f(a)

    @pytest.mark.parametrize("f", FUNCS, ids=lambda f: f.__name__)
    def test_underflowing_column_norms_raise(self, rng, f):
        # the squares of entries near 1e-170 underflow, so every column
        # norm reads 0 although R does not: the rank check has no scale
        with pytest.raises(SingularMatrixError):
            f(1e-170 * crandn(rng, 4, 3))


class TestQrROnly:
    """_qr_r forms R alone; it is the R of qr_decompose, bit for bit."""

    @pytest.mark.parametrize(
        "shape", [(198, 12, 6), (7, 6, 6), (2, 3, 5, 4), (1, 4, 1)]
    )
    def test_equals_qr_decompose_r(self, rng, shape):
        a = crandn(rng, *shape)
        r = qr_decompose(a)[1]
        assert _qr_r(a).tobytes() == r.tobytes()
        # a sub-stack gives the same members
        assert _qr_r(a[::2]).tobytes() == r[::2].tobytes()

    def test_rejects_what_qr_decompose_rejects(self, rng):
        a = crandn(rng, 5, 4, 3)
        a[3, :, 2] = (1 - 2j) * a[3, :, 0]
        with pytest.raises(SingularMatrixError):
            _qr_r(a)
        b = crandn(rng, 2, 3, 4, 4)
        b[1, 2, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            _qr_r(b)
        with pytest.raises(ValidationError):
            _qr_r(crandn(rng, 3, 2, 4))


class TestEmptyStack:
    """A stack of no matrices has empty factors, as numpy's own QR of it."""

    def test_empty_factors(self):
        a = np.zeros((0, 4, 3))
        q, r = qr_decompose(a)
        ref_q, ref_r = np.linalg.qr(a.astype(complex))
        assert q.shape == ref_q.shape == (0, 4, 3)
        assert r.shape == ref_r.shape == _qr_r(a).shape == (0, 3, 3)


class TestPseudoinverse:
    def test_identity(self):
        assert np.allclose(pseudoinverse(np.eye(4)), np.eye(4))

    def test_column_vector(self):
        p = pseudoinverse(np.array([[1.0], [1.0]]))
        assert np.allclose(p, [[0.5, 0.5]])

    def test_left_inverse(self, rng):
        for _ in range(100):
            a = crandn(rng, 6, 4)
            assert np.linalg.norm(pseudoinverse(a) @ a - np.eye(4)) <= 1e-9

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            pseudoinverse(np.array([[1, 1], [1, 1]], dtype=complex))


class TestGramDet:
    def test_identity(self):
        assert gram_det(np.eye(3)) == pytest.approx(1.0)

    def test_triangular(self):
        assert gram_det(np.array([[1, 1], [0, 1]], dtype=complex)) == pytest.approx(1.0)

    def test_against_lu_oracle(self, rng):
        for _ in range(100):
            a = crandn(rng, 4, 3)
            oracle = abs(np.linalg.det(a.conj().T @ a))
            assert gram_det(a) == pytest.approx(oracle, rel=1e-8)

    def test_matches_singular_values(self, rng):
        for _ in range(100):
            a = crandn(rng, 5, 4)
            assert gram_det(a) == pytest.approx(
                float(np.prod(np.linalg.svd(a, compute_uv=False) ** 2)), rel=1e-7
            )

    def test_rank_deficient_is_zero(self):
        assert gram_det(np.array([[1, 1], [1, 1]], dtype=complex)) == 0.0
