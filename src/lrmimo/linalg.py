"""Dense complex linear algebra primitives used throughout the package.

All routines operate on plain numpy complex arrays and are pure functions;
matrices are never modified in place.  The QR decomposition is normalized so
that the diagonal of R is real and strictly positive, which the reduction
predicates rely on.
"""

import numpy as np

from .errors import SingularMatrixError, ValidationError

# Relative threshold under which an R diagonal entry counts as numerically zero.
_RANK_TOL = 1e-12

# Bytes of the matrices whose column norms _qr forms in one pass: its complex
# temporaries stay this size, not the size of a large stack.
_NORM_BLOCK_BYTES = 1 << 16


def as_matrix(a) -> np.ndarray:
    """Validate and return a 2-D complex array (finite entries, nonempty)."""
    m = _as_stack(a)
    if m.ndim != 2:
        raise ValidationError(f"expected a nonempty 2-D array, got shape {m.shape}")
    return m


def _as_stack(a) -> np.ndarray:
    """Validate and return a (..., rows, cols) complex array of finite matrices."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-2] < 1 or m.shape[-1] < 1:
        raise ValidationError(f"expected nonempty matrices, got shape {m.shape}")
    # one pass: a complex entry is finite when both of its parts are
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")
    return m


def qr_decompose(a) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR of a full-column-rank matrix, R diagonal real and positive.

    Returns (Q, R) with Q of shape (rows, cols) having orthonormal columns and
    R upper triangular.  A (..., rows, cols) stack gives stacked factors, each
    bitwise equal to the factors of its matrix alone.  Raises
    SingularMatrixError when, in any matrix, a diagonal entry of R falls below
    1e-12 times the largest column norm of that matrix.
    """
    return _qr(a, True)


def _qr_r(a) -> np.ndarray:
    """The R of qr_decompose(a), bitwise, without forming Q."""
    return _qr(a, False)[1]


def _qr(a, with_q: bool) -> tuple:
    """qr_decompose(a), or (None, R) without with_q.

    Both modes take R from the same Householder factorization (LAPACK
    geqrf); Q is formed from its reflectors only when asked for.
    """
    a = _as_stack(a)
    rows, cols = a.shape[-2:]
    if rows < cols:
        raise ValidationError(f"need rows >= cols, got {rows}x{cols}")
    if with_q:
        q, r = np.linalg.qr(a, mode="reduced")
    else:
        # mode "r" copies the triangle out of the factored copy of a; taking
        # it in place, with the zeros np.triu writes below the diagonal,
        # gives the same bits and spares a square stack a second array
        f = np.swapaxes(np.linalg.qr(a, mode="raw")[0], -1, -2)[..., :cols, :]
        q, r = None, (f if rows == cols else f.copy())
        below = np.tril_indices(cols, -1)
        r[..., below[0], below[1]] = 0
    d = np.einsum("...ii->...i", r)  # a writable view of the diagonal
    abs_d = np.abs(d)
    scale = np.sqrt(_max_col_norm2(a))
    if ((scale == 0.0) | (abs_d.min(axis=-1) <= _RANK_TOL * scale)).any():
        raise SingularMatrixError("matrix is numerically rank deficient")
    phase = d / abs_d
    # in place: the factors of a large stack are its largest temporaries
    if with_q:
        q *= phase[..., np.newaxis, :]
    r *= np.conj(phase)[..., :, np.newaxis]
    # kill the O(eps) imaginary residue so the diagonal is exactly real
    d.imag = 0.0
    return q, r


def _max_col_norm2(a: np.ndarray) -> np.ndarray:
    """The largest squared column norm of each matrix of a stack, by
    np.linalg.norm's own arithmetic without its wrapper: 0 for a matrix
    whose squares underflow, inf where they overflow.  A stack is taken in
    blocks along its first axis, each with the arithmetic of the whole, so
    the temporaries stay small and every matrix gets the same bits; an
    empty stack is one block."""
    blocks = [a]
    if a.ndim > 2 and a.size:
        step = max(1, _NORM_BLOCK_BYTES // a[0].nbytes)
        blocks = [a[i : i + step] for i in range(0, len(a), step)]
    parts = [np.add.reduce((b.conj() * b).real, axis=-2).max(axis=-1) for b in blocks]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _real_embedding(a: np.ndarray) -> np.ndarray:
    """The interleaved (2n, 2n) real matrix of a square complex matrix:
    entry a_jk becomes the block [[Re, -Im], [Im, Re]] at rows and columns
    2j, 2k, so coordinate 2k holds the real part of Gaussian coefficient k
    and 2k+1 its imaginary part.  Its determinant is |det a|^2, and it is
    upper triangular when a is, with a real diagonal."""
    n = a.shape[1]
    b = np.zeros((2 * n, 2 * n))
    b[0::2, 0::2] = a.real
    b[0::2, 1::2] = -a.imag
    b[1::2, 0::2] = a.imag
    b[1::2, 1::2] = a.real
    return b


def pseudoinverse(a) -> np.ndarray:
    """Left pseudoinverse (A^H A)^-1 A^H of a full-column-rank matrix."""
    return _pinv_from_qr(*qr_decompose(a))


def _pinv_from_qr(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Pseudoinverse of the matrix whose QR factors are (q, r), or of each
    matrix of a stack."""
    return np.linalg.solve(r, np.swapaxes(q.conj(), -1, -2))


def gram_det(a) -> float:
    """det(A^H A) computed as the product of squared R diagonal entries.

    Always real and nonnegative; returns 0.0 for rank-deficient input.
    """
    a = as_matrix(a)
    if a.shape[0] < a.shape[1]:
        raise ValidationError("need rows >= cols for a Gram determinant")
    try:
        r = _qr_r(a)
    except SingularMatrixError:
        return 0.0
    d = np.abs(np.diagonal(r))
    return float(np.prod(d * d))
