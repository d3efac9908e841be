"""Complex LLL (CLLL) lattice reduction and basis-quality metrics.

The reducer works on the upper-triangular factor of the input basis and
maintains the unimodular transform U together with its inverse in exact
Gaussian-integer arithmetic (integer-valued complex arrays; all updates are
integer column/row operations, so no rounding ever occurs in U or U^-1).
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError, ValidationError
from .linalg import as_matrix, gram_det, qr_decompose, singular_values

# Relative slack on the reducedness inequalities so that a floating-point QR
# of an exactly reduced basis still passes.
_PRED_EPS = 1e-9

DEFAULT_DELTA = 0.75


@dataclass(frozen=True)
class ReductionParams:
    """Lovasz parameter for the swap condition; 1/2 < delta <= 1."""

    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if not (0.5 < self.delta <= 1.0):
            raise ValidationError(f"delta must be in (1/2, 1], got {self.delta}")


@dataclass(frozen=True)
class ReducedBasis:
    """A reduced lattice basis with its transform and quality metadata.

    h_tilde = original @ u, u unimodular with Gaussian-integer entries,
    u @ u_inv = I exactly, and (q, r) is the QR of h_tilde with real positive
    R diagonal.
    """

    h_tilde: np.ndarray
    u: np.ndarray
    u_inv: np.ndarray
    q: np.ndarray
    r: np.ndarray
    odf_value: float
    iteration_count: int


def round_gaussian(z):
    """Round real and imaginary parts to the nearest integers (ties to even)."""
    return np.rint(np.real(z)) + 1j * np.rint(np.imag(z))


def odf(h) -> float:
    """Orthogonality defect factor: prod of squared column norms over det(H^H H).

    Equals 1 exactly when the columns are mutually orthogonal, > 1 otherwise.
    """
    h = as_matrix(h)
    return _odf(h, gram_det(h))


def _odf(h: np.ndarray, denom: float) -> float:
    """odf(h) given denom = det(h^H h)."""
    if denom <= 0.0:
        raise SingularMatrixError("orthogonality defect undefined for singular basis")
    return float(np.prod(np.sum(np.abs(h) ** 2, axis=0)) / denom)


def _reduced_basis(h_tilde, u, u_inv, iteration_count: int) -> ReducedBasis:
    """ReducedBasis of h_tilde; one QR gives both (q, r) and the ODF denominator."""
    q, r = qr_decompose(h_tilde)
    d = np.abs(np.diagonal(r))
    return ReducedBasis(
        h_tilde=h_tilde,
        u=u,
        u_inv=u_inv,
        q=q,
        r=r,
        odf_value=_odf(h_tilde, float(np.prod(d * d))),
        iteration_count=iteration_count,
    )


def condition_number(h) -> float:
    """Ratio of the largest to the smallest singular value (>= 1)."""
    s = singular_values(h)
    if s[-1] <= 1e-14 * s[0]:
        raise SingularMatrixError("condition number undefined for singular matrix")
    return float(s[0] / s[-1])


def is_clll_reduced(r, params: ReductionParams = ReductionParams()) -> tuple[bool, bool]:
    """Check the two CLLL reducedness conditions on an upper-triangular R.

    Returns (size_reduced, lovasz_ok).  Size reduction is checked componentwise
    against half the (real, positive) diagonal; the Lovasz condition uses the
    configured delta.  Both inequalities get 1e-9 relative slack.
    """
    r = as_matrix(r)
    n = r.shape[1]
    if r.shape[0] != n:
        raise ValidationError("R must be square")
    d = np.diagonal(r)
    scale = np.max(np.abs(r)) if r.size else 0.0
    if np.any(np.abs(np.tril(r, -1)) > 1e-9 * max(scale, 1e-300)):
        raise ValidationError("R must be upper triangular")
    if np.any(d.real <= 0.0) or np.any(np.abs(d.imag) > 1e-9 * np.abs(d.real)):
        raise ValidationError("R diagonal must be real and strictly positive")
    dr = d.real

    size_reduced = True
    for k in range(1, n):
        lim = 0.5 * dr[:k] + _PRED_EPS * dr[:k]
        if np.any(np.abs(r[:k, k].real) > lim) or np.any(np.abs(r[:k, k].imag) > lim):
            size_reduced = False
            break

    lovasz_ok = True
    for k in range(1, n):
        lhs = params.delta * dr[k - 1] ** 2
        rhs = np.abs(r[k, k]) ** 2 + np.abs(r[k - 1, k]) ** 2
        if lhs > rhs + _PRED_EPS * dr[k - 1] ** 2:
            lovasz_ok = False
            break
    return size_reduced, lovasz_ok


def clll_reduce(h, params: ReductionParams = ReductionParams()) -> ReducedBasis:
    """CLLL-reduce a full-column-rank complex basis.

    Size reduction uses nearest-Gaussian-integer rounding; a failed Lovasz test
    swaps the two columns and re-triangularizes R with a 2x2 unitary rotation.
    U and U^-1 are carried along exactly.
    """
    h = as_matrix(h)
    _, r = qr_decompose(h)  # raises on rank deficiency
    n = h.shape[1]
    u = np.eye(n, dtype=np.complex128)
    uinv = np.eye(n, dtype=np.complex128)
    iters = 0

    k = 1
    while k < n:
        iters += 1
        _size_reduce_column(r, u, uinv, k)
        if params.delta * r[k - 1, k - 1].real ** 2 > (
            np.abs(r[k, k]) ** 2 + np.abs(r[k - 1, k]) ** 2
        ):
            r[:, [k - 1, k]] = r[:, [k, k - 1]]
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            uinv[[k - 1, k], :] = uinv[[k, k - 1], :]
            # Givens-style re-triangularization of the two affected rows
            a, b = r[k - 1, k - 1], r[k, k - 1]
            rad = np.hypot(np.abs(a), np.abs(b))
            g = np.array([[np.conj(a), np.conj(b)], [-b, a]]) / rad
            r[k - 1 : k + 1, k - 1 :] = g @ r[k - 1 : k + 1, k - 1 :]
            r[k - 1, k - 1] = rad
            r[k, k - 1] = 0.0
            ph = r[k, k] / np.abs(r[k, k])
            r[k, k:] *= np.conj(ph)
            r[k, k] = r[k, k].real
            k = max(k - 1, 1)
        else:
            k += 1

    return _reduced_basis(h @ u, u, uinv, iters)


def _size_reduce_column(r, u, uinv, k: int) -> None:
    """Size-reduce column k of upper-triangular r in place, mirrored on u / uinv."""
    for l in range(k - 1, -1, -1):
        mu = round_gaussian(r[l, k] / r[l, l])
        if mu != 0:
            r[: l + 1, k] -= mu * r[: l + 1, l]
            u[:, k] -= mu * u[:, l]
            uinv[l, :] += mu * uinv[k, :]


# --- exact Gaussian-integer determinant (Bareiss) ------------------------------

def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _gdiv_exact(a, b):
    """Exact division in Z[i]; the caller guarantees divisibility."""
    n = b[0] * b[0] + b[1] * b[1]
    num = _gmul(a, (b[0], -b[1]))
    qr, rr = divmod(num[0], n)
    qi, ri = divmod(num[1], n)
    if rr or ri:
        raise ArithmeticError("inexact Gaussian-integer division")
    return (qr, qi)


def _gaussian_det(mat):
    """Exact determinant of a square Gaussian-integer matrix (int pairs).

    Fraction-free Bareiss elimination; all intermediate divisions are exact.
    """
    m = [row[:] for row in mat]
    n = len(m)
    sign = 1
    prev = (1, 0)
    for k in range(n - 1):
        if m[k][k] == (0, 0):
            for i in range(k + 1, n):
                if m[i][k] != (0, 0):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return (0, 0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _gsub(_gmul(m[k][k], m[i][j]), _gmul(m[i][k], m[k][j]))
                m[i][j] = _gdiv_exact(num, prev)
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return (sign * d[0], sign * d[1])


def is_unimodular(u) -> bool:
    """True iff u is square with Gaussian-integer entries and |det(u)| = 1."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        return False
    re = np.rint(u.real)
    im = np.rint(u.imag)
    if np.max(np.abs(u.real - re)) > 1e-9 or np.max(np.abs(u.imag - im)) > 1e-9:
        return False
    mat = [
        [(int(re[i, j]), int(im[i, j])) for j in range(u.shape[1])]
        for i in range(u.shape[0])
    ]
    d = _gaussian_det(mat)
    return d[0] * d[0] + d[1] * d[1] == 1
