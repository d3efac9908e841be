"""Complex LLL (CLLL) lattice reduction and basis-quality metrics.

The reducer works on the upper-triangular factor of the input basis and
maintains the unimodular transform U together with its inverse in exact
Gaussian-integer arithmetic (integer-valued complex arrays; all updates are
integer column/row operations, so no rounding ever occurs in U or U^-1).
"""

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import SingularMatrixError, ValidationError
from .linalg import _qr_r, _real_embedding, as_matrix, gram_det, qr_decompose

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
    R diagonal.  Its arrays are views of those of its ReducedStack.
    """

    h_tilde: np.ndarray
    u: np.ndarray
    u_inv: np.ndarray
    r: np.ndarray
    odf_value: float
    iteration_count: int
    q: np.ndarray


def _rounded(z: np.ndarray) -> np.ndarray:
    """z, a complex array, rounded in place on its float view, each part to
    the nearest integer (ties to even), and returned: no temporary is
    formed.  np.rint of each part gives the same values; only the sign of a
    zero part can differ."""
    flat = z.view(np.float64)
    np.rint(flat, out=flat)
    return z


def odf(h) -> float:
    """Orthogonality defect factor: prod of squared column norms over det(H^H H).

    Equals 1 exactly when the columns are mutually orthogonal, > 1 otherwise.
    """
    h = as_matrix(h)
    return float(_odf(h, gram_det(h)))


def _odf(h: np.ndarray, denom):
    """odf of h, or of each matrix of a stack, given denom = det(h^H h)."""
    if np.any(denom <= 0.0):
        raise SingularMatrixError("orthogonality defect undefined for singular basis")
    sq = np.abs(h)
    sq *= sq  # the bits of np.abs(h) ** 2, in one temporary
    return np.prod(np.sum(sq, axis=-2), axis=-1) / denom


@dataclass(frozen=True)
class ReducedStack:
    """The reduced bases of one stack, as stacked arrays.

    h_tilde and q are (B, rows, n), u, u_inv and r are (B, n, n), odf and
    iterations are (B,); member i satisfies everything ReducedBasis states.
    q is factored on first access, bitwise the Q of the QR whose R is r.
    A slice or an index array gives a ReducedStack (of copies, for an index
    array, as numpy indexing makes them) that keeps its part of a q already
    factored, so a stack of which only a part is kept factors Q for that
    part alone.  An int index gives the ReducedBasis of one member, of views
    of the stack's arrays, q included.  Iteration yields the members in order.
    """

    h_tilde: np.ndarray
    u: np.ndarray
    u_inv: np.ndarray
    r: np.ndarray
    odf: np.ndarray
    iterations: np.ndarray

    @cached_property
    def q(self) -> np.ndarray:
        return qr_decompose(self.h_tilde)[0]

    def __len__(self) -> int:
        return len(self.odf)

    def __getitem__(self, i):
        if isinstance(i, (slice, np.ndarray)):
            part = ReducedStack(*(getattr(self, f.name)[i] for f in fields(self)))
            if "q" in vars(self):  # the cached property, once factored
                vars(part)["q"] = self.q[i]
            return part
        return ReducedBasis(
            self.h_tilde[i], self.u[i], self.u_inv[i], self.r[i],
            float(self.odf[i]), int(self.iterations[i]), self.q[i],
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _reduced_stack(h_tilde, u, u_inv, iterations, with_q=False) -> ReducedStack:
    """ReducedStack of a stack h_tilde = original @ u.

    One batched QR gives r and the ODF denominators; it forms q too with
    with_q, else q waits until it is read.
    """
    q, r = qr_decompose(h_tilde) if with_q else (None, _qr_r(h_tilde))
    d = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    odfs = _odf(h_tilde, np.prod(d * d, axis=-1))
    stack = ReducedStack(h_tilde, u, u_inv, r, odfs, np.asarray(iterations))
    if with_q:
        vars(stack)["q"] = q
    return stack


def is_clll_reduced(r, params: ReductionParams = ReductionParams()) -> tuple[bool, bool]:
    """Check the two CLLL reducedness conditions on an upper-triangular R.

    Returns (size_reduced, lovasz_ok).  Size reduction is checked componentwise
    against half the (real, positive) diagonal; the Lovasz condition uses the
    configured delta.  Both inequalities get 1e-9 relative slack.  Raises
    ValidationError unless R is one (_checked_r).
    """
    size_reduced, lovasz_ok = _reduced_flags(_checked_r(r)[np.newaxis], params.delta)
    return bool(size_reduced[0]), bool(lovasz_ok[0])


def _checked_r(r) -> np.ndarray:
    """r as a complex matrix, once it is checked to be an R factor: square,
    upper triangular and with a real, strictly positive diagonal (each with
    1e-9 relative slack); raises ValidationError otherwise."""
    r = as_matrix(r)
    if r.shape[0] != r.shape[1]:
        raise ValidationError("R must be square")
    d = np.diagonal(r)
    if np.any(np.abs(np.tril(r, -1)) > 1e-9 * max(np.max(np.abs(r)), 1e-300)):
        raise ValidationError("R must be upper triangular")
    if np.any(d.real <= 0.0) or np.any(np.abs(d.imag) > 1e-9 * np.abs(d.real)):
        raise ValidationError("R diagonal must be real and strictly positive")
    return r


def _reduced_flags(r: np.ndarray, delta: float) -> tuple:
    """(size_reduced, lovasz_ok) of each R of a (B, n, n) stack, each (B,)
    bool: every entry above the diagonal within half the diagonal entry of
    its row, real and imaginary parts apart, and
    delta r_{k-1,k-1}^2 <= |r_kk|^2 + |r_{k-1,k}|^2 for k = 1..n-1, both
    with _PRED_EPS relative slack.  The real part of the diagonal is read."""
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    dr = diag.real
    lim = (0.5 * dr + _PRED_EPS * dr)[..., :, np.newaxis]
    over = (np.abs(r.real) > lim) | (np.abs(r.imag) > lim)
    upper = ~np.tri(r.shape[-1], dtype=bool)
    size_reduced = ~np.any(over & upper, axis=(-2, -1))
    d2 = dr[..., :-1] ** 2
    rhs = np.abs(diag[..., 1:]) ** 2 + np.abs(np.diagonal(r, 1, -2, -1)) ** 2
    lovasz_ok = ~np.any(delta * d2 > rhs + _PRED_EPS * d2, axis=-1)
    return size_reduced, lovasz_ok


def _check_reduced(stacks, delta: float) -> None:
    """Raise SingularMatrixError, naming the first failing basis, unless
    every basis of the ReducedStacks clll_reduce_batch returns has an R
    that meets both CLLL conditions (_reduced_flags) and a U and U^-1
    whose parts stay below 2^53 in magnitude, where float64 holds every
    integer exactly.  A basis that only just clears the rank tolerance
    can fail: the final QR of H U then drifts from the R the loop
    reduced."""
    for s, stack in enumerate(stacks):
        size_reduced, lovasz_ok = _reduced_flags(stack.r, delta)
        big = np.maximum(
            np.abs(stack.u.view(np.float64)).max(axis=(-2, -1)),
            np.abs(stack.u_inv.view(np.float64)).max(axis=(-2, -1)),
        )
        bad = np.flatnonzero(~(size_reduced & lovasz_ok & (big < 2.0**53)))
        if bad.size:
            i = bad[0]
            raise SingularMatrixError(
                f"basis {i} of stack {s}: CLLL output not reduced (size-reduced "
                f"{size_reduced[i]}, Lovasz {lovasz_ok[i]}, largest part of U "
                f"and U^-1 {big[i]:.3g}); the basis is too close to rank deficient"
            )


def clll_reduce(h, params: ReductionParams = ReductionParams()) -> ReducedBasis:
    """CLLL-reduce a full-column-rank complex basis (clll_reduce_batch of one).

    Size reduction uses nearest-Gaussian-integer rounding; a failed Lovasz test
    swaps the two columns and re-triangularizes R with a 2x2 unitary rotation.
    U and U^-1 are carried along exactly.
    """
    return clll_reduce_batch([as_matrix(h)[np.newaxis]], params)[0][0]


def clll_reduce_batch(stacks, params: ReductionParams = ReductionParams()) -> list:
    """CLLL-reduce every basis of a list of (batch, rows, n) stacks in one loop.

    The stacks share the column count n; their row counts may differ (say the
    plain and the extended channel).  The R factors of all bases are reduced
    together as a masked state machine: each basis keeps its own column index
    k and iteration count, and each step of the sequential algorithm (size
    reduction of column k against column k-1, the Lovasz test, a swap with
    its Givens rotation) is a few vectorized operations over the bases still
    running.  The Lovasz test reads only r_{k-1,k-1}, r_{k-1,k} and r_kk,
    which size reduction against columns l < k-1 leaves unchanged, so that
    reduction is deferred to one full pass over every basis after the loop
    (effective CLLL; Ling and Howgrave-Graham, ISIT 2007).  Every basis gets
    bitwise the result it gets alone.  Both QRs, of the input and of the
    reduced bases, form R only.  Returns one ReducedStack per input stack,
    in stack order, whose Q is factored when read.  Raises
    SingularMatrixError if any basis is numerically rank deficient, or if
    the output of any basis fails the CLLL conditions or exact U and U^-1
    (_check_reduced).
    """
    hs = [np.asarray(h, dtype=np.complex128) for h in stacks]
    if not hs or any(h.ndim != 3 or h.shape[2] != hs[0].shape[2] for h in hs):
        raise ValidationError("expected (batch, rows, n) stacks sharing n")
    n = hs[0].shape[2]
    r = np.concatenate([_qr_r(h) for h in hs])  # raises on rank deficiency
    b = r.shape[0]
    eye = np.broadcast_to(np.eye(n, dtype=np.complex128), (b, n, n))
    cols = _columns(r, eye, eye)
    del r  # cols carries R from here on
    k = np.ones(b, dtype=np.intp)
    iters = np.zeros(b, dtype=np.int64)

    act = np.flatnonzero(k < n)
    while act.size:
        iters[act] += 1
        kc = k[act]
        km = kc - 1
        ck = _size_reduce(cols, act, kc, km)
        m = np.arange(act.size)
        swap = params.delta * cols[act, km, km].real ** 2 > (
            np.abs(ck[m, kc]) ** 2 + np.abs(ck[m, km]) ** 2
        )
        del ck  # the next step's columns take its place
        sw, k1 = act[swap], kc[swap]
        if sw.size:
            _swap(cols, sw, k1)  # its temporaries go before the next step
            k[sw] = np.maximum(k1 - 1, 1)
        k[act[~swap]] += 1
        act = np.flatnonzero(k < n)
    _size_reduce_all(cols)
    # R comes from the final QR below
    u, u_inv = (np.ascontiguousarray(a) for a in _split_columns(cols)[1:])
    del cols

    out, start = [], 0
    for h in hs:
        part = slice(start, start + h.shape[0])
        out.append(_reduced_stack(h @ u[part], u[part], u_inv[part], iters[part]))
        start = part.stop
    _check_reduced(out, params.delta)
    return out


def _swap(cols, sw, k1) -> None:
    """Swap columns k1[i] - 1 and k1[i] of basis sw[i] of packed cols, in
    place, and re-triangularize rows k1[i] - 1 and k1[i] of its R with a
    Givens-style rotation, written out elementwise over whole rows (zero
    left of column k1[i] - 1)."""
    k0 = k1 - 1
    cols[sw, k0], cols[sw, k1] = cols[sw, k1], cols[sw, k0]
    ms = np.arange(sw.size)
    row0, row1 = cols[sw, :, k0], cols[sw, :, k1]
    a, c = row0[ms, k0], row1[ms, k0]
    rad = np.hypot(np.abs(a), np.abs(c))
    g00, g01 = np.conj(a) / rad, np.conj(c) / rad
    g10, g11 = -c / rad, a / rad
    new0 = g00[:, np.newaxis] * row0 + g01[:, np.newaxis] * row1
    new1 = g10[:, np.newaxis] * row0 + g11[:, np.newaxis] * row1
    new0[ms, k0] = rad
    new1[ms, k0] = 0.0
    ph = new1[ms, k1] / np.abs(new1[ms, k1])
    new1 *= np.conj(ph)[:, np.newaxis]
    new1[ms, k1] = new1[ms, k1].real
    cols[sw, :, k0], cols[sw, :, k1] = new0, new1


def _columns(r, u, u_inv) -> np.ndarray:
    """Pack stacks of R, U and U^-1 (each (batch, n, n)) for _size_reduce.

    Entry [i, j] is column j of R, then column j of U, then row j of U^-1 of
    basis i, so one indexed operation moves all three.
    """
    return np.concatenate(
        [r.transpose(0, 2, 1), u.transpose(0, 2, 1), u_inv], axis=2
    )


def _split_columns(cols):
    """Inverse of _columns: views (r, u, u_inv) of cols, of which the
    caller copies what it keeps."""
    n = cols.shape[1]
    r, u, u_inv = (cols[:, :, j * n : (j + 1) * n] for j in range(3))
    return r.transpose(0, 2, 1), u.transpose(0, 2, 1), u_inv


def _size_reduce(cols, idx, k, l) -> np.ndarray:
    """Size-reduce column k[i] of basis idx[i] against its column l[i] < k[i].

    cols is packed by _columns and is updated in place: R and U columns k
    lose mu times columns l and U^-1 rows l gain mu times rows k, mu the
    nearest Gaussian integer to r_lk / r_ll.  Whole columns are updated:
    column l of R is zero below row l, so every nonzero entry changes
    exactly as in an update of rows 0..l.  Returns the new packed columns k.

    mu is rounded by _rounded, and the sign of a zero part of mu changes no
    output bit: U and U^-1 start as I with +0 entries and change only by
    x - p and x + p, which give -0 only from a -0 operand; the signed zeros
    of the loop's R decide no comparison and no nonzero value; and the
    output R comes from the final QR.
    """
    n = cols.shape[1]
    ru, ui = slice(0, 2 * n), slice(2 * n, 3 * n)
    m = np.arange(idx.size)
    ck, cl = cols[idx, k], cols[idx, l]
    mu = _rounded(ck[m, l] / cl[m, l])
    ck[:, ru] -= mu[:, np.newaxis] * cl[:, ru]
    cols[idx, l, ui] = cl[:, ui] + mu[:, np.newaxis] * ck[:, ui]
    cols[idx, k] = ck
    return ck


def _size_reduce_all(cols) -> None:
    """Full size reduction of every basis of packed cols, in place: column
    k = 1 .. n-1 against columns k-1 .. 0, in that order, each step the
    update of _size_reduce made on views of the columns."""
    n = cols.shape[1]
    ru, ui = slice(0, 2 * n), slice(2 * n, 3 * n)
    for k in range(1, n):
        ck = cols[:, k]
        for l in range(k - 1, -1, -1):
            cl = cols[:, l]
            mu = _rounded(ck[:, l] / cl[:, l])[:, np.newaxis]
            ck[:, ru] -= mu * cl[:, ru]
            cl[:, ui] += mu * ck[:, ui]


def is_unimodular(u) -> bool:
    """True iff u is square with Gaussian-integer entries (each part within
    1e-9 of an integer) and |det(u)| = 1, that is when the exact determinant
    of its real embedding, |det(u)|^2, is 1."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        return False
    b = _real_embedding(u)
    ints = np.rint(b)
    if np.max(np.abs(b - ints)) > 1e-9:
        return False
    return _bareiss_det(np.frompyfunc(int, 1, 1)(ints)) == 1


def _bareiss_det(m: np.ndarray) -> int:
    """Exact determinant of a square object array of Python ints by
    fraction-free Bareiss elimination, whose every division is exact; a
    zero pivot swaps in a lower row."""
    m, sign, prev = m.copy(), 1, 1
    for k in range(len(m) - 1):
        if m[k, k] == 0:
            below = np.flatnonzero(m[k + 1 :, k])
            if not below.size:
                return 0
            i = k + 1 + below[0]
            m[[k, i]] = m[[i, k]]
            sign = -sign
        rest = m[k + 1 :, k + 1 :]
        rest[...] = (m[k, k] * rest - np.outer(m[k + 1 :, k], m[k, k + 1 :])) // prev
        prev = m[k, k]
    return sign * m[-1, -1]
