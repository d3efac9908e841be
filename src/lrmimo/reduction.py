"""Complex LLL (CLLL) lattice reduction and basis-quality metrics.

The reducer works on the upper-triangular factor of the input basis and
carries the unimodular transform U in exact Gaussian-integer arithmetic
(integer-valued complex arrays; all updates are integer column operations,
so no rounding ever occurs in U).  U^-1 is formed where it is read, and
checked exactly against U.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, SingularMatrixError, ValidationError
from .linalg import _qr_r, _real_embedding, as_matrix, qr_decompose

# Relative slack on the reducedness inequalities so that a floating-point QR
# of an exactly reduced basis still passes.
_PRED_EPS = 1e-9

DEFAULT_DELTA = 0.75

# CLLL iterations (loop steps) a basis may take before clll_reduce_batch
# raises BudgetExceededError.  The most any basis of the tests, the A/B
# corpus or the benchmark takes is 307, and 8-column bases scrambled by 60
# random column shears took up to 623.
MAX_ITERATIONS = 10_000

# Bytes of the input bases each QR of clll_reduce_batch takes: the call's
# state is its packed R and U, and its temporaries stay about the size of
# one such block of input, not of the stack.  The 704 plain 6x6 bases of a
# klr-zf chunk take two blocks, a klr-mmse chunk's 792 extended 12x6 ones
# four.
_QR_BLOCK_BYTES = 1 << 18

# Refinement steps _inverse may take to confirm U^-1; a rounded float
# inverse of a U with parts near 2e7 needs one.
_INVERSE_STEPS = 4


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
    Raises SingularMatrixError for a numerically rank-deficient h.
    """
    h = as_matrix(h)
    return float(_odf(h, np.abs(np.diagonal(_qr_r(h)))))


def _odf(h: np.ndarray, d):
    """odf of h, or of each matrix of a stack, given d = |diag R| of its QR.

    Each matrix and its d are first scaled by 2^-e, e the exponent of the
    largest magnitude of its entries: exactly, and without changing the
    ODF, so that neither product leaves float range at any scale of h.
    """
    sq = np.abs(h)
    scale = np.ldexp(1.0, -np.frexp(sq.max(axis=(-2, -1)))[1])[..., np.newaxis]
    d = d * scale
    denom = np.prod(d * d, axis=-1)
    if np.any(denom <= 0.0):
        raise SingularMatrixError("orthogonality defect undefined for singular basis")
    sq *= scale[..., np.newaxis]
    sq *= sq  # the bits of (np.abs(h) * scale) ** 2, in one temporary
    return np.prod(np.sum(sq, axis=-2), axis=-1) / denom


@dataclass(frozen=True)
class ReducedStack:
    """The reduced bases of one stack, as stacked arrays.

    h_tilde and q are (B, rows, n), u, u_inv and r are (B, n, n), odf and
    iterations are (B,); member i satisfies everything ReducedBasis states.
    clll_reduce_batch gives u and r as views of its packed state and keeps
    the input stack, from which h_tilde = input @ u is formed on first
    access (_reduced_stack gives h_tilde itself); q is factored on first access,
    bitwise the Q of the QR whose R is r, and u_inv is formed on first
    access (_inverse) where it was not given.  A slice or an index array
    gives a ReducedStack (of copies, for an index array, as numpy indexing
    makes them) that keeps its part of an h_tilde, q or u_inv already
    formed, or of the input where h_tilde is not, so a stack of which only
    a part is kept forms them for that part alone; it is built from the
    parts of the stack's arrays alone, without __init__.  An int index
    gives the ReducedBasis of one member, of views of the stack's arrays,
    h_tilde, q and u_inv included.  Iteration yields the members in order.
    """

    u: np.ndarray
    r: np.ndarray
    odf: np.ndarray
    iterations: np.ndarray

    @cached_property
    def h_tilde(self) -> np.ndarray:
        # the input stack is held only until h_tilde replaces it
        return vars(self).pop("_input") @ self.u

    @cached_property
    def q(self) -> np.ndarray:
        return qr_decompose(self.h_tilde)[0]

    @cached_property
    def u_inv(self) -> np.ndarray:
        return _inverse(self.u)

    def __len__(self) -> int:
        return len(self.odf)

    def __getitem__(self, i):
        if isinstance(i, (slice, np.ndarray)):
            # every array held, the cached properties once formed included
            part = object.__new__(ReducedStack)
            vars(part).update({name: a[i] for name, a in vars(self).items()})
            return part
        return ReducedBasis(
            self.h_tilde[i], self.u[i], self.u_inv[i], self.r[i],
            float(self.odf[i]), int(self.iterations[i]), self.q[i],
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _reduced_stack(h_tilde, u, u_inv, iterations, with_q=False) -> ReducedStack:
    """ReducedStack of a stack h_tilde = original @ u, with the given
    u_inv, or with u_inv formed when read where it is None.

    One batched QR gives r and the ODF denominators; it forms q too with
    with_q, else q waits until it is read.
    """
    q, r = qr_decompose(h_tilde) if with_q else (None, _qr_r(h_tilde))
    odfs = _odf(h_tilde, np.abs(np.diagonal(r, axis1=-2, axis2=-1)))
    stack = ReducedStack(u, r, odfs, np.asarray(iterations))
    for name, a in (("h_tilde", h_tilde), ("q", q), ("u_inv", u_inv)):
        if a is not None:
            vars(stack)[name] = a
    return stack


def _inverse(u: np.ndarray) -> np.ndarray:
    """The exact inverse of each Gaussian-integer matrix of a (B, n, n)
    stack u, whose parts stay below 2^53.

    The rounded float inverse is refined with the exact int64 residual
    I - U X until it vanishes, so U X = I holds in integers; + 0.0 leaves
    no -0 part.  Raises SingularMatrixError, naming the first such matrix,
    where X cannot be confirmed: a float inverse that fails, a part of U or
    X at or above 2^53, a product U X that could leave int64, or a residual
    left after _INVERSE_STEPS refinements, as for a U that is not
    unimodular.
    """
    n = u.shape[-1]
    eye = np.eye(n, dtype=np.int64)
    try:
        y = np.linalg.inv(u)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("U^-1 cannot be formed: U is singular") from None
    big_u = _largest_part(u)
    x = _rounded(y.copy())
    for step in range(_INVERSE_STEPS + 1):
        big_x = _largest_part(x)
        # float64 holds every part exactly, and int64 every product U X and its sums
        ok = (np.maximum(big_u, big_x) < 2.0**53) & (2.0 * n * big_u * big_x < 2.0**62)
        if not ok.all():
            break
        a, b, c, d = (p.astype(np.int64) for p in (u.real, u.imag, x.real, x.imag))
        res_re, res_im = eye - (a @ c - b @ d), -(a @ d + b @ c)
        ok = ~(res_re.any(axis=(-2, -1)) | res_im.any(axis=(-2, -1)))
        if ok.all():
            return x + 0.0
        if step < _INVERSE_STEPS:
            x += _rounded(y @ np.asarray(res_re + 1j * res_im, dtype=np.complex128))
    i = int(np.argmin(ok))
    raise SingularMatrixError(
        f"U^-1 of basis {i} cannot be confirmed exactly: U is not unimodular "
        f"or its parts are too large (largest {big_u[i]:.3g})"
    )


def _largest_part(a: np.ndarray) -> np.ndarray:
    """The largest magnitude of a real or imaginary part of each matrix of
    a complex (B, n, n) stack, (B,)."""
    return np.abs(a.view(np.float64)).max(axis=(-2, -1))


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
    that meets both CLLL conditions (_reduced_flags) and a U whose parts
    stay below 2^53 in magnitude, where float64 holds every integer
    exactly.  U^-1 is not checked here: a U^-1 that cannot be confirmed
    raises where it is read (_inverse).  The message gives the largest part
    of the failing basis's U.  A basis that only just clears the rank
    tolerance can fail: the final QR of H U then drifts from the R the
    loop reduced."""
    for s, stack in enumerate(stacks):
        size_reduced, lovasz_ok = _reduced_flags(stack.r, delta)
        big = _largest_part(stack.u)
        bad = np.flatnonzero(~(size_reduced & lovasz_ok & (big < 2.0**53)))
        if bad.size:
            i = bad[0]
            raise SingularMatrixError(
                f"basis {i} of stack {s}: CLLL output not reduced (size-reduced "
                f"{size_reduced[i]}, Lovasz {lovasz_ok[i]}, largest part of U "
                f"{big[i]:.3g}); the basis is too close to rank deficient"
            )


def clll_reduce(h, params: ReductionParams = ReductionParams()) -> ReducedBasis:
    """CLLL-reduce a full-column-rank complex basis (clll_reduce_batch of one).

    Size reduction uses nearest-Gaussian-integer rounding; a failed Lovasz test
    swaps the two columns and re-triangularizes R with a 2x2 unitary rotation.
    U is carried along exactly, and U^-1 formed from it exactly.
    """
    return clll_reduce_batch([as_matrix(h)[np.newaxis]], params)[0][0]


def clll_reduce_batch(stacks, params: ReductionParams = ReductionParams()) -> list:
    """CLLL-reduce every basis of a list of (batch, rows, n) stacks in one loop.

    The stacks share the column count n; their row counts may differ (say the
    plain and the extended channel).  The R factors of all bases are reduced
    together as a masked state machine over the packed columns of R and U:
    each basis keeps its own column index k, and each step of the
    sequential algorithm (size reduction of column k against column k-1,
    the Lovasz test, a swap with its Givens rotation) is a few vectorized
    operations over the bases still running.  A basis leaves that set for
    good once k reaches n, and its iteration count is the step at which it
    leaves.  The Lovasz test reads only r_{k-1,k-1}, r_{k-1,k} and r_kk,
    which size reduction against columns l < k-1 leaves unchanged, so that
    reduction is deferred to one full pass over every basis after the loop
    (effective CLLL; Ling and Howgrave-Graham, ISIT 2007); none of it reads
    U^-1, which each ReducedStack forms when read.  Every basis gets
    bitwise the result it gets alone.  Both QRs, of the input and of the
    reduced bases, form R only, a block of bases at a time (_blocks), and
    write it into the state, which is allocated once and ends holding the
    rows of the output R and U.  Returns one ReducedStack per input stack,
    in stack order (an empty one for an empty stack): its r and u are views
    of the state, and it keeps its input stack, from which h_tilde is
    formed when read, as Q is factored.  Raises SingularMatrixError if any basis is numerically rank
    deficient, or if the output of any basis fails the CLLL conditions or
    exact U (_check_reduced); BudgetExceededError, naming the basis, if one
    needs more than MAX_ITERATIONS iterations.
    """
    hs = [np.asarray(h, dtype=np.complex128) for h in stacks]
    if not hs or any(h.ndim != 3 or h.shape[2] != hs[0].shape[2] for h in hs):
        raise ValidationError("expected (batch, rows, n) stacks sharing n")
    n = hs[0].shape[2]
    b = sum(map(len, hs))
    # the packed state of every basis (_columns): R of its QR, then U = I
    cols = np.empty((b, n, 2 * n), dtype=np.complex128)
    cols[:, :, n:] = np.eye(n)
    for part, h in _blocks(hs):
        _qr_r(h, out=np.swapaxes(cols[part, :, :n], -1, -2))  # raises on rank deficiency
    iters = np.zeros(b, dtype=np.int64)
    # the running bases and their k, in basis order: every basis starts at
    # k = 1 and leaves once k = n
    act = np.arange(b if n > 1 else 0)
    k = np.ones(act.size, dtype=np.intp)
    step = 0
    while act.size:
        if step == MAX_ITERATIONS:
            raise BudgetExceededError(
                f"{_named(hs, act[0])}: CLLL needs more than "
                f"{MAX_ITERATIONS} iterations"
            )
        step += 1
        km = k - 1
        ck, cl = _size_reduce(cols, act, k, km)
        m = np.arange(act.size)
        swap = params.delta * cl[m, km].real ** 2 > (
            np.abs(ck[m, k]) ** 2 + np.abs(ck[m, km]) ** 2
        )
        del ck, cl  # the next step's columns take their place
        if swap.any():
            _swap(cols, act[swap], k[swap])  # its temporaries go before the next step
        k = np.where(swap, np.maximum(km, 1), k + 1)
        done = k == n
        if done.any():
            iters[act[done]] = step
            running = ~done
            act, k = act[running], k[running]
    _size_reduce_all(cols)
    # a block at a time, the state takes the rows of each U, then those of
    # the R of the final QR of H U in place of the loop's R; ReducedStack.r
    # and .u are views of its two halves
    odfs = np.empty(b)
    for part, h in _blocks(hs):
        r, u = cols[part, :, :n], cols[part, :, n:]
        u[...] = np.swapaxes(u, -1, -2)  # numpy copies the overlapping source
        h_tilde = h @ u
        _qr_r(h_tilde, out=r)
        odfs[part] = _odf(h_tilde, np.abs(np.diagonal(r, axis1=-2, axis2=-1)))
        del h_tilde  # before the next block's is formed

    out, start = [], 0
    for h in hs:
        part = slice(start, start + len(h))
        stack = ReducedStack(cols[part, :, n:], cols[part, :, :n], odfs[part], iters[part])
        vars(stack)["_input"] = h
        out.append(stack)
        start = part.stop
    _check_reduced(out, params.delta)
    return out


def _blocks(hs):
    """(part, block) of each block of bases of the stacks hs, in order:
    part, a slice of the concatenated bases, and block, its bases in their
    stack.  A block holds _QR_BLOCK_BYTES of its stack or one basis; an
    empty stack is one empty block."""
    start = 0
    for h in hs:
        step = max(1, _QR_BLOCK_BYTES // (h.itemsize * max(1, h.shape[1] * h.shape[2])))
        for i in range(0, max(1, len(h)), step):
            block = h[i : i + step]
            yield slice(start + i, start + i + len(block)), block
        start += len(h)


def _named(hs, i) -> str:
    """'basis j of stack s' for basis i of the concatenated stacks hs."""
    for s, h in enumerate(hs):
        if i < len(h):
            return f"basis {i} of stack {s}"
        i -= len(h)
    raise IndexError(i)


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


def _columns(r, u) -> np.ndarray:
    """Pack stacks of R and U (each (batch, n, n)) for _size_reduce,
    _size_reduce_all and _swap.

    Entry [i, j] is column j of R, then column j of U, of basis i, so one
    indexed operation moves them both.
    """
    return np.concatenate([r.transpose(0, 2, 1), u.transpose(0, 2, 1)], axis=2)


def _split_columns(cols):
    """Inverse of _columns: views (r, u) of cols, of which the caller
    copies what it keeps."""
    n = cols.shape[1]
    return cols[:, :, :n].transpose(0, 2, 1), cols[:, :, n:].transpose(0, 2, 1)


def _size_reduce(cols, idx, k, l) -> tuple:
    """Size-reduce column k[i] of basis idx[i] against its column l[i] < k[i].

    cols, packed by _columns of R and U, is updated in place: R and U
    columns k lose mu times columns l, mu the nearest Gaussian integer to
    r_lk / r_ll.  Whole columns are updated: column l of R is zero below
    row l, so every nonzero entry changes exactly as in an update of rows
    0..l.  Returns the gathered packed columns (k, after the update, and
    l).

    mu is rounded by _rounded, and the sign of a zero part of mu changes no
    output bit: U starts as I with +0 entries and changes only by x - p,
    which gives -0 only from a -0 operand; the signed zeros of the loop's R
    decide no comparison and no nonzero value; and the output R comes from
    the final QR.
    """
    m = np.arange(idx.size)
    ck, cl = cols[idx, k], cols[idx, l]
    mu = _rounded(ck[m, l] / cl[m, l])
    ck -= mu[:, np.newaxis] * cl
    cols[idx, k] = ck
    return ck, cl


def _size_reduce_all(cols) -> None:
    """Full size reduction of every basis of packed cols, in place: column
    k = 1 .. n-1 against columns k-1 .. 0, in that order, each step the
    update of _size_reduce made on views of the columns."""
    n = cols.shape[1]
    for k in range(1, n):
        ck = cols[:, k]
        for l in range(k - 1, -1, -1):
            cl = cols[:, l]
            ck -= _rounded(ck[:, l] / cl[:, l])[:, np.newaxis] * cl


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
