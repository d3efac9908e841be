"""LR-aided and ML MIMO detectors.

The LR-aided detectors share one tail on Gaussian integers: estimate the
reduced-domain symbols, round them to the integer vector m of the shifted,
scaled lattice a (Z[i]^n + d), and map m back through the composed unimodular
transform T.  Since T d = (1+j)/2 per entry, the estimate a (T m + (1+j)/2)
lies half a level from every decision boundary, so the I and Q parts of the
integer image T m, shifted by side/2 and clipped to the grid, are its slice
indices, and the estimate itself is never sliced.  SIC performs the integer
rounding inside a QR back-substitution on a pre-shifted received signal so
that noise-free detection is exact.  ML decides points of the same lattice
(T = I), so the sweep slices their integer images the same way.  lr_detect,
ml_detect and sic_detect take a received vector, block or stack of blocks
and check it once.
"""

import numpy as np

from .errors import BudgetExceededError, SingularMatrixError, ValidationError
from .linalg import as_matrix, qr_decompose
from .modem import ConstellationSpec
from .reduction import _rounded
from .switched import KlrResult, KlrStack

DETECTOR_KINDS = ("zf", "mmse", "sic-zf", "sic-mmse")
ML_DEFAULT_CAP = 1_000_000

# Costs (candidates x columns) that _ml_search forms at once, whatever M^n_t
# and the packet length: 2 MiB of complex products.  Its blocks are multiples
# of 8 wide, and OpenBLAS forms those products with the bits of one whole one.
_ML_BLOCK_ENTRIES = 1 << 17


def _received(y, rows: int) -> np.ndarray:
    """y, a vector (rows,), a block (rows, batch) or a stack of blocks
    (S, rows, batch), as an (S, rows, batch) stack of views.  The one input
    check of the public detectors: raises ValidationError unless y is
    nonempty, finite and has rows received rows."""
    y = np.asarray(y, dtype=np.complex128)
    if not 1 <= y.ndim <= 3 or 0 in y.shape:
        raise ValidationError(
            f"expected a nonempty vector, block or stack of blocks, got shape {y.shape}"
        )
    got = y.shape[1 if y.ndim == 3 else 0]
    if got != rows:
        raise ValidationError(f"{got} received rows for a channel of {rows}")
    if not np.isfinite(y).all():
        raise ValidationError("received entries must be finite")
    return y.reshape(1, rows, 1) if y.ndim == 1 else y.reshape(-1, rows, y.shape[-1])


def _like(x: np.ndarray, y) -> np.ndarray:
    """x, the (S, rows, batch) results of _received(y), in the shape of y."""
    return x[0, :, 0] if np.ndim(y) == 1 else x[0] if np.ndim(y) == 2 else x


def sic_detect(h_tilde, y) -> np.ndarray:
    """Successive interference cancellation via QR back-substitution.

    y is a vector, a block or a stack of blocks (see lr_detect).  Returns
    the Gaussian-integer layer decisions (pre-quantizer) in y's shape: the
    top layer is rounded first, its contribution is subtracted, and so on
    downwards.
    """
    h_tilde = as_matrix(h_tilde)
    return _like(_sic(*qr_decompose(h_tilde), _received(y, h_tilde.shape[0])), y)


def _sic(
    q: np.ndarray, r: np.ndarray, y: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """SIC of every column of y, given the QR factors (q, r) of the channel.

    q and r may carry a leading stack axis, and y (..., rows, batch) any
    leading axes that broadcast against them.  The decisions overwrite
    Q^H y, written to out if given, row by row, each row read once before
    it is overwritten.  Each is rounded in place on the float view (ties
    to even, _rounded).
    """
    z = np.matmul(np.swapaxes(q.conj(), -1, -2), y, out=out)
    for i in range(r.shape[-1] - 1, -1, -1):
        zi = z[..., i, :]
        zi -= (r[..., i, np.newaxis, i + 1 :] @ z[..., i + 1 :, :])[..., 0, :]
        zi /= r[..., i, i, np.newaxis]
        _rounded(zi)
    return z


def _round_shifted(
    v: np.ndarray, d, a: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Gaussian integers nearest to v / a - d (ties to even), written to out
    (v itself allowed), or to a new array."""
    m = _scaled(v, a, out)
    m -= d
    return _rounded(m)


def _scaled(v: np.ndarray, a: float, out: np.ndarray | None = None) -> np.ndarray:
    """v / a for a complex array v and a real a > 0, with the same bits,
    written to out (a contiguous complex array, v itself allowed) if given.

    numpy divides a complex array by a real scalar as a product with the
    scalar's reciprocal; this forms that product on the float view, without
    the complex division loop.
    """
    flat = np.ascontiguousarray(v).view(np.float64)
    w = np.multiply(flat, 1.0 / a, out=None if out is None else out.view(np.float64))
    return w.view(np.complex128)


def _lattice_indices(tm: np.ndarray, spec: ConstellationSpec, out=None) -> np.ndarray:
    """Slice indices of the integer images T m of lattice decisions, I and
    Q interleaved along the last axis, in the smallest unsigned type that
    holds side - 1.  out is None, which allocates, or a pair (values,
    indices) of arrays to write the float slice values (tm's own float view
    allowed) and the indices to.

    Each part of T m plus side/2 is the index of the level nearest to the
    estimate a (T m + (1+j)/2), which lies half a level from a boundary, so
    no tie arises; values beyond the grid clip to the outer levels, after
    which the cast's truncation is the floor.  A NaN (a failed filter) has
    no constellation index; it raises.
    """
    values, indices = out or (None, None)
    flat = np.ascontiguousarray(tm).view(np.float64)
    if np.isnan(flat.max()):
        raise SingularMatrixError("NaN estimate has no constellation index")
    t = np.add(flat, spec.side / 2, out=values)
    np.clip(t, 0, spec.side - 1, out=t)
    if indices is None:
        indices = np.empty(t.shape, np.min_scalar_type(spec.side - 1))
    np.copyto(indices, t, casting="unsafe")
    return indices


def _lattice_symbols(tm: np.ndarray, spec: ConstellationSpec) -> np.ndarray:
    """Constellation symbols of the integer images T m of LR decisions."""
    idx = _lattice_indices(tm, spec)
    return spec.levels[idx[..., 0::2]] + 1j * spec.levels[idx[..., 1::2]]


def ml_candidates(n_t: int, spec: ConstellationSpec) -> np.ndarray:
    """All candidate transmit vectors (n_t, M^n_t) in lexicographic order.
    Raises BudgetExceededError, before forming any, when M^n_t exceeds
    ML_DEFAULT_CAP."""
    count = spec.m**n_t
    if count > ML_DEFAULT_CAP:
        raise BudgetExceededError(
            f"{count} candidates exceed the enumeration cap {ML_DEFAULT_CAP}"
        )
    return spec.alphabet[np.indices((spec.m,) * n_t).reshape(n_t, -1)]


def ml_detect(y, h, spec: ConstellationSpec) -> np.ndarray:
    """Exhaustive maximum-likelihood search over all constellation vectors.

    y is a vector, a block or a stack of blocks (see lr_detect); returns
    the decided symbols in y's shape with n_t rows.  Ties break toward the
    lexicographically first candidate in symbol-index order.  Raises
    BudgetExceededError when M^N_T exceeds ML_DEFAULT_CAP.
    """
    h = as_matrix(h)
    stack = _received(y, h.shape[0])
    cands = ml_candidates(h.shape[1], spec)
    table = _ml_table(h, cands)
    return _like(np.stack([cands[:, _ml_search(b, table)] for b in stack]), y)


def _ml_table(h: np.ndarray, cands: np.ndarray) -> tuple:
    """(H cands, squared column norms of H cands): the part of ML detection
    that depends only on the channel, reused for every block."""
    s = h @ cands  # (n_r, n_cand)
    return s, np.sum(np.abs(s) ** 2, axis=0)


def _ml_search(y_cols: np.ndarray, table) -> np.ndarray:
    """Numbers of the ML candidates (batch,) of the columns of y_cols,
    given _ml_table, searched in blocks of about _ML_BLOCK_ENTRIES costs
    (the last block of columns up to twice that, never one column wide).
    Of equal costs the first candidate wins, as in one argmin."""
    s, norms = table
    s_h = s.conj().T
    count, cols = s_h.shape[0], y_cols.shape[1]
    step = min(count, _ML_BLOCK_ENTRIES // 8)  # candidates per block
    width = max(8, _ML_BLOCK_ENTRIES // step // 8 * 8)  # columns per block
    starts = range(0, max(cols - width, 1), width)
    best, low = np.zeros(cols, dtype=np.intp), np.full(cols, np.inf)
    for j in map(slice, starts, [*starts[1:], cols]):
        for c in range(0, count, step):
            # ||y - s_c||^2 = ||y||^2 - 2 Re(s_c^H y) + ||s_c||^2; the
            # ||y||^2 term is constant per column and can be dropped
            cost = norms[c : c + step, np.newaxis] - 2.0 * np.real(
                s_h[c : c + step] @ y_cols[:, j]
            )
            least = cost.min(axis=0)
            won = least < low[j]  # a later block must be strictly lower
            best[j][won] = c + np.argmin(cost, axis=0)[won]
            low[j][won] = least[won]
    return best


def lr_detect(
    y, h, sel: KlrResult | KlrStack, kind: str, spec: ConstellationSpec
) -> np.ndarray:
    """Lattice-reduction-aided detection; returns the decided symbols in
    y's shape with n_t rows.

    y is a vector (n_r,), a block (n_r, batch) or a stack of blocks
    (S, n_r, batch).  sel is a KlrResult, which serves every block, or a
    KlrStack of S selections, block s detected with sel[s], or of one that
    serves every block.  kind is one of "zf", "mmse", "sic-zf",
    "sic-mmse".  The MMSE kinds require a selection built on the extended
    channel, which carries its sigma_n in its basis; the ZF kinds require
    a plain one.
    """
    stack = _received(y, _check_channel(h, sel))
    if isinstance(sel, KlrStack) and len(sel) not in (1, len(stack)):
        raise ValidationError(f"{len(sel)} selections for a stack of {len(stack)}")
    return _like(_lattice_symbols(_lr_estimate(stack, sel, kind, spec)[1], spec), y)


def _check_channel(h, sel: KlrResult | KlrStack) -> int:
    """The row count of the channel h, which must have the shape of the one
    sel was reduced from: the basis, less its n_t padding rows if
    extended."""
    shape = as_matrix(h).shape
    b_rows, n_t = sel.basis.h_tilde.shape[-2:]
    reduced = (b_rows - n_t if sel.extended else b_rows, n_t)
    if shape != reduced:
        raise ValidationError(
            f"a {shape[0]}x{shape[1]} channel for a selection reduced from "
            f"a {reduced[0]}x{reduced[1]} one"
        )
    return shape[0]


def _lr_estimate(
    y: np.ndarray,
    sel: KlrResult | KlrStack,
    kind: str,
    spec: ConstellationSpec,
    out: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """LR-aided decisions on an (S, n_r, batch) stack of blocks.

    sel is a KlrResult, which serves every block, or a KlrStack of S
    selections, block s detected with sel[s], or of one that serves every
    block; the arrays of either broadcast against the stack.  Returns the
    Gaussian-integer decisions m and their integer image T m, both
    (S, n_t, batch).  The reduced-domain estimate is a (m + d) with
    d = sel.offset; _lattice_indices slices it from T m.  The filter, d and
    T are arrays of sel, formed with it, so the estimate forms none of them.

    out is None, which allocates, or a triple (work, m, tm) of complex
    arrays to write to: m and tm of the results' shape, and work of the
    basis's rows (S, rows, batch), which holds the padded input [y; 0] of
    an extended selection or the scaled input of a SIC; it is read only
    by those.  y is left alone.
    """
    if kind not in DETECTOR_KINDS:
        raise ValidationError(f"unknown detector kind {kind!r}")
    extended = kind in ("mmse", "sic-mmse")
    if sel.extended != extended:
        raise ValidationError(
            f"detector kind {kind!r} does not match the reduction flavor "
            f"(extended={not extended})"
        )
    basis = sel.basis
    rows, n = basis.h_tilde.shape[-2:]
    if y.shape[1] + (n if extended else 0) != rows:
        raise ValidationError(
            f"{y.shape[1]} received rows for a reduced channel of {rows}"
        )
    d = sel.offset[..., np.newaxis]
    work, m, tm = out or (None, None, None)
    if extended:  # [y; 0] in a buffer of its own
        if work is None:
            work = np.empty((len(y), rows, y.shape[2]), dtype=np.complex128)
        work[:, : rows - n] = y
        work[:, rows - n :] = 0
        y = work
    if kind in ("zf", "mmse"):
        m = np.matmul(sel.pinv, y, out=m)
        m = _round_shifted(m, d, spec.a, out=m)
    else:
        # scaled into work, in place if it holds the padded input already:
        # the caller's y is never written
        y = _scaled(y, spec.a, out=work)
        y -= basis.h_tilde @ d
        # the basis carries the QR of h_tilde, so SIC does not factor it
        m = _sic(basis.q, basis.r, y, out=m)
    return m, np.matmul(sel.transform, m, out=tm)
