"""LR-aided and conventional MIMO detectors.

The LR-aided detectors share one tail on Gaussian integers: estimate the
reduced-domain symbols, round them to the integer vector m of the shifted,
scaled lattice a (Z[i]^n + d), and map m back through the composed unimodular
transform T.  Since T d = (1+j)/2 per entry, the estimate a (T m + (1+j)/2)
lies half a level from every decision boundary, so the I and Q parts of the
integer image T m, shifted by side/2 and clipped to the grid, are its slice
indices, and the estimate itself is never sliced.  SIC performs the integer
rounding inside a QR back-substitution on a pre-shifted received signal so
that noise-free detection is exact.  ML decides points of the same lattice
(T = I), so the sweep slices their integer images the same way; hard_slice
slices any floating-point estimate onto the constellation.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetExceededError, SingularMatrixError, ValidationError
from .linalg import (
    _as_stack,
    as_matrix,
    as_vector,
    pseudoinverse,
    qr_decompose,
)
from .modem import ConstellationSpec
from .reduction import _rounded
from .switched import KlrResult, KlrStack, _offset, extend_channel

DETECTOR_KINDS = ("zf", "mmse", "sic-zf", "sic-mmse")
ML_DEFAULT_CAP = 1_000_000


@dataclass(frozen=True)
class DetectionOutput:
    x_hat: np.ndarray  # constellation-domain estimate
    z_hat: np.ndarray  # reduced-domain estimate


def zf_filter(h_tilde) -> np.ndarray:
    """Zero-forcing filter: the left pseudoinverse of the (reduced) channel."""
    return pseudoinverse(h_tilde)


def zf_error_covariance(g, sigma2: float) -> np.ndarray:
    """ZF estimation error covariance sigma^2 * G G^H (Hermitian PSD)."""
    g = as_matrix(g)
    if sigma2 < 0:
        raise ValidationError("sigma2 must be >= 0")
    return sigma2 * (g @ g.conj().T)


def mmse_filter_direct(h, sigma2) -> np.ndarray:
    """MMSE filter (H^H H + sigma^2 I)^-1 H^H.

    For a 1-D array of sigma^2 values, the stack of their filters, solved
    in one call; each is bitwise the filter of its value alone.
    """
    h = as_matrix(h)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if sigma2.ndim > 1 or np.any(sigma2 < 0):
        raise ValidationError("sigma2 must be >= 0, a scalar or a 1-D array")
    n = h.shape[1]
    gram = h.conj().T @ h + sigma2[..., np.newaxis, np.newaxis] * np.eye(n)
    try:
        return np.linalg.solve(gram, h.conj().T)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc


def extend_system(h, y, sigma_n: float) -> tuple[np.ndarray, np.ndarray]:
    """Extended model: ([H; sigma_n I], [y; 0]) so MMSE becomes plain ZF."""
    h = as_matrix(h)
    y = as_vector(y)
    if y.shape[0] != h.shape[0]:
        raise ValidationError("y length must match the row count of h")
    h_ext = extend_channel(h, sigma_n)
    y_ext = np.concatenate([y, np.zeros(h.shape[1], dtype=np.complex128)])
    return h_ext, y_ext


def sic_detect(h_tilde, y) -> np.ndarray:
    """Successive interference cancellation via QR back-substitution.

    Returns the Gaussian-integer layer decisions (pre-quantizer): the top layer
    is rounded first, its contribution is subtracted, and so on downwards.
    """
    return sic_detect_batch(h_tilde, as_vector(y)[:, np.newaxis])[:, 0]


def sic_detect_batch(h_tilde, y_cols: np.ndarray) -> np.ndarray:
    """sic_detect applied column-wise to a (rows, batch) array."""
    return _sic(*qr_decompose(as_matrix(h_tilde)), y_cols)


def _sic(
    q: np.ndarray, r: np.ndarray, y: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """SIC of every column of y, given the QR factors (q, r) of the channel.

    q and r may carry a leading stack axis, and y (..., rows, batch) any
    leading axes that broadcast against them.  The decisions overwrite
    Q^H y, written to out if given, row by row, each row read once before
    it is overwritten.  Each is rounded in place on the float view (ties
    to even), which gives the values of round_gaussian; only the sign of a
    zero part can differ.
    """
    z = np.matmul(np.swapaxes(q.conj(), -1, -2), y, out=out)
    for i in range(r.shape[-1] - 1, -1, -1):
        zi = z[..., i, :]
        zi -= (r[..., i, np.newaxis, i + 1 :] @ z[..., i + 1 :, :])[..., 0, :]
        zi /= r[..., i, i, np.newaxis]
        _rounded(zi)
    return z


def shift_scale_quantize(z_breve, u_inv, spec: ConstellationSpec) -> np.ndarray:
    """Snap reduced-domain estimates onto the shifted-scaled integer lattice.

    The constellation lattice is a * (Z[i]^n + (1+j)/2 per dimension); in the
    reduced domain the offset becomes (1/2) U^-1 (1+j) 1.  z_breve is a vector
    or a (n, batch) block; u_inv may be a stack of S matrices, one per member
    of an (S, n, batch) z_breve.
    """
    z_breve = np.asarray(z_breve, dtype=np.complex128)
    d = _offset(_as_stack(u_inv))
    if z_breve.ndim >= 2:
        d = d[..., np.newaxis]
    return spec.a * (_round_shifted(z_breve, d, spec.a) + d)


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


def hard_slice(v, spec: ConstellationSpec) -> np.ndarray:
    """Componentwise nearest constellation point, clipping out-of-range values.

    Midpoint ties go to the lower-magnitude level.
    """
    v = np.asarray(v, dtype=np.complex128)
    levels = spec.levels
    return levels[_slice_index(v.real, spec)] + 1j * levels[_slice_index(v.imag, spec)]


def _slice_index(vals: np.ndarray, spec: ConstellationSpec) -> np.ndarray:
    """Index into spec.levels of the level nearest to each real value.

    Out-of-range values clip to the outer levels.  On a midpoint tie the
    level closer to zero wins; if both are equally far (the +-a/2 pair) the
    lower index.  A NaN gives an index outside [0, side).
    """
    side = spec.side
    center = (side - 1) / 2
    t = vals / spec.a + center
    t += 0.5
    k = np.floor(t)
    tie = t == k
    if tie.any():
        k = np.where(tie & (np.abs(k - center) >= np.abs(k - 1 - center)), k - 1, k)
    np.clip(k, 0, side - 1, out=k)
    return k.astype(np.intp)


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


def ml_detect(
    y, h, spec: ConstellationSpec, max_candidates: int = ML_DEFAULT_CAP
) -> DetectionOutput:
    """Exhaustive maximum-likelihood search over all constellation vectors.

    Ties break toward the lexicographically first candidate in symbol-index
    order.  Raises BudgetExceededError when M^N_T exceeds max_candidates.
    """
    y = as_vector(y)
    h = as_matrix(h)
    x = ml_detect_batch(y[:, np.newaxis], h, spec, max_candidates)[:, 0]
    return DetectionOutput(x_hat=x, z_hat=x.copy())


def ml_candidates(
    n_t: int, spec: ConstellationSpec, max_candidates: int = ML_DEFAULT_CAP
) -> np.ndarray:
    """All candidate transmit vectors (n_t, M^n_t) in lexicographic order."""
    count = spec.m**n_t
    if count > max_candidates:
        raise BudgetExceededError(
            f"{count} candidates exceed the enumeration cap {max_candidates}"
        )
    cands = np.array(list(product(spec.alphabet, repeat=n_t)), dtype=np.complex128).T
    return cands


def ml_detect_batch(
    y_cols: np.ndarray, h, spec: ConstellationSpec, max_candidates: int = ML_DEFAULT_CAP
) -> np.ndarray:
    """ML detection for every column of y_cols; returns (n_t, batch) symbols."""
    h = as_matrix(h)
    cands = ml_candidates(h.shape[1], spec, max_candidates)
    return cands[:, _ml_search(y_cols, _ml_table(h, cands))]


def _ml_table(h: np.ndarray, cands: np.ndarray) -> tuple:
    """(H cands, squared column norms of H cands): the part of ML detection
    that depends only on the channel, reused for every block."""
    s = h @ cands  # (n_r, n_cand)
    return s, np.sum(np.abs(s) ** 2, axis=0)


def _ml_search(y_cols: np.ndarray, table) -> np.ndarray:
    """Numbers of the ML candidates (batch,) of the columns of y_cols,
    given _ml_table."""
    s, norms = table
    # ||y - s_c||^2 = ||y||^2 - 2 Re(s_c^H y) + ||s_c||^2; the ||y||^2 term is
    # constant per column and can be dropped
    cost = norms[:, np.newaxis] - 2.0 * np.real(s.conj().T @ y_cols)
    return np.argmin(cost, axis=0)


def lr_detect(
    y,
    h,
    klr: KlrResult,
    kind: str,
    spec: ConstellationSpec,
    sigma_n: float = 0.0,
) -> DetectionOutput:
    """Lattice-reduction-aided detection of one received vector.

    kind is one of "zf", "mmse", "sic-zf", "sic-mmse".  The MMSE kinds require
    a KlrResult built on the extended channel; the ZF kinds require a plain
    one.  z_hat is the reduced-domain estimate a (m + d) on the shifted,
    scaled lattice; x_hat slices its image.  sigma_n is accepted for
    compatibility and ignored: an extended selection carries its sigma_n
    in its basis.
    """
    y = as_vector(y)
    _check_channel(h, klr)  # h is validated only: klr carries the channel
    m, tm = _lr_estimate(y[np.newaxis, :, np.newaxis], klr, kind, spec)
    z_hat = spec.a * (m[0, :, 0] + klr.offset)
    return DetectionOutput(x_hat=_lattice_symbols(tm, spec)[0, :, 0], z_hat=z_hat)


def lr_detect_batch(
    y_cols: np.ndarray, h, klr, kind: str, spec: ConstellationSpec
) -> np.ndarray:
    """LR-aided detection of every column of y_cols; returns sliced symbols.

    y_cols is a (rows, batch) block or an (S, rows, batch) stack of blocks.
    klr is one KlrResult, which serves every block, or a sequence of S of
    them, block s detected with klr[s].  The result has the shape of y_cols
    with n_t rows.
    """
    klrs = [klr] if isinstance(klr, KlrResult) else list(klr)
    y = np.asarray(y_cols, dtype=np.complex128)
    if y.ndim not in (2, 3) or 0 in y.shape:
        raise ValidationError(
            f"expected a nonempty 2-D block or 3-D stack, got shape {y.shape}"
        )
    stack = y if y.ndim == 3 else y[np.newaxis]
    if len(klrs) not in (1, len(stack)):
        raise ValidationError(f"{len(klrs)} selections for a stack of {len(stack)}")
    for sel in klrs:
        _check_channel(h, sel)
    blocks = [stack] if len(klrs) == 1 else stack[:, np.newaxis]
    tm = [_lr_estimate(b, sel, kind, spec)[1] for b, sel in zip(blocks, klrs)]
    x = _lattice_symbols(np.concatenate(tm), spec)
    return x if y.ndim == 3 else x[0]


def _check_channel(h, sel: KlrResult) -> None:
    """The channel h must have the shape of the one sel was reduced from:
    the basis, less its n_t padding rows if extended.  _lr_estimate checks
    the received rows against the basis, so against h too."""
    shape = as_matrix(h).shape
    b_rows, n_t = sel.basis.h_tilde.shape[-2:]
    reduced = (b_rows - n_t if sel.extended else b_rows, n_t)
    if shape != reduced:
        raise ValidationError(
            f"a {shape[0]}x{shape[1]} channel for a selection reduced from "
            f"a {reduced[0]}x{reduced[1]} one"
        )


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
