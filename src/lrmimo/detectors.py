"""LR-aided and conventional MIMO detectors.

All detectors share the same tail: estimate the reduced-domain symbols, snap
them to the shifted-scaled Gaussian-integer lattice, map back through the
composed unimodular transform, and slice onto the constellation.  SIC performs
the integer rounding inside a QR back-substitution on a pre-shifted received
signal so that noise-free detection is exact.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetExceededError, SingularMatrixError, ValidationError
from .linalg import _pinv_from_qr, as_matrix, as_vector, pseudoinverse, qr_decompose
from .modem import ConstellationSpec
from .reduction import round_gaussian
from .switched import KlrResult, extend_channel

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


def mmse_filter_direct(h, sigma2: float) -> np.ndarray:
    """MMSE filter (H^H H + sigma^2 I)^-1 H^H."""
    h = as_matrix(h)
    if sigma2 < 0:
        raise ValidationError("sigma2 must be >= 0")
    n = h.shape[1]
    gram = h.conj().T @ h + sigma2 * np.eye(n)
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


def _sic(q: np.ndarray, r: np.ndarray, y_cols: np.ndarray) -> np.ndarray:
    """SIC of every column of y_cols, given the QR factors (q, r) of the channel."""
    yt = q.conj().T @ y_cols
    n = r.shape[1]
    z = np.zeros((n, y_cols.shape[1]), dtype=np.complex128)
    for i in range(n - 1, -1, -1):
        resid = yt[i, :] - r[i, i + 1 :] @ z[i + 1 :, :]
        z[i, :] = round_gaussian(resid / r[i, i])
    return z


def shift_scale_quantize(z_breve, u_inv, spec: ConstellationSpec) -> np.ndarray:
    """Snap reduced-domain estimates onto the shifted-scaled integer lattice.

    The constellation lattice is a * (Z[i]^n + (1+j)/2 per dimension); in the
    reduced domain the offset becomes (1/2) U^-1 (1+j) 1.
    """
    z_breve = np.asarray(z_breve, dtype=np.complex128)
    u_inv = as_matrix(u_inv)
    ones = np.full(u_inv.shape[1], 1.0 + 1.0j)
    d = 0.5 * (u_inv @ ones)
    if z_breve.ndim == 2:
        d = d[:, np.newaxis]
    return spec.a * (round_gaussian(z_breve / spec.a - d) + d)


def hard_slice(v, spec: ConstellationSpec) -> np.ndarray:
    """Componentwise nearest constellation point, clipping out-of-range values.

    Midpoint ties go to the lower-magnitude level.
    """
    v = np.asarray(v, dtype=np.complex128)
    return _slice_axis(v.real, spec) + 1j * _slice_axis(v.imag, spec)


def _slice_axis(vals: np.ndarray, spec: ConstellationSpec) -> np.ndarray:
    side = spec.side
    center = (side - 1) / 2
    t = vals / spec.a + center
    k = np.floor(t + 0.5)
    tie = (t + 0.5) == k
    # on a midpoint tie prefer the level closer to zero; if both are equally
    # far (the +-a/2 pair) take the lower index
    k = np.where(tie & (np.abs(k - center) >= np.abs(k - 1 - center)), k - 1, k)
    k = np.clip(k, 0, side - 1).astype(np.int64)
    return spec.levels[k]


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


def ml_candidates(h, spec: ConstellationSpec, max_candidates: int = ML_DEFAULT_CAP):
    """All candidate transmit vectors (n_t, M^n_t) in lexicographic order."""
    h = as_matrix(h)
    n_t = h.shape[1]
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
    cands = ml_candidates(h, spec, max_candidates)
    s = h @ cands  # (n_r, n_cand)
    # ||y - s_c||^2 = ||y||^2 - 2 Re(s_c^H y) + ||s_c||^2; the ||y||^2 term is
    # constant per column and can be dropped
    cost = np.sum(np.abs(s) ** 2, axis=0)[:, np.newaxis] - 2.0 * np.real(
        s.conj().T @ y_cols
    )
    idx = np.argmin(cost, axis=0)
    return cands[:, idx]


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
    one.
    """
    y = as_vector(y)
    h = as_matrix(h)
    if kind not in DETECTOR_KINDS:
        raise ValidationError(f"unknown detector kind {kind!r}")
    extended = kind in ("mmse", "sic-mmse")
    if extended != klr.extended:
        raise ValidationError(
            f"detector kind {kind!r} does not match the reduction flavor "
            f"(extended={klr.extended})"
        )
    z_hat = _lr_estimate(y[:, np.newaxis], h, klr, kind, spec)[:, 0]
    x_raw = klr.transform @ z_hat
    return DetectionOutput(x_hat=hard_slice(x_raw, spec), z_hat=z_hat)


def _lr_estimate(
    y_cols: np.ndarray, h, klr: KlrResult, kind: str, spec: ConstellationSpec
) -> np.ndarray:
    """Reduced-domain symbol estimates for a block of received columns."""
    n_t = h.shape[1]
    ht = klr.basis.h_tilde
    if klr.extended:
        y_use = np.vstack(
            [y_cols, np.zeros((n_t, y_cols.shape[1]), dtype=np.complex128)]
        )
    else:
        y_use = y_cols
    tinv = klr.transform_inv
    # the basis carries the QR of h_tilde, so neither path factors it again
    q, r = klr.basis.q, klr.basis.r
    if kind in ("zf", "mmse"):
        z_breve = _pinv_from_qr(q, r) @ y_use
        return shift_scale_quantize(z_breve, tinv, spec)
    ones = np.full(n_t, 1.0 + 1.0j)
    d = 0.5 * (tinv @ ones)
    y_shift = y_use / spec.a - (ht @ d)[:, np.newaxis]
    z_int = _sic(q, r, y_shift)
    return spec.a * (z_int + d[:, np.newaxis])


def lr_detect_batch(
    y_cols: np.ndarray, h, klr: KlrResult, kind: str, spec: ConstellationSpec
) -> np.ndarray:
    """LR-aided detection of every column of y_cols; returns sliced symbols."""
    z = _lr_estimate(y_cols, h, klr, kind, spec)
    return hard_slice(klr.transform @ z, spec)
