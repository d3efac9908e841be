"""Reference implementations that the tests check the library against.

Each is written apart from the code it checks and shares none of it: a
float slicer with its own tie rule, a quantizer onto the shifted, scaled
lattice, the MMSE filter solved directly, a float Gray demapper with
tolerances, a table of Gray-label bit distances, and Gaussian rounding.  Only tests import this module; the
library's own path slices integer images (detectors._lattice_indices),
rounds in place (reduction._rounded) and counts errors from slice indices.
"""

import numpy as np

from lrmimo.errors import ValidationError


def round_gaussian(z):
    """Round real and imaginary parts to the nearest integers (ties to even)."""
    return np.rint(np.real(z)) + 1j * np.rint(np.imag(z))


def hard_slice(v, spec) -> np.ndarray:
    """Componentwise nearest constellation point, clipping out-of-range values.

    Midpoint ties go to the lower-magnitude level.
    """
    v = np.asarray(v, dtype=np.complex128)
    levels = spec.levels
    return levels[_slice_index(v.real, spec)] + 1j * levels[_slice_index(v.imag, spec)]


def _slice_index(vals: np.ndarray, spec) -> np.ndarray:
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


def shift_scale_quantize(z_breve, u_inv, spec) -> np.ndarray:
    """Snap reduced-domain estimates onto the shifted, scaled lattice.

    The constellation lattice is a * (Z[i]^n + (1+j)/2 per dimension); in the
    reduced domain the offset becomes d = (1/2) U^-1 (1+j) 1.  z_breve is a
    vector or a (n, batch) block; u_inv may be a stack of S matrices, one per
    member of an (S, n, batch) z_breve.
    """
    z_breve = np.asarray(z_breve, dtype=np.complex128)
    u_inv = np.asarray(u_inv, dtype=np.complex128)
    d = 0.5 * (u_inv @ np.full(u_inv.shape[-1], 1.0 + 1.0j))
    if z_breve.ndim >= 2:
        d = d[..., np.newaxis]
    return spec.a * (round_gaussian(z_breve / spec.a - d) + d)


def mmse_filter_direct(h, sigma2: float) -> np.ndarray:
    """MMSE filter (H^H H + sigma^2 I)^-1 H^H, solved directly."""
    h = np.asarray(h, dtype=np.complex128)
    gram = h.conj().T @ h + sigma2 * np.eye(h.shape[1])
    return np.linalg.solve(gram, h.conj().T)


def unmap_symbols(symbols, spec) -> np.ndarray:
    """Gray bits (..., bits_per_symbol) of exact constellation points, I
    bits first: the inverse of modem.map_bits."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    bi = _levels_to_bits(symbols.real, spec)
    bq = _levels_to_bits(symbols.imag, spec)
    return np.concatenate([bi, bq], axis=-1)


def _levels_to_bits(vals: np.ndarray, spec) -> np.ndarray:
    """Amplitude levels -> Gray bits, shape (..., bits_per_symbol/2).

    Raises ValidationError for a value off the grid or more than 1e-6 a
    from its nearest level.
    """
    half = spec.bits_per_symbol // 2
    idx = np.rint(vals / spec.a + (spec.side - 1) / 2).astype(np.int64)
    if np.any(idx < 0) or np.any(idx >= spec.side):
        raise ValidationError("value outside the constellation grid")
    if np.max(np.abs(vals - spec.levels[idx])) > 1e-6 * spec.a:
        raise ValidationError("value is not a constellation level")
    g = idx ^ (idx >> 1)
    shifts = np.arange(half - 1, -1, -1)
    return (g[..., np.newaxis] >> shifts) & 1


def _gray_encode(i):
    return i ^ (i >> 1)


def _bit_distance(spec) -> np.ndarray:
    """(side, side) table: bits that differ between the Gray labels of level
    indices i and j of one axis.  The sweep's error count (sim._count_errors)
    XORs the labels instead; its tests check it against this table."""
    g = _gray_encode(np.arange(spec.side))
    return np.bitwise_count(g[:, np.newaxis] ^ g).astype(np.intp)
