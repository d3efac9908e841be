"""Randomly switched CLLL candidate selection.

Generates K randomly column-permuted CLLL-reduced candidates of the channel,
scores each by orthogonality defect and keeps the best candidate only when it
strictly beats the unpermuted baseline.  The composed transform (permutation
times unimodular matrix) is tracked so detection recovers the original symbol
order automatically.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .linalg import as_matrix
from .reduction import ReducedBasis, ReductionParams, _reduced_basis, clll_reduce_batch

MAX_CANDIDATES = 10


@dataclass(frozen=True)
class PermutationSet:
    """K distinct non-identity permutations of {0..n-1}."""

    n: int
    perms: tuple

    def __post_init__(self):
        ident = tuple(range(self.n))
        seen = set()
        for p in self.perms:
            if tuple(sorted(p)) != ident:
                raise ValidationError(f"not a permutation of 0..{self.n - 1}: {p}")
            if p == ident:
                raise ValidationError("identity permutation is excluded")
            if p in seen:
                raise ValidationError("permutations must be pairwise distinct")
            seen.add(p)


@dataclass(frozen=True)
class KlrResult:
    """Outcome of the switched selection.

    basis.h_tilde equals H[:, perm] @ basis.u; `transform` composes the
    permutation and the unimodular matrix into a single unimodular transform on
    the original column order.
    """

    basis: ReducedBasis
    perm: tuple
    odf_selected: float
    odf_baseline: float
    candidate_odfs: tuple
    extended: bool = False

    # each is built once per result; the matmuls keep the exact bits of the
    # Gaussian-integer entries, signed zeros included
    @cached_property
    def transform(self) -> np.ndarray:
        return self._perm_matrix @ self.basis.u

    @cached_property
    def transform_inv(self) -> np.ndarray:
        return self.basis.u_inv @ self._perm_matrix.T

    @cached_property
    def _perm_matrix(self) -> np.ndarray:
        n = self.basis.u.shape[0]
        return np.eye(n, dtype=np.complex128)[:, list(self.perm)]


def _k_limit(n: int) -> int:
    return min(math.factorial(n) - 1, MAX_CANDIDATES)


def _select(baseline: ReducedBasis, cands, perms, extended: bool) -> KlrResult:
    """Keep the lowest-ODF candidate only if it strictly beats the baseline.

    cands[i] is the reduction of the channel permuted by perms[i]; with no
    candidates the baseline is returned with empty candidate_odfs.
    """
    odfs = tuple(c.odf_value for c in cands)
    n = baseline.u.shape[0]
    basis, perm = baseline, tuple(range(n))
    if odfs:
        idx = int(np.argmin(odfs))
        if odfs[idx] < baseline.odf_value:
            basis, perm = cands[idx], perms[idx]
    return KlrResult(
        basis=basis,
        perm=perm,
        odf_selected=basis.odf_value,
        odf_baseline=baseline.odf_value,
        candidate_odfs=odfs,
        extended=extended,
    )


def sample_permutations(n: int, k: int, rng: np.random.Generator) -> PermutationSet:
    """Sample k distinct non-identity permutations uniformly without replacement."""
    if n < 2:
        raise ValidationError("need at least 2 columns to permute")
    if not (1 <= k <= _k_limit(n)):
        raise ValidationError(
            f"k must be in [1, {_k_limit(n)}] for n={n}, got {k}"
        )
    ident = tuple(range(n))
    seen: set = set()
    out = []
    while len(out) < k:
        p = tuple(int(v) for v in rng.permutation(n))
        if p == ident or p in seen:
            continue
        seen.add(p)
        out.append(p)
    return PermutationSet(n=n, perms=tuple(out))


def klr_select_with(
    h, perms: PermutationSet, params: ReductionParams = ReductionParams()
) -> KlrResult:
    """Run the switched selection against an explicit permutation set."""
    h = as_matrix(h)
    if perms.n != h.shape[1]:
        raise ValidationError("permutation size does not match column count")
    bases = clll_reduce_batch([_candidate_stack(h[np.newaxis], perms.perms)], params)[0]
    return _select(bases[0], bases[1:], perms.perms, False)


def _candidate_stack(mats: np.ndarray, perms) -> np.ndarray:
    """Each matrix of a (count, rows, n) stack followed by its column permutations.

    Returns a (count * (1 + len(perms)), rows, n) stack: matrix i sits at
    index i * (1 + len(perms)), its candidate by perms[j] right after at
    offset 1 + j.
    """
    _, rows, n = mats.shape
    cols = np.array([tuple(range(n)), *perms], dtype=np.intp)
    return mats[:, :, cols].transpose(0, 2, 1, 3).reshape(-1, rows, n)


def klr_select(
    h,
    k: int,
    params: ReductionParams = ReductionParams(),
    rng: np.random.Generator | None = None,
) -> KlrResult:
    """Switched CLLL selection with k randomly sampled column permutations."""
    h = as_matrix(h)
    if rng is None:
        rng = np.random.default_rng()
    perms = sample_permutations(h.shape[1], k, rng)
    return klr_select_with(h, perms, params)


def extend_channel(h, sigma_n: float) -> np.ndarray:
    """Stack [H; sigma_n * I] for the extended (MMSE) system model."""
    h = as_matrix(h)
    if sigma_n < 0:
        raise ValidationError("sigma_n must be >= 0")
    n = h.shape[1]
    return np.vstack([h, sigma_n * np.eye(n, dtype=np.complex128)])


def klr_select_extended(
    h,
    sigma_n: float,
    k: int,
    params: ReductionParams = ReductionParams(),
    rng: np.random.Generator | None = None,
) -> KlrResult:
    """Switched selection on the extended channel [H; sigma_n I] for MMSE."""
    res = klr_select(extend_channel(h, sigma_n), k, params, rng)
    return replace(res, extended=True)


def identity_result(h, extended: bool = False, sigma_n: float = 0.0) -> KlrResult:
    """KlrResult with U = I and no permutation (reduction disabled).

    Feeding this to the LR detectors reproduces the conventional detector of
    the same kind.
    """
    h = as_matrix(h)
    mat = extend_channel(h, sigma_n) if extended else h
    eye = np.eye(mat.shape[1], dtype=np.complex128)
    return _select(_reduced_basis(mat, eye, eye.copy(), 0), [], (), extended)
