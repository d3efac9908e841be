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
from .linalg import _pinv_from_qr, as_matrix
from .reduction import (
    ReducedBasis,
    ReducedStack,
    ReductionParams,
    _reduced_stack,
    clll_reduce_batch,
)

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


def _transforms(perm, u: np.ndarray, u_inv: np.ndarray) -> tuple:
    """(T, T^-1) = (P U, U^-1 P^T) for the permutation matrix P of perm, whose
    column j is unit vector perm[j]; or, for a sequence of perms, of each
    member of stacked u and u_inv.  The matmuls keep the exact bits of the
    Gaussian-integer entries, signed zeros included."""
    p_t = np.eye(u.shape[-1], dtype=np.complex128)[np.array(perm, dtype=np.intp)]
    return np.swapaxes(p_t, -1, -2) @ u, u_inv @ p_t


def _offset(t_inv: np.ndarray) -> np.ndarray:
    """d = (1/2) T^-1 (1+j) 1, the reduced-domain image of the half-level
    offset of the constellation, for T^-1 or a stack of them."""
    return 0.5 * (t_inv @ np.full(t_inv.shape[-1], 1.0 + 1.0j))


class _LrFilter:
    """What LR detection needs of a selection beyond its basis, formed on
    first read and kept, as the basis keeps its Q: pinv, the pseudoinverse
    of the kept basis from its QR factors (the LR-ZF and LR-MMSE filter),
    and offset, d = _offset(T^-1).  A selection that serves several blocks
    of received signals forms them once for all of them."""

    @cached_property
    def pinv(self) -> np.ndarray:
        return _pinv_from_qr(self.basis.q, self.basis.r)

    @cached_property
    def offset(self) -> np.ndarray:
        return _offset(self.transform_inv)


@dataclass(frozen=True)
class KlrResult(_LrFilter):
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

    # each is built once per result
    @cached_property
    def transform(self) -> np.ndarray:
        return _transforms(self.perm, self.basis.u, self.basis.u_inv)[0]

    @cached_property
    def transform_inv(self) -> np.ndarray:
        return _transforms(self.perm, self.basis.u, self.basis.u_inv)[1]


@dataclass(frozen=True)
class KlrStack(_LrFilter):
    """The switched selections of a stack of channels, as stacked arrays.

    Member i is what KlrResult states of one channel: basis holds the kept
    reduced bases (their Q factored), perms and candidate_odfs hold one
    tuple per member, odf_baseline is (B,), and transform = P U and
    transform_inv = U^-1 P^T are (B, n, n).  An int index gives the
    KlrResult of one member, a slice a KlrStack of views.
    """

    basis: ReducedStack
    perms: tuple
    odf_baseline: np.ndarray
    candidate_odfs: tuple
    transform: np.ndarray
    transform_inv: np.ndarray
    extended: bool = False

    @property
    def odf_selected(self) -> np.ndarray:
        """(B,) ODF of each kept basis."""
        return self.basis.odf

    def __len__(self) -> int:
        return len(self.perms)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return KlrStack(
                self.basis[i],
                self.perms[i],
                self.odf_baseline[i],
                self.candidate_odfs[i],
                self.transform[i],
                self.transform_inv[i],
                self.extended,
            )
        return KlrResult(
            basis=self.basis[i],
            perm=self.perms[i],
            odf_selected=float(self.basis.odf[i]),
            odf_baseline=float(self.odf_baseline[i]),
            candidate_odfs=self.candidate_odfs[i],
            extended=self.extended,
        )


def _k_limit(n: int) -> int:
    return min(math.factorial(n) - 1, MAX_CANDIDATES)


def _select(reduced: ReducedStack, perms, k: int, extended: bool) -> KlrStack:
    """Switched selection on every channel of a candidate stack.

    reduced holds one group per channel, as _candidate_stack lays it out:
    the baseline, then its candidates by perms[g] (the same count for every
    group).  Among the first k candidates the lowest-ODF one is kept only if
    it strictly beats the baseline; k = 0 gives the baseline with empty
    candidate_odfs.  Returns one KlrStack, member g for group g; its bases
    are copies, so they do not keep the whole stack alive, and their Q is
    factored here, once for every slice taken of them.
    """
    return _selection(*_pick(reduced, perms, k), extended)


def _pick(reduced: ReducedStack, perms, k: int) -> tuple:
    """What _select takes from the whole stack: (kept, chosen, baseline
    ODFs, candidate ODFs), kept a ReducedStack of copies of the kept bases
    and chosen their permutations.  A caller that selects several k can
    pick them all, then release the stack before _selection forms the rest.
    """
    odfs = reduced.odf.reshape(len(perms), -1)
    base, cands = odfs[:, 0], odfs[:, 1 : 1 + k]
    groups = np.arange(len(odfs))
    pick = np.zeros(len(odfs), dtype=np.intp)
    if k:
        best = np.argmin(cands, axis=1)
        pick = np.where(cands[groups, best] < base, 1 + best, 0)
    kept = reduced[groups * odfs.shape[1] + pick]
    ident = tuple(range(reduced.u.shape[-1]))
    chosen = tuple(perms[g][i - 1] if i else ident for g, i in enumerate(pick.tolist()))
    return kept, chosen, base.copy(), tuple(map(tuple, cands.tolist()))


def _selection(kept: ReducedStack, chosen, base, cands, extended: bool) -> KlrStack:
    """The KlrStack of what _pick took: Q of the kept bases is factored
    here, once for every slice later taken of the stack, and the transforms
    are formed."""
    kept.q  # factored now, once for every slice later taken of the stack
    transforms = _transforms(chosen, kept.u, kept.u_inv)
    return KlrStack(kept, chosen, base, cands, *transforms, extended)


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
        # one call draws the rows still missing, each shuffled in turn as
        # rng.permutation(n) shuffles it; every row drawn is one a loop of
        # single draws would draw too, so the stream ends where the loop's does
        rows = rng.permuted(np.tile(np.arange(n), (k - len(out), 1)), axis=1)
        for p in map(tuple, rows.tolist()):
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
    reduced = clll_reduce_batch([_candidate_stack(h[np.newaxis], perms.perms)], params)
    return _select(reduced[0], [perms.perms], len(perms.perms), False)[0]


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


def extend_channel(h, sigma_n) -> np.ndarray:
    """Stack [H; sigma_n * I] for the extended (MMSE) system model.

    For a 1-D array of sigma_n values, the stack of their extended
    channels; each is bitwise the extended channel of its value alone.
    """
    h = as_matrix(h)
    sigma_n = np.asarray(sigma_n, dtype=np.float64)
    if sigma_n.ndim > 1 or not np.all((sigma_n >= 0) & np.isfinite(sigma_n)):
        raise ValidationError("sigma_n must be finite and >= 0, scalar or 1-D")
    eye = np.eye(h.shape[1], dtype=np.complex128)
    lower = sigma_n[..., np.newaxis, np.newaxis] * eye
    upper = np.broadcast_to(h, (*sigma_n.shape, *h.shape))
    return np.concatenate([upper, lower], axis=-2)


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
    eye = np.eye(mat.shape[1], dtype=np.complex128)[np.newaxis]
    basis = _reduced_stack(mat[np.newaxis], eye, eye.copy(), (0,))
    return _select(basis, [()], 0, extended)[0]
