"""Randomly switched CLLL candidate selection.

Generates K randomly column-permuted CLLL-reduced candidates of the channel,
scores each by orthogonality defect and keeps the best candidate only when it
strictly beats the unpermuted baseline.  The composed transform (permutation
times unimodular matrix) is tracked so detection recovers the original symbol
order automatically.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import _pinv_from_qr, as_matrix
from .reduction import (
    ReducedBasis,
    ReducedStack,
    ReductionParams,
    _reduced_stack,
    _stack_of_one,
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


def _offset(t_inv: np.ndarray) -> np.ndarray:
    """d = (1/2) T^-1 (1+j) 1, the reduced-domain image of the half-level
    offset of the constellation, for T^-1 or a stack of them."""
    return 0.5 * (t_inv @ np.full(t_inv.shape[-1], 1.0 + 1.0j))


def _lr_arrays(perms, basis: ReducedStack) -> tuple:
    """What LR detection reads of each member of a stack of kept bases and
    of its permutation perms[i]: T = P U and T^-1 = U^-1 P^T (P's column j
    is unit vector perm[j]; the matmuls keep the exact bits of the Gaussian
    integers, signed zeros included), d = _offset(T^-1) and pinv, the
    LR-ZF/MMSE filter, from the QR of the basis."""
    p_t = np.eye(basis.u.shape[-1], dtype=np.complex128)[np.array(perms, dtype=np.intp)]
    t_inv = basis.u_inv @ p_t
    pinv = _pinv_from_qr(basis.q, basis.r)
    return np.swapaxes(p_t, -1, -2) @ basis.u, t_inv, _offset(t_inv), pinv


@dataclass(frozen=True)
class KlrResult:
    """Outcome of the switched selection.

    basis.h_tilde equals H[:, perm] @ basis.u; `transform` composes the
    permutation and the unimodular matrix into a single unimodular transform on
    the original column order.  basis, transform, transform_inv, offset and
    pinv are views of those of its KlrStack; built without the last four, it
    is the member of a stack of one from _selection.  dataclasses.replace
    passes them on: it may change only extended and the ODF fields.
    """

    basis: ReducedBasis
    perm: tuple
    odf_selected: float
    odf_baseline: float
    candidate_odfs: tuple
    extended: bool = False
    transform: np.ndarray = field(default=None, repr=False, compare=False)
    transform_inv: np.ndarray = field(default=None, repr=False, compare=False)
    offset: np.ndarray = field(default=None, repr=False, compare=False)
    pinv: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.pinv is None:
            one = _stack_of_one(self.basis)
            base, cands = np.array([self.odf_baseline]), (self.candidate_odfs,)
            one = _selection(one, (self.perm,), base, cands, self.extended)
            for name in ("transform", "transform_inv", "offset", "pinv"):
                object.__setattr__(self, name, getattr(one, name)[0])


@dataclass(frozen=True)
class KlrStack:
    """The switched selections of a stack of channels, as stacked arrays.

    Member i is what KlrResult states of one channel: basis holds the kept
    reduced bases (their Q factored), perms and candidate_odfs hold one
    tuple per member, odf_baseline is (B,), transform = P U and
    transform_inv = U^-1 P^T are (B, n, n), offset (B, n) and pinv
    (B, n, rows).  An int index gives the KlrResult of one member and a
    slice a KlrStack, both of views.
    """

    basis: ReducedStack
    perms: tuple
    odf_baseline: np.ndarray
    candidate_odfs: tuple
    transform: np.ndarray
    transform_inv: np.ndarray
    offset: np.ndarray
    pinv: np.ndarray
    extended: bool = False

    @property
    def odf_selected(self) -> np.ndarray:
        """(B,) ODF of each kept basis."""
        return self.basis.odf

    def __len__(self) -> int:
        return len(self.perms)

    def __getitem__(self, i):
        arrays = self.transform, self.transform_inv, self.offset, self.pinv
        lr = [a[i] for a in arrays]
        if isinstance(i, slice):
            return KlrStack(
                self.basis[i], self.perms[i], self.odf_baseline[i],
                self.candidate_odfs[i], *lr, self.extended,
            )
        return KlrResult(
            self.basis[i], self.perms[i], float(self.basis.odf[i]),
            float(self.odf_baseline[i]), self.candidate_odfs[i], self.extended, *lr,
        )


def _k_limit(n: int) -> int:
    return min(math.factorial(n) - 1, MAX_CANDIDATES)


def _select_all(chans, perms, ks, params: ReductionParams) -> dict:
    """The switched selections of stacks of channels, one KlrStack per
    (extended, k), member b for channel b.  Per flavour f of ks (False
    plain, True extended): chans[f] is a (B, rows, n) stack of channels,
    perms[f] a (B, K, n) integer array of each channel's candidate
    permutations (the first max k used), and ks[f] the k of its
    selections: None the identity (U = I), 0 the CLLL baseline, k >= 1 the
    pick among the first k candidates (_pick).  Each flavour's candidates
    are one gather, all are reduced in one clll_reduce_batch call, and
    every k is picked before the stacks are released and _selection forms
    the rest.
    """
    reducing = sorted(f for f in ks if ks[f] - {None})
    cands = {f: np.asarray(perms[f])[:, : max(ks[f] - {None})] for f in reducing}
    stacks = [_candidate_stack(chans[f], cands[f]) for f in reducing]
    reduced = clll_reduce_batch(stacks, params) if stacks else []
    del stacks  # the picks need only the reduced bases
    picks = {}
    for f in reducing:
        stack = reduced.pop(0)
        picks.update({(f, k): _pick(stack, cands[f], k) for k in ks[f] - {None}})
        del stack
    for f in ks:
        if None in ks[f]:
            picks[f, None] = _identity(chans[f])
    return {key: _selection(*pick, key[0]) for key, pick in picks.items()}


def _pick(reduced: ReducedStack, perms, k: int) -> tuple:
    """Per channel of a reduced _candidate_stack, the lowest-ODF of its
    first k candidates if it strictly beats the baseline, else the
    baseline: (kept, chosen, baseline ODFs, candidate ODFs), kept a
    ReducedStack of copies of the kept bases, chosen their permutations."""
    odfs = reduced.odf.reshape(len(perms), -1)
    base, cands = odfs[:, 0], odfs[:, 1 : 1 + k]
    groups = np.arange(len(odfs))
    pick = np.zeros(len(odfs), dtype=np.intp)
    if k:
        best = np.argmin(cands, axis=1)
        pick = np.where(cands[groups, best] < base, 1 + best, 0)
    kept = reduced[groups * odfs.shape[1] + pick]
    ident = tuple(range(reduced.u.shape[-1]))
    chosen = (tuple(p[i - 1].tolist()) if i else ident for p, i in zip(perms, pick))
    return kept, tuple(chosen), base.copy(), tuple(map(tuple, cands.tolist()))


def _selection(kept: ReducedStack, chosen, base, cands, extended: bool) -> KlrStack:
    """The KlrStack of what _pick took, its _lr_arrays formed for the whole
    stack in one call each."""
    return KlrStack(kept, chosen, base, cands, *_lr_arrays(chosen, kept), extended)


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
    drawn = object.__new__(PermutationSet)  # valid as drawn: not checked again
    drawn.__dict__.update(n=n, perms=tuple(out))
    return drawn


def klr_select_with(
    h, perms: PermutationSet, params: ReductionParams = ReductionParams()
) -> KlrResult:
    """Run the switched selection against an explicit permutation set."""
    h = as_matrix(h)
    if perms.n != h.shape[1]:
        raise ValidationError("permutation size does not match column count")
    k, chans = len(perms.perms), {False: h[np.newaxis]}
    found = _select_all(chans, {False: [perms.perms]}, {False: {k}}, params)
    return found[False, k][0]


def _candidate_stack(mats: np.ndarray, perms) -> np.ndarray:
    """Each matrix of a (B, rows, n) stack followed by its K column
    permutations perms[b], gathered into one C-contiguous (B (1 + K), rows,
    n) stack: matrix b at b (1 + K), its candidate by perms[b][j] at offset
    1 + j after it."""
    count, rows, n = mats.shape
    cols = np.empty((count, 1 + len(perms[0]), 1, n), dtype=np.intp)
    cols[:, 0] = np.arange(n)
    cols[:, 1:, 0] = np.reshape(perms, cols[:, 1:, 0].shape)
    # the gather writes a new array in C order
    return np.take_along_axis(mats[:, np.newaxis], cols, axis=-1).reshape(-1, rows, n)


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
    h = extend_channel(h, [sigma_n])
    rng = np.random.default_rng() if rng is None else rng
    perms = sample_permutations(h.shape[-1], k, rng).perms
    return _select_all({True: h}, {True: [perms]}, {True: {k}}, params)[True, k][0]


def _identity(mats) -> tuple:
    """What _selection takes for the identity selections of a (B, rows, n)
    stack of channels: U = I, no permutation and no candidates, on which LR
    detection is conventional ZF (on H) or MMSE (on [H; sigma_n I]).  One
    QR of the channels gives both factors of the basis."""
    count, _, n = mats.shape
    eye = np.repeat(np.eye(n, dtype=np.complex128)[np.newaxis], count, axis=0)
    iters = np.zeros(count, dtype=np.intp)
    basis = _reduced_stack(mats, eye, eye.copy(), iters, with_q=True)
    return basis, (tuple(range(n)),) * count, basis.odf, ((),) * count


def identity_result(h, extended: bool = False, sigma_n: float = 0.0) -> KlrResult:
    """KlrResult with U = I and no permutation (reduction disabled): the
    member of a stack of one from _select_all, as the sweep forms them.

    Feeding this to the LR detectors reproduces the conventional detector of
    the same kind.
    """
    h = as_matrix(h)
    mats = extend_channel(h, [sigma_n]) if extended else h[np.newaxis].copy()
    found = _select_all({extended: mats}, {}, {extended: {None}}, ReductionParams())
    return found[extended, None][0]
