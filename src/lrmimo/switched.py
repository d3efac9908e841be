"""Randomly switched CLLL candidate selection, of a channel or of a stack.

klr_select reduces K random column permutations of the channel H, or of
[H; sigma_n I] for MMSE, scores each by orthogonality defect and keeps the
best only when it strictly beats the unpermuted CLLL baseline.  The composed
transform (permutation times unimodular matrix) is tracked so detection
recovers the original symbol order automatically.
"""

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .linalg import _as_stack, _pinv_from_qr, as_matrix
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
    """K distinct non-identity permutations of {0..n-1}, as tuples of ints."""

    n: int
    perms: tuple

    def __post_init__(self):
        try:  # a list or an array row too, its entries as Python ints
            perms = tuple(tuple(map(operator.index, p)) for p in self.perms)
        except TypeError as exc:
            raise ValidationError(f"permutations must be integers: {self.perms}") from exc
        object.__setattr__(self, "perms", perms)
        ident = tuple(range(self.n))
        seen = set()
        for p in perms:
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


def _lr_arrays(perms, basis: ReducedStack | ReducedBasis) -> tuple:
    """The transforms LR detection reads of each member of a stack of kept
    bases and of its permutation perms[i], or of one basis and its
    permutation perms: T = P U and T^-1 = U^-1 P^T (P's column j is unit
    vector perm[j]; the matmuls keep the exact bits of the Gaussian
    integers, signed zeros included) and d = _offset(T^-1).  The filter
    comes from the QR of the basis (_pinv_from_qr)."""
    p_t = np.eye(basis.u.shape[-1], dtype=np.complex128)[np.array(perms, dtype=np.intp)]
    t_inv = basis.u_inv @ p_t
    return np.swapaxes(p_t, -1, -2) @ basis.u, t_inv, _offset(t_inv)


@dataclass(frozen=True)
class KlrResult:
    """Outcome of the switched selection.

    basis.h_tilde equals H[:, perm] @ basis.u; `transform` composes the
    permutation and the unimodular matrix into a single unimodular transform on
    the original column order.  basis, transform, transform_inv, offset and
    pinv are views of those of its KlrStack; built without the last four, it
    forms them with _lr_arrays and _pinv_from_qr on its lone basis.
    dataclasses.replace passes them on: it may change only extended and the
    ODF fields.
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
            names = "transform", "transform_inv", "offset", "pinv"
            pinv = _pinv_from_qr(self.basis.q, self.basis.r)
            for name, a in zip(names, (*_lr_arrays(self.perm, self.basis), pinv)):
                object.__setattr__(self, name, a)


@dataclass(frozen=True)
class KlrStack:
    """The switched selections of a stack of channels, as stacked arrays.

    Member i is what KlrResult states of one channel: basis holds the kept
    reduced bases (their Q factored), perms and candidate_odfs hold one
    tuple per member, odf_baseline is (B,), transform = P U and
    transform_inv = U^-1 P^T are (B, n, n), offset (B, n) and pinv
    (B, n, rows).  pinv, the LR-ZF/MMSE filter, is formed on first access
    from the QR of the bases, as ReducedStack.q is, so a stack that only
    SIC reads forms none.  An int index gives the KlrResult of one member,
    of views, and a slice a KlrStack of views, built from the parts of the
    stack's fields without __init__, which keeps its part of a pinv already
    formed.
    """

    basis: ReducedStack
    perms: tuple
    odf_baseline: np.ndarray
    candidate_odfs: tuple
    transform: np.ndarray
    transform_inv: np.ndarray
    offset: np.ndarray
    extended: bool = False

    @property
    def odf_selected(self) -> np.ndarray:
        """(B,) ODF of each kept basis."""
        return self.basis.odf

    @cached_property
    def pinv(self) -> np.ndarray:
        return _pinv_from_qr(self.basis.q, self.basis.r)

    def __len__(self) -> int:
        return len(self.perms)

    def __getitem__(self, i):
        if isinstance(i, slice):
            part = object.__new__(KlrStack)
            vars(part).update(
                {name: v if name == "extended" else v[i] for name, v in vars(self).items()}
            )
            return part
        return KlrResult(
            self.basis[i], self.perms[i], float(self.basis.odf[i]),
            float(self.odf_baseline[i]), self.candidate_odfs[i], self.extended,
            self.transform[i], self.transform_inv[i], self.offset[i], self.pinv[i],
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
    """The KlrStack of what _pick took, its _lr_arrays and the Q of its
    bases, which every LR detection reads (SIC, or the filter), formed for
    the whole stack in one call each."""
    kept.q  # formed on this first read, for the whole stack
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
    k: int | None,
    params: ReductionParams = ReductionParams(),
    rng: np.random.Generator | None = None,
    *,
    perms=None,
    sigma_n=None,
) -> KlrResult | KlrStack:
    """The switched CLLL selection of a channel, a KlrResult, or of a (B,
    rows, n) stack of them, a KlrStack whose member b is channel b's.

    k None gives the identity (U = I: LR detection on it is the conventional
    detector), 0 the CLLL baseline and k >= 1 the lowest-ODF of the first k
    candidates where it strictly beats the baseline.  The candidates are
    perms, a PermutationSet (for a stack, one per channel), or else k drawn
    per channel, in channel order, by sample_permutations from rng.  sigma_n
    (a value, or one per channel) selects on [H; sigma_n I], for MMSE.
    Arguments that would be ignored raise ValidationError."""
    mats = _as_stack(h)
    lone = mats.ndim == 2
    if mats.ndim > 3 or mats.size == 0:
        raise ValidationError(f"expected a channel or a stack, got shape {mats.shape}")
    mats = mats.reshape(-1, *mats.shape[-2:])
    count, _, n = mats.shape
    if k is not None and not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ValidationError(f"k must be None or an integer >= 0, got {k!r}")
    if perms is not None:
        sets = [perms] if lone else perms
        if not k or rng is not None or isinstance(sets, PermutationSet) or (
            len(sets) != count
            or not all(isinstance(p, PermutationSet) and p.n == n for p in sets)
            or min(len(p.perms) for p in sets) < k
        ):
            raise ValidationError(f"perms: for k >= 1, no rng; {count} sets of >= {k}")
        groups = [p.perms[:k] for p in sets]
    elif k:
        rng = np.random.default_rng() if rng is None else rng
        groups = [sample_permutations(n, k, rng).perms for _ in range(count)]
    else:
        groups = np.zeros((count, 0, n), dtype=np.intp)
    extended = sigma_n is not None
    if extended:
        sigmas = np.asarray(sigma_n, dtype=np.float64)
        if sigmas.shape not in ((), () if lone else (count,)):
            raise ValidationError("sigma_n: a value, or one per channel of a stack")
        sigmas = np.broadcast_to(sigmas, count)
        mats = [extend_channel(m, s) for m, s in zip(mats, sigmas)]
    mats = np.stack(mats)  # a copy: the identity keeps it as its basis
    found = _select_all({extended: mats}, {extended: groups}, {extended: {k}}, params)
    return found[extended, k][0] if lone else found[extended, k]


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
