"""Byte-level A/B of lrmimo's outputs: a git ref against the working tree.

Extracts a git ref (default HEAD) with `git archive` into a temporary
directory, as bench/compare.py does, then runs one fixed, seeded corpus in
a child process per tree, each importing lrmimo from that tree's `src` with
BLAS on one thread.  The corpus is this file's, so both trees run the same
cases.  Each child digests every array of every case (SHA-256 of its dtype,
shape and bytes; other values by their repr), and the two digest lists are
compared.  Prints one JSON line: the ref and its commit, the number of cases
and of digested fields, the number of cases that differ, and each differing
case with its differing fields (empty when none).  Exits 0 when every
digest agrees, 1 otherwise.

The corpus:

- lone and batched `clll_reduce_batch` calls over n = 2..6, square and
  extended ([H; sigma I]) bases, delta 0.75 and 0.99, a quarter of the bases
  near-dependent (column 1 = (1+0.3j) column 0 + 1e-6 noise): every array
  of each returned stack, Q included;
- the same at n = 7 and 8, lone and batched, and the ill-conditioned probe
  of tests/test_reduction.py (a 4x4 basis, column 1 = (1+0.3j) column 0 +
  eps noise, eps = 1e-6, 1e-9 and 1e-11) through `clll_reduce`; where a
  case raises, the type and message of its error are digested in place of
  its fields;
- sheared bases (random Gaussian-integer column shears, as
  tests/test_reduction.py::hard_basis scrambles them), 20 and 40 shears,
  n = 4 and 6, 6 and 12 rows, delta 0.75 and 0.99, lone and batched; the
  parts of a reduced stack read before the whole (an index array, as
  switched._pick keeps its bases, then a slice) and a member read by int
  index: every array, U^-1 and Q included; and h_tilde alone of an index
  array part, of a slice of it, of a slice and of a member, each read
  before any other field and before the whole stack's;
- `clll_reduce_batch` calls whose stacks span several QR blocks, with block
  boundaries inside a stack: 700 extended 12x6 bases; 300 plain 6x6 beside
  500 extended 12x6; 1500 plain 4x4 beside 700 extended 8x4, as in a
  detect-16qam chunk; and an empty stack beside a nonempty one;
- `qr_decompose` and `clll_reduce_batch` of stacks scaled by 1e+-150, of
  near rank-deficient stacks, of stacks with a NaN or +-inf entry (the
  error is digested) and of non-contiguous stacks;
- switched selection stacks, plain and extended, K = 0 and 3, through
  `switched._select_all`: the basis arrays, perms, ODFs, T, T^-1, d and
  pinv of the stack, of a slice and of each member;
- selection stacks of B = 1 and 3 channels, plain and extended (one
  sigma per channel), k = None (the identity), 0, 1 and 3 with explicit
  permutations, through `klr_select` or, in a tree whose `klr_select`
  takes no stack, `switched._select_all`: every field of the stack and of
  each member;
- `sim._chunk_selections` of several channels, each with its own
  permutations, plain and extended, K = 0 and 3, with and without the
  identity selections: every field of each trial's stacks;
- selections of one channel against explicit permutations
  (`klr_select(h, len(p.perms), perms=p)`, or `klr_select_with` in a tree
  that has it), of plain and extended channels, and the
  `replace(..., extended=True)` copies of the extended ones;
- `detectors._lr_estimate`'s m and T m for the four kinds at M = 4, 16 and
  64, with a stack of selections and with one lone selection, each also
  written into NaN-filled `out` arrays;
- the public detectors at M = 4 and 16 for the four kinds: LR detection
  of a vector, of a block, of a stack with one selection and of a stack
  with a `KlrStack` of one member per block; and SIC of a vector and of a
  block, through `lr_detect` and `sic_detect`;
- ML decisions at M = 4, 16 and 64 on 2x2, 3x3 and 2x3 channels, the
  noise of each block's columns from light to heavy so that they spread
  over the grid, of the block and of two of its columns alone; 2x2 64-QAM
  and 3x3 16-QAM blocks of 1000 and 700 columns, which span several
  search blocks, and 50 of those columns searched in
  blocks of 1024 entries (`detectors._ML_BLOCK_ENTRIES`), which split the
  candidates too;
- identity selections (U = T = I: `klr_select(h, None)`, or
  `identity_result` in a tree that has it), plain and extended, of square
  and 3x4 channels;
- lone `clll_reduce` bases, square and extended, n = 2..6, and
  `kz_reduce` of small bases (n <= 4): every field of the ReducedBasis;
  every KZ case below and here also digests U's canonical form
  (`u_canonical`: each column times the unit that puts its first nonzero
  entry in re > 0, im >= 0, in its column order), so a change of column
  units alone shows as such;
- `KlrResult`s built directly from a ReducedBasis (the CLLL basis of a
  channel, its KZ basis with composed transforms, and the CLLL basis of a
  column permutation), as the acceptance oracle builds them, and extended
  selections with sampled permutations (`klr_select(h, k, sigma_n=s)`, or
  `klr_select_extended` in a tree that has it);
- `kz_reduce` at n = 5 and 6 (max_dim 6): every field of the ReducedBasis;
  `shortest_vector`'s v and coefficients at n = 2..4; and the verdicts of
  `is_kz_reduced` on KZ bases at n = 2..6 and on copies with one entry
  above the diagonal raised past half its pivot, or to just within it;
- `is_unimodular` verdicts at n = 1..8: seeded products of elementary
  Gaussian column operations (shears, unit scalings, swaps), the same with
  one column times (1+j), with 0.25 or 1e-10 added to one entry, or with
  its last column dropped;
- the `run_sweep` records of the golden configs (tests/test_golden.py), of
  the three benchmark shapes at 8 trials, and of four shapes that reach the
  conventional detectors (zf, mmse, ml) beyond those: 64-QAM, a 3x4
  channel, a packet of several blocks per trial and delta 0.99, an
  ML-only sweep, and an ML-only 2x2 64-QAM sweep of one 2000-symbol
  packet; and of five shapes of the blocks of SNR points that a trial is
  detected in: a short last block, slice indices of 42 and 30 bytes per
  point (not a multiple of 8), ml together with LR variants in one block,
  and 256-QAM.

No digest is stored: LAPACK bits may differ between hosts, so the tool
compares two trees on one host, and the golden counts stay the portable
pins.  Run from the root of a checkout:

    python3 bench/ab_bytes.py --ref HEAD~1
"""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from compare import extract, git  # noqa: E402

THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# what is digested of a selection: a KlrStack, then a KlrResult
STACK_FIELDS = (
    "basis.h_tilde", "basis.u", "basis.u_inv", "basis.r", "basis.q", "basis.odf",
    "basis.iterations", "perms", "odf_baseline", "odf_selected", "candidate_odfs",
    "transform", "transform_inv", "offset", "pinv",
)
RESULT_FIELDS = (
    "basis.h_tilde", "basis.u", "basis.u_inv", "basis.r", "basis.q",
    "basis.odf_value", "basis.iteration_count", "perm", "odf_selected",
    "odf_baseline", "candidate_odfs", "extended", "transform", "transform_inv",
    "offset", "pinv",
)
BASIS_FIELDS = ("h_tilde", "u", "u_inv", "r", "q", "odf", "iterations")
MEMBER_FIELDS = ("h_tilde", "u", "u_inv", "r", "q", "odf_value", "iteration_count")


def digest(value) -> str:
    """SHA-256 of an array's dtype, shape and bytes, or of another value's repr."""
    import numpy as np

    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    return h.hexdigest()


def canonical(u):
    """u with each column times the unit that puts its first nonzero entry
    in re > 0, im >= 0; + 0j leaves no -0 part."""
    import numpy as np

    out = np.array(u, dtype=np.complex128)
    for col in out.T:
        lead = col[np.flatnonzero(col)[0]]
        while not (lead.real > 0 and lead.imag >= 0):
            lead *= 1j
            col *= 1j
    return out + 0j


def read(obj, path: str):
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def corpus():
    """Yield (case, field, value) of every case, in a fixed order."""
    import numpy as np

    from lrmimo import detectors
    from lrmimo.detectors import (
        DETECTOR_KINDS,
        _lr_estimate,
        lr_detect,
        ml_detect,
        sic_detect,
    )
    from lrmimo.kz import EnumerationBudget, is_kz_reduced, kz_reduce, shortest_vector
    from lrmimo.linalg import qr_decompose
    from lrmimo.modem import ConstellationSpec
    from lrmimo.reduction import (
        ReductionParams,
        clll_reduce,
        clll_reduce_batch,
        is_unimodular,
    )
    from lrmimo import switched
    from lrmimo.sim import SimConfig, _chunk_selections, run_sweep
    from lrmimo.switched import (
        KlrResult,
        PermutationSet,
        extend_channel,
        sample_permutations,
    )

    # the single-channel entries of a tree that has them (klr_select_with,
    # klr_select_extended, identity_result), else the one klr_select
    one_entry = not hasattr(switched, "klr_select_with")

    def select_with(h, perms, params):
        if one_entry:
            return switched.klr_select(h, len(perms.perms), params, perms=perms)
        return switched.klr_select_with(h, perms, params)

    def select_extended(h, sigma_n, k, rng):
        if one_entry:
            return switched.klr_select(h, k, rng=rng, sigma_n=sigma_n)
        return switched.klr_select_extended(h, sigma_n, k, rng=rng)

    def identity(h, sigma_n=None):
        if one_entry:
            return switched.klr_select(h, None, sigma_n=sigma_n)
        if sigma_n is None:
            return switched.identity_result(h)
        return switched.identity_result(h, extended=True, sigma_n=sigma_n)

    def crandn(rng, *shape):
        parts = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return parts / np.sqrt(2)

    def extended_all(mats, sigma):
        return np.stack([extend_channel(h, sigma) for h in mats])

    def bases(rng, count, n, extended):
        mats = crandn(rng, count, n, n)
        mats[::4, :, 1] = (1 + 0.3j) * mats[::4, :, 0] + 1e-6 * crandn(rng, n)[None]
        return extended_all(mats, 0.3) if extended else mats

    def select(mats, groups, ks, extended):
        """{k: KlrStack} of the switched selections of the channels mats,
        channel g with the candidates groups[g]."""
        found = switched._select_all(
            {extended: mats}, {extended: groups}, {extended: set(ks)}, ReductionParams()
        )
        return {k: found[(extended, k)] for k in ks}

    def select_stack(chans, k, groups, sigmas):
        """The KlrStack of the channels chans at k, channel b with the
        candidates groups[b]: extended by sigmas[b], or plain where sigmas
        is None; through klr_select where the tree takes a stack there,
        else through switched._select_all."""
        if one_entry:
            perms = [PermutationSet(h.shape[-1], g) for h, g in zip(chans, groups)]
            perms = perms if k else None
            return switched.klr_select(chans, k, perms=perms, sigma_n=sigmas)
        extended = sigmas is not None
        if extended:
            chans = np.stack([extend_channel(h, s) for h, s in zip(chans, sigmas)])
        found = switched._select_all(
            {extended: chans}, {extended: groups}, {extended: {k}}, ReductionParams()
        )
        return found[extended, k]

    def column_ops(rng, n):
        """A product of 2n random elementary Gaussian column operations on
        I: a shear by a Gaussian integer of parts in {-1, 0, 1}, a unit
        scaling or a swap."""
        u = np.eye(n, dtype=np.complex128)
        for _ in range(2 * n):
            i, j = rng.permutation(n)[:2] if n > 1 else (0, 0)
            op = rng.integers(3) if n > 1 else 1
            if op == 0:
                u[:, j] += complex(*rng.integers(-1, 2, 2)) * u[:, i]
            elif op == 1:
                u[:, i] *= (1, -1, 1j, -1j)[rng.integers(4)]
            else:
                u[:, [i, j]] = u[:, [j, i]]
        return u

    def candidates(rng, mats):
        """3 candidate permutations for each channel of mats."""
        return [sample_permutations(mats.shape[-1], 3, rng).perms for _ in mats]

    def stack_fields(case, stack):
        for name in BASIS_FIELDS:
            yield case, name, getattr(stack, name)

    def selection(case, sel, fields):
        for name in fields:
            yield case, name, read(sel, name)

    def outcome(case, fields, reduce, *args):
        """The fields of reduce(*args), of its first stack where it returns
        a list, each of its items where it returns a tuple, or the type and
        message of what it raises."""
        try:
            result = reduce(*args)
        except Exception as exc:  # a raising case is digested too
            yield case, "error", f"{type(exc).__name__}: {exc}"
            return
        if isinstance(result, tuple):
            yield from ((case, name, a) for name, a in zip(fields, result))
            return
        if isinstance(result, list):
            result = result[0]
        yield from selection(case, result, fields)

    def sheared(rng, count, rows, n, shears):
        """count bases scrambled as tests/test_reduction.py::hard_basis
        scrambles one: shears random column shears by Gaussian integers of
        parts in [-3, 3]."""
        mats = crandn(rng, count, rows, n)
        for h in mats:
            for _ in range(shears):
                i, j = rng.choice(n, 2, replace=False)
                h[:, j] += complex(*rng.integers(-3, 4, 2)) * h[:, i]
        return mats

    # CLLL: per delta and n, each basis lone, each flavour's 8 in one call,
    # and both flavours' stacks in one call
    rng = np.random.default_rng(1401)
    for delta in (0.75, 0.99):
        params = ReductionParams(delta)
        for n in range(2, 7):
            stacks = {}
            for flavour in ("square", "extended"):
                mats = stacks[flavour] = bases(rng, 8, n, flavour == "extended")
                tag = f"clll/d{delta}/n{n}/{flavour}"
                for i, mat in enumerate(mats):
                    out = clll_reduce_batch([mat[None]], params)[0]
                    yield from stack_fields(f"{tag}/lone{i}", out)
                out = clll_reduce_batch([mats], params)[0]
                yield from stack_fields(f"{tag}/batch", out)
            outs = clll_reduce_batch(list(stacks.values()), params)
            for flavour, out in zip(stacks, outs):
                yield from stack_fields(f"clll/d{delta}/n{n}/both/{flavour}", out)

    # CLLL at n = 7 and 8: per delta and flavour, each basis lone and the 8
    # in one call
    rng = np.random.default_rng(1409)
    for delta in (0.75, 0.99):
        params = ReductionParams(delta)
        for n in (7, 8):
            for flavour in ("square", "extended"):
                mats = bases(rng, 8, n, flavour == "extended")
                tag = f"clll-large/d{delta}/n{n}/{flavour}"
                for i, mat in enumerate(mats):
                    args = clll_reduce_batch, [mat[None]], params
                    yield from outcome(f"{tag}/lone{i}", BASIS_FIELDS, *args)
                args = clll_reduce_batch, [mats], params
                yield from outcome(f"{tag}/batch", BASIS_FIELDS, *args)

    # the ill-conditioned probe of tests/test_reduction.py: a 4x4 basis
    # whose column 1 is (1+0.3j) column 0 plus eps noise, far above the
    # rank tolerance
    for eps in (1e-6, 1e-9, 1e-11):
        rng = np.random.default_rng(0)
        h = crandn(rng, 4, 4)
        h[:, 1] = (1 + 0.3j) * h[:, 0] + eps * crandn(rng, 4)
        for delta in (0.75, 0.99):
            args = clll_reduce, h, ReductionParams(delta)
            yield from outcome(f"probe/eps{eps:g}/d{delta}", MEMBER_FIELDS, *args)

    # sheared bases, whose U and U^-1 parts run far above those of random
    # bases: per shear count, n, rows and delta, each basis lone and the
    # four in one call
    rng = np.random.default_rng(1416)
    for shears in (20, 40):
        for n in (4, 6):
            for rows in (6, 12):
                for delta in (0.75, 0.99):
                    mats = sheared(rng, 4, rows, n, shears)
                    params = ReductionParams(delta)
                    tag = f"clll-sheared/s{shears}/n{n}/r{rows}/d{delta}"
                    for i, mat in enumerate(mats):
                        args = clll_reduce_batch, [mat[None]], params
                        yield from outcome(f"{tag}/lone{i}", BASIS_FIELDS, *args)
                    args = clll_reduce_batch, [mats], params
                    yield from outcome(f"{tag}/batch", BASIS_FIELDS, *args)

    # parts of a reduced stack read before the whole: an index array, as
    # switched._pick keeps its bases, then a slice, then the whole stack,
    # and a member of a stack read by int index alone
    rng = np.random.default_rng(1417)
    for rows, n in ((6, 4), (12, 6)):
        mats = sheared(rng, 8, rows, n, 20)
        stack = clll_reduce_batch([mats])[0]
        tag = f"clll-parts/{rows}x{n}"
        yield from stack_fields(f"{tag}/index", stack[np.array([5, 1, 5, 7])])
        yield from stack_fields(f"{tag}/slice", stack[2:6])
        yield from stack_fields(f"{tag}/whole", stack)
        member = clll_reduce_batch([mats])[0][3]
        yield from selection(f"{tag}/member", member, MEMBER_FIELDS)

    # h_tilde of parts read before any other field and before the whole
    # stack's: an index array (as switched._pick keeps its bases), a slice
    # of that part, a slice, then an int member
    rng = np.random.default_rng(1420)
    for rows, n in ((6, 4), (12, 6)):
        stack = clll_reduce_batch([sheared(rng, 8, rows, n, 20)])[0]
        tag = f"clll-h-first/{rows}x{n}"
        picked = stack[np.array([6, 2, 6, 0])]
        yield f"{tag}/index", "h_tilde", picked.h_tilde
        yield f"{tag}/index-slice", "h_tilde", stack[np.array([7, 1, 4])][1:].h_tilde
        yield f"{tag}/slice", "h_tilde", stack[1:5].h_tilde
        yield f"{tag}/member", "h_tilde", stack[3].h_tilde
        yield from stack_fields(f"{tag}/index", picked)
        yield from stack_fields(f"{tag}/whole", stack)

    # calls whose stacks span several QR blocks, with block boundaries
    # inside a stack: 700 extended 12x6 bases alone; 300 plain 6x6 and 500
    # extended 12x6 ones; 1500 plain 4x4 and 700 extended 8x4 ones, the
    # flavours of a detect-16qam chunk; and an empty stack beside a
    # nonempty one, either way round
    rng = np.random.default_rng(1421)
    calls = {
        "12x6": [extended_all(crandn(rng, 700, 6, 6), 0.3)],
        "6x6+12x6": [crandn(rng, 300, 6, 6), extended_all(crandn(rng, 500, 6, 6), 0.3)],
        "4x4+8x4": [crandn(rng, 1500, 4, 4), extended_all(crandn(rng, 700, 4, 4), 0.3)],
        "empty+4x4": [np.zeros((0, 8, 4), dtype=complex), crandn(rng, 5, 4, 4)],
        "8x4+empty": [extended_all(crandn(rng, 5, 4, 4), 0.3), np.zeros((0, 4, 4))],
    }
    for name, stacks in calls.items():
        for s, out in enumerate(clll_reduce_batch(stacks)):
            yield from stack_fields(f"clll-blocks/{name}/stack{s}", out)

    # QR and CLLL of stacks scaled by 1e+-150, of near rank-deficient
    # stacks (column 2 = column 0 - 1j column 1 + eps noise), of stacks
    # with a NaN or +-inf entry (the error is digested) and of
    # non-contiguous stacks: a transposed view, a row-strided view and a
    # Fortran-ordered copy
    rng = np.random.default_rng(1418)
    qr_inputs = {}
    for scale in (1e150, 1e-150):
        qr_inputs[f"scaled{scale:g}"] = scale * crandn(rng, 4, 5, 3)
    for eps in (1e-9, 1e-11, 1e-12, 1e-13):
        mats = crandn(rng, 4, 5, 3)
        mats[1, :, 2] = mats[1, :, 0] - 1j * mats[1, :, 1] + eps * crandn(rng, 5)
        qr_inputs[f"near{eps:g}"] = mats
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
        mats = crandn(rng, 3, 4, 3)
        mats[2, 1, 0] = bad
        qr_inputs[f"nonfinite{bad}"] = mats
    wide = crandn(rng, 4, 5, 7)
    qr_inputs["transposed"] = np.swapaxes(wide, -1, -2)
    qr_inputs["row-strided"] = crandn(rng, 4, 10, 3)[:, ::2]
    qr_inputs["fortran"] = np.asfortranarray(crandn(rng, 4, 5, 3))
    for name, mats in qr_inputs.items():
        tag = f"qr-inputs/{name}"
        yield from outcome(f"{tag}/qr", ("q", "r"), qr_decompose, mats)
        yield from outcome(f"{tag}/clll", BASIS_FIELDS, clll_reduce_batch, [mats])

    # switched selection stacks, their slices and members
    rng = np.random.default_rng(1402)
    for n, rows in ((4, 5), (6, 6)):
        for extended in (False, True):
            chans = crandn(rng, 6, rows, n)
            if extended:
                chans = extended_all(chans, 0.3)
            sels = select(chans, candidates(rng, chans), (0, 3), extended)
            for k, sel in sels.items():
                tag = f"select/n{n}/{'ext' if extended else 'plain'}/k{k}"
                yield from selection(f"{tag}/stack", sel, STACK_FIELDS)
                yield from selection(f"{tag}/slice", sel[1:4], STACK_FIELDS)
                for i in range(len(sel)):
                    yield from selection(f"{tag}/member{i}", sel[i], RESULT_FIELDS)

    # selection stacks of B = 1 and 3 channels, plain and extended (one
    # sigma per channel), each k with explicit permutations
    rng = np.random.default_rng(1419)
    for count in (1, 3):
        for n, rows in ((3, 4), (4, 4)):
            chans = crandn(rng, count, rows, n)
            groups = candidates(rng, chans)
            sigmas = 0.1 + 0.2 * np.arange(count)
            for extended in (False, True):
                for k in (None, 0, 1, 3):
                    sel = select_stack(chans, k, groups, sigmas if extended else None)
                    flavour = "ext" if extended else "plain"
                    tag = f"stack/b{count}/{rows}x{n}/{flavour}/k{k}"
                    yield from selection(tag, sel, STACK_FIELDS)
                    for i in range(len(sel)):
                        yield from selection(f"{tag}/member{i}", sel[i], RESULT_FIELDS)

    # selections against explicit permutations and replace(...,
    # extended=True) copies
    rng = np.random.default_rng(1403)
    for n in (2, 3, 4, 6):
        for i in range(4):
            h = crandn(rng, n + i % 2, n)
            perms = sample_permutations(n, min(3, math.factorial(n) - 1), rng)
            params = ReductionParams(0.99 if i % 2 else 0.75)
            tag = f"klr/n{n}/{i}"
            yield from selection(tag, select_with(h, perms, params), RESULT_FIELDS)
            ext = select_with(extend_channel(h, 0.2), perms, params)
            yield from selection(f"{tag}/ext", ext, RESULT_FIELDS)
            copy = replace(ext, extended=True)
            yield from selection(f"{tag}/ext-replaced", copy, RESULT_FIELDS)

    # the selections of a sweep's chunk: several channels, each with its
    # own permutations (5 drawn, the first max k used), plain and extended,
    # K = 0 and 3, with and without the identity selections
    rng = np.random.default_rng(1411)
    sigma2s = (0.2, 0.05, 0.01)
    chunk_ks = {
        "plain": {False: {0, 3}},
        "ext": {True: {0, 3}},
        "both": {False: {None, 0, 3}, True: {None, 0, 3}},
        "identity": {False: {None}, True: {None}},
        "mixed": {False: {None, 3}, True: {0}},
    }
    for n, rows in ((4, 4), (3, 5)):
        trials = [
            (crandn(rng, rows, n), None, None, sample_permutations(n, 5, rng).perms)
            for _ in range(4)
        ]
        for name, ks in chunk_ks.items():
            sels = _chunk_selections(trials, sigma2s, ks, ReductionParams())
            for t, sel in enumerate(sels):
                for (extended, k), stack in sorted(sel.items(), key=repr):
                    tag = f"chunk/{rows}x{n}/{name}/t{t}/{'ext' if extended else 'plain'}"
                    yield from selection(f"{tag}/k{k}", stack, STACK_FIELDS)

    # identity selections, plain and extended
    rng = np.random.default_rng(1405)
    for n, rows in ((2, 2), (3, 4), (4, 4)):
        h = crandn(rng, rows, n)
        tag = f"identity/{rows}x{n}"
        yield from selection(f"{tag}/plain", identity(h), RESULT_FIELDS)
        ext = identity(h, sigma_n=0.3)
        yield from selection(f"{tag}/ext", ext, RESULT_FIELDS)

    # lone clll_reduce bases, square and extended
    rng = np.random.default_rng(1406)
    for delta in (0.75, 0.99):
        params = ReductionParams(delta)
        for n in range(2, 7):
            for flavour in ("square", "extended"):
                mats = bases(rng, 4, n, flavour == "extended")
                for i, mat in enumerate(mats):
                    tag = f"clll-lone/d{delta}/n{n}/{flavour}/{i}"
                    yield from selection(tag, clll_reduce(mat, params), MEMBER_FIELDS)

    # KlrResults built directly on a CLLL, a KZ and a permuted CLLL basis
    rng = np.random.default_rng(1407)
    for n, rows in ((2, 2), (3, 3), (3, 4), (4, 4)):
        h = crandn(rng, rows, n)
        base = clll_reduce(h)
        kz = kz_reduce(base.h_tilde)
        yield from selection(f"kz/{rows}x{n}", kz, MEMBER_FIELDS)
        yield f"kz/{rows}x{n}", "u_canonical", canonical(kz.u)
        kz = replace(kz, u=base.u @ kz.u, u_inv=kz.u_inv @ base.u_inv)
        perm = sample_permutations(n, 1, rng).perms[0]
        ident = tuple(range(n))
        for name, basis, p in (
            ("clll", base, ident),
            ("kz", kz, ident),
            ("permuted", clll_reduce(h[:, list(perm)]), perm),
        ):
            klr = KlrResult(
                basis=basis,
                perm=p,
                odf_selected=basis.odf_value,
                odf_baseline=basis.odf_value,
                candidate_odfs=(),
            )
            yield from selection(f"built/{rows}x{n}/{name}", klr, RESULT_FIELDS)
            if name == "kz":
                yield f"built/{rows}x{n}/{name}", "u_canonical", canonical(basis.u)

    # KZ at n = 5 and 6, shortest vectors at n = 2..4, and is_kz_reduced
    # on KZ bases and on copies with one entry above the diagonal raised
    # past half its pivot (0.6) or to just within it (0.5 + 1e-10)
    rng = np.random.default_rng(1414)
    budget = EnumerationBudget(max_dim=6)
    for n in range(2, 7):
        for i in range(2):
            h = crandn(rng, n, n)
            tag = f"kz-oracle/n{n}/{i}"
            kz = kz_reduce(h, budget)
            yield tag, "u_canonical", canonical(kz.u)
            if n >= 5:
                yield from selection(tag, kz, MEMBER_FIELDS)
            else:
                v, coeffs = shortest_vector(h)
                yield tag, "shortest_v", v
                yield tag, "shortest_coeffs", coeffs
            yield tag, "is_kz_reduced", is_kz_reduced(kz.r, budget)
            row = int(rng.integers(n - 1))
            col = int(rng.integers(row + 1, n))
            for share in (0.6, 0.5 + 1e-10):
                raised = kz.r.copy()
                raised[row, col] = share * kz.r[row, row] + 1j * kz.r[row, col].imag
                verdict = is_kz_reduced(raised, budget)
                yield tag, f"is_kz_reduced/raised{share:g}", verdict

    # is_unimodular: products of elementary column operations and the
    # same with one column times (1+j), an entry off by 0.25 or by 1e-10
    # (within the integrality tolerance), or the last column dropped
    rng = np.random.default_rng(1415)
    for n in range(1, 9):
        for i in range(6):
            u = column_ops(rng, n)
            j, k = rng.integers(n, size=2)
            scaled, off, near = u.copy(), u.copy(), u.copy()
            scaled[:, j] *= 1 + 1j
            off[j, k] += 0.25
            near[j, k] += 1e-10
            tag = f"unimodular/n{n}/{i}"
            for name, mat in (
                ("ops", u), ("scaled", scaled), ("off", off), ("near", near),
                ("non-square", u[:, :-1] if n > 1 else u[:, :0]),
            ):
                try:
                    yield tag, name, is_unimodular(mat)
                except Exception as exc:  # a raising case is digested too
                    yield tag, name, f"{type(exc).__name__}: {exc}"

    # extended selections with sampled permutations
    rng = np.random.default_rng(1408)
    for n in (2, 3, 4, 6):
        for i in range(3):
            h = crandn(rng, n + i % 2, n)
            k = min(3, math.factorial(n) - 1)
            res = select_extended(h, 0.1 + 0.2 * i, k, rng)
            yield from selection(f"klr-extended/n{n}/{i}", res, RESULT_FIELDS)

    def into_stale(y, sel, kind, spec):
        """_lr_estimate with NaN-filled out arrays."""
        rows, n = sel.basis.h_tilde.shape[-2:]  # work, then m and T m
        nan = complex(math.nan, math.nan)
        out = tuple(np.full((len(y), r, y.shape[2]), nan) for r in (rows, n, n))
        return _lr_estimate(y, sel, kind, spec, out=out)

    # the LR estimator: a stack of S selections, and one lone selection
    rng = np.random.default_rng(1404)
    n_t, n_r, count, batch = 4, 5, 3, 40
    for m in (4, 16, 64):
        spec = ConstellationSpec(m)
        chans = crandn(rng, count, n_r, n_t)
        sigma = 0.3 * np.sqrt(n_t / m)
        idx = rng.integers(0, spec.side, size=(count, n_t, batch, 2))
        x = spec.levels[idx[..., 0]] + 1j * spec.levels[idx[..., 1]]
        y = chans @ x + sigma * crandn(rng, count, n_r, batch)
        for kind in DETECTOR_KINDS:
            extended = kind in ("mmse", "sic-mmse")
            mats = extended_all(chans, sigma) if extended else chans
            sel = select(mats, candidates(rng, mats), (3,), extended)[3]
            tag = f"estimate/m{m}/{kind}"
            m_s, tm_s = _lr_estimate(y, sel, kind, spec)
            yield f"{tag}/stack", "m", m_s
            yield f"{tag}/stack", "tm", tm_s
            m_1, tm_1 = _lr_estimate(y, sel[0], kind, spec)
            yield f"{tag}/lone", "m", m_1
            yield f"{tag}/lone", "tm", tm_1
            for part, s in (("stack", sel), ("lone", sel[0])):
                m_o, tm_o = into_stale(y, s, kind, spec)
                yield f"{tag}/{part}-out", "m", m_o
                yield f"{tag}/{part}-out", "tm", tm_o

    # the public detectors: LR detection of a vector, a block and a stack,
    # with one selection and with a KlrStack of one member per block, and
    # SIC of a vector and a block
    rng = np.random.default_rng(1413)
    n_t, n_r, count, batch = 3, 4, 3, 12
    for m in (4, 16):
        spec = ConstellationSpec(m)
        chans = crandn(rng, count, n_r, n_t)
        sigma = 0.4 * np.sqrt(n_t / m)
        x = spec.alphabet[rng.integers(0, m, size=(count, n_t, batch))]
        y = chans @ x + sigma * crandn(rng, count, n_r, batch)
        for kind in DETECTOR_KINDS:
            extended = kind in ("mmse", "sic-mmse")
            mats = extended_all(chans, sigma) if extended else chans
            sel = select(mats, candidates(rng, mats), (3,), extended)[3]
            h, tag = chans[0], f"detect/m{m}/{kind}"
            yield f"{tag}/vector", "x_hat", lr_detect(y[0, :, 0], h, sel[0], kind, spec)
            yield f"{tag}/block", "x_hat", lr_detect(y[0], h, sel[0], kind, spec)
            yield f"{tag}/stack-one", "x_hat", lr_detect(y, h, sel[0], kind, spec)
            yield f"{tag}/stack", "x_hat", lr_detect(y, h, sel, kind, spec)
        for s, h in enumerate(chans):
            z = 2.0 * y[s] / spec.a
            yield f"sic/m{m}/{s}/vector", "z", sic_detect(h, z[:, 0])
            yield f"sic/m{m}/{s}/block", "z", sic_detect(h, z)

    # ML decisions: per order and channel shape, a block whose columns' noise
    # runs from a twentieth of a level spacing to three spacings
    rng = np.random.default_rng(1410)
    batch = 24
    for m in (4, 16, 64):
        spec = ConstellationSpec(m)
        scale = spec.a * np.geomspace(0.05, 3.0, batch)
        for n_t, n_r in ((2, 2), (3, 3), (2, 3)):
            h = crandn(rng, n_r, n_t)
            idx = rng.integers(0, spec.side, size=(n_t, batch, 2))
            x = spec.levels[idx[..., 0]] + 1j * spec.levels[idx[..., 1]]
            y = h @ x + scale * crandn(rng, n_r, batch)
            tag = f"ml/m{m}/{n_r}x{n_t}"
            yield tag, "batch", ml_detect(y, h, spec)
            for col in (0, batch - 1):
                yield f"{tag}/col{col}", "x_hat", ml_detect(y[:, col], h, spec)

    # ML decisions whose columns span several search blocks, and blocks
    # that split the candidates too
    rng = np.random.default_rng(1412)
    for m, n_t, batch in ((64, 2, 1000), (16, 3, 700)):
        spec = ConstellationSpec(m)
        h = crandn(rng, n_t, n_t)
        idx = rng.integers(0, spec.side, size=(n_t, batch, 2))
        x = spec.levels[idx[..., 0]] + 1j * spec.levels[idx[..., 1]]
        y = h @ x + spec.a * np.geomspace(0.05, 3.0, batch) * crandn(rng, n_t, batch)
        tag = f"ml-blocks/m{m}/{n_t}x{n_t}"
        yield tag, "batch", ml_detect(y, h, spec)
        bound, detectors._ML_BLOCK_ENTRIES = detectors._ML_BLOCK_ENTRIES, 1 << 10
        try:
            yield f"{tag}/split", "batch", ml_detect(y[:, :50], h, spec)
        finally:
            detectors._ML_BLOCK_ENTRIES = bound

    # sweeps: the golden configs and the benchmark shapes at 8 trials
    path = ROOT / "tests" / "test_golden.py"
    spec = importlib.util.spec_from_file_location("golden_configs", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    configs = {f"golden/{c}": getattr(golden, f"SWEEP_{c}") for c in "ABC"}
    grid = tuple(float(s) for s in range(14, 23))
    configs["bench/klr-zf"] = SimConfig(
        n_t=6, n_r=6, m=4, snr_grid_db=grid, detectors=("clr-zf", "klr-zf"),
        k_candidates=(1, 10), trials=8, packet_len=100, seed=5,
    )
    configs["bench/klr-mmse"] = SimConfig(
        n_t=6, n_r=6, m=4, snr_grid_db=grid,
        detectors=("mmse", "clr-mmse", "klr-mmse", "clr-mmse-sic", "klr-mmse-sic"),
        k_candidates=(10,), trials=8, packet_len=100, seed=5,
    )
    configs["bench/detect-16qam"] = SimConfig(
        n_t=4, n_r=4, m=16, snr_grid_db=(10.0, 16.0, 22.0),
        detectors=("zf", "mmse", "clr-zf", "clr-mmse-sic"), k_candidates=(1,),
        trials=8, packet_len=2000, seed=5,
    )
    # the conventional detectors beyond the shapes above
    configs["conventional/64qam"] = SimConfig(
        n_t=2, n_r=2, m=64, snr_grid_db=(18.0, 24.0, 30.0),
        detectors=("zf", "mmse", "ml", "clr-zf"), trials=6, packet_len=60, seed=11,
    )
    configs["conventional/3x4"] = SimConfig(
        n_t=3, n_r=4, m=4, snr_grid_db=(2.0, 6.0, 10.0),
        detectors=("zf", "mmse", "ml", "clr-zf", "klr-mmse-sic"),
        k_candidates=(2, 5), trials=8, packet_len=50, seed=12,
    )
    # 2500 columns: one SNR point per block, three blocks per trial
    configs["conventional/long-packet"] = SimConfig(
        n_t=2, n_r=2, m=16, snr_grid_db=(10.0, 16.0, 22.0),
        detectors=("zf", "mmse", "ml", "clr-mmse"), trials=3, packet_len=2500, seed=13,
    )
    configs["conventional/delta-0.99"] = SimConfig(
        n_t=4, n_r=4, m=16, snr_grid_db=(12.0, 18.0),
        detectors=("zf", "mmse", "clr-zf", "klr-zf", "clr-mmse-sic"),
        k_candidates=(3,), trials=8, packet_len=100, seed=14, delta=0.99,
    )
    configs["conventional/ml-only"] = SimConfig(
        n_t=2, n_r=2, m=16, snr_grid_db=(6.0, 12.0, 18.0), detectors=("ml",),
        trials=6, packet_len=80, seed=15,
    )
    # one 2000-symbol packet of 4096 candidates per column
    configs["conventional/ml-64qam-long"] = SimConfig(
        n_t=2, n_r=2, m=64, snr_grid_db=(16.0, 24.0), detectors=("ml",),
        trials=1, packet_len=2000, seed=16,
    )
    # blocks of SNR points: 700 columns make blocks of 2 points, then a
    # short last one of 1
    configs["blocks/short-last"] = SimConfig(
        n_t=3, n_r=4, m=16, snr_grid_db=(6.0, 12.0, 18.0),
        detectors=("zf", "mmse", "clr-zf", "klr-zf", "clr-mmse", "klr-mmse-sic"),
        k_candidates=(1, 3), trials=4, packet_len=700, seed=17,
    )
    # slice indices of n_t 2L bytes per point that are not a multiple of 8:
    # 42 and 30
    configs["blocks/odd-bytes-3x7"] = SimConfig(
        n_t=3, n_r=3, m=4, snr_grid_db=(4.0, 10.0, 16.0),
        detectors=("zf", "mmse", "clr-zf", "klr-zf", "clr-mmse-sic"),
        k_candidates=(2,), trials=10, packet_len=7, seed=18,
    )
    configs["blocks/odd-bytes-5x3"] = SimConfig(
        n_t=5, n_r=5, m=16, snr_grid_db=(10.0, 16.0),
        detectors=("mmse", "clr-zf", "klr-mmse"), k_candidates=(3, 5),
        trials=8, packet_len=3, seed=19,
    )
    # ml with LR variants in one block, clr-zf and klr-zf sharing detections
    configs["blocks/ml-with-lr"] = SimConfig(
        n_t=2, n_r=3, m=16, snr_grid_db=(5.0, 10.0, 15.0, 20.0),
        detectors=("ml", "zf", "clr-zf", "klr-zf", "mmse", "klr-mmse", "clr-mmse-sic"),
        k_candidates=(1,), trials=6, packet_len=40, seed=20,
    )
    configs["blocks/256qam"] = SimConfig(
        n_t=3, n_r=3, m=256, snr_grid_db=(20.0, 26.0, 32.0),
        detectors=("zf", "mmse", "clr-zf", "klr-zf", "clr-mmse-sic", "klr-mmse-sic"),
        k_candidates=(1, 4), trials=6, packet_len=100, seed=21,
    )
    for name, cfg in configs.items():
        for rec in run_sweep(cfg):
            yield f"sweep/{name}", f"{rec.detector} k={rec.k} snr={rec.snr_db}", rec


def digests(src: str) -> None:
    """Print the corpus digests of the lrmimo under src, one JSON list."""
    sys.path.insert(0, src)
    print(json.dumps([[case, field, digest(v)] for case, field, v in corpus()]))


def run_child(src: Path) -> subprocess.Popen:
    env = {**os.environ, **{var: "1" for var in THREADS}}
    env.pop("PYTHONPATH", None)
    return subprocess.Popen(
        [sys.executable, __file__, "--digests", str(src)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def collect(proc: subprocess.Popen, side: str) -> dict:
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{side} corpus failed:\n{err.strip()}")
    cases = {}
    for case, field, value in json.loads(out):
        cases.setdefault(case, {})[field] = value
    return cases


def compare(parent: dict, change: dict) -> dict:
    """{case: its differing fields} of every differing case, in the
    change's case and field order and then the parent's that it lacks."""
    differences = {}
    for case in [*change, *(c for c in parent if c not in change)]:
        a, b = parent.get(case, {}), change.get(case, {})
        fields = [*b, *(f for f in a if f not in b)]
        bad = [f for f in fields if a.get(f) != b.get(f)]
        if bad:
            differences[case] = bad
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--digests", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.digests:
        digests(args.digests)
        return 0
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        extract(args.ref, Path(tmp))
        srcs = {"parent": Path(tmp) / "src", "change": ROOT / "src"}
        procs = {side: run_child(src) for side, src in srcs.items()}
        parent, change = (collect(p, side) for side, p in procs.items())
    differences = compare(parent, change)
    print(json.dumps({
        "ref": args.ref,
        "parent_commit": git("rev-parse", args.ref),
        "cases": len(change),
        "fields": sum(len(f) for f in change.values()),
        "differing_cases": len(differences),
        "differences": differences,
    }))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
