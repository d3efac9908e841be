"""Desk-scale Korkin-Zolotarev reduction and shortest-vector enumeration.

The shortest vector is found by depth-first sphere enumeration.  A complex
basis is embedded as a real lattice of doubled dimension: each Gaussian-integer
coordinate becomes two interleaved integer coordinates, and because the
triangular factor has a real diagonal the interleaved matrix stays upper
triangular.  KZ reduction follows the conventional definition: the first basis
vector is a shortest lattice vector and the projected trailing sublattice is
recursively KZ-reduced, followed by a full size reduction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .linalg import _qr_r, as_matrix
from .reduction import (
    ReducedBasis,
    _gdiv_exact,
    _gmul,
    _gsub,
    _columns,
    _reduced_stack,
    _size_reduce_all,
    _split_columns,
    clll_reduce_batch,
)

_EPS = 1e-9


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps on the exponential search: lattice dimension and visited nodes."""

    max_dim: int = 4
    max_nodes: int = 10_000_000

    def __post_init__(self):
        if self.max_dim < 1 or self.max_nodes < 1:
            raise ValidationError("budget fields must be >= 1")


DEFAULT_BUDGET = EnumerationBudget()


def _real_embedding(r: np.ndarray) -> np.ndarray:
    """Interleaved real representation of a complex upper-triangular matrix.

    Coordinate 2k holds the real part of Gaussian coefficient k, coordinate
    2k+1 the imaginary part.  Upper triangular because diag(r) is real.
    """
    n = r.shape[1]
    b = np.zeros((2 * n, 2 * n))
    b[0::2, 0::2] = r.real
    b[0::2, 1::2] = -r.imag
    b[1::2, 0::2] = r.imag
    b[1::2, 1::2] = r.real
    return b


def _enumerate_shortest(b: np.ndarray, max_nodes: int) -> tuple[np.ndarray, float, int]:
    """Shortest nonzero integer combination of the columns of upper-triangular b.

    Returns (coefficients, squared length, nodes visited).  Depth-first search
    with radius pruning; the radius starts at the shortest column norm and
    tightens on every improvement.
    """
    m = b.shape[1]
    col_norms2 = np.sum(b * b, axis=0)
    j0 = int(np.argmin(col_norms2))
    best = float(col_norms2[j0])
    best_x = np.zeros(m, dtype=np.int64)
    best_x[j0] = 1
    x = np.zeros(m, dtype=np.int64)
    nodes = 0

    def dfs(i: int, rho: float):
        nonlocal best, best_x, nodes
        s = float(b[i, i + 1 :] @ x[i + 1 :]) if i + 1 < m else 0.0
        c = -s / b[i, i]
        base = int(np.floor(c + 0.5))
        sgn = 1 if c >= base else -1
        step = 0
        while True:
            # zig-zag around the center in order of increasing distance:
            # base, base+sgn, base-sgn, base+2*sgn, ...
            if step == 0:
                xi = base
            elif step % 2 == 1:
                xi = base + sgn * ((step + 1) // 2)
            else:
                xi = base - sgn * (step // 2)
            term = (b[i, i] * (xi - c)) ** 2
            if rho + term >= best:
                break
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceededError("enumeration node budget exhausted")
            x[i] = xi
            if i == 0:
                if np.any(x):
                    best = rho + term
                    best_x = x.copy()
            else:
                dfs(i - 1, rho + term)
            step += 1
        x[i] = 0

    dfs(m - 1, 0.0)
    return best_x, best, nodes


def shortest_vector(h, budget: EnumerationBudget = DEFAULT_BUDGET):
    """Shortest nonzero lattice vector of h over Gaussian-integer coefficients.

    Returns (v, coeffs) with v = h @ coeffs.  Raises BudgetExceededError when
    the dimension exceeds budget.max_dim or the node budget runs out.
    """
    h = as_matrix(h)
    if h.shape[1] > budget.max_dim:
        raise BudgetExceededError(
            f"dimension {h.shape[1]} exceeds budget max_dim={budget.max_dim}"
        )
    xr, _, _ = _enumerate_shortest(_real_embedding(_qr_r(h)), budget.max_nodes)
    coeffs = xr[0::2].astype(np.complex128) + 1j * xr[1::2]
    return h @ coeffs, coeffs


# --- Gaussian-integer extended gcd and unimodular completion -------------------

def _gdivround(a, b):
    """Nearest-Gaussian-integer quotient of a/b (Euclidean division step)."""
    n = b[0] * b[0] + b[1] * b[1]
    num = _gmul(a, (b[0], -b[1]))
    return (round(num[0] / n), round(num[1] / n))


def _gxgcd(a, b):
    """Extended gcd in Z[i]: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = a, b
    s0, s1 = (1, 0), (0, 0)
    t0, t1 = (0, 0), (1, 0)
    while r1 != (0, 0):
        q = _gdivround(r0, r1)
        r0, r1 = r1, _gsub(r0, _gmul(q, r1))
        s0, s1 = s1, _gsub(s0, _gmul(q, s1))
        t0, t1 = t1, _gsub(t0, _gmul(q, t1))
    return r0, s0, t0


def _to_complex(p):
    return complex(p[0], p[1])


def _complete_unimodular(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unimodular T (and exact inverse) whose first column equals coeffs.

    coeffs must be a primitive Gaussian-integer vector, which shortest-vector
    coefficient vectors always are.
    """
    n = coeffs.shape[0]
    x = [(int(round(z.real)), int(round(z.imag))) for z in coeffs]
    t = np.eye(n, dtype=np.complex128)
    tinv = np.eye(n, dtype=np.complex128)
    # fold every coordinate into slot 0 with 2x2 Bezout blocks; accumulate the
    # inverse operations (= T) on the fly
    acc = x[:]
    for i in range(1, n):
        a, b = acc[0], acc[i]
        if b == (0, 0):
            continue
        g, s, t_bez = _gxgcd(a, b)
        p = _gdiv_exact(a, g)
        q = _gdiv_exact(b, g)
        # block M on coords (0, i): [[s, t],[-q, p]], det = 1, M @ (a, b) = (g, 0)
        # inverse block: [[p, -t],[q, s]]
        m00, m01 = _to_complex(s), _to_complex(t_bez)
        m10, m11 = -_to_complex(q), _to_complex(p)
        i00, i01 = _to_complex(p), -_to_complex(t_bez)
        i10, i11 = _to_complex(q), _to_complex(s)
        row0 = tinv[0, :].copy()
        rowi = tinv[i, :].copy()
        tinv[0, :] = m00 * row0 + m01 * rowi
        tinv[i, :] = m10 * row0 + m11 * rowi
        col0 = t[:, 0].copy()
        coli = t[:, i].copy()
        t[:, 0] = i00 * col0 + i10 * coli
        t[:, i] = i01 * col0 + i11 * coli
        acc[0], acc[i] = g, (0, 0)
    g = acc[0]
    if g[0] * g[0] + g[1] * g[1] != 1:
        raise ValidationError("coefficient vector is not primitive")
    gz = _to_complex(g)
    t[:, 0] *= gz
    tinv[0, :] *= np.conj(gz)
    return t, tinv


# --- KZ reduction --------------------------------------------------------------

def _kz_recurse(r: np.ndarray, budget: EnumerationBudget, nodes: list):
    n = r.shape[1]
    eye = np.eye(n, dtype=np.complex128)
    if n == 1:
        return r.copy(), eye.copy(), eye.copy()
    xr, _, visited = _enumerate_shortest(_real_embedding(r), budget.max_nodes)
    nodes[0] += visited
    coeffs = xr[0::2].astype(np.complex128) + 1j * xr[1::2]
    t1, t1inv = _complete_unimodular(coeffs)
    r2 = _qr_r(r @ t1)
    r_sub, ts, tsinv = _kz_recurse(r2[1:, 1:], budget, nodes)
    r_new = r2.copy()
    r_new[0, 1:] = r2[0, 1:] @ ts
    r_new[1:, 1:] = r_sub
    t = t1.copy()
    t[:, 1:] = t1[:, 1:] @ ts
    tinv = t1inv.copy()
    tinv[1:, :] = tsinv @ t1inv[1:, :]
    cols = _columns(r_new[np.newaxis], t[np.newaxis], tinv[np.newaxis])
    _size_reduce_all(cols)
    r_new, t, tinv = (np.ascontiguousarray(x[0]) for x in _split_columns(cols))
    return r_new, t, tinv


def kz_reduce(h, budget: EnumerationBudget = DEFAULT_BUDGET) -> ReducedBasis:
    """KZ-reduce a full-column-rank complex basis within the given budget.

    The first column of the result is a shortest lattice vector; the projected
    trailing sublattice is recursively KZ-reduced and all off-diagonal entries
    are size-reduced.  iteration_count reports total enumeration nodes.

    The input is CLLL-reduced first and enumeration starts from that basis:
    at every level of the recursion its triangular factor sets the search
    order and its shortest column the initial radius, so the node count
    depends strongly on how reduced the starting basis is.  On the first 1000
    i.i.d. Gaussian 6x6 channels of seed 2024, 4 raw bases needed between 2e5
    and more than 1e7 nodes; after CLLL none needed more than 1254.
    """
    h = as_matrix(h)
    if h.shape[1] > budget.max_dim:
        raise BudgetExceededError(
            f"dimension {h.shape[1]} exceeds budget max_dim={budget.max_dim}"
        )
    clll = clll_reduce_batch([h[np.newaxis]])[0]
    nodes = [0]
    _, t, tinv = _kz_recurse(clll.r[0], budget, nodes)
    u, u_inv = clll.u[0] @ t, tinv @ clll.u_inv[0]
    arrays = (h @ u)[np.newaxis], u[np.newaxis], u_inv[np.newaxis]
    return _reduced_stack(*arrays, (nodes[0],), with_q=True)[0]


def is_kz_reduced(r, budget: EnumerationBudget = DEFAULT_BUDGET) -> bool:
    """Check KZ reducedness of an upper-triangular R within the budget.

    Level by level: the diagonal entry must equal the shortest-vector length of
    the projected sublattice, and the off-diagonal entries of the pivot row must
    be componentwise within half the pivot (all with 1e-9 relative slack).
    """
    r = as_matrix(r)
    n = r.shape[1]
    if r.shape[0] != n:
        raise ValidationError("R must be square")
    if n > budget.max_dim:
        raise BudgetExceededError(
            f"dimension {n} exceeds budget max_dim={budget.max_dim}"
        )
    for i in range(n):
        sub = r[i:, i:]
        _, blen2, _ = _enumerate_shortest(_real_embedding(sub), budget.max_nodes)
        pivot = abs(r[i, i])
        if pivot > np.sqrt(blen2) * (1.0 + _EPS):
            return False
        lim = 0.5 * pivot + _EPS * pivot
        if np.any(np.abs(r[i, i + 1 :].real) > lim) or np.any(
            np.abs(r[i, i + 1 :].imag) > lim
        ):
            return False
    return True
