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
from .linalg import _qr_r, _real_embedding, as_matrix
from .reduction import (
    _PRED_EPS,
    ReducedBasis,
    _checked_r,
    _columns,
    _reduced_flags,
    _reduced_stack,
    _rounded,
    _size_reduce_all,
    _split_columns,
    _swap,
    clll_reduce_batch,
)


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps on the exponential search: lattice dimension and visited nodes."""

    max_dim: int = 4
    max_nodes: int = 10_000_000

    def __post_init__(self):
        if self.max_dim < 1 or self.max_nodes < 1:
            raise ValidationError("budget fields must be >= 1")


DEFAULT_BUDGET = EnumerationBudget()


def _within_budget(h, budget: EnumerationBudget) -> np.ndarray:
    """as_matrix(h), once its column count is checked against
    budget.max_dim; raises BudgetExceededError beyond it."""
    h = as_matrix(h)
    if h.shape[1] > budget.max_dim:
        raise BudgetExceededError(
            f"dimension {h.shape[1]} exceeds budget max_dim={budget.max_dim}"
        )
    return h


def _enumerate_shortest(r: np.ndarray, max_nodes: int) -> tuple[np.ndarray, float, int]:
    """Shortest nonzero Gaussian-integer combination of the columns of an
    upper-triangular r with a real diagonal.

    Returns (Gaussian coefficients, squared length, nodes visited).  The
    search runs over the integer coordinates of r's real embedding:
    depth-first with radius pruning, the radius starting at the shortest
    column norm and tightening on every improvement.
    """
    b = _real_embedding(r)
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
            xi = base + (sgn if step % 2 else -sgn) * ((step + 1) // 2)
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
    return best_x[0::2].astype(np.complex128) + 1j * best_x[1::2], best, nodes


def shortest_vector(h, budget: EnumerationBudget = DEFAULT_BUDGET):
    """Shortest nonzero lattice vector of h over Gaussian-integer coefficients.

    Returns (v, coeffs) with v = h @ coeffs.  Raises BudgetExceededError when
    the dimension exceeds budget.max_dim or the node budget runs out.
    """
    h = _within_budget(h, budget)
    coeffs, _, _ = _enumerate_shortest(_qr_r(h), budget.max_nodes)
    return h @ coeffs, coeffs


# --- KZ reduction --------------------------------------------------------------

def _to_front(cols, j: int, coeffs: np.ndarray) -> None:
    """Make column j of the packed columns cols (_columns of one basis) a
    unit times the lattice vector sum_i coeffs[i] b_{j+i}, in place, with
    the engine's column operations: Euclid on each coefficient pair
    (c_{i-1}, c_i), i = len(coeffs)-1 .. 1.  Each step is the
    size-reduction update b_i -= mu b_{i-1}, mu the rounded Gaussian
    quotient -c_{i-1} / c_i, which leaves c_{i-1} its remainder, then the
    _swap of b_{i-1} and b_i with its Givens rotation; a pair is done once
    c_i = 0.  R stays upper triangular with a real positive diagonal, and U
    exact.  Raises ValidationError unless coeffs is primitive (its gcd a
    unit)."""
    c = coeffs.astype(np.complex128)
    basis = np.zeros(1, dtype=np.intp)
    for i in range(len(c) - 1, 0, -1):
        while c[i]:
            mu = _rounded(-c[i - 1 : i] / c[i])
            c[i - 1] += mu[0] * c[i]
            cols[0, j + i] -= mu * cols[0, j + i - 1]
            _swap(cols, basis, np.array([j + i]))
            c[i - 1], c[i] = c[i], c[i - 1]
    if abs(c[0]) != 1.0:
        raise ValidationError("coefficient vector is not primitive")


def kz_reduce(h, budget: EnumerationBudget = DEFAULT_BUDGET) -> ReducedBasis:
    """KZ-reduce a full-column-rank complex basis within the given budget.

    The first column of the result is a shortest lattice vector; the projected
    trailing sublattice is recursively KZ-reduced and all off-diagonal entries
    are size-reduced.  iteration_count reports total enumeration nodes.

    The input is CLLL-reduced first, and the levels work on the packed R and
    U of that basis (Zhang, Qiao and Wei, IEEE T-SP 2012): level j
    enumerates the shortest vector of R[j:, j:] and brings it to column j
    with column operations (_to_front), which keep R triangular, so no
    level needs a QR.  One full size reduction follows, and U^-1 is formed
    from U when read.  R sets each level's search order and its shortest
    column the initial radius, so the node count depends strongly on how
    reduced the starting basis is.  On the first 1000 i.i.d. Gaussian 6x6
    channels of seed 2024, 4 raw bases needed between 2e5 and more than 1e7
    nodes; after CLLL none needed more than 1109.
    """
    h = _within_budget(h, budget)
    n = h.shape[1]
    clll = clll_reduce_batch([h[np.newaxis]])[0]
    cols = _columns(clll.r, clll.u)
    nodes = 0
    for j in range(n - 1):
        coeffs, _, visited = _enumerate_shortest(cols[0, j:, j:n].T, budget.max_nodes)
        nodes += visited
        _to_front(cols, j, coeffs)
    _size_reduce_all(cols)
    u = np.ascontiguousarray(_split_columns(cols)[1])
    return _reduced_stack(h @ u, u, None, (nodes,), with_q=True)[0]


def is_kz_reduced(r, budget: EnumerationBudget = DEFAULT_BUDGET) -> bool:
    """Check KZ reducedness of an upper-triangular R within the budget.

    R must be size-reduced, as is_clll_reduced checks it (_reduced_flags),
    and level by level its diagonal entry must equal the shortest-vector
    length of the projected sublattice, both with 1e-9 relative slack.
    Raises ValidationError unless R is square, upper triangular and has a
    real, strictly positive diagonal, as is_clll_reduced does.
    """
    r = _within_budget(_checked_r(r), budget)
    if not _reduced_flags(r[np.newaxis], 1.0)[0][0]:  # its size flag alone
        return False
    for i in range(r.shape[1]):
        _, blen2, _ = _enumerate_shortest(r[i:, i:], budget.max_nodes)
        if abs(r[i, i]) > np.sqrt(blen2) * (1.0 + _PRED_EPS):
            return False
    return True
