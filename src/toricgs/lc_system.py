"""The Van den Nest system: pairwise local-complementation equivalence.

Two adjacency matrices are LC-equivalent iff diagonal matrices A, B, C, D
over GF(2) exist with (Gamma B + D) Gamma' + (Gamma A + C) = 0 and the
pointwise determinant condition a_i d_i + b_i c_i = 1 (Van den Nest, Dehaene
and De Moor, PRA 70, 034302 (2004)).  The linear part is n^2 equations, one
per matrix entry (i, j) at bit i*n + j, in the 4n diagonal unknowns.  It is
built as its 4n column words straight from the adjacency rows, every column
a shift or a small product of one row, and ``gf2.nullspace`` reduces those
columns to the canonical nullspace basis.  :func:`solutions` walks the
solution space in Gray-code order, each candidate one basis vector away from
the previous one, and yields those that meet the determinant condition.  The
module works on Python ints; of the package it imports only :mod:`toricgs.gf2`
and :mod:`toricgs.graphs`, so no numpy and nothing of the orbit search.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from . import gf2
from .graphs import GraphError, SimpleGraph

DEFAULT_WITNESS_BUDGET = 24  # max free dimensions, i.e. 2^24 candidates


class WitnessBudgetError(RuntimeError):
    """Solution-space enumeration too large; equivalence undecided."""

    def __init__(self, free_dim: int, budget: int):
        super().__init__(
            f"witness search space has {free_dim} free dimensions (budget {budget})"
        )
        self.free_dim = free_dim
        self.budget = budget


def _determinant_ok(mask: int, a: int, b: int, c: int, d: int) -> bool:
    """Whether a_i d_i + b_i c_i = 1 at every vertex i of ``mask``."""
    return ((a & d) ^ (b & c)) == mask


class LcWitness(NamedTuple):
    """Diagonals (a, b, c, d) certifying LC-equivalence of a graph pair."""

    n: int
    a: int
    b: int
    c: int
    d: int

    def diagonals(self) -> dict[str, list[int]]:
        return {
            "a": gf2.bits(self.a, self.n),
            "b": gf2.bits(self.b, self.n),
            "c": gf2.bits(self.c, self.n),
            "d": gf2.bits(self.d, self.n),
        }

    def determinant_ok(self) -> bool:
        return _determinant_ok((1 << self.n) - 1, self.a, self.b, self.c, self.d)


def _require_same_labels(g: SimpleGraph, h: SimpleGraph) -> None:
    if g.labels != h.labels:
        raise GraphError("graphs must share the same ordered labeled vertex set")


def _diagonal_system_columns(g: SimpleGraph, h: SimpleGraph) -> list[int]:
    """The 4n columns (a | b | c | d) of the diagonal system, over its n^2 equations.

    Equation (i, j) of the matrix identity sits at bit i*n + j and reads
    Gamma_ij a_j + sum_k Gamma_ik Gamma'_kj b_k + [i=j] c_i + Gamma'_ij d_i = 0.
    With ``spread`` holding bit i*n for each G-neighbour i of k, column a_k is
    ``spread << k`` and column b_k is ``h.rows[k]`` repeated at every such
    offset, which is the product ``h.rows[k] * spread`` (the n-bit blocks do
    not overlap).
    """
    n = g.n
    a, b = [], []
    for k in range(n):
        spread = 0
        gk = g.rows[k]
        while gk:
            low = gk & -gk
            spread |= 1 << (low.bit_length() - 1) * n
            gk ^= low
        a.append(spread << k)
        b.append(h.rows[k] * spread)
    c = [1 << i * (n + 1) for i in range(n)]
    d = [h.rows[i] << i * n for i in range(n)]
    return a + b + c + d


def solutions(g: SimpleGraph, h: SimpleGraph) -> Iterator[LcWitness]:
    """Every witness of LC-equivalence of ``g`` and ``h``, once each, in Gray-code order.

    Walks all 2^k solutions of the linear part, k the dimension of its
    nullspace, and yields those that meet the determinant condition.  Raises
    :class:`WitnessBudgetError` when k exceeds ``DEFAULT_WITNESS_BUDGET``.
    """
    _require_same_labels(g, h)
    n = g.n
    mask = (1 << n) - 1
    basis = gf2.nullspace(_diagonal_system_columns(g, h))
    k = len(basis)
    if k > DEFAULT_WITNESS_BUDGET:
        raise WitnessBudgetError(k, DEFAULT_WITNESS_BUDGET)

    # Gray-code walk: candidate i and i+1 differ by exactly one basis vector.
    cand = 0
    for i in range(1 << k):
        if i:
            cand ^= basis[(i & -i).bit_length() - 1]
        a, b, c, d = cand & mask, (cand >> n) & mask, (cand >> 2 * n) & mask, cand >> 3 * n
        if _determinant_ok(mask, a, b, c, d):
            yield LcWitness(n, a, b, c, d)


def lc_equivalent(g: SimpleGraph, h: SimpleGraph) -> Optional[LcWitness]:
    """Decide LC-equivalence of two labeled graphs via the diagonal system.

    Returns the identity witness when the graphs are equal, else the first
    item of :func:`solutions`, or ``None`` when there is none.  Raises
    :class:`WitnessBudgetError` when the solution space has more than
    ``DEFAULT_WITNESS_BUDGET`` free dimensions (never guesses).
    """
    _require_same_labels(g, h)
    if g.rows == h.rows:
        mask = (1 << g.n) - 1
        return LcWitness(g.n, mask, 0, 0, mask)
    return next(solutions(g, h), None)


def verify_witness(g: SimpleGraph, h: SimpleGraph, w: LcWitness) -> bool:
    """Independent recheck: substitute the witness into the matrix identity."""
    _require_same_labels(g, h)
    n = g.n
    if w.n != n or not w.determinant_ok():
        return False
    gamma = g.adjacency_matrix()
    gamma_p = h.adjacency_matrix()

    def diag(bits_word: int) -> gf2.BitMatrix:
        return gf2.BitMatrix([(1 << i) * ((bits_word >> i) & 1) for i in range(n)], n)

    gb = gamma.matmul(diag(w.b))
    left = gf2.BitMatrix(
        [gb.rows[i] ^ diag(w.d).rows[i] for i in range(n)], n
    ).matmul(gamma_p)
    ga = gamma.matmul(diag(w.a))
    residual = [
        left.rows[i] ^ ga.rows[i] ^ diag(w.c).rows[i] for i in range(n)
    ]
    return all(r == 0 for r in residual)
