"""Dense linear algebra over the two-element field.

Matrices are kept as one Python integer per row: bit ``j`` of a row word is
the entry in column ``j``.  Addition is XOR and multiplication is AND, so a
whole row operation is a single integer XOR.  Every instance handled by this
package has at most a few hundred rows and at most 64 columns (4N unknowns at
N <= 16 qubits), which keeps the dense representation both simple and fast.

Bit vectors passed in and out of this module use the same convention: an
``int`` whose bit ``j`` is component ``j``.  Use :func:`bits` to unpack one
into an explicit 0/1 list.

Every function below rests on one reduction of a row against a pivot map
(``_reduce`` / ``_echelon``); :func:`nullspace` adds one back-substitution
pass to reach the canonical reduced echelon form.  ``pauli.span_equal``
runs the same reduction with a phase carried by each row.
"""

from __future__ import annotations

from typing import Iterable


def bits(word: int, width: int) -> list[int]:
    """Unpack an integer bit vector into a list of 0/1 entries."""
    return [(word >> j) & 1 for j in range(width)]


class BitMatrix:
    """A dense matrix over GF(2) with word-packed rows."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Iterable[int], ncols: int):
        self.rows: list[int] = list(rows)
        self.ncols = ncols
        mask = (1 << ncols) - 1
        for r in self.rows:
            if r & ~mask:
                raise ValueError("row has bits beyond the declared column count")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def matmul(self, other: "BitMatrix") -> "BitMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions do not match")
        out = []
        for r in self.rows:
            acc = 0
            rr = r
            while rr:
                i = (rr & -rr).bit_length() - 1
                acc ^= other.rows[i]
                rr &= rr - 1
            out.append(acc)
        return BitMatrix(out, other.ncols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        body = ", ".join(format(r, f"0{self.ncols}b")[::-1] for r in self.rows)
        return f"BitMatrix({self.nrows}x{self.ncols}: [{body}])"


def _reduce(row: int, basis: dict[int, int]) -> int:
    """Clear from ``row`` every pivot of ``basis`` that is set in it, lowest first.

    ``basis`` maps a pivot bit to a row whose lowest set bit it is, so adding
    that row never sets a lower bit.  The result has no pivot bit set; it is
    0 iff ``row`` lies in the span of the basis.
    """
    rest = row
    while rest:
        low = rest & -rest
        r = basis.get(low)
        if r is None:
            rest ^= low
        else:
            row ^= r
            rest = row & ~((low << 1) - 1)
    return row


def _echelon(rows: Iterable[int]) -> tuple[dict[int, int], list[int]]:
    """Pivot map of the row space, and the indices of the rows kept in it.

    Row ``i`` is kept iff it is independent of rows ``0..i-1``; the map sends
    each pivot bit to the kept row it was reduced to.
    """
    basis: dict[int, int] = {}
    kept: list[int] = []
    for i, row in enumerate(rows):
        row = _reduce(row, basis)
        if row:
            basis[row & -row] = row
            kept.append(i)
    return basis, kept


def _eliminate(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form. Returns (nonzero reduced rows, pivot columns).

    Pivots are each row's leftmost entry, in ascending order, and every pivot
    column is zero outside its own row, so the result is canonical for a
    given row space.
    """
    basis, _ = _echelon(rows)
    pivot_bits = sorted(basis)
    for b in reversed(pivot_bits):  # rows with a higher pivot are already reduced
        basis[b] = _reduce(basis[b] ^ b, basis) | b
    return [basis[b] for b in pivot_bits], [b.bit_length() - 1 for b in pivot_bits]


def rank(m: BitMatrix) -> int:
    """Dimension of the row space of ``m``."""
    return len(_echelon(m.rows)[0])


def independent_rows(m: BitMatrix) -> list[int]:
    """Indices of the rows of ``m`` that are independent of the rows before them."""
    return _echelon(m.rows)[1]


def nullspace(m: BitMatrix) -> list[int]:
    """Basis of the right nullspace, one vector per free column.

    The basis is returned in ascending free-column order with pivot entries
    filled from the reduced echelon form, so repeated calls enumerate the
    same vectors in the same order.
    """
    reduced, pivots = _eliminate(m.rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        vec = 1 << free
        for p, r in zip(pivots, reduced):
            if (r >> free) & 1:
                vec |= 1 << p
        basis.append(vec)
    return basis
