"""Dense linear algebra over the two-element field.

Matrices are kept as one Python integer per row: bit ``j`` of a row word is
the entry in column ``j``.  Addition is XOR and multiplication is AND, so a
whole row operation is a single integer XOR.  Every instance handled by this
package has at most a few hundred rows and at most 64 columns (4N unknowns at
N <= 16 qubits), which keeps the dense representation both simple and fast.

Bit vectors passed in and out of this module use the same convention: an
``int`` whose bit ``j`` is component ``j``.  Use :func:`bits` / :func:`from_bits`
to convert to and from explicit 0/1 lists.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def from_bits(entries: Sequence[int]) -> int:
    """Pack a 0/1 sequence (index 0 first) into an integer bit vector."""
    word = 0
    for j, e in enumerate(entries):
        if e & 1:
            word |= 1 << j
    return word


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

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[int]], ncols: Optional[int] = None) -> "BitMatrix":
        """Build from a list of 0/1 rows (e.g. nested lists or a numpy array)."""
        rows = [from_bits(row) for row in entries]
        if ncols is None:
            ncols = len(entries[0]) if len(entries) else 0
        return cls(rows, ncols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls([0] * nrows, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def to_entries(self) -> list[list[int]]:
        return [bits(r, self.ncols) for r in self.rows]

    def transpose(self) -> "BitMatrix":
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            while r:
                j = (r & -r).bit_length() - 1
                cols[j] |= 1 << i
                r &= r - 1
        return BitMatrix(cols, self.nrows)

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


def _eliminate(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form. Returns (nonzero reduced rows, pivot columns).

    Pivots are chosen leftmost-first, so the result is canonical for a given
    row space.
    """
    reduced: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for p, r in zip(pivots, reduced):
            if (row >> p) & 1:
                row ^= r
        if row == 0:
            continue
        p = (row & -row).bit_length() - 1
        # Back-substitute into earlier rows, keep rows sorted by pivot.
        for k in range(len(reduced)):
            if (reduced[k] >> p) & 1:
                reduced[k] ^= row
        idx = 0
        while idx < len(pivots) and pivots[idx] < p:
            idx += 1
        pivots.insert(idx, p)
        reduced.insert(idx, row)
    return reduced, pivots


def rank(m: BitMatrix) -> int:
    """Dimension of the row space of ``m``."""
    _, pivots = _eliminate(m.rows, m.ncols)
    return len(pivots)


def nullspace(m: BitMatrix) -> list[int]:
    """Basis of the right nullspace, one vector per free column.

    The basis is returned in ascending free-column order with pivot entries
    filled from the reduced echelon form, so repeated calls enumerate the
    same vectors in the same order.
    """
    reduced, pivots = _eliminate(m.rows, m.ncols)
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


def solve_affine(m: BitMatrix, y: int) -> Optional[tuple[int, list[int]]]:
    """Solve ``m x = y`` over GF(2).

    Returns ``(particular, nullspace_basis)`` where the full solution set is
    ``particular ^ span(basis)``, or ``None`` if the system is inconsistent.
    ``y`` is a packed bit vector with one bit per row of ``m``.
    """
    aug_col = m.ncols
    aug_rows = [r | (((y >> i) & 1) << aug_col) for i, r in enumerate(m.rows)]
    reduced, pivots = _eliminate(aug_rows, aug_col + 1)
    particular = 0
    for p, r in zip(pivots, reduced):
        if p == aug_col:
            return None  # a row reduced to 0 = 1
        if (r >> aug_col) & 1:
            particular |= 1 << p
    return particular, nullspace(m)


def in_row_span(m: BitMatrix, vec: int) -> Optional[int]:
    """Express ``vec`` as an XOR of rows of ``m``.

    Returns a packed combination word (bit ``i`` selects row ``i``) or
    ``None`` when ``vec`` is outside the row space.
    """
    solved = solve_affine(m.transpose(), vec)
    if solved is None:
        return None
    return solved[0]


def row_space_equal(m1: BitMatrix, m2: BitMatrix) -> bool:
    """True iff the two matrices span the same row space."""
    if m1.ncols != m2.ncols:
        raise ValueError("column counts differ")
    r1, p1 = _eliminate(m1.rows, m1.ncols)
    r2, p2 = _eliminate(m2.rows, m2.ncols)
    return p1 == p2 and r1 == r2
