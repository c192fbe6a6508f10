"""Exact GF(2) kernels: rank, independent rows, nullspace."""

import numpy as np
import pytest

from toricgs import gf2


def _word(entries) -> int:
    """A 0/1 row (index 0 first, e.g. a numpy row) as an integer bit vector."""
    return sum(int(e) << j for j, e in enumerate(entries))


def test_rank_identity():
    assert gf2.rank(gf2.BitMatrix([1, 2, 4], 3)) == 3


def test_rank_zero_matrix():
    assert gf2.rank(gf2.BitMatrix([0, 0], 4)) == 0


def test_rank_dependent_row():
    m = gf2.BitMatrix([0b011, 0b110, 0b101], 3)
    assert gf2.rank(m) == 2


def test_bits_round_trip():
    assert gf2.bits(0b1101, 4) == [1, 0, 1, 1]
    assert _word(gf2.bits(0b1101, 4)) == 0b1101


def _random_matrix(rng, rows, cols):
    return gf2.BitMatrix([int(rng.integers(0, 1 << cols)) for _ in range(rows)], cols)


def _span(rows):
    """Every XOR of a subset of ``rows``, by brute force."""
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return out


def test_rank_equals_transpose_rank_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = _random_matrix(rng, int(rng.integers(1, 13)), int(rng.integers(1, 17)))
        assert 2 ** gf2.rank(m) == len(_span(m.rows))
        entries = np.array([gf2.bits(r, m.ncols) for r in m.rows])
        transposed = gf2.BitMatrix([_word(col) for col in entries.T], m.nrows)
        assert gf2.rank(m) == gf2.rank(transposed)


def test_independent_rows_match_brute_force():
    rng = np.random.default_rng(16)
    for _ in range(300):
        m = _random_matrix(rng, int(rng.integers(0, 10)), int(rng.integers(1, 7)))
        expected = [i for i, r in enumerate(m.rows) if r not in _span(m.rows[:i])]
        assert gf2._echelon(m.rows)[1] == expected


def test_rank_and_independent_rows_on_wide_rows_with_planted_dependencies():
    # Rows of 65 to 200 bits span several machine words; every dependent row
    # is the XOR of a random subset of the rows before it.
    rng = np.random.default_rng(18)
    planted = 0
    for _ in range(200):
        width = int(rng.integers(65, 201))
        rows = []
        for _ in range(int(rng.integers(1, 13))):
            if rows and rng.integers(0, 3) == 0:
                rows.append(0)
                for r in rows[:-1]:
                    if rng.integers(0, 2):
                        rows[-1] ^= r
                planted += 1
            else:
                rows.append(int.from_bytes(rng.bytes(26), "little") & ((1 << width) - 1))
        m = gf2.BitMatrix(rows, width)
        expected = [i for i, r in enumerate(rows) if r not in _span(rows[:i])]
        assert gf2._echelon(m.rows)[1] == expected
        assert 2 ** gf2.rank(m) == len(_span(rows))
    assert planted > 100


def _columns(m):
    """The column words of ``m``: bit ``i`` of column ``j`` is entry (i, j)."""
    return [sum(((r >> j) & 1) << i for i, r in enumerate(m.rows)) for j in range(m.ncols)]


def test_nullspace_is_the_canonical_basis():
    # Vector f has bit f and otherwise only pivot columns below f, where a
    # pivot column is one independent of the columns before it.
    rng = np.random.default_rng(17)
    for _ in range(300):
        nrows, ncols = int(rng.integers(1, 257)), int(rng.integers(1, 65))
        gens = [_word(rng.integers(0, 2, size=nrows)) for _ in range(int(rng.integers(0, ncols + 1)))]
        columns = []
        for picks in rng.integers(0, 2, size=(ncols, len(gens))):  # rank at most len(gens)
            col = 0
            for g, pick in zip(gens, picks.tolist()):
                col ^= g * pick
            columns.append(col)
        transposed = gf2.BitMatrix(columns, nrows)
        pivots = gf2._echelon(transposed.rows)[1]
        free = [j for j in range(ncols) if j not in pivots]
        basis = gf2.nullspace(columns)
        assert len(basis) == len(free) == ncols - gf2.rank(transposed)
        pivot_bits = sum(1 << p for p in pivots)
        for f, vec in zip(free, basis):
            assert vec >> f == 1 and vec & ~pivot_bits == 1 << f
            total = 0  # the sum of the columns the vector selects
            for j, e in enumerate(gf2.bits(vec, ncols)):
                total ^= columns[j] * e
            assert total == 0


def test_nullspace_vectors_annihilate():
    rng = np.random.default_rng(14)
    for _ in range(200):
        m = _random_matrix(rng, int(rng.integers(1, 8)), int(rng.integers(1, 12)))
        basis = gf2.nullspace(_columns(m))
        assert len(basis) == m.ncols - gf2.rank(m)
        for vec in basis:
            assert all((row & vec).bit_count() % 2 == 0 for row in m.rows)


def test_matmul_against_numpy():
    rng = np.random.default_rng(15)
    for _ in range(50):
        a = rng.integers(0, 2, size=(4, 5))
        b = rng.integers(0, 2, size=(5, 3))
        lhs = gf2.BitMatrix([_word(r) for r in a], 5).matmul(gf2.BitMatrix([_word(r) for r in b], 3))
        expected = (a @ b) % 2
        assert [gf2.bits(r, 3) for r in lhs.rows] == expected.tolist()


def test_column_count_mismatch_rejected():
    with pytest.raises(ValueError):
        gf2.BitMatrix([0b100], 2)
