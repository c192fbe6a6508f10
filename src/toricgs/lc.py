"""Local-complementation classes: orbit enumeration, pairwise test, locality.

A labeled graph on n vertices is identified by its canonical key: the
upper-triangle bits of the adjacency matrix packed row-major into one
integer.  Orbits under local complementation are closed breadth-first over
those keys by one numpy engine, for every n.  It stores each key as
big-endian uint64 words, processes whole generations in fixed-size chunks of
the frontier, and records each member's parent and complemented vertex, so
complementation paths come from the same run.  A locality search is the same
closure with the allowed-edge mask as its stop test.

The pairwise equivalence test is algebraic: two adjacency matrices are
LC-equivalent iff diagonal matrices A, B, C, D over GF(2) exist with
(Gamma B + D) Gamma' + (Gamma A + C) = 0 and the pointwise determinant
condition a_i d_i + b_i c_i = 1.  The linear part is solved exactly; the
affine solution space is then walked in Gray-code order so that each
candidate differs from the previous one by a single basis vector.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import gf2
from .graphs import GraphError, SimpleGraph

DEFAULT_ORBIT_BUDGET = 10**8
DEFAULT_WITNESS_BUDGET = 24  # max free dimensions, i.e. 2^24 candidates
_CHUNK = 512  # frontier members complemented per numpy step


class OrbitBudgetError(RuntimeError):
    """Orbit enumeration exceeded the member budget; verdict unknown."""

    def __init__(self, budget: int, reached: int):
        super().__init__(f"orbit budget of {budget} keys exceeded (reached {reached})")
        self.budget = budget
        self.reached = reached


class WitnessBudgetError(RuntimeError):
    """Solution-space enumeration too large; equivalence undecided."""

    def __init__(self, free_dim: int, budget: int):
        super().__init__(
            f"witness search space has {free_dim} free dimensions (budget {budget})"
        )
        self.free_dim = free_dim
        self.budget = budget


def canonical_key(g: SimpleGraph) -> int:
    """Pack the upper adjacency triangle row-major into one integer."""
    return _pack_rows(g.rows, g.n)


def _pack_rows(rows: Sequence[int], n: int) -> int:
    key = 0
    shift = 0
    for i in range(n):
        key |= (rows[i] >> (i + 1)) << shift
        shift += n - 1 - i
    return key


def _unpack_key(key: int, n: int) -> list[int]:
    rows = [0] * n
    shift = 0
    for i in range(n):
        width = n - 1 - i
        chunk = (key >> shift) & ((1 << width) - 1)
        rows[i] |= chunk << (i + 1)
        for dj in range(width):
            if (chunk >> dj) & 1:
                rows[i + 1 + dj] |= 1 << i
        shift += width
    return rows


def graph_from_key(key: int, labels: Sequence) -> SimpleGraph:
    return SimpleGraph(labels, _unpack_key(key, len(labels)))


def _edge_mask(g: SimpleGraph, labels: Sequence) -> int:
    """Canonical-key bitmask of ``g``'s edges in the vertex order ``labels``."""
    if set(g.labels) != set(labels):
        raise GraphError("vertex sets differ")
    pos = {lab: i for i, lab in enumerate(labels)}
    rows = [0] * len(labels)
    for u, v in g.edges():
        i, j = pos[u], pos[v]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return _pack_rows(rows, len(labels))


@dataclass
class LcOrbit:
    """An enumerated (or partially enumerated) local-complementation class."""

    labels: tuple
    seed_key: int
    members: list[int]  # ascending keys
    complete: bool
    generations: int
    witness_paths: Optional[dict[int, tuple]] = None  # in breadth-first path order
    hit_key: Optional[int] = None
    hit_path: Optional[tuple] = None

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        return len(self.members)

    def contains(self, key: int) -> bool:
        i = bisect_left(self.members, key)
        return i < len(self.members) and self.members[i] == key

    def member_graph(self, key: int) -> SimpleGraph:
        return graph_from_key(key, self.labels)

    def digest(self) -> str:
        """Fingerprint of the full member set."""
        h = hashlib.sha256()
        for k in self.members:
            h.update(format(k, "x").encode())
            h.update(b",")
        return h.hexdigest()


def _complement_chunk(keys: np.ndarray, n: int, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
    """Keys of the n complementations of each key, in (key, vertex) order.

    Key bit (iu[k], ju[k]) is the k-th most significant.  Complementing at v
    flips edge bit (i, j) iff (v, i) and (v, j) are both edges, so each child
    is its parent's bits XOR one row-pair AND of the parent's adjacency matrix.
    """
    width = keys.dtype.itemsize
    nbits = len(iu)
    bits = np.unpackbits(keys.view(np.uint8).reshape(-1, width), axis=1)[:, 8 * width - nbits :]
    adj = np.zeros((len(keys), n, n), dtype=np.uint8)
    adj[:, iu, ju] = adj[:, ju, iu] = bits
    adj = adj.reshape(len(keys) * n, n)  # row (key, v): the neighbourhood of v
    flips = adj[:, iu]
    flips &= adj[:, ju]
    children = np.zeros((len(keys), n, 8 * width), dtype=np.uint8)
    np.bitwise_xor(
        flips.reshape(len(keys), n, nbits), bits[:, None, :],
        out=children[:, :, 8 * width - nbits :],
    )
    return np.packbits(children, axis=2).reshape(-1, width).view(keys.dtype).ravel()


def _key_ints(keys: np.ndarray) -> list[int]:
    return [int.from_bytes(k, "big") for k in keys.tolist()]


def _locate(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion points of ``keys`` in the ascending ``sorted_keys``, and which occur."""
    pos = np.searchsorted(sorted_keys, keys)
    if len(sorted_keys) == 0:
        return pos, np.zeros(len(keys), dtype=bool)
    return pos, sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == keys


def _first_inside(keys: np.ndarray, outside: Optional[np.ndarray]) -> Optional[int]:
    """Position of the first key with no bit in ``outside``, if any."""
    if outside is None:
        return None
    width = len(outside)
    hits = np.flatnonzero(~(keys.view(np.uint8).reshape(-1, width) & outside).any(axis=1))
    return int(hits[0]) if len(hits) else None


def _orbit_vector(
    g: SimpleGraph,
    budget: int,
    local_mask: Optional[int] = None,
    track_paths: bool = False,
) -> LcOrbit:
    """Breadth-first closure over whole generations of numpy key arrays.

    Keys are stored as big-endian words, most significant first, so a void
    view of their bytes sorts, dedupes and binary-searches in numeric key
    order.  Each generation lists its new members in path order: by the
    position of the parent in the previous generation, then by the
    complemented vertex.  The ``parent * n + vertex`` origin of a member
    therefore spells its shortest, lexicographically least path.  The
    frontier is complemented in chunks of ``_CHUNK`` members, and the budget
    is checked after each chunk against the distinct keys found so far.

    With ``local_mask``, enumeration stops after the first generation that
    holds a key with no edge outside the mask; the hit is the first such key
    in path order.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    n = g.n
    nbits = n * (n - 1) // 2
    width = 8 * max(1, -(-nbits // 64))  # bytes of W uint64 words
    key_type = np.dtype((np.void, width))
    iu, ju = (ix[::-1] for ix in np.triu_indices(n, 1))
    outside = None
    if local_mask is not None:
        outside_bits = ((1 << nbits) - 1) & ~local_mask
        outside = np.frombuffer(outside_bits.to_bytes(width, "big"), np.uint8)

    seed_key = _pack_rows(g.rows, n)
    frontier = np.frombuffer(seed_key.to_bytes(width, "big"), dtype=key_type)
    visited = frontier
    origins = []  # per generation: parent * n + vertex of each member
    paths = [()]
    witness_paths = {seed_key: ()} if track_paths else None
    hit = _first_inside(frontier, outside)
    while hit is None and len(frontier):
        fresh = visited[:0]  # this generation's keys so far, ascending
        new_keys, new_origins = [], []
        for start in range(0, len(frontier), _CHUNK):
            cand = _complement_chunk(frontier[start : start + _CHUNK], n, iu, ju)
            cand, where = np.unique(cand, return_index=True)
            _, seen = _locate(visited, cand)
            cand, where = cand[~seen], where[~seen]
            pos, seen = _locate(fresh, cand)
            cand, where = cand[~seen], where[~seen]
            fresh = np.insert(fresh, pos[~seen], cand)
            if len(visited) + len(fresh) > budget:
                raise OrbitBudgetError(budget, len(visited) + len(fresh))
            order = np.argsort(where)
            new_keys.append(cand[order])
            new_origins.append(where[order] + start * n)
        frontier = np.concatenate(new_keys)
        origins.append(np.concatenate(new_origins))
        visited = np.sort(np.concatenate([visited, fresh]), kind="stable")
        if track_paths:
            parent, vertex = np.divmod(origins[-1], n)
            paths = [paths[p] + (v,) for p, v in zip(parent.tolist(), vertex.tolist())]
            witness_paths.update(zip(_key_ints(frontier), paths))
        hit = _first_inside(frontier, outside)

    members = _key_ints(visited)
    if hit is None:
        return LcOrbit(g.labels, seed_key, members, True, len(origins), witness_paths)
    path, i = [], hit
    for generation in reversed(origins):
        i, v = divmod(int(generation[i]), n)
        path.append(v)
    return LcOrbit(
        g.labels, seed_key, members, False, len(origins), witness_paths,
        _key_ints(frontier[hit : hit + 1])[0], tuple(reversed(path)),
    )


def lc_orbit(
    g: SimpleGraph,
    budget: int = DEFAULT_ORBIT_BUDGET,
    track_paths: bool = False,
) -> LcOrbit:
    """Breadth-first closure of ``{g}`` under all local complementations.

    With ``track_paths`` the orbit maps every member to its shortest,
    lexicographically least complementation path.  Exceeding ``budget``
    raises :class:`OrbitBudgetError`; that outcome means "instance too
    large", never "not found".
    """
    return _orbit_vector(g, budget, track_paths=track_paths)


@dataclass(frozen=True)
class LcWitness:
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
        full = (1 << self.n) - 1
        return ((self.a & self.d) ^ (self.b & self.c)) == full


def _require_same_labels(g: SimpleGraph, h: SimpleGraph) -> None:
    if g.labels != h.labels:
        raise GraphError("graphs must share the same ordered labeled vertex set")


def _diagonal_system_rows(g: SimpleGraph, h: SimpleGraph) -> list[int]:
    """Linear system rows over the 4n diagonal unknowns (a | b | c | d).

    Entry (i, j) of the matrix identity contributes the equation
    Gamma_ij a_j + sum_k Gamma_ik Gamma'_kj b_k + [i=j] c_i + Gamma'_ij d_i = 0.
    Adjacency symmetry turns the b block into a single AND of bitmask rows.
    """
    n = g.n
    rows = []
    for i in range(n):
        gi = g.rows[i]
        hi = h.rows[i]
        ci = 1 << (2 * n + i)
        di = 1 << (3 * n + i)
        for j in range(n):
            row = (gi & h.rows[j]) << n  # b_k for k adjacent to i in G, j in H
            if (gi >> j) & 1:
                row |= 1 << j  # a_j
            if i == j:
                row |= ci
            if (hi >> j) & 1:
                row |= di
            if row:
                rows.append(row)
    return rows


def _witness_from_packed(n: int, w: int) -> LcWitness:
    mask = (1 << n) - 1
    return LcWitness(n, w & mask, (w >> n) & mask, (w >> 2 * n) & mask, (w >> 3 * n) & mask)


def lc_equivalent(
    g: SimpleGraph, h: SimpleGraph, max_free: int = DEFAULT_WITNESS_BUDGET
) -> Optional[LcWitness]:
    """Decide LC-equivalence of two labeled graphs via the diagonal system.

    Returns the first witness in deterministic order, or ``None`` when no
    solution of the linear system satisfies the determinant condition.
    Raises :class:`WitnessBudgetError` when the affine solution space is too
    large to scan (never guesses).
    """
    _require_same_labels(g, h)
    n = g.n
    if n == 0:
        return LcWitness(0, 0, 0, 0, 0)
    mask = (1 << n) - 1
    if g.rows == h.rows:
        return LcWitness(n, mask, 0, 0, mask)

    rows = _diagonal_system_rows(g, h)
    basis = gf2.nullspace(gf2.BitMatrix(rows, 4 * n))
    k = len(basis)
    if k > max_free:
        raise WitnessBudgetError(k, max_free)

    # Gray-code walk: candidate i and i+1 differ by exactly one basis vector.
    cand = 0
    if _nonlinear_ok(cand, n, mask):
        return _witness_from_packed(n, cand)
    for i in range(1, 1 << k):
        cand ^= basis[(i & -i).bit_length() - 1]
        if _nonlinear_ok(cand, n, mask):
            return _witness_from_packed(n, cand)
    return None


def _nonlinear_ok(w: int, n: int, mask: int) -> bool:
    a = w & mask
    b = (w >> n) & mask
    c = (w >> 2 * n) & mask
    d = (w >> 3 * n) & mask
    return ((a & d) ^ (b & c)) == mask


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


@dataclass(frozen=True)
class LocalRepresentative:
    """A local orbit member together with its complementation path."""

    graph: SimpleGraph
    path: tuple


def find_local_representative(
    g: SimpleGraph, adjacency, budget: int = DEFAULT_ORBIT_BUDGET
) -> Optional[LocalRepresentative]:
    """Search the orbit of ``g`` for a member whose edges all lie in ``adjacency``.

    ``adjacency`` is the allowed-edge graph (an ``AdjacencyRelation`` or a
    plain :class:`SimpleGraph` over the same vertices).  Returns the first
    local member in breadth-first path order with its shortest,
    lexicographically least complementation path, or ``None`` after
    exhausting the orbit.  Budget exhaustion raises :class:`OrbitBudgetError`
    (unknown, not nonlocal).
    """
    _, orbit = certify_nonlocal(g, adjacency, budget)
    if orbit.hit_key is None:
        return None
    return LocalRepresentative(orbit.member_graph(orbit.hit_key), orbit.hit_path)


def certify_nonlocal(
    g: SimpleGraph, adjacency, budget: int = DEFAULT_ORBIT_BUDGET
) -> tuple[bool, LcOrbit]:
    """Enumerate the orbit until a member is a subgraph of the adjacency graph.

    Returns ``(nonlocal, orbit)``.  A nonlocal orbit is complete; otherwise
    the orbit records the first local member in ``hit_key`` and its path in
    ``hit_path``.  Raises :class:`OrbitBudgetError` when the orbit exceeds
    the budget.
    """
    adj_graph: SimpleGraph = getattr(adjacency, "graph", adjacency)
    orbit = _orbit_vector(g, budget, _edge_mask(adj_graph, g.labels))
    return orbit.hit_key is None, orbit
