"""Surface-code instances: embedded multigraphs, stabilizers, vicinity, loops.

An instance is a connected multigraph together with explicit face walks
(cyclic edge-index sequences), a closed/open flag and optional explicit qubit
ids.  Qubits live on the edges; by default qubit ids are the edge positions
0..m-1.  Explicit ids exist so that a reduced system can keep the ids of the
larger system it was derived from.

Faces are given explicitly rather than derived from rotation systems: every
instance in scope is small and figure-defined, and explicit walks keep the
input format trivial to write down and to validate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from . import gf2
from .graphs import (
    Multigraph,
    SimpleGraph,
    SpanningTree,
    array_at,
    first_spanning_tree,
    freeze,
    integers,
    label_pair,
    only_keys,
    phi,
)
from .pauli import PauliString, Tableau, conjugate_hadamard, graph_stabilizer, span_equal


class EmbeddingError(ValueError):
    """The face/edge data does not describe a valid 2-cell embedding."""


class DegeneracyError(ValueError):
    """The instance has residual ground-space degeneracy where 1 is required."""


@dataclass(frozen=True)
class Embedding:
    """A surface-code instance: multigraph, face walks, closed flag.

    Valid by construction (``__post_init__`` runs :func:`validate_embedding`),
    so no function that receives one checks it again.
    """

    graph: Multigraph
    faces: tuple[tuple[int, ...], ...]
    closed: bool
    qubit_ids: Optional[tuple[int, ...]] = None  # None: 0 .. n_edges - 1

    def __post_init__(self):
        if self.qubit_ids is None:
            object.__setattr__(self, "qubit_ids", tuple(range(self.graph.n_edges)))
        if len(self.qubit_ids) != self.graph.n_edges:
            raise EmbeddingError("one qubit id per edge required")
        if len(set(self.qubit_ids)) != len(self.qubit_ids):
            raise EmbeddingError("duplicate qubit ids")
        validate_embedding(self)

    @property
    def n_qubits(self) -> int:
        return self.graph.n_edges

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.graph.vertices),
            "edges": [list(self.graph.endpoints(k)) for k in range(self.graph.n_edges)],
            "faces": [list(w) for w in self.faces],
            "closed": self.closed,
            "qubit_ids": list(self.qubit_ids),
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


def _walk_is_closed(m: Multigraph, walk: Sequence[int]) -> bool:
    """Can the edge sequence be oriented into a closed walk?"""
    if len(walk) < 2:
        return False
    first = m.edges[walk[0]]
    for start in (first[0], first[1]):
        u = start
        v = first[0] if first[1] == u else first[1] if first[0] == u else None
        if v is None:
            continue
        cur = v
        good = True
        for k in walk[1:]:
            a, b = m.edges[k]
            if cur == a:
                cur = b
            elif cur == b:
                cur = a
            else:
                good = False
                break
        if good and cur == start:
            return True
    return False


def _walk_is_simple_cycle(m: Multigraph, walk: Sequence[int]) -> bool:
    if len(set(walk)) != len(walk):
        return False
    if not _walk_is_closed(m, walk):
        return False
    touched: list[int] = []
    for k in walk:
        touched.extend(m.edges[k])
    return all(touched.count(v) == 2 for v in set(touched)) and len(set(touched)) == len(walk)


def validate_embedding(e: Embedding) -> Embedding:
    """Check all embedding invariants; returns the input on success.

    Closed surfaces: every edge lies on exactly two face walks (with
    multiplicity) and Euler's relation v + f - e = 2 - 2g holds for a
    non-negative integer genus that also matches the homology rank.
    Open (bounded planar) instances: every edge lies on one or two walks and
    each walk is a simple cycle.
    Its one caller is ``Embedding.__post_init__``, where the data enters.
    """
    m = e.graph
    if m.n_vertices and not m.is_connected():
        raise EmbeddingError("the carrier multigraph must be connected")
    counts = [0] * m.n_edges
    for w in e.faces:
        if not w:
            raise EmbeddingError("empty face walk")
        for k in w:
            if not 0 <= k < m.n_edges:
                raise EmbeddingError(f"face references unknown edge {k}")
            counts[k] += 1
    if e.closed:
        bad = [k for k, c in enumerate(counts) if c != 2]
        if bad:
            raise EmbeddingError(
                f"closed surface: edges {bad} do not appear on exactly two faces"
            )
        for w in e.faces:
            if not _walk_is_closed(m, w):
                raise EmbeddingError(f"face walk {list(w)} is not a closed walk")
        euler = m.n_vertices + len(e.faces) - m.n_edges
        if euler % 2 != 0 or euler > 2:
            raise EmbeddingError(f"Euler characteristic {euler} is not 2 - 2g")
        g = (2 - euler) // 2
        h = homology_rank(e)
        if h != 2 * g:
            raise EmbeddingError(f"homology rank {h} does not match genus {g}")
    else:
        bad = [k for k, c in enumerate(counts) if c not in (1, 2)]
        if bad:
            raise EmbeddingError(
                f"open surface: edges {bad} do not appear on one or two faces"
            )
        for w in e.faces:
            if not _walk_is_simple_cycle(m, w):
                raise EmbeddingError(f"face walk {list(w)} is not a simple cycle")
    return e


def homology_rank(e: Embedding) -> int:
    """Dimension of the cycle space modulo the span of face boundaries.

    Needs no check: ``e`` is valid, or is being validated and its faces passed.
    """
    if not e.closed:
        raise EmbeddingError("homology rank is defined for closed embeddings only")
    m = e.graph
    cycle_dim = m.n_edges - m.n_vertices + 1
    return cycle_dim - gf2.rank(gf2.BitMatrix(face_masks(e), m.n_edges))


def star_masks(e: Embedding) -> list[int]:
    """X-support bitmask (over edge positions) of the star at each vertex."""
    m = e.graph
    masks = [0] * m.n_vertices
    for k, (a, b) in enumerate(m.edges):
        masks[a] |= 1 << k
        masks[b] |= 1 << k
    return masks


def face_masks(e: Embedding) -> list[int]:
    """Z-support bitmask of each plaquette (walk edges, multiplicity mod 2)."""
    out = []
    for w in e.faces:
        mask = 0
        for k in w:
            mask ^= 1 << k
        out.append(mask)
    return out


def _independent_generators(e: Embedding, loops: Sequence[int] = ()) -> list[PauliString]:
    """X on each star, then Z on each face and each ``loops`` mask, keeping
    those GF(2)-independent of the operators before them (all-X or all-Z,
    sign +1: valid by construction)."""
    n = e.n_qubits
    rows = star_masks(e) + [msk << n for msk in face_masks(e) + list(loops)]
    keep = gf2.independent_rows(gf2.BitMatrix(rows, 2 * n))
    return [PauliString._derived(n, rows[i] & ((1 << n) - 1), rows[i] >> n, 0) for i in keep]


def surface_stabilizer(e: Embedding) -> tuple[Tableau, int]:
    """Independent star/plaquette generators and the ground-space degeneracy.

    One X-type generator per vertex and one Z-type generator per face are
    collected in that order; rows that are GF(2)-dependent on earlier ones
    (e.g. the product of all stars) are dropped.  Degeneracy is 2^(N - d);
    for closed surfaces this equals 4^genus, since construction checked that
    the homology rank is twice the genus.
    """
    tab = Tableau(e.n_qubits, _independent_generators(e))
    return tab, tab.degeneracy()


def adjacency_relation(e: Embedding) -> SimpleGraph:
    """The vicinity graph on qubit ids: two qubits are joined iff they share a star vertex or a face."""
    n = e.n_qubits
    rows = [0] * n
    for mask in star_masks(e) + face_masks(e):
        mm = mask
        while mm:
            low = mm & -mm
            i = low.bit_length() - 1
            rows[i] |= mask & ~low
            mm ^= low
    return SimpleGraph._derived(e.qubit_ids, rows)


def square_torus(side: int) -> Embedding:
    """The side x side square lattice on the torus (closed, genus 1).

    Edge order: all horizontal edges row-major first, then all vertical ones.
    """
    if side < 2:
        raise ValueError("torus side must be at least 2")
    verts = [(i, j) for j in range(side) for i in range(side)]
    edges = []
    for j in range(side):
        for i in range(side):
            edges.append(((i, j), ((i + 1) % side, j)))  # horizontal h(i, j)
    for j in range(side):
        for i in range(side):
            edges.append(((i, j), (i, (j + 1) % side)))  # vertical v(i, j)

    def h(i: int, j: int) -> int:
        return (j % side) * side + (i % side)

    def v(i: int, j: int) -> int:
        return side * side + (j % side) * side + (i % side)

    faces = []
    for j in range(side):
        for i in range(side):
            faces.append((h(i, j), v(i + 1, j), h(i, j + 1), v(i, j)))
    return Embedding(Multigraph(verts, edges), tuple(faces), closed=True)


def single_plaquette(n_sides: int = 4) -> Embedding:
    """One open polygonal plaquette with ``n_sides`` boundary qubits."""
    verts = list(range(n_sides))
    edges = [(i, (i + 1) % n_sides) for i in range(n_sides)]
    return Embedding(Multigraph(verts, edges), (tuple(range(n_sides)),), closed=False)


def one_point_double_plaquette() -> Embedding:
    """Two square plaquettes glued at a single shared vertex."""
    verts = list(range(7))
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]
    return Embedding(Multigraph(verts, edges), ((0, 1, 2, 3), (4, 5, 6, 7)), closed=False)


@dataclass(frozen=True)
class LoopOperatorPair:
    """A homologically nontrivial Z-loop and its crossing X-co-loop."""

    z_loop: PauliString
    x_loop: PauliString


def loop_operators(side: int) -> list[LoopOperatorPair]:
    """The two loop-operator pairs of the side x side torus.

    The pairs satisfy {Z_k, X_k} = 0 and [Z_k, X_l] = 0 for k != l, and every
    loop commutes with all star and plaquette generators; acceptance
    criterion 10 and the tests check this algebra.
    """
    e = square_torus(side)
    n = e.n_qubits

    def h(i: int, j: int) -> int:
        return j * side + i

    def v(i: int, j: int) -> int:
        return side * side + j * side + i

    z1 = frozenset(h(i, 0) for i in range(side))  # winds horizontally
    x1 = frozenset(h(0, j) for j in range(side))  # dual loop winding vertically
    z2 = frozenset(v(0, j) for j in range(side))  # winds vertically
    x2 = frozenset(v(i, 0) for i in range(side))  # dual loop winding horizontally

    def z_op(cyc: frozenset[int]) -> PauliString:
        return PauliString.from_sign(n, x=0, z=sum(1 << k for k in cyc))

    def x_op(cyc: frozenset[int]) -> PauliString:
        return PauliString.from_sign(n, x=sum(1 << k for k in cyc), z=0)

    return [
        LoopOperatorPair(z_op(z1), x_op(x1)),
        LoopOperatorPair(z_op(z2), x_op(x2)),
    ]


def sector_tableau(e: Embedding, tree: Optional[SpanningTree] = None) -> Tableau:
    """Full rank-N tableau of the all-(+1) topological sector.

    One greedy GF(2) selection runs over the stars, the faces and, on closed
    surfaces, the Z-operators of the fundamental cycles of the non-tree edges
    (ascending), so it keeps the generators of :func:`surface_stabilizer` and
    then the loops that pin every loop eigenvalue to +1.  Raises
    :class:`DegeneracyError` if full rank cannot be reached, or if an open
    instance is degenerate to begin with.  This is the one checked tableau of
    a transform; those derived from it keep its invariants.
    """
    n = e.n_qubits
    loops = []
    if e.closed:
        tree = tree or first_spanning_tree(e.graph)
        for k in sorted(tree.deleted_edges):
            loops.append(tree.path_mask(*e.graph.endpoints(k)) | 1 << k)
    gens = _independent_generators(e, loops)
    if len(gens) != n:
        raise DegeneracyError(
            f"residual degeneracy 2^{n - len(gens)}: the instance does not pin a "
            "unique state"
        )
    return Tableau(n, gens)


@dataclass(frozen=True)
class TransformResult:
    """Outcome of the geometric surface-code-to-graph-state transformation."""

    hadamard_qubits: frozenset[int]
    graph: SimpleGraph
    verified: bool
    rotated_tableau: Tableau


def transform_to_graph_state(e: Embedding, tree: Optional[SpanningTree] = None) -> TransformResult:
    """Rotate the instance into a graph state along a spanning tree.

    Hadamards act on the qubits of non-tree edges; the resulting stabilizer
    is compared (bit part and signs) against the graph stabilizer of
    ``phi(graph, tree)``.  ``verified`` reports that comparison.
    """
    if tree is None:
        tree = first_spanning_tree(e.graph)
    deleted = sorted(tree.deleted_edges)
    rotated = conjugate_hadamard(sector_tableau(e, tree), deleted)
    graph = phi_graph(e, tree)
    return TransformResult(
        hadamard_qubits=frozenset(e.qubit_ids[k] for k in deleted),
        graph=graph,
        verified=span_equal(rotated, graph_stabilizer(graph)),
        rotated_tableau=rotated,
    )


def phi_graph(e: Embedding, tree: Optional[SpanningTree] = None) -> SimpleGraph:
    """The tree-map graph of the instance, labeled by qubit ids."""
    if tree is None:
        tree = first_spanning_tree(e.graph)
    return SimpleGraph._derived(e.qubit_ids, phi(e.graph, tree).rows)


def contract_embedding(e: Embedding, edge_index: int) -> Embedding:
    """Remove one qubit by contracting its edge; faces shed the edge.

    The remaining edges keep their qubit ids.  A face reduced below two edges
    would be degenerate and raises.
    """
    new_graph = e.graph.contract_edge(edge_index)
    new_faces = []
    for w in e.faces:
        shrunk = tuple(k for k in w if k != edge_index)
        if len(shrunk) != len(w):  # the face contained the contracted edge
            if len(shrunk) < 2:
                raise EmbeddingError("contracting would leave a face with < 2 edges")
        if shrunk:
            new_faces.append(shrunk)
    remap = {k: (k if k < edge_index else k - 1) for k in range(e.graph.n_edges)}
    new_faces = tuple(tuple(remap[k] for k in w) for w in new_faces)
    new_ids = tuple(q for k, q in enumerate(e.qubit_ids) if k != edge_index)
    return Embedding(new_graph, new_faces, e.closed, new_ids)


# ---------------------------------------------------------------------------
# Setup files


def setup_from_dict(data: dict) -> Embedding:
    """Parse setup data; anything malformed or invalid raises :class:`EmbeddingError`."""
    try:
        only_keys(data, ("vertices", "edges", "faces", "closed", "qubit_ids"))
        vertices = [freeze(v) for v in array_at(data, "vertices")]
        edges = [label_pair(e, "an edge") for e in array_at(data, "edges")]
        faces = tuple(integers(w) for w in array_at(data, "faces"))
        closed = data["closed"]
        if not isinstance(closed, bool):
            raise EmbeddingError(f"closed must be true or false, got {closed!r}")
        qubit_ids = integers(data["qubit_ids"]) if "qubit_ids" in data else None
        return Embedding(Multigraph(vertices, edges), faces, closed, qubit_ids)
    except EmbeddingError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # GraphError; TypeError: an unhashable label
        raise EmbeddingError(f"malformed setup data: {exc}") from exc


def load_setup(path) -> Embedding:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return setup_from_dict(data)


def dump_setup(e: Embedding, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(e.to_dict(), fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
