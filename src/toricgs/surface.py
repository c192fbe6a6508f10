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
from functools import cached_property
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
    parse_json,
    phi,
)
from .pauli import PauliString, Tableau, conjugate_hadamard, is_graph_stabilizer


class EmbeddingError(ValueError):
    """The face/edge data does not describe a valid 2-cell embedding."""


class DegeneracyError(ValueError):
    """The instance has residual ground-space degeneracy where 1 is required."""


def _degenerate(h: int) -> DegeneracyError:
    """The one report of a setup whose ground space has dimension 2^h, h > 0."""
    return DegeneracyError(f"residual degeneracy 2^{h}: the instance does not pin a unique state")


@dataclass(frozen=True)
class Embedding:
    """A surface-code instance: multigraph, face walks, closed flag.

    Valid by construction (``__post_init__`` runs :func:`validate_embedding`),
    so no function that receives one checks it again.  Its star/plaquette
    stabilizer is built and checked once, on first use, and kept with the
    instance: every field is immutable, so it cannot go stale.
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

    @cached_property
    def _stabilizer(self) -> tuple[Tableau, dict[int, int], int]:
        """The checked tableau of :func:`surface_stabilizer`, with the pivot map and mask of its rows.

        X on each star, then Z on each face (all-X or all-Z, sign +1), keeping
        those GF(2)-independent of the rows before them, by one
        ``gf2._echelon`` pass; :func:`sector_tableau` extends its pivot map
        with loops.
        """
        n = self.n_qubits
        rows = star_masks(self) + [msk << n for msk in face_masks(self)]
        basis, kept = gf2._echelon(rows)
        tab = Tableau(n, [PauliString._derived(n, rows[i] & ((1 << n) - 1), rows[i] >> n, 0) for i in kept])
        return tab, basis, sum(basis)  # the pivots are distinct bits, so their sum is their OR

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


def _closed_walk(m: Multigraph, walk: Sequence[int]) -> Optional[list[int]]:
    """The vertex sequence of an orientation of the edge sequence as a closed walk, or None.

    Edge ``walk[i]`` joins the ``i``-th vertex to the next, and the last edge
    returns to the first vertex.
    """
    if len(walk) < 2:
        return None
    a, b = m.edges[walk[0]]
    for start, cur in ((a, b), (b, a)):
        vertices = [start]
        for k in walk[1:]:
            vertices.append(cur)
            u, v = m.edges[k]
            if cur not in (u, v):
                break
            cur = v if cur == u else u
        else:
            if cur == start:
                return vertices
    return None


def validate_embedding(e: Embedding) -> Embedding:
    """Check all embedding invariants; returns the input on success.

    The carrier multigraph has at least one vertex and is connected.
    Closed surfaces: every edge lies on exactly two face walks (with
    multiplicity) and Euler's relation v + f - e = 2 - 2g holds for a
    non-negative integer genus that also matches the homology rank.
    Open (bounded planar) instances: every edge lies on one or two walks and
    each walk is a simple cycle.
    Its one caller is ``Embedding.__post_init__``, where the data enters.
    """
    m = e.graph
    if not m.n_vertices:
        raise EmbeddingError("the carrier multigraph has no vertices")
    if not m.is_connected():
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
            if _closed_walk(m, w) is None:
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
            # A closed walk is a simple cycle when it repeats no edge and no vertex.
            vertices = _closed_walk(m, w)
            if vertices is None or len(set(vertices)) < len(w) or len(set(w)) < len(w):
                raise EmbeddingError(f"face walk {list(w)} is not a simple cycle")
    return e


def homology_rank(e: Embedding) -> int:
    """h = dim(cycle space) - rank(face masks): the star/plaquette code has degeneracy 2^h.

    The stars of a connected multigraph have rank |V| - 1, so the stabilizer
    has rank N - h, open or closed.  A closed setup has h = 2g, checked on
    construction, and its Z-loops pin those sectors; an open one pins a
    unique state iff h = 0.  Needs no check: ``e`` is valid, or is being
    validated and its faces passed.
    """
    m = e.graph
    cycle_dim = m.n_edges - m.n_vertices + 1  # the carrier is connected and has a vertex
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


def surface_stabilizer(e: Embedding) -> tuple[Tableau, int]:
    """Independent star/plaquette generators and the ground-space degeneracy.

    One X-type generator per vertex and one Z-type generator per face are
    collected in that order; rows that are GF(2)-dependent on earlier ones
    (e.g. the product of all stars) are dropped.  Degeneracy is
    2^:func:`homology_rank`; for closed surfaces this equals 4^genus.  The
    tableau passed the public ``Tableau`` check when ``e`` first built it;
    every call returns that same object.
    """
    return e._stabilizer[0], 1 << homology_rank(e)


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


def _torus_edges(side: int) -> tuple:
    """The edge numbering of the side x side torus: ``h(i, j)`` and ``v(i, j)``, coordinates taken mod ``side``."""
    if side < 2:
        raise ValueError("torus side must be at least 2")

    def h(i: int, j: int) -> int:
        return (j % side) * side + (i % side)

    def v(i: int, j: int) -> int:
        return side * side + h(i, j)

    return h, v


def square_torus(side: int) -> Embedding:
    """The side x side square lattice on the torus (closed, genus 1).

    Edge order: all horizontal edges row-major first, then all vertical ones.
    """
    h, v = _torus_edges(side)
    verts = [(i, j) for j in range(side) for i in range(side)]
    edges = [((i, j), ((i + 1) % side, j)) for i, j in verts]  # horizontal h(i, j)
    edges += [((i, j), (i, (j + 1) % side)) for i, j in verts]  # vertical v(i, j)
    faces = [(h(i, j), v(i + 1, j), h(i, j + 1), v(i, j)) for j in range(side) for i in range(side)]
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
    h, v = _torus_edges(side)
    n = 2 * side * side
    z1 = sum(1 << h(i, 0) for i in range(side))  # winds horizontally
    x1 = sum(1 << h(0, j) for j in range(side))  # dual loop winding vertically
    z2 = sum(1 << v(0, j) for j in range(side))  # winds vertically
    x2 = sum(1 << v(i, 0) for i in range(side))  # dual loop winding horizontally
    return [
        LoopOperatorPair(PauliString.from_sign(n, x=0, z=z1), PauliString.from_sign(n, x=x1, z=0)),
        LoopOperatorPair(PauliString.from_sign(n, x=0, z=z2), PauliString.from_sign(n, x=x2, z=0)),
    ]


def sector_tableau(e: Embedding, tree: Optional[SpanningTree] = None) -> Tableau:
    """Full rank-N tableau of the all-(+1) topological sector.

    The generators of :func:`surface_stabilizer`, then, on closed surfaces,
    the Z-operators of the fundamental cycles of the non-tree edges
    (ascending) that are independent of the rows before them; they pin every
    loop eigenvalue to +1.  The loops are reduced against the stabilizer's
    stored pivot map, which keeps the rows one greedy selection over stars,
    faces and loops would.  Raises :class:`DegeneracyError` if full rank
    cannot be reached, or if an open instance is degenerate to begin with.

    This is the one checked tableau of a transform: an open instance returns
    its stabilizer, checked when it was built, and a closed one builds a
    checked tableau per call.  Those derived from it keep its invariants.
    """
    n = e.n_qubits
    tab, basis, pivots = e._stabilizer
    gens = list(tab.generators)
    if e.closed:
        tree = tree or first_spanning_tree(e.graph)
        basis = dict(basis)
        for k in tree.deleted_edges:
            loop = tree.path_mask(*e.graph.endpoints(k)) | 1 << k
            row = gf2._reduce(loop << n, basis, pivots)
            if row:
                low = row & -row
                basis[low] = row
                pivots |= low
                gens.append(PauliString._derived(n, 0, loop, 0))
    if len(gens) != n:
        raise _degenerate(n - len(gens))
    return Tableau(n, gens) if e.closed else tab


@dataclass(frozen=True)
class TransformResult:
    """Outcome of the geometric surface-code-to-graph-state transformation.

    ``verified`` is True iff ``rotated_tableau`` generates the stabilizer
    group of the graph state of ``graph``, signs included.
    """

    hadamard_qubits: frozenset[int]
    graph: SimpleGraph
    verified: bool
    rotated_tableau: Tableau


def transform_to_graph_state(e: Embedding, tree: Optional[SpanningTree] = None) -> TransformResult:
    """Rotate the instance into a graph state along a spanning tree.

    Hadamards act on the qubits of non-tree edges.  ``verified`` reports
    whether each rotated generator, sign included, is the product of the
    graph-state generators of ``phi(graph, tree)`` over its own X bits
    (``pauli.is_graph_stabilizer``).
    """
    if tree is None:
        tree = first_spanning_tree(e.graph)
    deleted = tree.deleted_edges
    rotated = conjugate_hadamard(sector_tableau(e, tree), deleted)
    graph = phi_graph(e, tree)
    return TransformResult(
        hadamard_qubits=frozenset(e.qubit_ids[k] for k in deleted),
        graph=graph,
        verified=is_graph_stabilizer(rotated, graph),
        rotated_tableau=rotated,
    )


def phi_graph(e: Embedding, tree: Optional[SpanningTree] = None) -> SimpleGraph:
    """The tree-map graph of the instance, labeled by qubit ids."""
    if tree is None:
        tree = first_spanning_tree(e.graph)
    return SimpleGraph._derived(e.qubit_ids, phi(e.graph, tree).rows)


def locality_pair(e: Embedding) -> tuple[SimpleGraph, SimpleGraph]:
    """The tree graph and the vicinity graph whose pairing a locality verdict judges.

    A setup that does not pin a unique state has no one graph state to judge:
    an open setup with :func:`homology_rank` h > 0 raises
    :class:`DegeneracyError`, and no stabilizer tableau is built to find out.
    """
    if not e.closed and (h := homology_rank(e)):
        raise _degenerate(h)
    return phi_graph(e), adjacency_relation(e)


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
        new_faces.append(shrunk)  # never empty: face walks are not, and a shrunk one kept two edges
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


def load_setup(path, text: Optional[str] = None) -> Embedding:
    """Read the setup file at ``path``; ``text``, when given, is its contents already read."""
    if text is None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return setup_from_dict(parse_json(text))


def dump_setup(e: Embedding, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(e.to_dict(), fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
