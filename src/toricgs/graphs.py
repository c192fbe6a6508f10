"""Labeled simple graphs, multigraphs, spanning trees and the tree map ``phi``.

Simple graphs carry an ordered tuple of opaque vertex labels and a bitmask
adjacency row per vertex (bit ``j`` of ``rows[i]`` is the edge between
positions ``i`` and ``j``).  All operations are pure: they return new graph
values and never mutate their inputs.

Multigraphs list their edges explicitly as (endpoint, endpoint) index pairs;
parallel edges are distinguished by their position in that list, and those
positions double as qubit identifiers everywhere else in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

from . import gf2


class GraphError(ValueError):
    """Malformed graph input or an unknown vertex/edge id."""


Label = Hashable


class SimpleGraph:
    """Immutable labeled simple graph (no loops, no parallel edges).

    The constructor, where caller data enters, checks this; operations that
    keep it build their results with :meth:`_derived`, which does not.
    """

    __slots__ = ("labels", "rows", "_index")

    def __init__(self, labels: Sequence[Label], rows: Sequence[int]):
        self.labels = tuple(labels)
        self.rows = tuple(rows)
        if len(self.labels) != len(set(self.labels)):
            raise GraphError("duplicate vertex labels")
        if len(self.rows) != len(self.labels):
            raise GraphError("one adjacency row per vertex required")
        n = len(self.rows)
        for i, r in enumerate(self.rows):
            if r >> n:
                raise GraphError("adjacency bits beyond vertex count")
            if (r >> i) & 1:
                raise GraphError("loops are not allowed")
        for i, r in enumerate(self.rows):
            for j in _bit_positions(r):
                if not (self.rows[j] >> i) & 1:
                    raise GraphError("adjacency must be symmetric")
        self._index = None  # label -> position, built by the first position() call

    @classmethod
    def _derived(cls, labels: Sequence[Label], rows: Sequence[int]) -> "SimpleGraph":
        """A graph valid by construction (distinct labels, symmetric loop-free rows): nothing is checked."""
        g = cls.__new__(cls)
        g.labels, g.rows = tuple(labels), tuple(rows)
        g._index = None
        return g

    @classmethod
    def from_edges(cls, labels: Sequence[Label], edges: Iterable[tuple[Label, Label]]) -> "SimpleGraph":
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        rows = [0] * len(labels)
        for u, v in edges:
            if u not in index or v not in index:
                raise GraphError(f"edge ({u!r}, {v!r}) uses an unknown vertex")
            if u == v:
                raise GraphError("loops are not allowed")
            i, j = index[u], index[v]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(labels, rows)

    @classmethod
    def empty(cls, labels: Sequence[Label]) -> "SimpleGraph":
        return cls(labels, [0] * len(labels))

    @classmethod
    def complete(cls, labels: Sequence[Label]) -> "SimpleGraph":
        n = len(labels)
        full = (1 << n) - 1
        return cls(labels, [full ^ (1 << i) for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.labels)

    def position(self, label: Label) -> int:
        if self._index is None:
            self._index = {lab: i for i, lab in enumerate(self.labels)}
        try:
            return self._index[label]
        except KeyError:
            raise GraphError(f"unknown vertex {label!r}") from None

    def has_edge(self, u: Label, v: Label) -> bool:
        return bool((self.rows[self.position(u)] >> self.position(v)) & 1)

    def degree(self, v: Label) -> int:
        return self.rows[self.position(v)].bit_count()

    def neighbors(self, v: Label) -> tuple[Label, ...]:
        row = self.rows[self.position(v)]
        return tuple(self.labels[j] for j in _bit_positions(row))

    def edges(self) -> list[tuple[Label, Label]]:
        out = []
        for i in range(self.n):
            r = self.rows[i] >> (i + 1)
            for dj in _bit_positions(r):
                out.append((self.labels[i], self.labels[i + 1 + dj]))
        return out

    def delete_vertex(self, v: Label) -> "SimpleGraph":
        """Remove ``v`` together with all incident edges."""
        i = self.position(v)
        labels = self.labels[:i] + self.labels[i + 1 :]
        rows = []
        for k, r in enumerate(self.rows):
            if k == i:
                continue
            low = r & ((1 << i) - 1)
            high = (r >> (i + 1)) << i
            rows.append(low | high)
        return SimpleGraph._derived(labels, rows)

    def in_order(self, labels: Sequence[Label]) -> "SimpleGraph":
        """The same graph with its vertices listed in ``labels``, which must hold exactly this graph's labels."""
        labels = tuple(labels)
        if labels == self.labels:
            return self
        pos = {lab: i for i, lab in enumerate(labels)}  # label -> position in the new order
        if len(labels) != self.n or pos.keys() != set(self.labels):
            raise GraphError("vertex sets differ")
        to = [pos[lab] for lab in self.labels]
        rows = [0] * self.n
        for i, r in enumerate(self.rows):
            out = 0
            while r:  # each neighbour j of i, moved to position to[j]
                low = r & -r
                out |= 1 << to[low.bit_length() - 1]
                r ^= low
            rows[to[i]] = out
        return SimpleGraph._derived(labels, rows)

    def permute_pair(self, a: Label, b: Label) -> "SimpleGraph":
        """Exchange the roles of vertices ``a`` and ``b`` in the edge set."""
        swapped = list(self.labels)
        swapped[self.position(a)], swapped[self.position(b)] = b, a
        return SimpleGraph._derived(self.labels, self.in_order(swapped).rows)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for i in _bit_positions(frontier):
                nxt |= self.rows[i]
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1

    def is_bipartite(self) -> bool:
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] != -1:
                continue
            color[s] = 0
            stack = [s]
            while stack:
                i = stack.pop()
                for j in _bit_positions(self.rows[i]):
                    if color[j] == -1:
                        color[j] = color[i] ^ 1
                        stack.append(j)
                    elif color[j] == color[i]:
                        return False
        return True

    def is_subgraph_of(self, other: "SimpleGraph") -> bool:
        """True iff every edge of ``self`` is an edge of ``other`` (same labels, in any order)."""
        rows = other.in_order(self.labels).rows
        return not any(r & ~a for r, a in zip(self.rows, rows))

    def adjacency_matrix(self) -> gf2.BitMatrix:
        return gf2.BitMatrix(self.rows, self.n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.labels == other.labels
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.rows))

    def __repr__(self) -> str:
        return f"SimpleGraph({list(self.labels)!r}, edges={self.edges()!r})"


def _bit_positions(word: int) -> Iterable[int]:
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


def local_complement(g: SimpleGraph, v: Label) -> SimpleGraph:
    """Toggle all edges among the neighbours of ``v``; everything else is kept."""
    i = g.position(v)
    m = g.rows[i]
    rows = list(g.rows)
    for u in _bit_positions(m):
        rows[u] ^= m ^ (1 << u)
    return SimpleGraph._derived(g.labels, rows)


def local_complement_sequence(g: SimpleGraph, seq: Iterable[Label]) -> SimpleGraph:
    for v in seq:
        g = local_complement(g, v)
    return g


class Multigraph:
    """Immutable multigraph: ordered vertices, ordered edge list, no loops."""

    __slots__ = ("vertices", "edges", "_index")

    def __init__(self, vertices: Sequence[Label], edges: Sequence[tuple[Label, Label]]):
        self.vertices = tuple(vertices)
        if len(self.vertices) != len(set(self.vertices)):
            raise GraphError("duplicate vertex ids")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        resolved = []
        for u, v in edges:
            if u == v:
                raise GraphError("loops are not allowed in multigraphs")
            if u not in self._index or v not in self._index:
                raise GraphError(f"edge ({u!r}, {v!r}) uses an unknown vertex")
            resolved.append((self._index[u], self._index[v]))
        self.edges = tuple(resolved)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def endpoints(self, edge_index: int) -> tuple[Label, Label]:
        u, v = self.edges[edge_index]
        return self.vertices[u], self.vertices[v]

    def incident_edges(self, v: Label) -> tuple[int, ...]:
        i = self._index[v]
        return tuple(k for k, (a, b) in enumerate(self.edges) if a == i or b == i)

    def is_connected(self) -> bool:
        dsu = list(range(self.n_vertices))
        merges = sum(_union(dsu, a, b) for a, b in self.edges)
        return self.n_vertices == 0 or merges == self.n_vertices - 1

    def contract_edge(self, edge_index: int) -> "Multigraph":
        """Delete edge ``edge_index`` and merge its endpoints.

        Remaining edges keep their identity (the new edge list preserves the
        old order with the contracted edge removed).  Contracting one of a
        pair of parallel edges would create a loop and raises.
        """
        a, b = self.edges[edge_index]
        keep = min(a, b)
        drop = max(a, b)
        new_labels = [v for i, v in enumerate(self.vertices) if i != drop]

        def remap(i: int) -> int:
            if i == drop:
                i = keep
            return i - 1 if i > drop else i

        new_edges = []
        for k, (u, v) in enumerate(self.edges):
            if k == edge_index:
                continue
            uu, vv = remap(u), remap(v)
            if uu == vv:
                raise GraphError(
                    f"contracting edge {edge_index} would turn edge {k} into a loop"
                )
            new_edges.append((new_labels[uu], new_labels[vv]))
        return Multigraph(new_labels, new_edges)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Multigraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        pairs = [self.endpoints(k) for k in range(self.n_edges)]
        return f"Multigraph({list(self.vertices)!r}, edges={pairs!r})"


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of a host multigraph, stored as an edge-index subset.

    The constructor, where caller data enters, checks that the edges span the
    host; :func:`enumerate_spanning_trees` and :func:`first_spanning_tree`
    build their trees, spanning by construction, with :meth:`_derived`, which
    does not.
    """

    host: Multigraph
    tree_edges: frozenset[int]

    def __post_init__(self):
        host = self.host
        if self.tree_edges and not (0 <= min(self.tree_edges) and max(self.tree_edges) < host.n_edges):
            raise GraphError(f"tree edge indices must lie in 0..{host.n_edges - 1}")
        if len(self.tree_edges) != host.n_vertices - 1:
            raise GraphError("a spanning tree has |V| - 1 edges")
        # |V| - 1 edges span the host iff none of them closes a cycle.
        dsu = list(range(host.n_vertices))
        if not all(_union(dsu, *host.edges[k]) for k in self.tree_edges):
            raise GraphError("tree edges do not span the host (disconnected or cyclic)")

    @classmethod
    def _derived(cls, host: Multigraph, tree_edges: frozenset[int]) -> "SpanningTree":
        """A tree valid by construction (``tree_edges`` span ``host``): nothing is checked."""
        t = cls.__new__(cls)
        object.__setattr__(t, "host", host)
        object.__setattr__(t, "tree_edges", tree_edges)
        return t

    @cached_property
    def _root_masks(self) -> tuple[int, ...]:
        """Per vertex, the mask of the tree edges on its path to vertex 0 (built by the first :meth:`path_mask`)."""
        host = self.host
        adj: list[list[tuple[int, int]]] = [[] for _ in range(host.n_vertices)]
        for k in self.tree_edges:
            a, b = host.edges[k]
            adj[a].append((b, k))
            adj[b].append((a, k))
        masks = [0] * host.n_vertices
        seen = [True] + [False] * (host.n_vertices - 1)
        queue = [0]
        while queue:
            i = queue.pop()
            for j, k in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    masks[j] = masks[i] | 1 << k
                    queue.append(j)
        return tuple(masks)

    @cached_property
    def deleted_edges(self) -> tuple[int, ...]:
        """The non-tree edge indices, ascending."""
        return tuple(k for k in range(self.host.n_edges) if k not in self.tree_edges)

    def path_mask(self, p: Label, q: Label) -> int:
        """Edge-index mask of the unique tree path between vertices ``p`` and ``q``.

        The two root paths share exactly the edges above the meeting vertex,
        so their XOR is the path.
        """
        index = self.host._index
        return self._root_masks[index[p]] ^ self._root_masks[index[q]]


def _union(dsu: list[int], a: int, b: int) -> bool:
    """Join the components of ``a`` and ``b`` in the union-find ``dsu``.

    Finds halve their paths.  Returns whether the two were in different
    components.
    """
    while dsu[a] != a:
        dsu[a] = dsu[dsu[a]]
        a = dsu[a]
    while dsu[b] != b:
        dsu[b] = dsu[dsu[b]]
        b = dsu[b]
    if a == b:
        return False
    dsu[a] = b
    return True


def enumerate_spanning_trees(m: Multigraph) -> list[SpanningTree]:
    """All spanning trees of ``m`` as edge-index subsets, in a fixed order.

    Edges are considered in index order with an include/exclude recursion;
    parallel edges therefore yield distinct trees.  Suitable for hosts with
    up to a few dozen edges.
    """
    if not m.is_connected():
        raise GraphError("spanning trees require a connected multigraph")
    n, e = m.n_vertices, m.n_edges
    results: list[SpanningTree] = []

    def rec(idx: int, chosen: list[int], dsu: list[int], comp: int):
        # Edges idx.. join the comp components of dsu, so idx < e below.
        if comp == 1:
            results.append(SpanningTree._derived(m, frozenset(chosen)))
            return
        joined = list(dsu)
        if not _union(joined, *m.edges[idx]):
            # Edge idx closes a cycle, so the edges after it join the same components.
            rec(idx + 1, chosen, dsu, comp)
            return
        rec(idx + 1, chosen + [idx], joined, comp - 1)
        # Exclude edge idx, unless the edges after it no longer join the components.
        rest = list(dsu)
        if sum(_union(rest, *m.edges[k]) for k in range(idx + 1, e)) == comp - 1:
            rec(idx + 1, chosen, dsu, comp)

    if n == 0:
        return []
    rec(0, [], list(range(n)), n)
    return results


def first_spanning_tree(m: Multigraph) -> SpanningTree:
    """The greedy lowest-edge-index spanning tree (deterministic, cheap)."""
    dsu = list(range(m.n_vertices))
    chosen = [k for k, (a, b) in enumerate(m.edges) if _union(dsu, a, b)]
    if len(chosen) != m.n_vertices - 1:
        raise GraphError("spanning trees require a connected multigraph")
    return SpanningTree._derived(m, frozenset(chosen))


def phi(m: Multigraph, t: SpanningTree) -> SimpleGraph:
    """Map a multigraph plus spanning tree to a simple graph on its edges.

    The vertices of the result are the edge indices of ``m``.  Each non-tree
    edge ``e = {p, q}`` is joined to every edge on the unique tree path from
    ``p`` to ``q``; there are no other edges.  The result is bipartite between
    non-tree and tree vertices by construction.
    """
    if t.host is not m and t.host != m:
        raise GraphError("spanning tree belongs to a different multigraph")
    labels = list(range(m.n_edges))
    rows = [0] * m.n_edges
    for e in t.deleted_edges:
        rows[e] = t.path_mask(*m.endpoints(e))
        for f in _bit_positions(rows[e]):
            rows[f] |= 1 << e
    return SimpleGraph._derived(labels, rows)


def graph_to_dict(g: SimpleGraph) -> dict:
    return {"vertices": list(g.labels), "edges": [list(e) for e in g.edges()]}


def freeze(value):
    """Nested JSON lists as nested tuples, so labels read from files are hashable."""
    if isinstance(value, list):
        return tuple(freeze(v) for v in value)
    return value


def integer(value) -> int:
    """A JSON integer read from a file; floats, booleans and strings are not integers."""
    if type(value) is not int:
        raise GraphError(f"expected an integer, got {value!r}")
    return value


def integers(values) -> tuple[int, ...]:
    """A JSON array of integers read from a file, as a tuple."""
    if not isinstance(values, list):
        raise GraphError(f"expected an array of integers, got {values!r}")
    return tuple(integer(v) for v in values)


def only_keys(data, keys: Sequence[str]) -> None:
    """Reject a JSON object with a key outside ``keys``: a misspelt or foreign field is never read as absent."""
    if isinstance(data, dict):
        unknown = sorted(map(str, set(data) - set(keys)))
        if unknown:
            raise GraphError(f"unknown keys {unknown}; expected only {sorted(keys)}")


def array_at(data, key: str) -> list:
    """The JSON array under ``key`` of an object read from a file.

    A string or an object is rejected: iterated, it would give its characters
    or its keys as entries.
    """
    value = data[key]
    if not isinstance(value, list):
        raise GraphError(f"{key} must be an array, got {value!r}")
    return value


def label_pair(item, what: str) -> tuple[Label, Label]:
    """An edge or another pair read from a file, named ``what``: a JSON array of exactly two labels."""
    if not isinstance(item, list) or len(item) != 2:
        raise GraphError(f"{what} must be an array of two labels, got {item!r}")
    return freeze(item[0]), freeze(item[1])


def graph_from_dict(data: dict) -> SimpleGraph:
    try:
        only_keys(data, ("vertices", "edges"))
        labels = [freeze(v) for v in array_at(data, "vertices")]
        edges = [label_pair(e, "an edge") for e in array_at(data, "edges")]
        return SimpleGraph.from_edges(labels, edges)
    except GraphError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # TypeError: an unhashable label
        raise GraphError(f"malformed graph data: {exc}") from exc


def to_dot(g: SimpleGraph, allowed: SimpleGraph) -> str:
    """Render a graph-state graph as Graphviz DOT named ``phi``, in deterministic order.

    Edges that ``allowed`` lacks (joining qubits that are not vicinal) are dashed.
    """
    lines = ["graph phi {"]
    for lab in g.labels:
        lines.append(f'  "{lab}";')
    for u, v in g.edges():
        suffix = "" if allowed.has_edge(u, v) else " [style=dashed]"
        lines.append(f'  "{u}" -- "{v}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"
