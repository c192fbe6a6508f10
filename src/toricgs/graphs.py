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

import json
import operator
from array import array
from collections.abc import Hashable, Iterable, Sequence
from functools import cached_property

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
    rows = list(g.rows)
    _complement_at(rows, g.position(v))
    return SimpleGraph._derived(g.labels, rows)


def local_complement_sequence(g: SimpleGraph, seq: Iterable[Label]) -> SimpleGraph:
    """Complement at each vertex of ``seq`` in turn; every label is resolved to its position before the first step."""
    rows = list(g.rows)
    for i in [g.position(v) for v in seq]:
        _complement_at(rows, i)
    return SimpleGraph._derived(g.labels, rows)


def _complement_at(rows: list[int], i: int) -> None:
    """Toggle, in ``rows``, every pair of neighbours of position ``i``."""
    m = rows[i]
    for u in _bit_positions(m):
        rows[u] ^= m ^ (1 << u)


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


class Record:
    """Base of the immutable values that keep derived state: equality, hash and repr over the ``_fields`` tuple.

    A constructor sets the fields once, with :meth:`_set`; assigning or
    deleting an attribute afterwards raises ``AttributeError``, so what a
    subclass caches in its ``__dict__`` cannot go stale.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")


class SpanningTree(Record):
    """A spanning tree of a host multigraph, stored as an edge-index subset.

    The constructor, where caller data enters, checks that the edges span the
    host; :func:`enumerate_spanning_trees` and :func:`first_spanning_tree`
    build their trees, spanning by construction, with :meth:`_derived`, which
    does not.
    """

    _fields = ("host", "tree_edges")

    def __init__(self, host: Multigraph, tree_edges: frozenset[int]):
        if tree_edges and not (0 <= min(tree_edges) and max(tree_edges) < host.n_edges):
            raise GraphError(f"tree edge indices must lie in 0..{host.n_edges - 1}")
        if len(tree_edges) != host.n_vertices - 1:
            raise GraphError("a spanning tree has |V| - 1 edges")
        # |V| - 1 edges span the host iff none of them closes a cycle.
        dsu = list(range(host.n_vertices))
        if not all(_union(dsu, *host.edges[k]) for k in tree_edges):
            raise GraphError("tree edges do not span the host (disconnected or cyclic)")
        self._set(host, tree_edges)

    @classmethod
    def _derived(cls, host: Multigraph, tree_edges: frozenset[int]) -> "SpanningTree":
        """A tree valid by construction (``tree_edges`` span ``host``): nothing is checked."""
        t = cls.__new__(cls)
        t._set(host, tree_edges)
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


def _find(dsu: list[int], a: int) -> int:
    """The root of ``a`` in the union-find ``dsu``; the find halves its path."""
    while dsu[a] != a:
        dsu[a] = dsu[dsu[a]]
        a = dsu[a]
    return a


def _union(dsu: list[int], a: int, b: int) -> bool:
    """Join the components of ``a`` and ``b`` in the union-find ``dsu``.

    Returns whether the two were in different components.
    """
    a, b = _find(dsu, a), _find(dsu, b)
    if a == b:
        return False
    dsu[a] = b
    return True


_TOP, _NONE = -1, -2  # child codes: the edge completes the tree / there is no such child
_LABELS = bytes(range(256))  # block labels; a state numbers its blocks from 0 in order of first appearance


class SpanningTrees(Sequence):
    """The spanning trees of a host, as a counted decision diagram over its edges.

    Level ``k`` of the diagram decides edge ``k``.  A state at level ``k`` is
    the partition into components of the frontier: the vertices that an edge
    before ``k`` touched and an edge from ``k`` on still touches, listed in the
    order the edges first touch them.  Each vertex that no edge before ``k``
    touched is a component of its own.  In every state each block holds a
    frontier vertex and the edges from ``k`` on join all components, so the
    state fixes the set of completions.  Its include child takes edge ``k``
    into the tree, which needs the endpoints in different components; its
    exclude child leaves the edge out, which needs the edges after ``k`` to
    still join every component.  Each state stores the number of trees below
    its include child, so ``trees[i]`` follows one path of at most ``E``
    steps and builds only the tree asked for.  A partition is a bytes string
    of block labels, one per frontier vertex, numbered in order of first
    appearance.
    """

    __slots__ = ("host", "_include", "_exclude", "_below", "_len")

    def __init__(self, host: Multigraph):
        if not host.is_connected():
            raise GraphError("spanning trees require a connected multigraph")
        self.host = host
        self._include: list[array] = []  # per level: each state's include child at the next level, or a code
        self._exclude: list[array] = []
        self._below: list[list[int]] = []  # per level: each state's count of trees that include the edge
        if host.n_vertices <= 1:  # one vertex has one tree, with no edges; no vertex has none
            self._len = host.n_vertices
            return
        level = [b""]  # the states of the current level, by index
        for a_at, b_at, fresh, drops, last_join, cut in _frontier_plan(host):
            at_next: dict[bytes, int] = {}  # state at the next level -> its index there

            def child(t: bytes, merged: bool) -> int:
                for p in drops:  # descending, so each position is still where the plan put it
                    t = t[:p] + t[p + 1 :]
                if merged or drops:  # the order of first appearance may have changed
                    order = bytes(dict.fromkeys(t))
                    t = t.translate(bytes.maketrans(order, _LABELS[: len(order)]))
                return at_next.setdefault(t, len(at_next))

            include, exclude = array("i"), array("i")
            for s in level:
                t = s
                if fresh:  # the endpoints first touched here are blocks of their own
                    blocks = max(s) + 1 if s else 0
                    t = s + _LABELS[blocks : blocks + fresh]
                la, lb = t[a_at], t[b_at]
                if la == lb:  # edge k closes a cycle: only the exclude child, which keeps every completion
                    include.append(_NONE)
                    exclude.append(child(t, False))
                    continue
                if last_join and max(t) == 1:
                    include.append(_TOP)
                else:
                    include.append(child(t.replace(bytes([lb]), bytes([la])), True))
                exclude.append(child(t, False) if cut is None or _joined(t, *cut) else _NONE)
            self._include.append(include)
            self._exclude.append(exclude)
            level = list(at_next)
        count: list[int] = []  # per state of the level below: its tree count
        for include, exclude in zip(reversed(self._include), reversed(self._exclude)):
            below = [1 if c == _TOP else 0 if c == _NONE else count[c] for c in include]
            count = [n + (0 if c == _NONE else count[c]) for n, c in zip(below, exclude)]
            self._below.append(below)
        self._below.reverse()
        self._len = count[0]

    @property
    def n_states(self) -> int:
        """The number of diagram states, which bounds the cost of building it."""
        return sum(map(len, self._include))

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._unrank, range(self._len)[i]))
        return self._unrank(range(self._len)[i])  # the range checks and normalises the index

    def _unrank(self, i: int) -> SpanningTree:
        chosen = []
        k, j = 0, 0 if self._include else _TOP  # a host of one vertex has no levels and one tree
        while j != _TOP:
            below = self._below[k][j]
            if i < below:
                chosen.append(k)
                j = self._include[k][j]
            else:
                i -= below
                j = self._exclude[k][j]
            k += 1
        return SpanningTree._derived(self.host, frozenset(chosen))


def _frontier_plan(m: Multigraph) -> list[list]:
    """Per edge ``k``, how :class:`SpanningTrees` turns a state at level ``k`` into its children.

    A state is extended by the ``fresh`` endpoints that edge ``k`` touches
    first, as new blocks at the end.  In that extended list the endpoints sit
    at ``a_at`` and ``b_at``, and ``drops`` lists, descending, the positions of
    those that no later edge touches.  ``last_join`` says that every vertex is
    then touched, so an include that leaves two blocks completes the tree.
    ``cut`` is None when the edges after ``k`` join the two endpoints;
    otherwise it holds what :func:`_joined` needs to test, per state, whether
    the blocks still join them: one getter per component of the edges after
    ``k``, which reads the blocks at that component's positions, and the
    components of the two endpoints.  The whole plan is made before any
    state, so a frontier too wide is rejected before the states can multiply.
    """
    first, last = {}, {}
    for k, (a, b) in enumerate(m.edges):
        for v in (a, b):
            first.setdefault(v, k)
            last[v] = k
    touched = max(first.values())  # from this edge on, every vertex has been touched
    plans, extended = [], []
    frontier: list[int] = []
    for k, (a, b) in enumerate(m.edges):
        ext = frontier + [v for v in (a, b) if first[v] == k]
        if len(ext) > 256:
            raise GraphError("this edge order has a frontier of more than 256 vertices")
        drops = sorted((ext.index(v) for v in (a, b) if last[v] == k), reverse=True)
        plans.append([ext.index(a), ext.index(b), len(ext) - len(frontier), drops, k >= touched, None])
        extended.append(ext)
        frontier = [v for v in ext if last[v] != k]
    dsu = list(range(m.n_vertices))  # joined by the edges after k, from the last edge back
    for k in reversed(range(m.n_edges)):
        a, b = (_find(dsu, v) for v in m.edges[k])
        if a != b:  # the edges after k do not join the endpoints themselves
            parts: dict[int, list[int]] = {}  # component root -> its positions
            for p, v in enumerate(extended[k]):
                parts.setdefault(_find(dsu, v), []).append(p)
            getters = [operator.itemgetter(*ps, ps[0]) for ps in parts.values()]  # two items, so each returns a tuple
            roots = list(parts)
            plans[k][5] = (getters, roots.index(a), roots.index(b))
        _union(dsu, *m.edges[k])
    return plans


def _joined(t: bytes, parts: list, a_part: int, b_part: int) -> bool:
    """Whether blocks ``t`` join suffix component ``a_part`` to ``b_part``.

    ``parts`` reads off the blocks at the positions of each component.
    """
    blocks = [set(part(t)) for part in parts]
    reached, target = blocks[a_part], blocks[b_part]
    rest = [b for c, b in enumerate(blocks) if c != a_part and c != b_part]
    while reached.isdisjoint(target):  # grow by a component that shares a block with those reached
        for i, other in enumerate(rest):
            if not reached.isdisjoint(other):
                reached |= rest.pop(i)
                break
        else:
            return False
    return True


def enumerate_spanning_trees(m: Multigraph) -> Sequence[SpanningTree]:
    """All spanning trees of ``m``, in the lexicographic order of their sorted edge-index lists.

    The trees form an immutable sequence (:class:`SpanningTrees`) whose
    length is their count; indexing and slicing build each tree only when it
    is asked for, and iteration goes through indexing.  Parallel edges yield
    distinct trees.  The cost of the call grows with the number of states of
    the diagram, the partitions of the edge order's frontier that occur, not
    with the number of trees.  A frontier of more than 256 vertices raises
    ``GraphError``.
    """
    return SpanningTrees(m)


def first_spanning_tree(m: Multigraph) -> SpanningTree:
    """The greedy lowest-edge-index spanning tree (deterministic, cheap)."""
    if m.n_vertices == 0:
        raise GraphError("a host with no vertices has no spanning tree")
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


def parse_json(text: str):
    """The JSON value in ``text``; nesting too deep for the decoder is bad input, a ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"input nested too deep: {exc}") from None


def freeze(value):
    """Nested JSON lists as nested tuples, so labels read from files are hashable."""
    if isinstance(value, list):
        try:
            return tuple(freeze(v) for v in value)
        except RecursionError:  # bad input, not a fault of the program
            raise GraphError("input nested too deep: a label exceeds the recursion limit") from None
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
