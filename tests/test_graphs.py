"""Graphs, spanning trees, local complementation and the tree map."""

import numpy as np
import pytest

from toricgs import graphs
from toricgs.graphs import (
    GraphError,
    Multigraph,
    SimpleGraph,
    SpanningTree,
    enumerate_spanning_trees,
    first_spanning_tree,
    local_complement,
    phi,
    to_dot,
)


def random_simple_graph(rng, n):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.integers(0, 2):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return SimpleGraph(list(range(n)), rows)


def random_connected_multigraph(rng, max_edges=12):
    n = int(rng.integers(2, 8))
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    for _ in range(int(rng.integers(0, max_edges - n + 2))):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.append((u, v))
    return Multigraph(list(range(n)), edges)


# -- local complementation ----------------------------------------------------


def test_local_complement_isolated_vertex_is_noop():
    g = SimpleGraph.from_edges([1, 2, 3], [(2, 3)])
    assert local_complement(g, 1) == g


def test_local_complement_triangle_gives_path():
    k3 = SimpleGraph.complete([1, 2, 3])
    path = local_complement(k3, 1)
    assert sorted(path.edges()) == [(1, 2), (1, 3)]


def test_local_complement_is_involution():
    rng = np.random.default_rng(21)
    for _ in range(200):
        g = random_simple_graph(rng, int(rng.integers(1, 9)))
        v = int(rng.integers(0, g.n))
        assert local_complement(local_complement(g, v), v) == g


def test_local_complement_keeps_non_neighbour_degrees():
    rng = np.random.default_rng(22)
    for _ in range(200):
        g = random_simple_graph(rng, int(rng.integers(2, 9)))
        v = int(rng.integers(0, g.n))
        h = local_complement(g, v)
        assert h.labels == g.labels
        nv = set(g.neighbors(v))
        for w in g.labels:
            if w != v and w not in nv:
                assert h.degree(w) == g.degree(w)
        # edges incident to v never change
        assert set(g.neighbors(v)) == set(h.neighbors(v))


def test_local_complement_unknown_vertex():
    g = SimpleGraph.from_edges([0, 1], [(0, 1)])
    with pytest.raises(GraphError):
        local_complement(g, 7)


# -- simple graph basics ------------------------------------------------------


def test_simple_graph_rejects_loops_and_asymmetry():
    with pytest.raises(GraphError, match="loops are not allowed"):
        SimpleGraph([0, 1], [0b01, 0b00])  # bit 0 of row 0: a loop
    with pytest.raises(GraphError):
        SimpleGraph.from_edges([0, 1], [(0, 0)])
    for rows in ([0b10, 0b00], [0b00, 0b01]):  # the edge is in one row only
        with pytest.raises(GraphError, match="adjacency must be symmetric"):
            SimpleGraph([0, 1], rows)


def test_delete_vertex():
    g = SimpleGraph.from_edges("abc", [("a", "b"), ("b", "c")])
    h = g.delete_vertex("b")
    assert h.labels == ("a", "c")
    assert h.edges() == []


def test_permute_pair():
    g = SimpleGraph.from_edges([0, 1, 2], [(0, 1)])
    h = g.permute_pair(0, 2)
    assert sorted(h.edges()) == [(1, 2)]
    assert h.labels == g.labels


def test_graph_dict_round_trip():
    g = SimpleGraph.from_edges([3, 1, 2], [(3, 1), (1, 2)])
    again = graphs.graph_from_dict(graphs.graph_to_dict(g))
    assert again == g


def random_spanning_tree(rng, m):
    """The tree that greedily keeps the edges of ``m`` in a random order."""
    root = list(range(m.n_vertices))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    chosen = []
    for k in rng.permutation(m.n_edges):
        a, b = (find(i) for i in m.edges[k])
        if a != b:
            root[a] = b
            chosen.append(int(k))
    return SpanningTree(m, frozenset(chosen))


def test_derived_graphs_pass_the_public_check():
    # phi, phi_graph, adjacency_relation, local_complement and member_graph
    # skip the constructor's checks; their graphs must pass them anyway.
    from toricgs.fixture_files import fixture_path
    from toricgs.lc import LcOrbit, lc_orbit
    from toricgs.polyforms import polyform_enumerate
    from toricgs.surface import adjacency_relation, contract_embedding, load_setup, phi_graph, square_torus

    rng = np.random.default_rng(44)
    setups = [square_torus(2), square_torus(3), contract_embedding(load_setup(fixture_path("pentomino_plus.json")), 0)]
    for lattice in ("square", "triangular"):
        for n in range(1, 6):
            setups += polyform_enumerate(n, lattice)
    derived = []
    for emb in setups:
        derived.append(adjacency_relation(emb))
        for _ in range(3):
            tree = random_spanning_tree(rng, emb.graph)
            derived += [phi(emb.graph, tree), phi_graph(emb, tree)]
    for _ in range(100):
        m = random_connected_multigraph(rng)
        derived.append(phi(m, random_spanning_tree(rng, m)))
        n = int(rng.integers(1, 8))
        g = random_simple_graph(rng, n)
        derived.append(local_complement(g, int(rng.integers(0, n))))
        labels = tuple(f"v{i}" for i in rng.permutation(n))
        keys = [int(k) for k in rng.integers(0, 1 << (n * (n - 1) // 2), size=5)]
        derived += [LcOrbit(labels, 0, [], 0).member_graph(k) for k in keys]
    for g in (random_simple_graph(rng, 6) for _ in range(5)):
        orbit = lc_orbit(g)
        derived += [orbit.member_graph(k) for k in orbit.members]
    for g in derived:
        again = SimpleGraph(g.labels, g.rows)
        assert again == g and all(g.position(lab) == i for i, lab in enumerate(g.labels))


# -- spanning trees -----------------------------------------------------------


def test_tree_host_is_its_own_unique_tree():
    m = Multigraph([0, 1, 2], [(0, 1), (1, 2)])
    trees = enumerate_spanning_trees(m)
    assert len(trees) == 1
    assert trees[0].deleted_edges == ()


def test_four_cycle_has_four_trees():
    m = Multigraph(list("wxyz"), [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")])
    trees = enumerate_spanning_trees(m)
    assert len(trees) == 4
    assert {frozenset(t.deleted_edges) for t in trees} == {
        frozenset([k]) for k in range(4)
    }


def test_double_edge_has_two_trees():
    m = Multigraph([0, 1], [(0, 1), (0, 1)])
    trees = enumerate_spanning_trees(m)
    assert [sorted(t.tree_edges) for t in trees] == [[0], [1]]


def test_disconnected_host_rejected():
    m = Multigraph([0, 1, 2, 3], [(0, 1), (2, 3)])
    with pytest.raises(GraphError):
        enumerate_spanning_trees(m)
    with pytest.raises(GraphError):
        first_spanning_tree(m)


def test_bad_tree_subset_rejected():
    m = Multigraph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(GraphError):
        SpanningTree(m, frozenset([0]))
    with pytest.raises(GraphError):
        SpanningTree(m, frozenset([0, 1, 2]))


def test_first_spanning_tree_is_lowest_indices():
    m = Multigraph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    assert sorted(first_spanning_tree(m).tree_edges) == [0, 1]


def test_enumeration_matches_kirchhoff_count():
    # Matrix-tree theorem as an independent counting oracle.
    rng = np.random.default_rng(23)
    for _ in range(40):
        m = random_connected_multigraph(rng, max_edges=9)
        n = m.n_vertices
        lap = np.zeros((n, n))
        for a, b in m.edges:
            lap[a, a] += 1
            lap[b, b] += 1
            lap[a, b] -= 1
            lap[b, a] -= 1
        expected = round(float(np.linalg.det(lap[1:, 1:])))
        assert len(enumerate_spanning_trees(m)) == expected


def _bfs_path_masks(tree, p):
    """Vertex -> edge-index mask of its tree path from ``p``, by a breadth-first search from ``p``."""
    m = tree.host
    adj = {v: [] for v in m.vertices}
    for k in tree.tree_edges:
        a, b = m.endpoints(k)
        adj[a].append((b, k))
        adj[b].append((a, k))
    masks = {p: 0}
    frontier = [p]
    while frontier:
        nxt = []
        for u in frontier:
            for v, k in adj[u]:
                if v not in masks:
                    masks[v] = masks[u] | 1 << k
                    nxt.append(v)
        frontier = nxt
    return masks


def test_path_mask_is_the_bfs_path():
    from toricgs.polyforms import polyform_enumerate
    from toricgs.surface import square_torus

    hosts = [square_torus(2).graph]  # parallel edges
    for lattice in ("square", "triangular"):
        for n in range(1, 5):
            hosts += [emb.graph for emb in polyform_enumerate(n, lattice)]
    checked = 0
    for m in hosts:
        for tree in enumerate_spanning_trees(m):
            for p in m.vertices:
                from_p = _bfs_path_masks(tree, p)
                for q in m.vertices:
                    assert tree.path_mask(p, q) == from_p[q]
                    checked += 1
    assert checked > 100_000


# -- the tree map -------------------------------------------------------------


def test_phi_square_plaquette_is_star():
    m = Multigraph(list("wxyz"), [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")])
    tree = SpanningTree(m, frozenset([0, 1, 2]))
    g = phi(m, tree)
    assert sorted(g.edges()) == [(0, 3), (1, 3), (2, 3)]


def test_phi_hexagon_is_star_on_six():
    m = Multigraph(range(6), [(i, (i + 1) % 6) for i in range(6)])
    for tree in enumerate_spanning_trees(m):
        g = phi(m, tree)
        assert sorted(g.degree(v) for v in g.labels) == [1, 1, 1, 1, 1, 5]


def test_phi_of_tree_is_edgeless():
    m = Multigraph(range(4), [(0, 1), (1, 2), (1, 3)])
    g = phi(m, enumerate_spanning_trees(m)[0])
    assert g.n == 3 and g.edges() == []


def test_phi_parallel_edge_pair_single_edge():
    m = Multigraph([0, 1], [(0, 1), (0, 1)])
    tree = SpanningTree(m, frozenset([0]))
    g = phi(m, tree)
    assert g.edges() == [(0, 1)]


def test_phi_bipartite_between_tree_and_deleted():
    rng = np.random.default_rng(24)
    for _ in range(300):
        m = random_connected_multigraph(rng)
        tree = first_spanning_tree(m)
        g = phi(m, tree)
        assert g.is_bipartite()
        for u, v in g.edges():
            assert (u in tree.tree_edges) != (v in tree.tree_edges)


# -- fundamental cycles and cuts ----------------------------------------------


def _independent_cycle(m, tree, e):
    # Unique cycle of tree + e: trim leaves until only the cycle remains.
    edges = set(tree.tree_edges) | {e}
    while True:
        degree = {}
        for k in edges:
            for v in m.edges[k]:
                degree[v] = degree.get(v, 0) + 1
        leaves = {v for v, d in degree.items() if d == 1}
        if not leaves:
            return frozenset(edges)
        edges = {k for k in edges if not set(m.edges[k]) & leaves}


def _independent_cut(m, tree, f):
    # Edges g such that (tree - f) + g connects all vertices again.
    base = set(tree.tree_edges) - {f}
    out = set()
    for g in range(m.n_edges):
        test_edges = base | {g}
        seen = {0}
        stack = [0]
        adj = {}
        for k in test_edges:
            a, b = m.edges[k]
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        while stack:
            x = stack.pop()
            for y in adj.get(x, []):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) == m.n_vertices:
            out.add(g)
    return frozenset(out)


def test_phi_encodes_cycles_and_cuts():
    # Each non-tree edge sees its fundamental cycle, each tree edge its cut.
    rng = np.random.default_rng(25)
    for _ in range(120):
        m = random_connected_multigraph(rng)
        tree = first_spanning_tree(m)
        g = phi(m, tree)
        for e in tree.deleted_edges:
            assert frozenset(g.neighbors(e)) | {e} == _independent_cycle(m, tree, e)
        for f in tree.tree_edges:
            assert frozenset(g.neighbors(f)) | {f} == _independent_cut(m, tree, f)


# -- multigraph contraction ---------------------------------------------------


def test_contract_edge_merges_endpoints():
    m = Multigraph(range(3), [(0, 1), (1, 2)])
    c = m.contract_edge(0)
    assert c.n_vertices == 2 and c.n_edges == 1


def test_contract_parallel_edge_rejected():
    m = Multigraph([0, 1], [(0, 1), (0, 1)])
    with pytest.raises(GraphError):
        m.contract_edge(0)


# -- DOT export ---------------------------------------------------------------


def test_dot_output_is_deterministic():
    g = SimpleGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    dot = to_dot(g)
    assert dot == to_dot(g)
    assert '"0" -- "1";' in dot and dot.startswith("graph G {")


def test_dot_edge_styles():
    g = SimpleGraph.from_edges([0, 1], [(0, 1)])
    dot = to_dot(g, edge_style=lambda u, v: "style=dashed")
    assert '"0" -- "1" [style=dashed];' in dot


def test_single_vertex_host_is_valid():
    m = Multigraph([0], [])
    trees = enumerate_spanning_trees(m)
    assert len(trees) == 1
    assert phi(m, trees[0]).n == 0


def test_spanning_tree_enumeration_is_deterministic():
    m = Multigraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    first = [sorted(t.tree_edges) for t in enumerate_spanning_trees(m)]
    second = [sorted(t.tree_edges) for t in enumerate_spanning_trees(m)]
    assert first == second
