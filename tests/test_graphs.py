"""Graphs, spanning trees, local complementation and the tree map."""

import hashlib
import itertools
import random
from pathlib import Path

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


def edge_set(g):
    return {frozenset(e) for e in g.edges()}


def test_permute_pair_is_the_edge_swap():
    # Against swapping a and b in every edge, a == b included, with tuple
    # and string labels listed in a random order.
    rng = np.random.default_rng(61)
    same = 0
    for trial in range(300):
        n = int(rng.integers(1, 10))
        g = random_simple_graph(rng, n)
        labels = [(int(i), "t") if trial % 2 else f"s{i}" for i in rng.permutation(n)]
        g = SimpleGraph.from_edges(labels, [(labels[u], labels[v]) for u, v in g.edges()])
        a, b = (labels[int(i)] for i in rng.integers(0, n, size=2))
        swap = {a: b, b: a}
        h = g.permute_pair(a, b)
        assert h.labels == g.labels
        assert edge_set(h) == {frozenset(swap.get(x, x) for x in e) for e in edge_set(g)}
        same += a == b
    assert same >= 20
    with pytest.raises(GraphError, match="unknown vertex"):
        g.permute_pair(labels[0], "elsewhere")


def test_in_order_keeps_the_graph():
    # The same order gives the graph itself; a random order lists the same
    # edges, and ordering back gives the original rows.
    rng = np.random.default_rng(62)
    for trial in range(300):
        n = int(rng.integers(0, 10))
        g = random_simple_graph(rng, n)
        labels = [(i, -i) if trial % 3 == 1 else f"v{i}" if trial % 3 == 2 else i for i in range(n)]
        g = SimpleGraph.from_edges(labels, [(labels[u], labels[v]) for u, v in g.edges()])
        assert g.in_order(list(g.labels)) is g
        order = [labels[int(i)] for i in rng.permutation(n)]
        h = g.in_order(order)
        assert h.labels == tuple(order) and edge_set(h) == edge_set(g)
        assert h == SimpleGraph(h.labels, h.rows)  # symmetric and loop-free
        assert h.in_order(g.labels) == g


def test_in_order_needs_exactly_the_graph_labels():
    g = SimpleGraph.from_edges("abc", [("a", "b"), ("b", "c")])
    for labels in ("ab", "abcd", "abb", "aabc", "abd", ""):
        with pytest.raises(GraphError, match="vertex sets differ"):
            g.in_order(labels)


def test_is_subgraph_of_with_permuted_labels():
    # The row test for one label order and the label mapping for another
    # must agree with the edge sets, on sparse graphs inside dense ones and
    # on unrelated pairs.
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        g, h = random_simple_graph(rng, n), random_simple_graph(rng, n)
        if rng.integers(0, 2):
            h = SimpleGraph(g.labels, [a | b for a, b in zip(g.rows, h.rows)])
        expected = {frozenset(e) for e in g.edges()} <= {frozenset(e) for e in h.edges()}
        order = [int(v) for v in rng.permutation(n)]
        if order == sorted(order):
            order.reverse()  # another order whenever n > 1
        permuted = SimpleGraph.from_edges(order, h.edges())
        assert g.is_subgraph_of(h) == g.is_subgraph_of(permuted) == expected
    g = SimpleGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    assert g.is_subgraph_of(SimpleGraph.from_edges([2, 0, 1], [(1, 0), (2, 1)]))
    assert not g.is_subgraph_of(SimpleGraph.from_edges([2, 0, 1], [(1, 0), (2, 0)]))
    for other in (SimpleGraph.empty([0, 1, 3]), SimpleGraph.empty([0, 1])):
        with pytest.raises(GraphError, match="vertex sets differ"):
            g.is_subgraph_of(other)


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
        derived += [LcOrbit(labels, 0, [], []).member_graph(k) for k in keys]
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


def test_frontier_beyond_256_vertices_rejected():
    # Pairs first, then the links between them: before the links, every
    # vertex but the two ends has been touched and still has an edge to come.
    pairs = [(i, i + 1) for i in range(0, 600, 2)]
    links = [(i, i + 1) for i in range(1, 599, 2)]
    with pytest.raises(GraphError, match="frontier of more than 256 vertices"):
        enumerate_spanning_trees(Multigraph(range(600), pairs + links))
    # Closed into a cycle, the later edges join the ends of every pair, so
    # each subset of the pairs seen so far would be a state: the width is
    # checked before any state is built.
    with pytest.raises(GraphError, match="frontier of more than 256 vertices"):
        enumerate_spanning_trees(Multigraph(range(600), pairs + links + [(599, 0)]))
    assert len(enumerate_spanning_trees(Multigraph(range(256), pairs[:128] + links[:127]))) == 1


def test_bad_tree_subset_rejected():
    m = Multigraph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(GraphError):
        SpanningTree(m, frozenset([0]))
    with pytest.raises(GraphError):
        SpanningTree(m, frozenset([0, 1, 2]))
    m = Multigraph([0, 1, 2, 3], [(0, 1), (1, 2), (0, 2), (2, 3), (0, 1)])
    cases = [
        ([0, 1, 5], "tree edge indices must lie in 0..4"),
        ([0, 1, -1], "tree edge indices must lie in 0..4"),
        ([0, 3], "a spanning tree has \\|V\\| - 1 edges"),
        ([0, 1, 2, 3], "a spanning tree has \\|V\\| - 1 edges"),
        ([0, 1, 2], "tree edges do not span the host"),  # a triangle: vertex 3 left out
        ([0, 4, 3], "tree edges do not span the host"),  # parallel edges
    ]
    for edges, message in cases:
        with pytest.raises(GraphError, match=message):
            SpanningTree(m, frozenset(edges))
    with pytest.raises(GraphError, match="a spanning tree has"):
        SpanningTree(Multigraph([], []), frozenset())


def test_spanning_tree_fields_are_immutable_and_valued_as_a_tuple():
    m = Multigraph([0, 1, 2, 3], [(0, 1), (1, 2), (0, 2), (2, 3), (0, 1)])
    derived = first_spanning_tree(m)  # built by _derived, unchecked
    checked = SpanningTree(m, derived.tree_edges)
    assert checked == derived and hash(checked) == hash(derived) == hash((m, derived.tree_edges))
    assert checked.path_mask(0, 3) == derived.path_mask(0, 3)  # both now hold their root masks
    for name in ("host", "tree_edges", "_root_masks"):
        with pytest.raises(AttributeError):
            setattr(checked, name, getattr(checked, name))
        with pytest.raises(AttributeError):
            delattr(checked, name)
    assert checked == derived


def test_first_spanning_tree_is_lowest_indices():
    m = Multigraph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    assert sorted(first_spanning_tree(m).tree_edges) == [0, 1]


def _reachable(n, edges, start):
    """The vertices joined to ``start`` by ``edges`` (index pairs), by a breadth-first search."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [j for i in frontier for j in adj[i] if j not in seen]
        seen.update(frontier)
    return seen


def random_multigraph(rng):
    """A multigraph on 0-7 vertices with random, often parallel, edges; often disconnected."""
    n = int(rng.integers(0, 8))
    edges = []
    if n > 1:
        for _ in range(int(rng.integers(0, 2 * n))):
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            edges += [(u, v)] * int(rng.integers(1, 3))
    return Multigraph(list(range(n)), edges)


def test_is_connected_matches_bfs():
    rng = np.random.default_rng(26)
    hosts = [Multigraph([], []), Multigraph([0], []), Multigraph([0, 1], []), Multigraph([0, 1], [(0, 1)] * 3)]
    hosts += [random_multigraph(rng) for _ in range(400)]
    verdicts = set()
    for m in hosts:
        expected = m.n_vertices == 0 or len(_reachable(m.n_vertices, m.edges, 0)) == m.n_vertices
        assert m.is_connected() == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_first_spanning_tree_is_the_greedy_tree():
    # The reference keeps an edge, in index order, when the kept edges do not join its endpoints yet.
    rng = np.random.default_rng(27)
    for _ in range(300):
        m = random_multigraph(rng)
        kept = []
        for k, (a, b) in enumerate(m.edges):
            if b not in _reachable(m.n_vertices, [m.edges[j] for j in kept], a):
                kept.append(k)
        if len(kept) == m.n_vertices - 1:
            assert first_spanning_tree(m).tree_edges == frozenset(kept)
        else:
            with pytest.raises(GraphError):
                first_spanning_tree(m)


def _transform_shapes():
    """The setups of perfbench's transform workload."""
    from toricgs.fixture_files import fixture_path
    from toricgs.polyforms import polyform_enumerate
    from toricgs.surface import load_setup

    shapes = [emb for n in range(1, 5) for emb in polyform_enumerate(n, "square")]
    shapes += [emb for n in range(1, 6) for emb in polyform_enumerate(n, "triangular")]
    shapes += [load_setup(fixture_path(f"{name}.json")) for name in ("torus_2x2", "torus_3x3")]
    return shapes


def test_enumeration_order_is_pinned():
    # perfbench's transform workload samples trees by position, so their order is part of its jobs.
    trees = [[sorted(t.tree_edges) for t in enumerate_spanning_trees(e.graph)] for e in _transform_shapes()]
    assert sum(map(len, trees)) == 13_623
    digest = hashlib.sha256(repr(trees).encode()).hexdigest()
    assert digest == "87b89988b96041eb89607720c440c1bf3719054cb316637879019daf81a2c310"


def test_enumerated_trees_pass_the_public_check():
    # The enumeration skips the constructor's check and builds no root masks.
    checked = 0
    for emb in _transform_shapes():
        m = emb.graph
        for t in enumerate_spanning_trees(m):
            assert "_root_masks" not in t.__dict__
            assert SpanningTree(m, t.tree_edges) == t
            checked += 1
    assert checked == 13_623


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


def _matrix_tree_count(m):
    """Kirchhoff's tree count, a cofactor of the Laplacian, by exact fraction-free (Bareiss) elimination."""
    n = m.n_vertices
    lap = [[0] * n for _ in range(n)]
    for a, b in m.edges:
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    a = [row[1:] for row in lap[1:]]
    size, sign, prev = n - 1, 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if size else 1


def _brute_force_trees(m):
    """Every (n - 1)-subset of edge indices that a union-find accepts, in lexicographic order."""
    out = []
    for subset in itertools.combinations(range(m.n_edges), m.n_vertices - 1):
        parent = list(range(m.n_vertices))

        def root(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for k in subset:
            a, b = (root(v) for v in m.edges[k])
            if a == b:
                break
            parent[a] = b
        else:
            out.append(list(subset))
    return out


def test_trees_match_brute_force():
    rng = np.random.default_rng(24)
    total = 0
    for _ in range(150):
        m = random_connected_multigraph(rng, max_edges=10)
        m = Multigraph(m.vertices, [m.endpoints(k) for k in rng.permutation(m.n_edges)])
        trees = enumerate_spanning_trees(m)
        expected = _brute_force_trees(m)
        assert [sorted(t.tree_edges) for t in trees] == expected
        assert [sorted(trees[i].tree_edges) for i in range(len(trees))] == expected
        total += len(expected)
    assert total > 1000


def test_trees_are_counted_without_building_one(monkeypatch):
    from toricgs.fixture_files import fixture_path
    from toricgs.polyforms import polyform_enumerate
    from toricgs.surface import load_setup

    def no_tree(*args):
        raise AssertionError("a tree was built")

    monkeypatch.setattr(SpanningTree, "_derived", no_tree)
    shapes = [emb for n in range(1, 7) for emb in polyform_enumerate(n, "square")]
    shapes += [emb for n in range(1, 8) for emb in polyform_enumerate(n, "triangular")]
    shapes += [load_setup(fixture_path(f"{name}.json")) for name in ("torus_2x2", "torus_3x3")]
    assert len(shapes) == 56 + 46 + 2
    for emb in shapes:
        assert len(enumerate_spanning_trees(emb.graph)) == _matrix_tree_count(emb.graph)
    torus = enumerate_spanning_trees(shapes[-1].graph)
    assert (len(torus), torus.n_states) == (11_664, 2_167)
    # The states bound the cost of a build: more of them is a slower
    # transform set-up.
    assert sum(enumerate_spanning_trees(emb.graph).n_states for emb in _transform_shapes()) == 2_973


def test_doomed_states_are_pruned_on_a_cycle():
    # A 32-cycle with every second edge first: leaving out two of those
    # edges dooms a state long before any vertex leaves the frontier.  The
    # exclude child's join test prunes it at once; without that test the
    # diagram has 196,604 states.
    pairs = [(i, i + 1) for i in range(0, 32, 2)]
    links = [(i, (i + 1) % 32) for i in range(1, 32, 2)]
    trees = enumerate_spanning_trees(Multigraph(range(32), pairs + links))
    assert (len(trees), trees.n_states) == (32, 287)


def test_tree_sequence_indexing():
    from collections.abc import Sequence

    m = Multigraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (0, 1)])
    trees = enumerate_spanning_trees(m)
    listed = list(trees)
    n = len(listed)
    assert isinstance(trees, Sequence) and n == len(trees) == _matrix_tree_count(m) == 24
    assert [trees[i] for i in range(-n, 0)] == listed
    assert trees[np.int64(5)] == listed[5]
    for cut in (slice(None), slice(3, 11), slice(-4, None), slice(None, None, -3), slice(20, 2, -5), slice(9, 9)):
        assert trees[cut] == tuple(listed[cut])
    for i in (n, -n - 1, 10**6):
        with pytest.raises(IndexError):
            trees[i]
    with pytest.raises(TypeError):
        trees[1.0]
    with pytest.raises(TypeError):
        trees[0] = listed[0]
    picks = random.Random(4).sample(trees, 10)
    assert len(set(picks)) == 10 and all(t in listed for t in picks)
    assert trees.index(listed[7]) == 7 and list(reversed(trees)) == listed[::-1]


def test_first_enumerated_tree_is_the_greedy_tree():
    rng = np.random.default_rng(28)
    checked = 0
    for _ in range(300):
        m = random_multigraph(rng)
        if m.n_vertices and m.is_connected():
            assert enumerate_spanning_trees(m)[0] == first_spanning_tree(m)
            checked += 1
    assert checked > 50


def test_host_without_vertices_has_no_tree():
    m = Multigraph([], [])
    assert m.is_connected()
    assert len(enumerate_spanning_trees(m)) == 0 and list(enumerate_spanning_trees(m)) == []
    with pytest.raises(GraphError, match="no vertices"):
        first_spanning_tree(m)


@pytest.mark.slow
def test_torus_4x4_trees_counted_and_unranked_within_memory():
    # 42,467,328 trees: far too many to list, yet the diagram counts them
    # and builds any one by its index.  The child process's ru_maxrss
    # (kilobytes on Linux) bounds the diagram's memory.
    import os
    import subprocess
    import sys

    from toricgs.surface import square_torus

    script = (
        "import random\n"
        "from toricgs.graphs import SpanningTree, enumerate_spanning_trees\n"
        "from toricgs.surface import square_torus\n"
        "m = square_torus(4).graph\n"
        "trees = enumerate_spanning_trees(m)\n"
        "for i in random.Random(44).sample(range(len(trees)), 1000):\n"
        "    tree = trees[i]\n"
        "    if SpanningTree(m, tree.tree_edges) != tree:\n"
        "        raise SystemExit(f'tree {i} fails the public check')\n"
        "print(len(trees))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(graphs.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, env=env)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert int(out) == 42_467_328 == _matrix_tree_count(square_torus(4).graph)
    assert usage.ru_maxrss <= 150 * 1024


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
    dot = to_dot(g, g)
    assert dot == to_dot(g, g)
    assert dot == 'graph phi {\n  "0";\n  "1";\n  "2";\n  "0" -- "1";\n  "1" -- "2";\n}\n'


def test_dot_edge_styles():
    g = SimpleGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    dot = to_dot(g, SimpleGraph.from_edges([0, 1, 2], [(1, 2)]))
    assert '"0" -- "1" [style=dashed];' in dot
    assert '"1" -- "2";' in dot


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
