"""Expected answers for the benchmark jobs, computed without the program.

Setups are handled here as plain dicts in the setup-file format
(``vertices``, ``edges``, ``faces``, ``closed``, ``qubit_ids``).  The tree
map, the vicinity relation, local complementation and the orbit digest are
re-implemented from their definitions, so a job's output is never checked
against the code that produced it.
"""

from __future__ import annotations

import hashlib
from collections import deque

# Nonlocal setups of the census and their LC class, keyed by shape id
# ("<lattice>_<cells>_<index in enumerate_polyforms order>" or fixture name).
# Digests are of the class with its vertices in the unpermuted edge order;
# None means the class is too large to re-enumerate in the oracle.
# Every other census shape is local.
CENSUS_NONLOCAL = {
    "square_5_11": {"orbit_size": 20992, "digest": None},  # plus pentomino
    "triangular_4_1": {  # tetriamond
        "orbit_size": 828,
        "digest": "025c936bcef23014179ddf1b42b30a4e763e34c955d0956557cf28e82cded436",
    },
    "triangular_5_1": {  # the nonlocal pentiamond
        "orbit_size": 6176,
        "digest": "14e9fbccbeaf75c24ff0b782ada270915d2586b4ef8ab7770ec73325dd635adb",
    },
    "torus_2x2": {
        "orbit_size": 148,
        "digest": "5d0d5b0e2dd0f594bb8986b0a6a59faff6a3501f56e14a97d6841f93c8bf640e",
    },
    "reduced_8qubit": {
        "orbit_size": 148,
        "digest": "7b150cd88f5a1393acb4de90a164add94967e912f25a299db5d2f888531dfb2a",
    },
}

# The `reduce --chain pentomino_chain.json` report: every one of the 17
# systems nonlocal, 8 verified steps, one exhaustive base of 148 members.
CHAIN_SYSTEMS = [f"s{i}" for i in range(9)] + [f"m{i}" for i in range(1, 9)]
CHAIN_STEPS = 8
CHAIN_BASE = {
    "s8": {
        "nonlocal": True,
        "orbit_size": 148,
        "orbit_digest": "7b150cd88f5a1393acb4de90a164add94967e912f25a299db5d2f888531dfb2a",
    }
}


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def _vertex_index(setup: dict) -> dict:
    return {_freeze(v): i for i, v in enumerate(setup["vertices"])}


def _endpoints(setup: dict) -> list[tuple[int, int]]:
    index = _vertex_index(setup)
    return [(index[_freeze(u)], index[_freeze(v)]) for u, v in setup["edges"]]


def first_tree(setup: dict) -> frozenset[int]:
    """Greedy spanning tree taking edges in index order."""
    ends = _endpoints(setup)
    parent = list(range(len(setup["vertices"])))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    chosen = []
    for k, (a, b) in enumerate(ends):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            chosen.append(k)
    return frozenset(chosen)


def tree_graph(setup: dict, tree: frozenset[int]) -> frozenset[frozenset]:
    """Edges of the tree-map graph as label pairs.

    Each non-tree edge is joined to every edge on the tree path between its
    endpoints; vertices are labeled by qubit id.
    """
    ends = _endpoints(setup)
    ids = setup["qubit_ids"]
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(setup["vertices"]))}
    for k in tree:
        a, b = ends[k]
        adj[a].append((b, k))
        adj[b].append((a, k))
    out = set()
    for e, (p, q) in enumerate(ends):
        if e in tree:
            continue
        via = {p: None}
        queue = deque([p])
        while queue:
            x = queue.popleft()
            for y, k in adj[x]:
                if y not in via:
                    via[y] = (x, k)
                    queue.append(y)
        x = q
        while via[x] is not None:
            x, k = via[x]
            out.add(frozenset((ids[e], ids[k])))
    return frozenset(out)


def vicinal_pairs(setup: dict) -> frozenset[frozenset]:
    """Qubit pairs whose edges share a vertex or lie on a common face."""
    ends = _endpoints(setup)
    ids = setup["qubit_ids"]
    groups: list[set[int]] = [set() for _ in setup["vertices"]]
    for k, (a, b) in enumerate(ends):
        groups[a].add(k)
        groups[b].add(k)
    groups += [set(face) for face in setup["faces"]]
    out = set()
    for group in groups:
        for k in group:
            for j in group:
                if k != j:
                    out.add(frozenset((ids[k], ids[j])))
    return frozenset(out)


def complement_path(labels: list, edges: frozenset[frozenset], path: list[int]) -> frozenset:
    """Apply local complementations at the given vertex positions."""
    nbrs = {lab: set() for lab in labels}
    for pair in edges:
        u, v = tuple(pair)
        nbrs[u].add(v)
        nbrs[v].add(u)
    for pos in path:
        around = sorted(nbrs[labels[pos]], key=labels.index)
        for i, u in enumerate(around):
            for v in around[i + 1 :]:
                if v in nbrs[u]:
                    nbrs[u].discard(v)
                    nbrs[v].discard(u)
                else:
                    nbrs[u].add(v)
                    nbrs[v].add(u)
    return frozenset(frozenset((u, v)) for u in labels for v in nbrs[u])


def key_edges(key: int, labels: list) -> list[tuple]:
    """Label pairs of a canonical key (upper triangle packed row-major)."""
    n = len(labels)
    out = []
    shift = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (key >> shift) & 1:
                out.append((labels[i], labels[j]))
            shift += 1
    return out


def edges_key(edges, labels: list) -> int:
    n = len(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    key = 0
    for u, v in edges:
        i, j = sorted((pos[u], pos[v]))
        key |= 1 << (i * (2 * n - i - 1) // 2 + (j - i - 1))
    return key


def keys_digest(keys) -> str:
    """SHA-256 over the ascending hex keys, each followed by a comma."""
    h = hashlib.sha256()
    for k in sorted(int(k) for k in keys):
        h.update(format(k, "x").encode())
        h.update(b",")
    return h.hexdigest()
