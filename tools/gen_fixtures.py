#!/usr/bin/env python3
"""Regenerate the bundled fixture files under src/toricgs/fixtures/.

Produces the standard small instances, the reduction-chain systems obtained
by repeatedly contracting arm corners of the plus-shaped pentomino, the
mirror systems with their relabeling maps, and the chain specification.
Everything written here is re-verified from scratch by the test suite; this
script exists so the fixtures are reproducible rather than hand-typed.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from toricgs import graphs, polyforms, reduction, surface

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "toricgs", "fixtures")
CHAIN_DIR = os.path.join(OUT, "chain")


def write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def write_setup(name: str, emb: surface.Embedding, directory: str = "") -> None:
    """Write a setup file into ``directory``, by default the current ``OUT``."""
    write_json(os.path.join(directory or OUT, f"{name}.json"), emb.to_dict())


def derive_vertex_map(
    system: surface.Embedding, source: surface.Embedding, edge_map: dict
) -> dict:
    """Find a vertex bijection consistent with the given qubit bijection."""
    src_pos = {q: k for k, q in enumerate(source.qubit_ids)}
    constraints = []
    for k in range(system.graph.n_edges):
        u, v = system.graph.endpoints(k)
        su, sv = source.graph.endpoints(src_pos[edge_map[system.qubit_ids[k]]])
        constraints.append(((u, v), (su, sv)))

    sys_vertices = list(system.graph.vertices)
    src_vertices = set(source.graph.vertices)

    def backtrack(i: int, assignment: dict, used: set):
        if i == len(constraints):
            if len(assignment) < len(sys_vertices):
                # Isolated vertices cannot occur in connected hosts.
                return None
            return dict(assignment)
        (u, v), (su, sv) = constraints[i]
        for mu, mv in ((su, sv), (sv, su)):
            conflicts = (
                (u in assignment and assignment[u] != mu)
                or (v in assignment and assignment[v] != mv)
                or (u not in assignment and mu in used)
                or (v not in assignment and mv in used)
            )
            if conflicts or (u == v) != (mu == mv):
                continue
            new_assignment = dict(assignment)
            new_used = set(used)
            new_assignment[u] = mu
            new_used.add(mu)
            new_assignment[v] = mv
            new_used.add(mv)
            result = backtrack(i + 1, new_assignment, new_used)
            if result is not None:
                return result
        return None

    mapping = backtrack(0, {}, set())
    if mapping is None:
        raise RuntimeError("no vertex bijection found for the relabeling")
    assert src_vertices == set(mapping.values())
    return mapping


def build_chain():
    pent = polyforms.polyform_embedding(polyforms.plus_pentomino_cells(), "square")
    systems = {"s0": pent}
    steps = []
    relabels = []
    current = pent
    k = 0
    while True:
        m = current.graph
        deg2 = [v for v in m.vertices if len(m.incident_edges(v)) == 2]
        if not deg2:
            break
        w = sorted(deg2)[0]
        a_pos, b_pos = sorted(m.incident_edges(w))
        qa, qb = current.qubit_ids[a_pos], current.qubit_ids[b_pos]

        # the first enumerated tree with a and without b: greedy over a, then the other edges by index
        tree = next(
            t for t in graphs.enumerate_spanning_trees(m)
            if a_pos in t.tree_edges and b_pos not in t.tree_edges
        )
        leaf_graph = surface.phi_graph(current, tree)
        leaf = reduction.LeafGraph(leaf_graph, outer=qa, inner=qb)

        reduced_a = surface.contract_embedding(current, a_pos)
        reduced_b = surface.contract_embedding(current, b_pos)

        next_name = f"s{k + 1}"
        mirror_name = f"m{k + 1}"
        systems[next_name] = reduced_a
        systems[mirror_name] = reduced_b

        edge_map = {q: q for q in reduced_b.qubit_ids}
        edge_map[qa] = qb
        vertex_map = derive_vertex_map(reduced_b, reduced_a, edge_map)
        assert reduction.verify_relabeling(reduced_b, reduced_a, edge_map, vertex_map)
        relabels.append(
            {
                "system": mirror_name,
                "source": next_name,
                "edge_map": sorted([q, edge_map[q]] for q in edge_map),
                "vertex_map": sorted([list(v), list(vertex_map[v])] for v in vertex_map),
            }
        )
        steps.append(
            {
                "system": f"s{k}",
                "a": qa,
                "b": qb,
                "reduced_a": next_name,
                "reduced_b": mirror_name,
                "leaf": {
                    "vertices": list(leaf.graph.labels),
                    "edges": [list(e) for e in leaf.graph.edges()],
                    "outer": qa,
                    "inner": qb,
                },
            }
        )
        current = reduced_a
        k += 1

    print(f"chain built: {k} steps, final system has {current.n_qubits} qubits")
    assert current.n_qubits == 8

    os.makedirs(CHAIN_DIR, exist_ok=True)
    chain = {
        "systems": {name: {"file": f"{name}.json"} for name in systems},
        "steps": steps,
        "relabel": relabels,
        "base": [f"s{k}"],
    }
    for name, emb in systems.items():
        write_setup(name, emb, CHAIN_DIR)
    write_json(os.path.join(CHAIN_DIR, "pentomino_chain.json"), chain)
    # The 8-qubit base doubles as a standalone fixture.
    write_setup("reduced_8qubit", systems[f"s{k}"])
    return os.path.join(CHAIN_DIR, "pentomino_chain.json")


def build_standard():
    write_setup("plaquette4", surface.single_plaquette(4))
    write_setup("hexagon", surface.single_plaquette(6))
    write_setup("double_plaquette_onepoint", surface.one_point_double_plaquette())
    write_setup("torus_2x2", surface.square_torus(2))
    write_setup("torus_3x3", surface.square_torus(3))
    write_setup(
        "tetriamond",
        polyforms.polyform_embedding(polyforms.triangle_tetriamond_cells(), "triangular"),
    )
    write_setup(
        "pentomino_plus",
        polyforms.polyform_embedding(polyforms.plus_pentomino_cells(), "square"),
    )
    for name, graph in [
        ("star5", graphs.SimpleGraph.from_edges(range(5), [(0, i) for i in range(1, 5)])),
        ("complete5", graphs.SimpleGraph.complete(range(5))),
        ("path4", graphs.SimpleGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)])),
        ("star4", graphs.SimpleGraph.from_edges(range(4), [(0, i) for i in range(1, 4)])),
    ]:
        write_json(os.path.join(OUT, f"{name}.graph.json"), graphs.graph_to_dict(graph))


def main():
    os.makedirs(OUT, exist_ok=True)
    build_standard()
    chain_path = build_chain()

    print("verifying the chain end to end ...")
    spec = reduction.load_chain_spec(chain_path)
    report = reduction.reduction_chain(spec)
    print("chain ok:", report.ok)
    for name, verdict in sorted(report.verdicts.items()):
        print(f"  {name}: {verdict}")
    print("base orbits:", report.base_orbits)
    if not report.ok:
        print("FAILURES:", report.failures)
        sys.exit(1)


if __name__ == "__main__":
    main()
