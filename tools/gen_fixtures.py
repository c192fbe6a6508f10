#!/usr/bin/env python3
"""Regenerate the bundled fixture files under src/toricgs/fixtures/.

Produces the standard small instances and the reduction chain of the
plus-shaped pentomino: ``reduction.derive_chain`` contracts arm corners and
fixes each step's leaf graph and mirror relabeling, and this script writes
its systems and specification as JSON.  Everything written here is
re-verified from scratch by the test suite; this script exists so the
fixtures are reproducible rather than hand-typed.
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


def build_chain():
    """Write the systems and the specification of ``reduction.derive_chain`` on the plus pentomino."""
    pent = polyforms.polyform_embedding(polyforms.plus_pentomino_cells(), "square")
    spec = reduction.derive_chain(pent)
    base = spec.systems[spec.base[0]]
    print(f"chain built: {len(spec.steps)} steps, final system has {base.n_qubits} qubits")

    os.makedirs(CHAIN_DIR, exist_ok=True)
    chain = {
        "systems": {name: {"file": f"{name}.json"} for name in spec.systems},
        "steps": [
            {"system": s.system, "a": s.a, "b": s.b, "reduced_a": s.reduced_a, "reduced_b": s.reduced_b,
             "leaf": {**graphs.graph_to_dict(s.leaf.graph), "outer": s.leaf.outer, "inner": s.leaf.inner}}
            for s in spec.steps
        ],
        "relabel": [
            {"system": r.system, "source": r.source,
             "edge_map": sorted(map(list, r.edge_map.items())), "vertex_map": sorted(map(list, r.vertex_map.items()))}
            for r in spec.relabelings
        ],
        "base": list(spec.base),
    }
    for name, emb in spec.systems.items():
        write_setup(name, emb, CHAIN_DIR)
    write_json(os.path.join(CHAIN_DIR, "pentomino_chain.json"), chain)
    # The 8-qubit base doubles as a standalone fixture.
    write_setup("reduced_8qubit", base)
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
