"""The three workloads: inputs from a seed, jobs, and their expected answers.

Each workload has ``setup(seed, workdir)``, which builds the inputs with the
package (this is the timed set-up), and ``jobs(inputs)``, which computes the
expected answers outside any timed region and returns the job list.  A job's
``call`` is the single program call that is timed; ``check`` compares its
output against ``expected``.  ``corrupt(jobs)`` replaces one expected answer
with a wrong one, for the negative test of the oracles.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from toricgs import cli, graphs, lc, polyforms, reduction, surface
from toricgs.fixture_files import fixture_path

import oracle

LATTICES = ("square", "triangular")
CHAIN = "chain/pentomino_chain.json"


@dataclass
class Job:
    name: str
    kind: str
    n: int  # qubits or graph vertices
    call: Callable[[], Any]
    expected: Any
    check: Callable[[Any, Any], bool]


def _polyforms(max_cells: dict) -> list[tuple[str, Any]]:
    out = []
    for lattice in LATTICES:
        for n in range(1, max_cells[lattice] + 1):
            for i, cells in enumerate(polyforms.enumerate_polyforms(n, lattice)):
                out.append((f"{lattice}_{n}_{i}", polyforms.polyform_embedding(cells, lattice)))
    return out


def _fixtures(names) -> list[tuple[str, Any]]:
    return [(name, surface.load_setup(fixture_path(f"{name}.json"))) for name in names]


# ---------------------------------------------------------------------------
# census: `toricgs locality` on every small polyform, plus `toricgs reduce`


def _permute_edges(data: dict, perm: list[int]) -> dict:
    """The same setup with edge k moved to position perm.index(k)."""
    where = {old: new for new, old in enumerate(perm)}
    return {
        "vertices": data["vertices"],
        "edges": [data["edges"][old] for old in perm],
        "faces": [[where[k] for k in face] for face in data["faces"]],
        "closed": data["closed"],
        "qubit_ids": [data["qubit_ids"][old] for old in perm],
    }


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # rejected arguments: a failed job
                code = exc.code
        return code, buf.getvalue()

    return call


# Edge orders per shape.  The search order, and so the cost of the search for
# a local member, depends on the order; six orders per shape steady the
# job-time percentiles from seed to seed.  The plus pentomino's job enumerates
# its whole class twice whatever the order, and one copy already dominates a
# pass.
ORDERS_PER_SHAPE = 6
SINGLE_ORDER = {"square_5_11"}


def census_setup(seed: int, workdir: Path) -> dict:
    shapes = _polyforms({"square": 5, "triangular": 5})
    shapes += _fixtures(["torus_2x2", "reduced_8qubit"])
    workdir.mkdir(parents=True, exist_ok=True)
    files = []
    for shape_id, emb in shapes:
        data = json.loads(json.dumps(emb.to_dict()))
        rng = random.Random(f"census:{seed}:{shape_id}")
        tree = oracle.first_tree(data)
        for k in range(1 if shape_id in SINGLE_ORDER else ORDERS_PER_SHAPE):
            perm = [[e for e in range(len(data["edges"])) if (e in tree) == side] for side in (True, False)]
            for group in perm:
                rng.shuffle(group)
            permuted = _permute_edges(data, perm[0] + perm[1])
            path = workdir / f"{shape_id}_o{k}.json"
            path.write_text(json.dumps(permuted))
            files.append((shape_id, path, data, permuted))
    return {"files": files, "chain": fixture_path(CHAIN)}


def _class_members(data: dict, committed: str):
    """The class in the unpermuted vertex order, or None if its digest differs."""
    edges = [tuple(p) for p in oracle.tree_graph(data, oracle.first_tree(data))]
    orbit = lc.lc_orbit(graphs.SimpleGraph.from_edges(data["qubit_ids"], edges))
    return orbit.members if oracle.keys_digest(orbit.members) == committed else None


def _class_digest(members, data: dict, permuted: dict) -> str:
    """Digest of the class with its members re-keyed in the permuted order."""
    if members is None:
        return "class differs from the committed digest"
    ids, new_ids = data["qubit_ids"], permuted["qubit_ids"]
    return oracle.keys_digest(
        oracle.edges_key(oracle.key_edges(int(k), ids), new_ids) for k in members
    )


def _check_locality(output, expected) -> bool:
    code, text = output
    if code != 0:
        return False
    result = json.loads(text)["result"]
    if result["verdict"] != expected["verdict"]:
        return False
    if expected["verdict"] == "nonlocal":
        return result["orbit_size"] == expected["orbit_size"] and expected["digest"] in (
            None,
            result["orbit_digest"],
        )
    graph = result["local_graph"]
    reached = oracle.complement_path(expected["labels"], expected["tree_graph"], result["complementations"])
    reported = frozenset(frozenset(e) for e in graph["edges"])
    return (
        sorted(graph["vertices"]) == sorted(expected["labels"])
        and reached == reported
        and reported <= expected["vicinal"]
    )


def _check_reduce(output, expected) -> bool:
    code, text = output
    result = json.loads(text)["result"]
    return (
        code == 0
        and result["ok"] is True
        and result["failures"] == []
        and result["verdicts"] == {name: "nonlocal" for name in expected["systems"]}
        and result["steps_verified"] == expected["steps"]
        and result["base_orbits"] == expected["base"]
    )


def census_jobs(inputs: dict) -> list[Job]:
    jobs = []
    classes = {}
    for shape_id, path, data, permuted in inputs["files"]:
        known = oracle.CENSUS_NONLOCAL.get(shape_id)
        if known is not None:
            digest = None
            if known["digest"] is not None:
                if shape_id not in classes:
                    classes[shape_id] = _class_members(data, known["digest"])
                digest = _class_digest(classes[shape_id], data, permuted)
            expected = {"verdict": "nonlocal", "orbit_size": known["orbit_size"], "digest": digest}
        else:
            expected = {
                "verdict": "local",
                "labels": permuted["qubit_ids"],
                "tree_graph": oracle.tree_graph(permuted, oracle.first_tree(permuted)),
                "vicinal": oracle.vicinal_pairs(permuted),
            }
        argv = ["locality", "--setup", str(path)]
        jobs.append(Job(path.stem, "locality", len(data["edges"]), _cli(argv), expected, _check_locality))
    expected = {"systems": oracle.CHAIN_SYSTEMS, "steps": oracle.CHAIN_STEPS, "base": oracle.CHAIN_BASE}
    argv = ["reduce", "--chain", inputs["chain"]]
    jobs.append(Job("pentomino_chain", "reduce", 16, _cli(argv), expected, _check_reduce))
    return jobs


def census_corrupt(jobs: list[Job]) -> str:
    job = next(j for j in jobs if j.name == "square_5_11_o0")
    job.expected = dict(job.expected, orbit_size=job.expected["orbit_size"] + 1)
    return f"{job.name}: expected class size {job.expected['orbit_size']}"


# ---------------------------------------------------------------------------
# pairwise: the algebraic LC-equivalence test on seeded graph pairs

PAIRS_PER_SIZE = 1300
POOL_PER_SIZE = 48
TREES_PER_SYSTEM = 6


def _random_connected(rng: random.Random, n: int) -> list[int]:
    while True:
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        seen, todo = 1, [0]
        while todo:
            row = rows[todo.pop()]
            fresh = row & ~seen
            seen |= fresh
            todo += [j for j in range(n) if (fresh >> j) & 1]
        if seen == (1 << n) - 1:
            return rows


def _lc_walk(rng: random.Random, rows: list[int]) -> list[int]:
    rows = list(rows)
    n = len(rows)
    for _ in range(rng.randint(n, 3 * n)):
        v = rng.randrange(n)
        nbrs = rows[v]
        for u in range(n):
            if (nbrs >> u) & 1:
                rows[u] ^= nbrs & ~(1 << u)
    return rows


def _random_tree(rng: random.Random, emb) -> Any:
    order = list(range(emb.graph.n_edges))
    rng.shuffle(order)
    parent = list(range(emb.graph.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    chosen = []
    for k in order:
        a, b = emb.graph.edges[k]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            chosen.append(k)
    return graphs.SpanningTree(emb.graph, frozenset(chosen))


def pairwise_setup(seed: int, workdir: Path) -> dict:
    rng = random.Random(f"pairwise:{seed}")
    pairs = []  # (kind, pool index or None, g, h)
    pools = {}
    for n in (6, 8):
        labels = list(range(n))
        pools[n] = [graphs.SimpleGraph(labels, _random_connected(rng, n)) for _ in range(POOL_PER_SIZE)]
        for i in range(PAIRS_PER_SIZE):
            if i % 2 == 0:
                rows = _random_connected(rng, n)
                g = graphs.SimpleGraph(labels, rows)
                h = graphs.SimpleGraph(labels, _lc_walk(rng, rows))
                pairs.append(("walk", None, g, h))
            else:
                k = rng.randrange(POOL_PER_SIZE)
                h = graphs.SimpleGraph(labels, _random_connected(rng, n))
                pairs.append(("random", k, pools[n][k], h))
    spec = reduction.load_chain_spec(fixture_path(CHAIN))
    for step in spec.steps:
        big = spec.systems[step.system]
        red_a = spec.systems[step.reduced_a]
        red_b = spec.systems[step.reduced_b]
        drop_a = step.leaf.graph.delete_vertex(step.a)
        drop_b = reduction.epsilon_swap(step.leaf).graph.delete_vertex(step.b)
        for _ in range(TREES_PER_SYSTEM):
            pairs.append(("chain", None, step.leaf.graph, surface.phi_graph(big, _random_tree(rng, big))))
            pairs.append(("chain", None, drop_a, surface.phi_graph(red_a, _random_tree(rng, red_a))))
            pairs.append(("chain", None, drop_b, surface.phi_graph(red_b, _random_tree(rng, red_b))))
    return {"pairs": pairs, "pools": pools}


def _pair_call(g, h) -> Callable[[], Any]:
    return lambda: lc.lc_equivalent(g, h)


def _check_pair(g, h) -> Callable[[Any, bool], bool]:
    def check(witness, equivalent: bool) -> bool:
        if not equivalent:
            return witness is None
        return witness is not None and lc.verify_witness(g, h, witness)

    return check


def pairwise_jobs(inputs: dict) -> list[Job]:
    orbits = {}
    jobs = []
    for i, (kind, k, g, h) in enumerate(inputs["pairs"]):
        if kind == "random":
            if (g.n, k) not in orbits:
                orbits[g.n, k] = lc.lc_orbit(g)
            equivalent = orbits[g.n, k].contains(oracle.edges_key(h.edges(), list(h.labels)))
        else:
            equivalent = True
        jobs.append(Job(f"{kind}_{g.n}_{i}", kind, g.n, _pair_call(g, h), equivalent, _check_pair(g, h)))
    return jobs


def pairwise_corrupt(jobs: list[Job]) -> str:
    job = next(j for j in jobs if j.kind == "random" and not j.expected)
    job.expected = True
    return f"{job.name}: unrelated pair expected equivalent"


# ---------------------------------------------------------------------------
# transform: the Theorem-1 rotation along sampled spanning trees

TREES_PER_SHAPE = 48


def transform_setup(seed: int, workdir: Path) -> dict:
    rng = random.Random(f"transform:{seed}")
    shapes = _polyforms({"square": 4, "triangular": 5}) + _fixtures(["torus_2x2", "torus_3x3"])
    cases = []
    for shape_id, emb in shapes:
        trees = graphs.enumerate_spanning_trees(emb.graph)
        picks = sorted(rng.sample(range(len(trees)), min(TREES_PER_SHAPE, len(trees))))
        cases += [(f"{shape_id}_t{i}", emb, trees[i]) for i in picks]
    return {"cases": cases}


def _transform_call(emb, tree) -> Callable[[], Any]:
    return lambda: surface.transform_to_graph_state(emb, tree)


def _check_transform(result, expected) -> bool:
    return (
        result.verified is True
        and sorted(result.graph.labels) == expected["labels"]
        and frozenset(frozenset(e) for e in result.graph.edges()) == expected["edges"]
    )


def transform_jobs(inputs: dict) -> list[Job]:
    jobs = []
    for name, emb, tree in inputs["cases"]:
        data = emb.to_dict()
        expected = {
            "labels": sorted(data["qubit_ids"]),
            "edges": oracle.tree_graph(data, tree.tree_edges),
        }
        jobs.append(Job(name, "transform", emb.n_qubits, _transform_call(emb, tree), expected, _check_transform))
    return jobs


def transform_corrupt(jobs: list[Job]) -> str:
    job = next(j for j in jobs if j.expected["edges"])
    dropped = min(tuple(sorted(e)) for e in job.expected["edges"])
    job.expected = dict(job.expected, edges=job.expected["edges"] - {frozenset(dropped)})
    return f"{job.name}: expected graph without edge {dropped}"


WORKLOADS = {
    "census": (census_setup, census_jobs, census_corrupt),
    "pairwise": (pairwise_setup, pairwise_jobs, pairwise_corrupt),
    "transform": (transform_setup, transform_jobs, transform_corrupt),
}
