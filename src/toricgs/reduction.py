"""Leaf-graph machinery and the surface-code reduction argument.

A *leaf* is a degree-1 vertex (outer) with its unique neighbour (inner).
Exchanging the two across a whole local-complementation class is realized by
two complementations; deleting the outer vertex commutes with any
complementation sequence that avoids it.  Together these facts let a
nonlocality verdict for a system with qubits E be inherited from the two
systems with qubits E - {a} and E - {b}, provided

1. the big system's vicinity relation, restricted to the surviving qubits,
   is contained in the reduced system's vicinity relation,
2. the big system has an LC-equivalent leaf graph with outer a / inner b
   whose two leaf deletions are LC-equivalent to the reduced systems, and
3. both reduced systems are certified nonlocal.

Precondition: every system pins a unique state.  Bases and step systems are
read through :func:`~toricgs.surface.locality_pair`, which raises
:class:`~toricgs.surface.DegeneracyError` otherwise.

:func:`verify_reduction_step` returns one message per failed check of these
hypotheses, an empty tuple when the step holds.  :func:`reduction_chain` stops at the
first failed check and reports its messages.  A system counts as certified
once an exhaustive orbit scan, a verified reduction step, or a verified
relabeling of an already certified system (an explicit embedding
isomorphism, so the verdict transports along the qubit bijection) vouches
for its digest.  The exhaustive scan of a base system is
:func:`~toricgs.lc.certify_nonlocal`, called by the chain itself; its
orbit's ``complete`` flag is the base's verdict.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Optional, Sequence

from .graphs import (
    GraphError,
    SimpleGraph,
    SpanningTree,
    _union,
    array_at,
    integer,
    integers,
    label_pair,
    local_complement,
    local_complement_sequence,
    only_keys,
    parse_json,
)
from .lc import DEFAULT_ORBIT_BUDGET, CertificateError, certify_nonlocal
from .lc_system import lc_equivalent
from .surface import Embedding, contract_embedding, locality_pair, phi_graph, setup_from_dict


@dataclass(frozen=True)
class LeafGraph:
    """A simple graph with a designated leaf: outer vertex a, inner vertex b."""

    graph: SimpleGraph
    outer: object
    inner: object

    def __post_init__(self):
        if self.graph.degree(self.outer) != 1:
            raise GraphError(f"outer vertex {self.outer!r} must have degree 1")
        if self.graph.neighbors(self.outer) != (self.inner,):
            raise GraphError(
                f"inner vertex {self.inner!r} must be the unique neighbour of the leaf"
            )


def epsilon_swap(leaf: LeafGraph) -> LeafGraph:
    """Exchange outer and inner vertex by two local complementations.

    Applies the complementation at the inner vertex first, then at the outer
    one; the result equals the input graph with the two labels exchanged and
    the leaf now hanging off the old inner vertex.
    """
    g = local_complement(local_complement(leaf.graph, leaf.inner), leaf.outer)
    if g != leaf.graph.permute_pair(leaf.outer, leaf.inner):
        raise CertificateError("internal error: the leaf exchange is not a relabeling of the input")
    return LeafGraph(g, outer=leaf.inner, inner=leaf.outer)


def classify(h: SimpleGraph, a, b) -> Optional[str]:
    """Partition position of ``h`` relative to the vertex pair (a, b).

    "A": leaf with outer a / inner b; "B": leaf with outer b / inner a;
    "C": edge {a, b} present and all other vertices see a and b alike;
    "D": the same symmetry without the {a, b} edge; None otherwise.
    """
    if a == b:
        raise GraphError("the two vertices must differ")
    ia, ib = h.position(a), h.position(b)
    if h.degree(a) == 1 and h.has_edge(a, b):
        return "A"
    if h.degree(b) == 1 and h.has_edge(a, b):
        return "B"
    others = ~((1 << ia) | (1 << ib))
    symmetric = (h.rows[ia] & others) == (h.rows[ib] & others)
    if symmetric:
        return "C" if h.has_edge(a, b) else "D"
    return None


def leaf_delete_commute_check(leaf: LeafGraph, seq: Sequence) -> bool:
    """Complement-then-delete versus delete-then-complement, for one sequence.

    ``seq`` must avoid the outer vertex.  Returns True iff both orders give
    the same graph on the remaining vertices.
    """
    if leaf.outer in seq:
        raise GraphError("the sequence must avoid the outer vertex")
    after = local_complement_sequence(leaf.graph, seq).delete_vertex(leaf.outer)
    before = local_complement_sequence(leaf.graph.delete_vertex(leaf.outer), seq)
    return after == before


def is_stricter(rel1: SimpleGraph, rel2: SimpleGraph, sub_qubits: Iterable) -> tuple[tuple, ...]:
    """The edges of vicinity graph rel1 within ``sub_qubits`` that rel2 lacks.

    An empty tuple means rel1, restricted to ``sub_qubits``, is contained in rel2.
    """
    sub = set(sub_qubits)
    if not sub <= set(rel1.labels):
        raise GraphError("sub_qubits must be qubits of the first relation")
    if set(rel2.labels) != sub:
        raise GraphError("the second relation must live exactly on sub_qubits")
    return tuple((u, v) for u, v in rel1.edges() if u in sub and v in sub and not rel2.has_edge(u, v))


# ---------------------------------------------------------------------------
# Relabelings


def verify_relabeling(
    system: Embedding, source: Embedding, edge_map: dict, vertex_map: dict
) -> bool:
    """Check that (edge_map, vertex_map) is an isomorphism of embeddings.

    ``edge_map`` sends qubit ids of ``system`` to qubit ids of ``source``;
    ``vertex_map`` sends vertices accordingly.  Faces must correspond as edge
    sets and the closed flags must agree.  A verified relabeling transports
    nonlocality verdicts: local graphs map to local graphs under any qubit
    bijection that preserves the embedding.
    """
    if system.closed != source.closed:
        return False
    pairs = ((edge_map, system.qubit_ids, source.qubit_ids), (vertex_map, system.graph.vertices, source.graph.vertices))
    for mapping, domain, image in pairs:  # a bijection onto image, as sets: mixed label types have no order
        values = set(mapping.values())
        if set(mapping) != set(domain) or values != set(image) or len(values) != len(mapping):
            return False
    src_pos = {q: k for k, q in enumerate(source.qubit_ids)}
    mapped_pos = {}
    for k in range(system.graph.n_edges):
        q = system.qubit_ids[k]
        u, v = system.graph.endpoints(k)
        k_src = src_pos[edge_map[q]]
        su, sv = source.graph.endpoints(k_src)
        if {vertex_map[u], vertex_map[v]} != {su, sv}:
            return False
        mapped_pos[k] = k_src
    sys_faces = sorted(sorted(mapped_pos[k] for k in w) for w in system.faces)
    src_faces = sorted(sorted(w) for w in source.faces)
    return sys_faces == src_faces


# ---------------------------------------------------------------------------
# Reduction steps and chains


def verify_reduction_step(
    big: Embedding,
    a: int,
    b: int,
    reduced_a: Embedding,
    reduced_b: Embedding,
    leaf: LeafGraph,
    certified: Collection[str],
) -> tuple[str, ...]:
    """Check the three reduction hypotheses for one system.

    A system that does not pin a unique state raises ``DegeneracyError``
    from :func:`~toricgs.surface.locality_pair` before any check.  Hypothesis 1 is the strictness containment for both reduced relations.
    Hypothesis 2 asks that ``leaf`` belongs to the LC class of the big
    system's tree graph (decided by the pairwise algebraic test, so no orbit
    enumeration happens here) and that its two leaf deletions match the
    reduced systems' tree graphs.  Hypothesis 3 asks that both reduced
    systems' digests are in ``certified``.  Returns one message per failed
    check, in that order; an empty tuple means the step holds.
    """
    big_ids = set(big.qubit_ids)
    if set(reduced_a.qubit_ids) != big_ids - {a}:
        raise GraphError("reduced_a must keep exactly the qubits of big minus a")
    if set(reduced_b.qubit_ids) != big_ids - {b}:
        raise GraphError("reduced_b must keep exactly the qubits of big minus b")
    if leaf.outer != a or leaf.inner != b:
        raise GraphError("leaf declaration must have outer = a and inner = b")
    if tuple(leaf.graph.labels) != tuple(big.qubit_ids):
        raise GraphError("leaf graph must be labeled by the big system's qubits")

    failures = []
    reduced = {"reduced_a": reduced_a, "reduced_b": reduced_b}
    (tree_big, rel_big), (tree_a, rel_a), (tree_b, rel_b) = map(locality_pair, (big, reduced_a, reduced_b))
    for (name, emb), rel in zip(reduced.items(), (rel_a, rel_b)):
        violations = is_stricter(rel_big, rel, emb.qubit_ids)
        if violations:
            failures.append(f"strictness violated towards {name}: {violations}")

    if lc_equivalent(tree_big, leaf.graph) is None:
        failures.append("leaf graph is not LC-equivalent to the big system")
    drop_a = leaf.graph.delete_vertex(a)
    if lc_equivalent(drop_a, tree_a) is None:
        failures.append("leaf minus outer does not match reduced_a")
    drop_b = epsilon_swap(leaf).graph.delete_vertex(b)
    if lc_equivalent(drop_b, tree_b) is None:
        failures.append("swapped leaf minus outer does not match reduced_b")

    for name, emb in reduced.items():
        if emb.digest() not in certified:
            failures.append(f"missing nonlocality certificate for {name}")
    return tuple(failures)


@dataclass(frozen=True)
class ChainStep:
    system: str
    a: int
    b: int
    reduced_a: str
    reduced_b: str
    leaf: LeafGraph


@dataclass(frozen=True)
class Relabeling:
    system: str
    source: str
    edge_map: dict
    vertex_map: dict


@dataclass(frozen=True)
class ChainSpec:
    systems: dict[str, Embedding]
    steps: tuple[ChainStep, ...]
    base: tuple[str, ...]
    relabelings: tuple[Relabeling, ...]


@dataclass(frozen=True)
class ChainReport:
    verdicts: dict[str, str]  # system name -> "nonlocal" | "unverified"
    base_orbits: dict[str, dict]
    steps_verified: int  # steps checked, a failing one included
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def load_chain_spec(path, text: Optional[str] = None, read: Optional[Callable[[str, str], str]] = None) -> ChainSpec:
    """Read a chain specification; bad data, an unknown key or an unknown system name raises ``ValueError``.

    ``text``, when given, is the contents of the file at ``path`` already
    read.  System files are read relative to ``path``; ``read``, when given,
    reads each one: it is called once per system file with the system's name
    and the file's path, and returns the text to parse.
    """
    base_dir = os.path.dirname(os.path.abspath(path))
    if text is None:
        text = _read_text(path)
    read = read or (lambda name, file: _read_text(file))
    data = parse_json(text)

    def listed(key: str) -> list:  # an absent entry is an empty array
        return array_at(data, key) if key in data else []

    try:
        only_keys(data, ("systems", "base", "steps", "relabel"))
        systems = {}
        for name, entry in data["systems"].items():
            if "file" in entry:
                only_keys(entry, ("file",))
                systems[name] = setup_from_dict(parse_json(read(name, os.path.join(base_dir, entry["file"]))))
            else:
                systems[name] = setup_from_dict(entry)
        steps = []
        for s in listed("steps"):
            only_keys(s, ("system", "a", "b", "reduced_a", "reduced_b", "leaf"))
            leaf = s["leaf"]
            only_keys(leaf, ("vertices", "edges", "outer", "inner"))
            leaf_graph = SimpleGraph.from_edges(
                integers(leaf["vertices"]), [integers(e) for e in array_at(leaf, "edges")]
            )
            steps.append(
                ChainStep(
                    system=s["system"],
                    a=integer(s["a"]),
                    b=integer(s["b"]),
                    reduced_a=s["reduced_a"],
                    reduced_b=s["reduced_b"],
                    leaf=LeafGraph(leaf_graph, integer(leaf["outer"]), integer(leaf["inner"])),
                )
            )
        relabelings = []
        for r in listed("relabel"):
            only_keys(r, ("system", "source", "edge_map", "vertex_map"))
            relabelings.append(
                Relabeling(
                    system=r["system"],
                    source=r["source"],
                    edge_map=dict(map(integer, label_pair(pair, "an edge_map entry")) for pair in array_at(r, "edge_map")),
                    vertex_map=dict(label_pair(pair, "a vertex_map entry") for pair in array_at(r, "vertex_map")),
                )
            )
        base = tuple(listed("base"))
        named = list(base)
        named += [n for s in steps for n in (s.system, s.reduced_a, s.reduced_b)]
        named += [n for r in relabelings for n in (r.system, r.source)]
        unknown = sorted({repr(n) for n in named if n not in systems})
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed chain specification: {type(exc).__name__}: {exc}") from exc
    if unknown:
        raise ValueError(f"chain specification names unknown systems: {', '.join(unknown)}")
    return ChainSpec(systems, tuple(steps), base, tuple(relabelings))


def derive_chain(setup: Embedding) -> ChainSpec:
    """The chain of corner contractions from ``setup`` (``s0``) down to its base.

    While system ``s{k}`` has a vertex of degree 2, the first one w in vertex
    order, with edges a < b to vertices x and y, ``s{k+1}`` contracts a and
    the mirror ``m{k+1}`` contracts b.  The leaf graph is ``phi_graph`` along
    the greedy tree of edge a, then every other edge but b in index order: w
    is a leaf of that tree, so b is the one non-tree edge whose path holds a.
    A contraction keeps the lower-index endpoint, so the mirror relabeling
    sends m's merged {w, y} to y and x to s's merged {w, x}, and fixes every
    other vertex.  The last ``s`` is the base.  A contraction that would make
    a loop raises ``GraphError``.
    """
    systems, steps, relabelings = {"s0": setup}, [], []
    for k in itertools.count():
        big = systems[f"s{k}"]
        m, labels = big.graph, big.graph.vertices
        w = next((i for i, v in enumerate(labels) if len(m.incident_edges(v)) == 2), None)
        if w is None:
            return ChainSpec(systems, tuple(steps), (f"s{k}",), tuple(relabelings))
        a, b = m.incident_edges(labels[w])
        x, y = sum(m.edges[a]) - w, sum(m.edges[b]) - w  # the far ends of a and b
        dsu = list(range(m.n_vertices))
        tree = SpanningTree(m, frozenset(e for e in (a, *range(m.n_edges)) if e != b and _union(dsu, *m.edges[e])))
        qa, qb = big.qubit_ids[a], big.qubit_ids[b]
        s, mirror = f"s{k + 1}", f"m{k + 1}"
        systems[s], systems[mirror] = contract_embedding(big, a), contract_embedding(big, b)
        vertex_map = {v: v for v in systems[mirror].graph.vertices}
        vertex_map[labels[min(w, y)]], vertex_map[labels[x]] = labels[y], labels[min(w, x)]
        edge_map = {q: q for q in systems[mirror].qubit_ids} | {qa: qb}
        relabelings.append(Relabeling(mirror, s, edge_map, vertex_map))
        steps.append(ChainStep(f"s{k}", qa, qb, s, mirror, LeafGraph(phi_graph(big, tree), qa, qb)))


def reduction_chain(spec: ChainSpec, budget: int = DEFAULT_ORBIT_BUDGET) -> ChainReport:
    """Verify a whole reduction chain from its exhaustive base upward.

    Each base system is searched with :func:`certify_nonlocal`.  A nonlocal
    base is certified by its complete orbit, and ``base_orbits`` records the
    orbit's size and digest.  A local base ends the chain, and
    ``base_orbits`` records the replayed complementation path of its hit
    (vertex positions) under ``complementations``.  Then each round
    fires the ready relabelings and the ready steps, in spec order, until a
    round certifies nothing new: a relabeling is ready once its source is
    certified, a step once both its reduced systems are.  The first failed
    check ends the chain, and the report's ``failures`` are its messages; a
    failed step names each hypothesis that failed.  A chain that stops with
    systems left uncertified fails with their names.
    """
    digests = {name: emb.digest() for name, emb in spec.systems.items()}
    certified: set[str] = set()
    base_orbits: dict[str, dict] = {}
    steps_verified = 0

    def finish(*failures: str) -> ChainReport:
        verdicts = {
            name: "nonlocal" if digest in certified else "unverified"
            for name, digest in digests.items()
        }
        missing = [name for name, verdict in verdicts.items() if verdict != "nonlocal"]
        if missing and not failures:
            failures = (f"systems left unverified: {missing}",)
        return ChainReport(verdicts, base_orbits, steps_verified, list(failures))

    for name in spec.base:
        orbit = certify_nonlocal(*locality_pair(spec.systems[name]), budget=budget)
        if not orbit.complete:
            base_orbits[name] = {"nonlocal": False, "complementations": list(orbit.hit_path)}
            return finish(f"base system {name} has a local representative")
        base_orbits[name] = {"nonlocal": True, "orbit_size": orbit.size, "orbit_digest": orbit.digest()}
        certified.add(digests[name])

    while True:
        n_certified = len(certified)
        for r in spec.relabelings:
            if digests[r.system] in certified or digests[r.source] not in certified:
                continue
            if not verify_relabeling(
                spec.systems[r.system], spec.systems[r.source], r.edge_map, r.vertex_map
            ):
                return finish(f"relabeling of {r.system} onto {r.source} does not verify")
            certified.add(digests[r.system])
        for s in spec.steps:
            if digests[s.system] in certified:
                continue
            if digests[s.reduced_a] not in certified or digests[s.reduced_b] not in certified:
                continue
            failures = verify_reduction_step(
                spec.systems[s.system],
                s.a,
                s.b,
                spec.systems[s.reduced_a],
                spec.systems[s.reduced_b],
                s.leaf,
                certified,
            )
            steps_verified += 1
            if failures:
                return finish(*(f"step for {s.system}: {msg}" for msg in failures))
            certified.add(digests[s.system])
        if len(certified) == n_certified:
            return finish()
