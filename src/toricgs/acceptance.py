"""The acceptance suite: one callable check per shipped guarantee.

Each criterion returns a :class:`CriterionResult`; ``run_all`` executes the
whole battery.  The same functions back the ``selftest`` CLI subcommand and
``tests/test_acceptance.py``, so "the suite is green" means the same thing
everywhere.

Scale note: the cross-oracle criterion compares the pairwise algebraic test
against orbit membership.  All pairs are checked exhaustively through 5
vertices.  At 6 vertices there are 26704 connected labeled graphs, i.e.
~3.6e8 ordered pairs, which is far outside a desk-scale run; the 6-vertex
part therefore covers every graph against its class representative, every
pair of class representatives, and a large seeded sample of cross pairs.
``tests/test_acceptance.py`` exposes the literal all-pairs version behind
the ``slow`` marker.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Iterable, NamedTuple, Optional

from . import polyforms
from .fixture_files import fixture_path
from .graphs import Multigraph, SimpleGraph, enumerate_spanning_trees, first_spanning_tree, phi
from .lazy_numpy import np
from .lc import canonical_key, certify_nonlocal, graph_from_key, lc_orbit
from .lc_system import lc_equivalent
from .pauli import (
    Tableau,
    apply_hadamard,
    conjugate_by_pauli,
    graph_state_vector,
    is_stabilized,
)
from .reduction import (
    LeafGraph,
    classify,
    epsilon_swap,
    leaf_delete_commute_check,
    load_chain_spec,
    reduction_chain,
)
from .surface import (
    homology_rank,
    load_setup,
    locality_pair,
    loop_operators,
    one_point_double_plaquette,
    single_plaquette,
    square_torus,
    surface_stabilizer,
    transform_to_graph_state,
)

SEED = 987123
MULTIGRAPH_MAX_EDGES = 12  # size of the random hosts of criterion 3


class CriterionResult(NamedTuple):
    number: int
    title: str
    passed: bool
    elapsed: float
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{status}] {self.elapsed:7.2f}s  {self.title}: {self.details}"


def _result(number: int, title: str, started: float, passed: bool, details: str) -> CriterionResult:
    return CriterionResult(number, title, passed, time.perf_counter() - started, details)


# -- helpers ----------------------------------------------------------------


def random_connected_multigraph(rng: np.random.Generator) -> Multigraph:
    """A random connected multigraph with at most ``MULTIGRAPH_MAX_EDGES`` edges."""
    n = int(rng.integers(2, 9))
    edges = []
    for v in range(1, n):
        edges.append((int(rng.integers(0, v)), v))
    extra = int(rng.integers(0, MULTIGRAPH_MAX_EDGES - (n - 1) + 1))
    for _ in range(extra):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.append((u, v))
    perm = rng.permutation(len(edges))
    return Multigraph(list(range(n)), [edges[i] for i in perm])


def connected_graphs(n: int) -> list[SimpleGraph]:
    """All connected labeled simple graphs on vertices 0..n-1."""
    out = []
    for key in range(1 << (n * (n - 1) // 2)):
        g = graph_from_key(key, list(range(n)))
        if g.is_connected():
            out.append(g)
    return out


def orbit_classes(graphs_list: list[SimpleGraph]) -> list[int]:
    """The smallest key of each graph's orbit, in the order of ``graphs_list``."""
    rep_of: dict[int, int] = {}
    classes = []
    for g in graphs_list:
        k = canonical_key(g)
        if k not in rep_of:
            members = lc_orbit(g).members
            rep_of.update(dict.fromkeys(members, members[0]))
        classes.append(rep_of[k])
    return classes


def leaf_graph_pool(rng: np.random.Generator) -> list[LeafGraph]:
    """Leaf-seeded graphs: exhaustive up to 5 vertices, sampled at 6 and 7."""
    pool = []
    for n in (3, 4, 5):
        for g in connected_graphs(n):
            for a in range(n):
                if g.degree(a) == 1:
                    pool.append(LeafGraph(g, a, g.neighbors(a)[0]))
    for n, count in ((6, 24), (7, 8)):
        made = 0
        while made < count:
            leaf = _random_leaf_graph(rng, n)
            if leaf is not None:
                pool.append(leaf)
                made += 1
    return pool


def _random_leaf_graph(rng: np.random.Generator, n: int) -> Optional[LeafGraph]:
    """A random connected core on 0..n-2 with leaf n-1 hung on a random inner vertex.

    Draws the core's key, then (only if the core is connected) the inner
    vertex; returns None for a disconnected core.
    """
    nbits = (n - 1) * (n - 2) // 2
    core = graph_from_key(int(rng.integers(0, 1 << nbits)), list(range(n - 1)))
    if not core.is_connected():
        return None
    inner = int(rng.integers(0, n - 1))
    return LeafGraph(SimpleGraph.from_edges(list(range(n)), core.edges() + [(inner, n - 1)]), n - 1, inner)


# -- criteria ---------------------------------------------------------------


def criterion_1_single_plaquette() -> CriterionResult:
    t0 = time.perf_counter()
    plq = single_plaquette(4)
    res = transform_to_graph_state(plq)
    degrees = sorted(res.graph.degree(v) for v in res.graph.labels)
    star_ok = degrees == [1, 1, 1, 3]
    tab, _ = surface_stabilizer(plq)
    state = graph_state_vector(res.graph)
    for q in sorted(res.hadamard_qubits):
        state = apply_hadamard(state, q)
    oracle_ok = is_stabilized(state, tab)
    passed = star_ok and res.verified and oracle_ok and (time.perf_counter() - t0) < 1.0
    return _result(
        1,
        "single plaquette: star graph, span check, dense oracle",
        t0,
        passed,
        f"star={star_ok} span_verified={res.verified} oracle={oracle_ok}",
    )


def criterion_2_disconnection_and_hexagon() -> CriterionResult:
    t0 = time.perf_counter()
    dbl = one_point_double_plaquette()
    trees = enumerate_spanning_trees(dbl.graph)
    disconnected = all(not phi(dbl.graph, t).is_connected() for t in trees)
    hexagon = single_plaquette(6)
    hex_trees = enumerate_spanning_trees(hexagon.graph)
    star6 = all(
        sorted(phi(hexagon.graph, t).degree(v) for v in range(6)) == [1] * 5 + [5]
        for t in hex_trees
    )
    passed = disconnected and star6 and (time.perf_counter() - t0) < 1.0
    return _result(
        2,
        "one-point double plaquette disconnects; hexagon gives a 6-star",
        t0,
        passed,
        f"trees={len(trees)} all_disconnected={disconnected} hexagon_trees={len(hex_trees)} all_stars={star6}",
    )


def criterion_3_bipartite() -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = 0
    for _ in range(500):
        m = random_connected_multigraph(rng)
        tree = first_spanning_tree(m)
        if not phi(m, tree).is_bipartite():
            failures += 1
    return _result(
        3,
        "tree-map output bipartite on 500 random connected multigraphs",
        t0,
        failures == 0,
        f"failures={failures}/500",
    )


def tree_independence_pool() -> list[tuple[str, Multigraph]]:
    pool: list[tuple[str, Multigraph]] = [
        ("plaquette4", single_plaquette(4).graph),
        ("hexagon", single_plaquette(6).graph),
        ("double_onepoint", one_point_double_plaquette().graph),
        ("torus_2x2", square_torus(2).graph),
    ]
    for n in (1, 2, 3):
        for i, emb in enumerate(polyforms.polyform_enumerate(n, "square")):
            pool.append((f"sq{n}.{i}", emb.graph))
    for n in (1, 2, 3, 4):
        for i, emb in enumerate(polyforms.polyform_enumerate(n, "triangular")):
            pool.append((f"tri{n}.{i}", emb.graph))
    return [(name, m) for name, m in pool if m.n_edges <= 10]


def criterion_4_tree_independence() -> CriterionResult:
    t0 = time.perf_counter()
    checked = 0
    failures = []
    for name, m in tree_independence_pool():
        trees = enumerate_spanning_trees(m)
        graphs_by_tree = [phi(m, t) for t in trees]
        for g1, g2 in itertools.combinations(graphs_by_tree, 2):
            checked += 1
            if lc_equivalent(g1, g2) is None:
                failures.append(name)
    return _result(
        4,
        "all spanning-tree pairs give equivalent graphs (setups <= 10 edges)",
        t0,
        not failures,
        f"pairs={checked} failing_setups={sorted(set(failures))}",
    )


def criterion_5_cross_oracle(full_six: bool = False) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    mismatches = 0
    pairs = 0

    def agree(g1: SimpleGraph, g2: SimpleGraph, same_class: bool) -> bool:
        witness = lc_equivalent(g1, g2)
        return (witness is not None) == same_class

    def all_pairs(pool: list[SimpleGraph]) -> None:
        nonlocal pairs, mismatches
        members = zip(pool, orbit_classes(pool))
        for (g1, c1), (g2, c2) in itertools.combinations_with_replacement(members, 2):
            pairs += 1
            if not agree(g1, g2, c1 == c2):
                mismatches += 1

    for n in (2, 3, 4, 5):
        all_pairs(connected_graphs(n))

    pool6 = connected_graphs(6)
    if full_six:
        all_pairs(pool6)
    else:
        classes6 = orbit_classes(pool6)
        reps = sorted(set(classes6))
        rep_graphs = {r: graph_from_key(r, range(6)) for r in reps}
        # every graph against its class representative
        for g, c in zip(pool6, classes6):
            pairs += 1
            if not agree(rep_graphs[c], g, True):
                mismatches += 1
        # every pair of distinct representatives
        for r1, r2 in itertools.combinations(reps, 2):
            pairs += 1
            if not agree(rep_graphs[r1], rep_graphs[r2], False):
                mismatches += 1
        # seeded random member pairs
        for _ in range(20000):
            i, j = (int(k) for k in rng.integers(0, len(pool6), size=2))
            pairs += 1
            if not agree(pool6[i], pool6[j], classes6[i] == classes6[j]):
                mismatches += 1

    scope = "all pairs n<=6" if full_six else "all pairs n<=5; structured n=6"
    return _result(
        5,
        "pairwise algebraic test agrees with orbit membership",
        t0,
        mismatches == 0,
        f"{scope}; pairs={pairs} mismatches={mismatches}",
    )


def criterion_6_tetriamond() -> CriterionResult:
    t0 = time.perf_counter()
    emb = polyforms.polyform_embedding(polyforms.triangle_tetriamond_cells(), "triangular")
    orbit = certify_nonlocal(*locality_pair(emb))
    elapsed = time.perf_counter() - t0
    return _result(
        6,
        "9-qubit triangular setup: full orbit, no local representative",
        t0,
        orbit.complete and elapsed <= 60.0,
        f"orbit={orbit.size} nonlocal={orbit.complete}",
    )


def criterion_7_eight_qubit_base() -> CriterionResult:
    t0 = time.perf_counter()
    emb = load_setup(fixture_path("reduced_8qubit.json"))
    orbit = certify_nonlocal(*locality_pair(emb))
    return _result(
        7,
        "8-qubit reduced system: exhaustive orbit, verdict nonlocal",
        t0,
        orbit.complete,
        f"orbit={orbit.size} nonlocal={orbit.complete}",
    )


def criterion_8_pentomino_chain() -> CriterionResult:
    t0 = time.perf_counter()
    spec = load_chain_spec(fixture_path("chain/pentomino_chain.json"))
    report = reduction_chain(spec)
    elapsed = time.perf_counter() - t0
    pent_nonlocal = report.verdicts.get("s0") == "nonlocal"
    passed = report.ok and pent_nonlocal and elapsed <= 300.0
    largest = max(e.n_qubits for e in spec.systems.values())
    enumerated = max(e.n_qubits for n, e in spec.systems.items() if n in spec.base)
    return _result(
        8,
        "16-qubit pentomino nonlocal via the reduction chain",
        t0,
        passed,
        f"chain_ok={report.ok} verdict_s0={report.verdicts.get('s0')} "
        f"largest_system={largest}q enumerated_only={enumerated}q",
    )


def criterion_9_polyomino_counts() -> CriterionResult:
    t0 = time.perf_counter()
    counts = [len(polyforms.enumerate_polyforms(n, "square")) for n in range(1, 6)]
    return _result(
        9,
        "free polyomino counts for 1..5 cells",
        t0,
        counts == [1, 1, 2, 5, 12],
        f"counts={counts}",
    )


def criterion_10_stabilizer_arithmetic() -> CriterionResult:
    t0 = time.perf_counter()
    _, deg_plaquette = surface_stabilizer(single_plaquette(4))
    torus = square_torus(2)
    stab, deg_torus = surface_stabilizer(torus)
    h_rank = homology_rank(torus)
    pairs = loop_operators(2)
    algebra_ok = all(
        not p.z_loop.commutes_with(p.x_loop)
        and all(p.z_loop.commutes_with(q.x_loop) for q in pairs if q is not p)
        and all(p.z_loop.commutes_with(g) and p.x_loop.commutes_with(g) for g in stab.generators)
        for p in pairs
    )
    sector = Tableau(torus.n_qubits, list(stab.generators) + [p.z_loop for p in pairs])
    flips_ok = True
    for p in pairs:
        conj = conjugate_by_pauli(sector, p.x_loop)
        for old, new in zip(sector.generators, conj.generators):
            expected = -1 if old == p.z_loop else 1
            if new.sign != expected:
                flips_ok = False
    passed = deg_plaquette == 1 and deg_torus == 4 and h_rank == 2 and algebra_ok and flips_ok
    return _result(
        10,
        "degeneracies, homology rank and loop-operator algebra",
        t0,
        passed,
        f"plaquette_deg={deg_plaquette} torus_deg={deg_torus} homology={h_rank} "
        f"algebra={algebra_ok} sign_flips={flips_ok}",
    )


def criterion_11_leaf_suites() -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)

    # Leaf exchange fixes every class as a set.
    closure_fail = 0
    partition_fail = 0
    subgraph_fail = 0
    pool = leaf_graph_pool(rng)
    for leaf in pool:
        orbit = lc_orbit(leaf.graph)
        a, b = leaf.outer, leaf.inner
        minus_a = lc_orbit(leaf.graph.delete_vertex(a))
        minus_b = lc_orbit(epsilon_swap(leaf).graph.delete_vertex(b))
        for key in orbit.members:
            member = orbit.member_graph(key)
            if not orbit.contains(canonical_key(member.permute_pair(a, b))):
                closure_fail += 1
            if classify(member, a, b) is None:
                partition_fail += 1
            in_a = minus_a.contains(canonical_key(member.delete_vertex(a)))
            in_b = minus_b.contains(canonical_key(member.delete_vertex(b)))
            if not (in_a or in_b):
                subgraph_fail += 1

    # Deleting the outer vertex commutes with sequences avoiding it.
    commute_fail = 0
    runs = 0
    while runs < 200:
        n = int(rng.integers(3, 9))
        leaf = _random_leaf_graph(rng, n)
        if leaf is None:
            continue
        seq = [int(v) for v in rng.integers(0, n - 1, size=int(rng.integers(0, 7)))]
        runs += 1
        if not leaf_delete_commute_check(leaf, seq):
            commute_fail += 1

    passed = not (closure_fail or partition_fail or subgraph_fail or commute_fail)
    return _result(
        11,
        "leaf-exchange closure, partition, subgraph property, delete-commute",
        t0,
        passed,
        f"classes={len(pool)} closure_fail={closure_fail} partition_fail={partition_fail} "
        f"subgraph_fail={subgraph_fail} commute_fail={commute_fail}/200",
    )


CRITERIA: list[Callable[[], CriterionResult]] = [
    criterion_1_single_plaquette,
    criterion_2_disconnection_and_hexagon,
    criterion_3_bipartite,
    criterion_4_tree_independence,
    criterion_5_cross_oracle,
    criterion_6_tetriamond,
    criterion_7_eight_qubit_base,
    criterion_8_pentomino_chain,
    criterion_9_polyomino_counts,
    criterion_10_stabilizer_arithmetic,
    criterion_11_leaf_suites,
]


def run_all(numbers: Optional[Iterable[int]] = None) -> list[CriterionResult]:
    """Run the criteria numbered ``numbers`` (all by default); an unknown number raises ``ValueError``."""
    known = range(1, len(CRITERIA) + 1)
    wanted = set(known if numbers is None else numbers)
    unknown = sorted(wanted.difference(known))
    if unknown:
        raise ValueError(f"unknown criterion numbers {unknown}; criteria are numbered 1 to {len(CRITERIA)}")
    return [func() for i, func in enumerate(CRITERIA, start=1) if i in wanted]
