"""Orbit enumeration, the pairwise equivalence test, locality search."""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from toricgs import lc
from toricgs.fixture_files import fixture_path
from toricgs.graphs import SimpleGraph, local_complement
from toricgs.lc import (
    OrbitBudgetError,
    canonical_key,
    certify_nonlocal,
    graph_from_key,
    lc_orbit,
)
from toricgs.lc_system import lc_equivalent, verify_witness
from toricgs.polyforms import enumerate_polyforms, polyform_embedding
from toricgs.surface import adjacency_relation, load_setup, locality_pair, phi_graph, setup_from_dict
from tests.test_graphs import random_simple_graph


def star(n):
    return SimpleGraph.from_edges(range(n), [(0, i) for i in range(1, n)])


def path(n):
    return SimpleGraph.from_edges(range(n), [(i, i + 1) for i in range(n - 1)])


def reference_closure(g):
    """Breadth-first closure over ``local_complement``: key -> first path found.

    Vertices are complemented in position order, so each member's path is the
    shortest, lexicographically least one and the dict lists members in that
    order.
    """
    paths = {canonical_key(g): ()}
    frontier = [(g, ())]
    while frontier:
        nxt = []
        for h, p in frontier:
            for i, v in enumerate(h.labels):
                child = local_complement(h, v)
                key = canonical_key(child)
                if key not in paths:
                    paths[key] = p + (i,)
                    nxt.append((child, p + (i,)))
        frontier = nxt
    return paths


def assert_matches_reference(g):
    orbit = lc_orbit(g)
    expected = reference_closure(g)
    assert orbit.complete
    assert orbit.members == sorted(expected)
    assert list(orbit.paths().items()) == list(expected.items())
    return expected


# -- canonical keys -----------------------------------------------------------


def test_canonical_key_examples():
    assert canonical_key(SimpleGraph.empty([0, 1, 2])) == 0
    assert canonical_key(SimpleGraph.from_edges([0, 1], [(0, 1)])) == 1
    keys = {
        canonical_key(SimpleGraph.from_edges([1, 2, 3], [(a, b), (b, c)]))
        for a, b, c in [(1, 2, 3), (2, 1, 3), (1, 3, 2)]
    }
    assert len(keys) == 3


def test_key_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(100):
        g = random_simple_graph(rng, int(rng.integers(1, 10)))
        assert graph_from_key(canonical_key(g), g.labels) == g


# -- orbits -------------------------------------------------------------------


def test_single_vertex_orbit():
    orbit = lc_orbit(SimpleGraph.empty([0]))
    assert orbit.size == 1 and orbit.complete


def test_k3_orbit_is_triangle_plus_paths():
    orbit = lc_orbit(SimpleGraph.complete([1, 2, 3]))
    assert orbit.size == 4
    members = {frozenset(orbit.member_graph(k).edges()) for k in orbit.members}
    assert frozenset([(1, 2), (1, 3), (2, 3)]) in members


def test_orbits_compare_by_identity():
    # Two searches of one graph hold equal members, yet stay two orbits.
    first, second = lc_orbit(SimpleGraph.complete([1, 2, 3])), lc_orbit(SimpleGraph.complete([1, 2, 3]))
    assert first.members == second.members and first.digest() == second.digest()
    assert first != second and first == first and len({first, second}) == 2


def test_star_orbit_contains_complete_graph():
    orbit = lc_orbit(star(4))
    assert orbit.contains(canonical_key(SimpleGraph.complete(range(4))))


def test_orbit_closure_under_every_complementation():
    rng = np.random.default_rng(42)
    for _ in range(25):
        g = random_simple_graph(rng, int(rng.integers(2, 7)))
        orbit = lc_orbit(g)
        for key in orbit.members:
            member = orbit.member_graph(key)
            for v in member.labels:
                assert orbit.contains(canonical_key(local_complement(member, v)))


def test_orbit_matches_reference_closure():
    rng = np.random.default_rng(43)
    for _ in range(40):
        assert_matches_reference(random_simple_graph(rng, int(rng.integers(0, 9))))
    for _ in range(2):
        assert_matches_reference(random_simple_graph(rng, 9))


@pytest.mark.parametrize("n", range(13, 17))
def test_flip_tables_through_16_vertices(n):
    # Built block by block, each table is the flip pattern of every
    # neighbourhood, as _flips computes it beyond the tables.
    plan = lc._plan(n)
    assert not plan.table.flags.writeable
    assert plan.table.nbytes <= 1 << 20
    assert np.array_equal(plan.table, lc._flips(np.arange(1 << n, dtype=plan.dtype), plan))


def test_orbit_with_multi_word_keys_matches_reference_closure():
    # 14 vertices: 91 key bits, two words; edges at vertices 12 and 13 set
    # bits in the high word
    edges = [(0, 13), (13, 12), (12, 1), (1, 11), (2, 10), (10, 3), (3, 9), (9, 2)]
    g = SimpleGraph.from_edges(range(14), edges)
    assert_matches_reference(g)
    assert lc_orbit(g).size == 330


def first_local_in_path_order(paths, allowed):
    """The first member of a reference closure with every edge in ``allowed``, and its path."""
    outside = ~canonical_key(allowed)
    return next(((k, p) for k, p in paths.items() if not k & outside), (None, None))


def two_bit_fingerprint(words):
    """A collision-prone fingerprint for keys of two words or more: the low two bits of the last word."""
    return words[-1] & np.uint64(3)


def test_orbit_is_exact_under_fingerprint_collisions(monkeypatch):
    # A two-bit fingerprint makes most distinct keys of two words or more
    # collide, within a batch and against the keys already found; every
    # match must still be resolved on the full words, never merged and never
    # raised.  A one-word key is its own fingerprint and cannot collide; the
    # reference-closure tests cover it.
    fingerprint = lc._fingerprint

    def two_bits(words):
        return fingerprint(words) if len(words) == 1 else two_bit_fingerprint(words)

    monkeypatch.setattr(lc, "_fingerprint", two_bits)
    rng = np.random.default_rng(48)
    # sparse graphs on 12 to 16 vertices: keys of two words, classes of up to about 1,000
    cases = [random_graph(rng, int(rng.integers(12, 17)), 0.06) for _ in range(12)]
    cases += [  # keys of two words: 66 and 91 bits
        SimpleGraph.from_edges(range(12), [(0, 11), (11, 1), (1, 10), (10, 0), (2, 9), (9, 3)]),
        SimpleGraph.from_edges(range(14), [(0, 13), (13, 12), (12, 1), (1, 11), (2, 10), (10, 3), (3, 9), (9, 2)]),
    ]
    # 17 vertices: 136-bit keys of three words, beyond the flip tables; the
    # class of K_{1,16} is K_17 and its 17 stars
    cases.append(star(17))
    assert lc._plan(17).table is None and lc._plan(17).nwords == 3
    assert lc_orbit(star(17)).size == 18
    hits = 0
    for g in cases:
        paths = assert_matches_reference(g)
        for _ in range(3):
            allowed = random_graph(rng, g.n, 0.8)  # dense enough to hold sparse members
            orbit = certify_nonlocal(g, allowed)
            assert (orbit.hit_key, orbit.hit_path) == first_local_in_path_order(paths, allowed)
            assert orbit.complete == (orbit.hit_key is None)
            hits += orbit.hit_key is not None and len(orbit.hit_path) > 1
    assert hits >= 5


def key_tuples(words):
    return [tuple(column) for column in words.T.tolist()]


@pytest.mark.parametrize("nwords", [2, 3])
@pytest.mark.parametrize("fingerprint", [lc._fingerprint, two_bit_fingerprint])
def test_distinct_and_in_run_match_brute_force(nwords, fingerprint):
    # Words drawn from 0..3 give many repeated keys; the two-bit hook also
    # gives many distinct keys with equal fingerprints.
    rng = np.random.default_rng(10 * nwords + (fingerprint is two_bit_fingerprint))
    for size in (0, 1, 5, 40, 300):
        words = rng.integers(0, 4, (nwords, size)).astype(np.uint64)
        keys, fp = key_tuples(words), fingerprint(words)
        first = lc._distinct(fp, words)
        assert sorted(first.tolist()) == [i for i, k in enumerate(keys) if k not in keys[:i]]
        ascending = fp.take(first)
        assert (ascending[1:] >= ascending[:-1]).all()
        if not size:
            continue
        # A run: some of the distinct keys, sorted by fingerprint.
        members = first[rng.random(len(first)) < 0.5] if len(first) > 1 else first
        run_words = words.take(members, axis=1)
        run_fp = fingerprint(run_words)
        order = run_fp.argsort(kind="stable")
        run_fp, run_words = run_fp.take(order), run_words.take(order, axis=1)
        inside = set(key_tuples(run_words))
        found = lc._in_run(run_fp, run_words, fp, words)
        assert found.tolist() == [k in inside for k in keys]
        if fingerprint is two_bit_fingerprint and size == 300:
            shared = [k not in inside and fp[i] in run_fp for i, k in enumerate(keys)]
            assert any(shared)  # a fingerprint match whose words differ


def test_select_takes_keys_by_index():
    rng = np.random.default_rng(30)
    for nwords in (1, 2, 3):
        words = rng.integers(0, 1 << 20, (nwords, 50)).astype(np.uint64)
        fp = lc._fingerprint(words)
        which = (rng.random(50) < 0.5).nonzero()[0]
        selected_fp, selected_words = lc._select(fp, words, which)
        assert selected_fp.tolist() == fp[which].tolist()
        assert selected_words.tolist() == words[:, which].tolist()
        if nwords == 1:  # one-word keys come back as a view of their fingerprints
            assert selected_words.base is selected_fp


def random_graph(rng, n, p):
    """A graph on 0..n-1 with each edge present with probability ``p``."""
    return SimpleGraph.from_edges(range(n), [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def reference_stop(paths, allowed, batch):
    """Where the locality search stops, read off the reference closure ``paths``.

    ``allowed`` must hold a member of the class.  Returns the first local
    member in path order, its path, the generation that holds it, and the
    keys stored before the search stopped: those of the earlier generations,
    and the new keys of the hit's generation whose parents lie in batches of
    ``batch`` parents before the hit parent's batch.  Then the hit parent's
    position in its generation.
    """
    hit_key, hit_path = first_local_in_path_order(paths, allowed)
    depth = len(hit_path)
    if depth == 0:
        return hit_key, (), 0, [hit_key], None
    index = {p: i for i, p in enumerate(p for p in paths.values() if len(p) == depth - 1)}
    at = index[hit_path[:-1]]
    stored = [
        k for k, p in paths.items()
        if len(p) < depth or len(p) == depth and index[p[:-1]] < at // batch * batch
    ]
    return hit_key, hit_path, depth, sorted(stored), at


def reference_search(g, paths, allowed, batch):
    """:func:`reference_stop`, then how often the hit occurs among the children of its generation's parents."""
    hit_key, hit_path, depth, stored, at = reference_stop(paths, allowed, batch)
    if depth == 0:
        return hit_key, (), 0, stored, None, 1
    by_path = {p: k for k, p in paths.items()}
    children = [
        canonical_key(local_complement(graph_from_key(by_path[p], g.labels), v))
        for p in paths.values() if len(p) == depth - 1 for v in g.labels
    ]
    return hit_key, hit_path, depth, stored, at, children.count(hit_key)


def stored_paths(paths, stored):
    """The reference ``paths`` of the ``stored`` keys, in path order."""
    stored = set(stored)
    return [(k, p) for k, p in paths.items() if k in stored]


def test_local_search_stops_at_its_first_local_child(monkeypatch):
    # Batches of eight parents give many frontiers of several batches.  Each
    # allowed graph holds a random member of the class, so most searches
    # stop deep in the class.  The hit is the first local child in (parent,
    # vertex) order, and nothing from the hit's batch on is stored, even
    # when batches before it in its generation are.
    monkeypatch.setattr(lc, "_BATCH", 8)
    rng = np.random.default_rng(49)
    twice = 0
    seen = Counter()  # the batch paths the reference equality covers
    for _ in range(40):
        n = int(rng.integers(3, 8))
        g = random_graph(rng, n, 0.5)
        paths = reference_closure(g)
        member = graph_from_key(list(paths)[int(rng.integers(len(paths)))], g.labels)
        allowed = SimpleGraph(g.labels, [a | b for a, b in zip(member.rows, random_graph(rng, n, 0.2).rows)])
        hit_key, hit_path, generations, stored, at, copies = reference_search(g, paths, allowed, 8)
        orbit = certify_nonlocal(g, allowed)
        assert not orbit.complete
        assert (orbit.hit_key, orbit.hit_path, orbit.generations, orbit.members) == (
            hit_key, hit_path, generations, stored,
        )
        assert list(orbit.paths().items()) == stored_paths(paths, stored)
        twice += copies >= 2
        seen += batch_paths(paths, generations, at, 8)
        # the budget counts the stored keys only: the hit's own batch is never stored
        assert certify_nonlocal(g, allowed, budget=len(stored)).hit_path == hit_path
        if len(stored) > 1:
            with pytest.raises(OrbitBudgetError) as exc:
                certify_nonlocal(g, allowed, budget=len(stored) - 1)
            reached, crossing = reference_reached(paths, len(stored) - 1, 8)
            assert exc.value.reached == reached
            seen["crossing in a batch after its generation's first"] += crossing != 0
    assert twice >= 5
    assert min(seen.values()) >= 5 and len(seen) == 3, seen
    assert seen["hit in a batch after its generation's first"] >= 10, seen


def pendant_graph(rng, n, core):
    """A random core of at most ``core`` vertices, then leaves, pendant paths of two or three and isolated vertices.

    The vertices are shuffled, so the ones of degree at most one fall above
    and below the vertices they hang from.
    """
    core = int(rng.integers(1, min(core, n) + 1))
    edges = [(i, j) for i in range(core) for j in range(i + 1, core) if rng.random() < 0.6]
    v = core
    while v < n:
        if rng.random() < 0.3:
            v += 1  # isolated
            continue
        end = min(v + int(rng.integers(1, 4)), n)
        tail = int(rng.integers(0, v))
        for w in range(v, end):  # a leaf when end == v + 1, else a pendant path
            edges.append((tail, w))
            tail = w
        v = end
    order = rng.permutation(n).tolist()
    return SimpleGraph.from_edges(range(n), [(order[a], order[b]) for a, b in edges])


def reference_reached(paths, budget, batch):
    """The stored-key count that ends a closure with ``budget``: the count after the first batch past it, and that batch's index in its generation."""
    reached, depth = 1, 1
    while True:
        parents = {p: i for i, p in enumerate(p for p in paths.values() if len(p) == depth - 1)}
        by_batch = Counter(parents[p[:-1]] // batch for p in paths.values() if len(p) == depth)
        for b in sorted(by_batch):
            reached += by_batch[b]
            if reached > budget:
                return reached, b
        depth += 1


def batch_paths(paths, generations, at, batch):
    """Which paths through batches of ``batch`` members a search of the reference closure ``paths`` takes.

    The search complements ``generations`` generations and stops at a hit
    whose parent is at ``at`` in the last of them, or at none when ``at`` is
    None.  Counts the generations of two batches or more, and whether the
    hit lies in a batch that is not its generation's first.
    """
    sizes = Counter(len(p) for p in paths.values())
    return Counter({
        "generation of several batches": sum(sizes[d] > batch for d in range(generations)),
        "hit in a batch after its generation's first": at is not None and at >= batch,
    })


def test_skipped_children_change_nothing(monkeypatch):
    # Complementations that cannot give a new key are never built: at the
    # vertex that made the member, at vertices of degree at most one, and
    # at non-neighbours of that vertex below it.  Graphs full of isolated
    # vertices, leaves and pendant paths make all three common.  Batches of
    # eight members spread each generation over many batches, so the budget
    # count, which is taken per batch, is checked too.
    monkeypatch.setattr(lc, "_BATCH", 8)
    rng = np.random.default_rng(57)
    seen = Counter()  # the batch paths the reference equality covers
    built = [0, 0]  # children built, and members complemented times n
    children = lc._children

    def counted(words, rows, keep, plan):
        cand, at = children(words, rows, keep, plan)
        built[0] += len(at)
        built[1] += words.shape[1] * plan.n
        return cand, at

    monkeypatch.setattr(lc, "_children", counted)
    cases = [pendant_graph(rng, int(rng.integers(2, 10)), 5) for _ in range(40)]
    cases += [pendant_graph(rng, int(rng.integers(12, 15)), 4) for _ in range(6)]
    assert sum(lc._plan(g.n).nwords == 2 for g in cases) == 6
    hits = 0
    for g in cases:
        paths = reference_closure(g)
        orbit = lc_orbit(g, budget=len(paths))  # the class fits exactly
        assert orbit.complete
        assert orbit.generations == max(map(len, paths.values())) + 1
        assert orbit.members == sorted(paths)
        assert list(orbit.paths().items()) == list(paths.items())
        seen += batch_paths(paths, orbit.generations, None, 8)
        if len(paths) > 1:  # crossed mid-class, where later batches of a generation often hold new keys
            with pytest.raises(OrbitBudgetError) as exc:
                lc_orbit(g, budget=len(paths) // 2)
            reached, crossing = reference_reached(paths, len(paths) // 2, 8)
            assert exc.value.reached == reached
            seen["crossing in a batch after its generation's first"] += crossing != 0
        member = graph_from_key(list(paths)[int(rng.integers(len(paths)))], g.labels)
        allowed = SimpleGraph(g.labels, [a | b for a, b in zip(member.rows, random_graph(rng, g.n, 0.2).rows)])
        hit_key, hit_path, generations, stored, at = reference_stop(paths, allowed, 8)
        orbit = certify_nonlocal(g, allowed)
        assert (orbit.hit_key, orbit.hit_path, orbit.generations, orbit.members) == (
            hit_key, hit_path, generations, stored,
        )
        assert list(orbit.paths().items()) == stored_paths(paths, stored)
        seen += batch_paths(paths, generations, at, 8)
        if len(stored) > 1:
            with pytest.raises(OrbitBudgetError) as exc:
                certify_nonlocal(g, allowed, budget=len(stored) - 1)
            reached, crossing = reference_reached(paths, len(stored) - 1, 8)
            assert exc.value.reached == reached
            seen["crossing in a batch after its generation's first"] += crossing != 0
        hits += len(hit_path) > 1
    assert hits >= 10
    assert min(seen.values()) >= 5 and len(seen) == 3, seen
    assert 2 * built[0] < built[1]  # most complementations are skipped


@pytest.fixture(scope="module")
def seed_53_class():
    """A class of 34,252 members on 11 vertices, its paths, and an allowed graph that holds one member of generation 6."""
    g = random_graph(np.random.default_rng(53), 11, 0.5)
    paths = lc_orbit(g).paths()
    allowed = graph_from_key(next(k for k, p in paths.items() if p == (5, 2, 1, 10, 4, 0)), g.labels)
    return g, paths, allowed


def test_local_search_past_the_first_full_batch(seed_53_class):
    # Generation 5 has 3,646 members, and the hit's parent is the 3,073rd,
    # in the second batch of 2,048.  The new keys of the first batch are
    # stored, and those of the hit's batch are not.  The full orbit's paths,
    # checked against the reference closure above, are the oracle here.
    g, paths, allowed = seed_53_class
    hit_key, hit_path, generations, stored, at = reference_stop(paths, allowed, lc._BATCH)
    assert (hit_path, at, len(stored)) == ((5, 2, 1, 10, 4, 0), 3072, 9_695)
    orbit = certify_nonlocal(g, allowed)
    assert not orbit.complete
    assert (orbit.hit_key, orbit.hit_path, orbit.generations, orbit.members) == (
        hit_key, hit_path, generations, stored,
    )
    with pytest.raises(OrbitBudgetError) as exc:
        certify_nonlocal(g, allowed, budget=len(stored) - 1)
    assert exc.value.reached == reference_reached(paths, len(stored) - 1, lc._BATCH)[0]


def test_budget_crossed_only_in_the_hit_batch_keeps_the_verdict(seed_53_class):
    # The hit's batch would take the stored keys from 9,695 past 10,000, but
    # nothing of it is stored, so the search returns its local hit.
    g, _, allowed = seed_53_class
    orbit = certify_nonlocal(g, allowed, budget=10_000)
    assert (orbit.hit_path, orbit.size) == ((5, 2, 1, 10, 4, 0), 9_695)


def test_orbit_limited_to_64_vertices():
    with pytest.raises(OrbitBudgetError):  # 64 vertices enumerate, until the budget runs out
        lc_orbit(path(64), budget=1)
    with pytest.raises(ValueError, match="limited to 64 vertices, got 65"):
        lc_orbit(path(65))


def test_orbit_budget_exceeded():
    with pytest.raises(OrbitBudgetError):
        lc_orbit(star(6), budget=3)


def test_orbit_paths_are_shortest_and_lexicographic():
    orbit = lc_orbit(SimpleGraph.complete([0, 1, 2]))
    for key, p in orbit.paths().items():
        # replaying the path reaches the member
        g = SimpleGraph.complete([0, 1, 2])
        for v in p:
            g = local_complement(g, v)
        assert canonical_key(g) == key
    # the three paths from K3 each take exactly one complementation
    lengths = sorted(len(p) for p in orbit.paths().values())
    assert lengths == [0, 1, 1, 1]


def test_stop_predicate_short_circuits():
    # the stop test is the allowed-edge mask: K4 minus {0, 1} holds the stars
    # centred at 2 and 3, both two complementations from the star at 0
    allowed = SimpleGraph.from_edges(range(4), [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    orbit = certify_nonlocal(star(4), allowed)
    centred_at_2 = SimpleGraph.from_edges(range(4), [(2, 0), (2, 1), (2, 3)])
    assert orbit.hit_key == canonical_key(centred_at_2)
    assert orbit.hit_path == (0, 2)
    assert orbit.generations == 2
    assert not orbit.complete


# -- orbits against the pairwise test -----------------------------------------


def test_path4_not_equivalent_to_star4():
    # independent oracle: breadth-first orbits are disjoint
    assert not lc_orbit(path(4)).contains(canonical_key(star(4)))
    assert lc_equivalent(path(4), star(4)) is None


def test_witnesses_verify_and_match_orbits():
    rng = np.random.default_rng(44)
    for _ in range(150):
        n = int(rng.integers(2, 7))
        g = random_simple_graph(rng, n)
        h = random_simple_graph(rng, n)
        w = lc_equivalent(g, h)
        in_orbit = lc_orbit(g).contains(canonical_key(h))
        assert (w is not None) == in_orbit
        if w is not None:
            assert verify_witness(g, h, w)
            assert w.determinant_ok()


# -- locality search ----------------------------------------------------------


def test_local_representative_found_for_star_seed():
    # allowed edges: the star itself; seed: the complete graph
    allowed = star(4)
    orbit = certify_nonlocal(SimpleGraph.complete(range(4)), allowed)
    assert not orbit.complete
    assert orbit.member_graph(orbit.hit_key).is_subgraph_of(allowed)
    assert orbit.hit_path == (0,)


def test_local_representative_none_when_orbit_avoids_mask():
    allowed = SimpleGraph.empty(list(range(4)))  # no edges allowed
    orbit = certify_nonlocal(path(4), allowed)
    assert orbit.complete and orbit.hit_key is None


def test_certify_budget_error():
    with pytest.raises(OrbitBudgetError):
        certify_nonlocal(star(6), SimpleGraph.empty(list(range(6))), budget=2)


def test_empty_graph_orbit():
    # one generation is processed and finds nothing
    orbit = lc_orbit(SimpleGraph.empty([]))
    assert orbit.size == 1 and orbit.complete
    assert orbit.generations == 1
    assert orbit.paths() == {0: ()}


def test_cross_oracle_on_disconnected_graphs():
    # the algebraic test is used on disconnected tree-map graphs too
    rng = np.random.default_rng(46)
    checked = 0
    while checked < 120:
        n = int(rng.integers(2, 6))
        g = random_simple_graph(rng, n)
        h = random_simple_graph(rng, n)
        if g.is_connected() and h.is_connected():
            continue
        w = lc_equivalent(g, h)
        assert (w is not None) == lc_orbit(g).contains(canonical_key(h))
        if w is not None:
            assert verify_witness(g, h, w)
        checked += 1


def test_orbit_paths_are_lexicographically_least():
    # brute force over all complementation sequences up to the BFS depth
    import itertools as it

    seed = star(4)
    paths = lc_orbit(seed).paths()
    max_len = max(len(p) for p in paths.values())
    best = {}
    for length in range(max_len + 1):
        for seq in it.product(range(4), repeat=length):
            g = seed
            for v in seq:
                g = local_complement(g, v)
            key = canonical_key(g)
            if key not in best:
                best[key] = seq
    assert best == paths


def test_local_search_beyond_one_key_word():
    # 12 vertices: 66 key bits, so keys take two uint64 words
    n = 12
    complete = SimpleGraph.complete(range(n))
    allowed = star(n)
    orbit = certify_nonlocal(complete, allowed)
    assert not orbit.complete
    assert orbit.hit_path == (0,)
    assert orbit.member_graph(orbit.hit_key).is_subgraph_of(allowed)


def test_budget_count_is_pinned_per_chunk():
    # The budget is checked after each batch, the engine's one unit of work
    # (it was once a 512-member chunk), so a search that runs out reports the
    # keys stored after the batch that crossed it.  torus_3x3 (18 qubits) has
    # no verdict at this budget; the count it reaches pins the batch order,
    # the dedupe and the lookups together.
    emb = load_setup(fixture_path("torus_3x3.json"))
    with pytest.raises(OrbitBudgetError) as exc:
        certify_nonlocal(phi_graph(emb), adjacency_relation(emb), budget=100_000)
    assert (exc.value.budget, exc.value.reached) == (100_000, 106_384)


def test_budget_count_is_pinned_at_each_chunk_of_a_batch():
    # Generation 5 of torus_3x3 has 58,910 members.  These budgets are
    # crossed at members 6,144, 6,656, 7,168 and 7,680 of it, four
    # 512-member steps inside one batch.  The budget is counted per batch,
    # so all four reach the count stored at that batch's end.
    emb = load_setup(fixture_path("torus_3x3.json"))
    graph, allowed = phi_graph(emb), adjacency_relation(emb)
    reached = {}
    for budget in (107_000, 110_000, 112_000, 114_000):
        with pytest.raises(OrbitBudgetError) as exc:
            certify_nonlocal(graph, allowed, budget=budget)
        reached[budget] = exc.value.reached
    assert reached == {107_000: 115_809, 110_000: 115_809, 112_000: 115_809, 114_000: 115_809}


def reordered_setups(emb, rng, orders):
    """``orders`` copies of a setup, each with its edges in a seeded random order."""
    data = emb.to_dict()
    for _ in range(orders):
        perm = rng.sample(range(len(data["edges"])), len(data["edges"]))  # position k holds edge perm[k]
        where = {old: new for new, old in enumerate(perm)}
        yield setup_from_dict({
            "vertices": data["vertices"],
            "edges": [data["edges"][old] for old in perm],
            "faces": [[where[k] for k in face] for face in data["faces"]],
            "closed": data["closed"],
            "qubit_ids": [data["qubit_ids"][old] for old in perm],
        })


def test_locality_outcomes_are_pinned_at_census_scale():
    # Every polyform of 1-5 squares and 1-5 triangles and two fixtures, each
    # under three edge orders: keys of one word (up to 11 qubits) and of two.
    # One digest over every search's outcome and stored paths pins the
    # dedupe, the lookups and the path order together.
    setups = [
        polyform_embedding(shape, lattice)
        for lattice in ("square", "triangular")
        for cells in range(1, 6)
        for shape in enumerate_polyforms(cells, lattice)
    ]
    setups += [load_setup(fixture_path(f"{name}.json")) for name in ("torus_2x2", "reduced_8qubit")]
    rng = random.Random(25)
    digest = hashlib.sha256()
    searches = 0
    for emb in setups:
        for reordered in reordered_setups(emb, rng, 3):
            orbit = certify_nonlocal(*locality_pair(reordered))
            outcome = (orbit.complete, orbit.size, orbit.generations, orbit.hit_key, orbit.hit_path)
            digest.update(f"{outcome};{list(orbit.paths().items())}|".encode())
            searches += 1
    assert searches == 3 * 33
    assert digest.hexdigest() == "0762a0b37c2963f0a32dcdb4bed6ae6727ae7b86bf824615e7791fb0e5f2432e"
