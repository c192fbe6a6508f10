"""Leaf machinery, strictness, relabelings and chain verification."""

import numpy as np
import pytest

from toricgs.fixture_files import fixture_path
from toricgs.graphs import GraphError, SimpleGraph
from toricgs.lc import CertificateError
from toricgs.reduction import (
    ChainSpec,
    LeafGraph,
    classify,
    derive_chain,
    epsilon_swap,
    is_stricter,
    leaf_delete_commute_check,
    load_chain_spec,
    reduction_chain,
    verify_reduction_step,
    verify_relabeling,
)
from toricgs.surface import DegeneracyError, EmbeddingError, load_setup
from tests.test_graphs import random_simple_graph


def leaf_path3():
    return LeafGraph(
        SimpleGraph.from_edges("abc", [("a", "b"), ("b", "c")]), "a", "b"
    )


# -- epsilon swap -------------------------------------------------------------


def test_epsilon_swap_k2_self_symmetric():
    leaf = LeafGraph(SimpleGraph.from_edges("ab", [("a", "b")]), "a", "b")
    swapped = epsilon_swap(leaf)
    assert swapped.graph == leaf.graph
    assert swapped.outer == "b" and swapped.inner == "a"


def test_epsilon_swap_path():
    swapped = epsilon_swap(leaf_path3())
    assert sorted(swapped.graph.edges()) == [("a", "b"), ("a", "c")]
    assert swapped.outer == "b" and swapped.inner == "a"


def test_epsilon_swap_is_involution():
    rng = np.random.default_rng(51)
    done = 0
    while done < 60:
        core = random_simple_graph(rng, int(rng.integers(2, 7)))
        if not core.is_connected():
            continue
        inner = int(rng.integers(0, core.n))
        g = SimpleGraph.from_edges(
            list(core.labels) + ["leaf"], core.edges() + [(inner, "leaf")]
        )
        leaf = LeafGraph(g, "leaf", inner)
        assert epsilon_swap(epsilon_swap(leaf)).graph == g
        done += 1


def test_epsilon_swap_checks_its_relabeling_without_assert(monkeypatch):
    # The identity is checked by an ``if``, so it holds under ``python -O`` too.
    from toricgs import reduction

    wrong = SimpleGraph.from_edges("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    monkeypatch.setattr(reduction, "local_complement", lambda g, v: wrong)
    with pytest.raises(CertificateError, match="internal error: the leaf exchange is not a relabeling"):
        epsilon_swap(leaf_path3())


def test_leaf_graph_validation():
    g = SimpleGraph.from_edges("abc", [("a", "b"), ("a", "c")])
    with pytest.raises(GraphError):
        LeafGraph(g, "a", "b")  # degree 2
    with pytest.raises(GraphError):
        LeafGraph(leaf_path3().graph, "a", "c")  # wrong inner


# -- classification -----------------------------------------------------------


def test_classify_examples():
    star = SimpleGraph.from_edges("abcd", [("a", "b"), ("b", "c"), ("b", "d")])
    assert classify(star, "a", "b") == "A"
    assert classify(star, "b", "a") == "B"
    sym_edge = SimpleGraph.from_edges(
        "abcd", [("a", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")]
    )
    assert classify(sym_edge, "a", "b") == "C"
    sym_no_edge = SimpleGraph.from_edges("abc", [("a", "c"), ("b", "c")])
    assert classify(sym_no_edge, "a", "b") == "D"
    asym = SimpleGraph.from_edges("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("c", "d")])
    assert classify(asym, "a", "b") is None
    with pytest.raises(GraphError):
        classify(star, "a", "a")


# -- leaf deletion commutes ---------------------------------------------------


def test_leaf_delete_commute_examples():
    leaf = leaf_path3()
    assert leaf_delete_commute_check(leaf, [])
    assert leaf_delete_commute_check(leaf, ["b"])
    with pytest.raises(GraphError):
        leaf_delete_commute_check(leaf, ["a"])


def test_leaf_delete_commute_random():
    rng = np.random.default_rng(52)
    done = 0
    while done < 200:
        n = int(rng.integers(3, 9))
        core = random_simple_graph(rng, n - 1)
        if not core.is_connected():
            continue
        inner = int(rng.integers(0, n - 1))
        g = SimpleGraph.from_edges(
            list(range(n)), core.edges() + [(inner, n - 1)]
        )
        leaf = LeafGraph(g, n - 1, inner)
        seq = [int(v) for v in rng.integers(0, n - 1, size=int(rng.integers(0, 7)))]
        assert leaf_delete_commute_check(leaf, seq)
        done += 1


# -- strictness ---------------------------------------------------------------


def test_strictness_identity_holds():
    rel = SimpleGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    assert is_stricter(rel, rel, [0, 1, 2]) == ()


def test_strictness_complete_target_holds():
    rel1 = SimpleGraph.from_edges([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    rel2 = SimpleGraph.from_edges([0, 1], [(0, 1)])
    assert is_stricter(rel1, rel2, [0, 1]) == ()


def test_strictness_violation_reported():
    rel1 = SimpleGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    rel2 = SimpleGraph.from_edges([0, 1], [])
    assert is_stricter(rel1, rel2, [0, 1]) == ((0, 1),)


def test_strictness_monotone_under_extra_edges():
    # adding edges to the big relation can break but never repair strictness
    rel2 = SimpleGraph.from_edges([0, 1, 2], [(0, 1)])
    base = SimpleGraph.from_edges([0, 1, 2, 3], [(0, 1), (2, 3)])
    more = SimpleGraph.from_edges([0, 1, 2, 3], [(0, 1), (2, 3), (0, 2), (1, 2)])
    assert is_stricter(base, rel2, [0, 1, 2]) == ()
    assert is_stricter(more, rel2, [0, 1, 2]) == ((0, 2), (1, 2))
    # and once broken it stays broken when more edges arrive
    even_more = SimpleGraph.from_edges([0, 1, 2, 3], [(0, 1), (2, 3), (0, 2), (1, 2), (0, 3)])
    assert is_stricter(even_more, rel2, [0, 1, 2]) == ((0, 2), (1, 2))


def test_strictness_qubit_set_mismatch():
    rel1 = SimpleGraph.from_edges([0, 1], [(0, 1)])
    rel2 = SimpleGraph.from_edges([0, 2], [])
    with pytest.raises(GraphError):
        is_stricter(rel1, rel2, [0, 1])


# -- relabeling ---------------------------------------------------------------


def test_verify_relabeling_identity():
    emb = load_setup(fixture_path("plaquette4.json"))
    edge_map = {q: q for q in emb.qubit_ids}
    vertex_map = {v: v for v in emb.graph.vertices}
    assert verify_relabeling(emb, emb, edge_map, vertex_map)


def test_verify_relabeling_detects_wrong_map():
    emb = load_setup(fixture_path("plaquette4.json"))
    edge_map = {0: 1, 1: 0, 2: 2, 3: 3}  # swap two edges without moving vertices
    vertex_map = {v: v for v in emb.graph.vertices}
    assert not verify_relabeling(emb, emb, edge_map, vertex_map)


def test_verify_relabeling_compares_labels_of_mixed_types():
    emb = load_setup(fixture_path("tetriamond.json"))
    edge_map = {q: q for q in emb.qubit_ids}
    vertex_map = {v: v for v in emb.graph.vertices}
    vertex_map[5] = vertex_map.pop(emb.graph.vertices[0])  # an int among tuples
    assert not verify_relabeling(emb, emb, edge_map, vertex_map)
    # the right image, but two qubits share one image
    assert not verify_relabeling(emb, emb, edge_map | {1: 0}, {v: v for v in emb.graph.vertices})


def test_verify_relabeling_compares_closed_flags():
    from toricgs.surface import Embedding

    torus = load_setup(fixture_path("torus_2x2.json"))
    opened = Embedding(torus.graph, torus.faces, False, torus.qubit_ids)
    edge_map = {q: q for q in torus.qubit_ids}
    vertex_map = {v: v for v in torus.graph.vertices}
    assert not verify_relabeling(opened, torus, edge_map, vertex_map)  # the same graph and faces, one open
    assert verify_relabeling(opened, opened, edge_map, vertex_map)


# -- chain verification -------------------------------------------------------


@pytest.fixture(scope="module")
def chain_spec():
    return load_chain_spec(fixture_path("chain/pentomino_chain.json"))


def test_bundled_chain_verifies(chain_spec):
    report = reduction_chain(chain_spec)
    assert report.ok
    assert report.verdicts["s0"] == "nonlocal"
    assert all(v == "nonlocal" for v in report.verdicts.values())
    assert report.base_orbits["s8"]["nonlocal"]


def test_certification_is_keyed_by_embedding_digest():
    # One embedding under two names: the base scan of "a" certifies "b" too,
    # with no step and no relabeling, since both names share one digest.
    systems = {name: load_setup(fixture_path("tetriamond.json")) for name in ("a", "b")}
    report = reduction_chain(ChainSpec(systems, (), ("a",), ()))
    assert report.ok
    assert report.verdicts == {"a": "nonlocal", "b": "nonlocal"}
    assert report.steps_verified == 0
    assert report.base_orbits == {
        "a": {
            "nonlocal": True,
            "orbit_size": 828,
            "orbit_digest": "025c936bcef23014179ddf1b42b30a4e763e34c955d0956557cf28e82cded436",
        }
    }


def test_verified_step_and_strictness_violation(chain_spec):
    from toricgs.surface import Embedding, adjacency_relation, face_masks, homology_rank

    step = chain_spec.steps[0]
    big = chain_spec.systems[step.system]
    reduced_a = chain_spec.systems[step.reduced_a]
    reduced_b = chain_spec.systems[step.reduced_b]
    certified = {reduced_a.digest(), reduced_b.digest()}
    good = verify_reduction_step(
        big, step.a, step.b, reduced_a, reduced_b, step.leaf, certified
    )
    assert good == ()

    def weakened(faces):
        emb = Embedding(reduced_a.graph, faces, reduced_a.closed, reduced_a.qubit_ids)
        return emb, verify_reduction_step(big, step.a, step.b, emb, reduced_b, step.leaf, certified | {emb.digest()})

    # Face 2 is the only face that can be dropped from a valid setup, and the
    # hole it leaves makes the reduced system degenerate, so the step raises.
    for drop in (0, 1, 3, 4):
        with pytest.raises(EmbeddingError, match="do not appear on one or two faces"):
            weakened(tuple(w for i, w in enumerate(reduced_a.faces) if i != drop))
    holed = Embedding(reduced_a.graph, reduced_a.faces[:2] + reduced_a.faces[3:], False, reduced_a.qubit_ids)
    assert homology_rank(holed) == 1
    with pytest.raises(DegeneracyError, match=r"residual degeneracy 2\^1"):
        weakened(holed.faces)

    # Face 2 replaced by the closed walk of faces 0 + 2 (they share edge 4)
    # pins a unique state, but loses the vicinities that face 2 alone gave.
    faces = reduced_a.faces[:2] + ((0, 5, 10, 7, 1),) + reduced_a.faces[3:]
    masks = face_masks(reduced_a)
    emb, failures = weakened(faces)
    assert face_masks(emb)[2] == masks[0] ^ masks[2] and homology_rank(emb) == 0
    violations = is_stricter(adjacency_relation(big), adjacency_relation(emb), emb.qubit_ids)
    assert violations == ((5, 11),)
    assert failures[0] == f"strictness violated towards reduced_a: {violations}"

    # swapped outer/inner declaration is rejected outright
    with pytest.raises(GraphError):
        verify_reduction_step(
            big, step.b, step.a, reduced_a, reduced_b, step.leaf, certified
        )


def test_step_missing_certificate(chain_spec):
    step = chain_spec.steps[0]
    big = chain_spec.systems[step.system]
    reduced_a = chain_spec.systems[step.reduced_a]
    reduced_b = chain_spec.systems[step.reduced_b]
    failures = verify_reduction_step(
        big, step.a, step.b, reduced_a, reduced_b, step.leaf, certified=set()
    )
    # hypotheses 1 and 2 still hold: only the two certificates are missing
    assert failures == (
        "missing nonlocality certificate for reduced_a",
        "missing nonlocality certificate for reduced_b",
    )


def test_chain_missing_base_aborts(chain_spec):
    crippled = ChainSpec(
        systems=chain_spec.systems,
        steps=chain_spec.steps,
        base=(),
        relabelings=chain_spec.relabelings,
    )
    report = reduction_chain(crippled)
    assert not report.ok
    assert report.verdicts["s0"] == "unverified"


def test_leaf_graph_rejects_an_outer_vertex_moved_off_its_inner(chain_spec):
    step0 = chain_spec.steps[0]
    # claim a different (valid-looking) leaf: attach the outer vertex elsewhere
    g = step0.leaf.graph
    other_inner = next(
        v for v in g.labels if v not in (step0.a, step0.b)
    )
    tampered_graph = SimpleGraph.from_edges(
        g.labels,
        [e for e in g.edges() if step0.a not in e] + [(step0.a, other_inner)],
    )
    # keep the declared pair: the loader would reject outer/inner mismatch,
    # so craft the LeafGraph directly with a wrong inner claim
    with pytest.raises(GraphError):
        LeafGraph(tampered_graph, step0.a, step0.b)


def test_single_step_chain_with_certified_base(chain_spec):
    # the last link alone: base s8 plus the mirror relabeling certify s7
    last = chain_spec.steps[-1]
    mini = ChainSpec(
        systems={
            name: chain_spec.systems[name]
            for name in (last.system, last.reduced_a, last.reduced_b)
        },
        steps=(last,),
        base=(last.reduced_a,),
        relabelings=tuple(
            r for r in chain_spec.relabelings if r.system == last.reduced_b
        ),
    )
    report = reduction_chain(mini)
    assert report.ok
    assert report.verdicts[last.system] == "nonlocal"


def test_step_rejects_leaf_outside_the_class(chain_spec):
    # a structurally valid leaf graph that is not equivalent to the system
    step = chain_spec.steps[0]
    big = chain_spec.systems[step.system]
    reduced_a = chain_spec.systems[step.reduced_a]
    reduced_b = chain_spec.systems[step.reduced_b]
    certified = {reduced_a.digest(), reduced_b.digest()}
    labels = list(step.leaf.graph.labels)
    others = [v for v in labels if v not in (step.a, step.b)]
    fake = SimpleGraph.from_edges(
        labels,
        [(step.a, step.b)]
        + [(step.b, others[0])]
        + [(others[i], others[i + 1]) for i in range(len(others) - 1)],
    )  # a path: pinned to a different entanglement class
    failures = verify_reduction_step(
        big, step.a, step.b, reduced_a, reduced_b,
        LeafGraph(fake, step.a, step.b), certified,
    )
    assert failures[0] == "leaf graph is not LC-equivalent to the big system"


def test_chain_with_tampered_relabeling_fails(chain_spec):
    from dataclasses import replace

    bad = list(chain_spec.relabelings)
    first = bad[0]
    # swap two entries of the vertex map so the bijection no longer matches
    vm = dict(first.vertex_map)
    keys = sorted(vm, key=str)[:2]
    vm[keys[0]], vm[keys[1]] = vm[keys[1]], vm[keys[0]]
    bad[0] = replace(first, vertex_map=vm)
    spec = ChainSpec(
        systems=chain_spec.systems,
        steps=chain_spec.steps,
        base=chain_spec.base,
        relabelings=tuple(bad),
    )
    report = reduction_chain(spec)
    assert not report.ok
    assert any("relabeling" in f for f in report.failures)


def test_locality_agrees_with_certification_on_small_setups():
    # the verdict and the hit against a scan of the whole orbit, member by member
    from toricgs.lc import certify_nonlocal, lc_orbit
    from toricgs.polyforms import polyform_enumerate
    from toricgs.surface import adjacency_relation, phi_graph

    for lattice in ("square", "triangular"):
        for n in (1, 2, 3):
            for emb in polyform_enumerate(n, lattice):
                g = phi_graph(emb)
                allowed = adjacency_relation(emb)
                orbit = lc_orbit(g)
                local = [k for k in orbit.members if orbit.member_graph(k).is_subgraph_of(allowed)]
                found = certify_nonlocal(g, allowed)
                assert found.complete == (not local)
                assert found.complete or found.hit_key in local


def test_moved_hit_path_fails_closed(monkeypatch):
    from toricgs import lc
    from toricgs.lc import certify_nonlocal
    from toricgs.polyforms import polyform_enumerate
    from toricgs.surface import adjacency_relation, phi_graph

    real = lc._orbit_vector

    def moved(*args, **kwargs):
        orbit = real(*args, **kwargs)
        assert orbit.hit_path == (0, 5)
        orbit.hit_path = (0, 4)
        return orbit

    emb = polyform_enumerate(3, "square")[1]  # local through complementations (0, 5)
    monkeypatch.setattr(lc, "_orbit_vector", moved)
    with pytest.raises(CertificateError, match="do not replay to a local graph"):
        certify_nonlocal(phi_graph(emb), adjacency_relation(emb))
    with pytest.raises(CertificateError, match="do not replay to a local graph"):
        reduction_chain(ChainSpec({"p": emb}, (), ("p",), ()))  # the base scan of ``reduce``


def test_scan_finds_the_declared_chain_leaf(chain_spec):
    from toricgs.lc import canonical_key, lc_orbit
    from toricgs.surface import phi_graph

    step = chain_spec.steps[-1]  # 9-qubit system: small class, cheap scan
    big = chain_spec.systems[step.system]
    assert (step.leaf.outer, step.leaf.inner) == (step.a, step.b)
    assert lc_orbit(phi_graph(big)).contains(canonical_key(step.leaf.graph))


# -- derived chains -------------------------------------------------------------


PENTOMINO_BASE_ORBIT = {
    "nonlocal": True,
    "orbit_size": 148,
    "orbit_digest": "7b150cd88f5a1393acb4de90a164add94967e912f25a299db5d2f888531dfb2a",
}


def test_derive_chain_gives_the_committed_pentomino_chain(chain_spec):
    from toricgs.polyforms import plus_pentomino_cells, polyform_embedding

    spec = derive_chain(polyform_embedding(plus_pentomino_cells(), "square"))
    assert spec == chain_spec
    report = reduction_chain(spec)
    assert report.ok and report.steps_verified == 8
    assert report.verdicts == {name: "nonlocal" for name in chain_spec.systems}
    assert report.base_orbits == {"s8": PENTOMINO_BASE_ORBIT}


def test_derived_steps_and_relabelings_hold_on_small_polyforms():
    # The closed-form leaf tree and mirror map hold on every shape, not just the
    # pentomino: with the reduced systems counted as certified, every step passes
    # all three hypotheses and every relabeling is an embedding isomorphism.
    from toricgs.polyforms import polyform_enumerate

    steps = 0
    for lattice, n in (("square", 4), ("square", 5), ("triangular", 5)):
        for emb in polyform_enumerate(n, lattice):
            spec = derive_chain(emb)
            certified = {e.digest() for e in spec.systems.values()}
            for r in spec.relabelings:
                assert verify_relabeling(spec.systems[r.system], spec.systems[r.source], r.edge_map, r.vertex_map)
            for s in spec.steps:
                systems = [spec.systems[name] for name in (s.system, s.reduced_a, s.reduced_b)]
                assert verify_reduction_step(systems[0], s.a, s.b, *systems[1:], s.leaf, certified) == ()
                steps += 1
    assert steps == 105


def test_derive_chain_stops_where_no_vertex_has_degree_2():
    torus = load_setup(fixture_path("torus_2x2.json"))
    assert derive_chain(torus) == ChainSpec({"s0": torus}, (), ("s0",), ())


def test_derive_chain_refuses_a_contraction_that_makes_a_loop():
    with pytest.raises(GraphError, match="would turn edge .* into a loop"):
        derive_chain(load_setup(fixture_path("plaquette4.json")))


def test_degenerate_base_is_rejected_before_its_search():
    # The 8-cell ring has a hole, so its ground space is degenerate: the chain
    # has no one state to search and raises instead of running out of budget.
    from toricgs.polyforms import polyform_embedding

    ring = polyform_embedding([(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)], "square")
    with pytest.raises(DegeneracyError, match=r"residual degeneracy 2\^1"):
        reduction_chain(ChainSpec({"ring": ring}, (), ("ring",), ()), budget=1000)


def test_degenerate_step_systems_are_rejected():
    # Every system of the ring's chain keeps the hole.  Even with the reduced
    # systems counted as certified, the first step raises instead of holding.
    from toricgs.polyforms import polyform_embedding

    ring = polyform_embedding([(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)], "square")
    spec = derive_chain(ring)
    step = spec.steps[0]
    systems = [spec.systems[name] for name in (step.system, step.reduced_a, step.reduced_b)]
    certified = {emb.digest() for emb in spec.systems.values()}
    with pytest.raises(DegeneracyError, match=r"residual degeneracy 2\^1"):
        verify_reduction_step(systems[0], step.a, step.b, *systems[1:], step.leaf, certified)
