"""Embeddings, stabilizers, vicinity, loop operators and the transform."""

import json
import random
from pathlib import Path

import pytest

from toricgs import gf2
from toricgs.fixture_files import fixture_path
from toricgs.graphs import Multigraph, enumerate_spanning_trees, first_spanning_tree
from toricgs.pauli import PauliString, Tableau, apply_hadamard, graph_state_vector, is_stabilized
from toricgs.polyforms import polyform_enumerate
from toricgs.surface import (
    DegeneracyError,
    Embedding,
    EmbeddingError,
    adjacency_relation,
    contract_embedding,
    dump_setup,
    homology_rank,
    load_setup,
    locality_pair,
    loop_operators,
    one_point_double_plaquette,
    phi_graph,
    sector_tableau,
    single_plaquette,
    square_torus,
    surface_stabilizer,
    transform_to_graph_state,
    face_masks,
    setup_from_dict,
    star_masks,
    validate_embedding,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "toricgs" / "fixtures"


# -- validation ---------------------------------------------------------------


def test_torus_2x2_is_valid_genus_one():
    emb = square_torus(2)
    validate_embedding(emb)
    assert emb.graph.n_vertices == 4 and emb.graph.n_edges == 8 and len(emb.faces) == 4


def test_single_plaquette_is_valid_open():
    validate_embedding(single_plaquette(4))


def test_edge_on_three_faces_rejected():
    m = Multigraph(range(3), [(0, 1), (1, 2), (2, 0)])
    tri = (0, 1, 2)
    with pytest.raises(EmbeddingError):
        Embedding(m, (tri, tri, tri), closed=True)


def test_open_face_must_be_simple_cycle():
    m = Multigraph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(EmbeddingError):
        Embedding(m, ((0, 1),), closed=False)


def test_face_walk_errors():
    # closed walks that repeat a vertex or an edge are not simple cycles
    bowtie = Multigraph(range(5), [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    edge = Multigraph(range(2), [(0, 1)])
    for m, face in ((bowtie, (0, 1, 2, 3, 4, 5)), (edge, (0, 0))):
        with pytest.raises(EmbeddingError, match="is not a simple cycle"):
            Embedding(m, (face,), closed=False)
    square = Multigraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(EmbeddingError, match="is not a closed walk"):
        Embedding(square, ((0, 1, 2, 3), (0, 2, 1, 3)), closed=True)


def test_closed_surface_needs_two_faces_per_edge():
    m = Multigraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(EmbeddingError):
        Embedding(m, ((0, 1, 2, 3),), closed=True)
    # the same square with the face repeated is a valid sphere embedding
    Embedding(m, ((0, 1, 2, 3), (0, 1, 2, 3)), closed=True)


def test_disconnected_carrier_rejected():
    m = Multigraph(range(4), [(0, 1), (2, 3)])
    with pytest.raises(EmbeddingError):
        Embedding(m, ((0,), (1,)), closed=False)


@pytest.mark.parametrize("closed", [False, True])
def test_empty_setup_rejected(closed):
    with pytest.raises(EmbeddingError, match="^the carrier multigraph has no vertices$"):
        setup_from_dict({"vertices": [], "edges": [], "faces": [], "closed": closed})


# -- stabilizers and degeneracy -----------------------------------------------


def test_single_plaquette_rank_and_degeneracy():
    tab, deg = surface_stabilizer(single_plaquette(4))
    assert tab.rank == 4 and deg == 1


def test_torus_degeneracy_and_homology():
    for side in (2, 3):
        emb = square_torus(side)
        tab, deg = surface_stabilizer(emb)
        assert deg == 4
        assert homology_rank(emb) == 2
        # dependent generators were dropped: v-1 stars + f-1 faces
        assert tab.rank == emb.graph.n_edges - 2


def test_tetriamond_degeneracy_one():
    emb = load_setup(fixture_path("tetriamond.json"))
    _, deg = surface_stabilizer(emb)
    assert emb.n_qubits == 9 and deg == 1


def test_stabilizers_commute_for_all_enumerated_polyforms():
    for lattice, n_max in (("square", 4), ("triangular", 4)):
        for n in range(1, n_max + 1):
            for emb in polyform_enumerate(n, lattice):
                tab, _ = surface_stabilizer(emb)
                gens = tab.generators
                for i in range(len(gens)):
                    for j in range(i + 1, len(gens)):
                        assert gens[i].commutes_with(gens[j])


def _ring():
    """The 8-cell square ring around a hole: open, with one unspanned cycle."""
    from toricgs.polyforms import polyform_embedding

    return polyform_embedding([(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)], "square")


def test_homology_rank_on_open_setups():
    assert homology_rank(single_plaquette(4)) == 0
    assert homology_rank(load_setup(fixture_path("tetriamond.json"))) == 0
    assert homology_rank(_ring()) == 1


def test_homology_rank_decides_degeneracy_as_the_sector_tableau_does():
    # locality_pair raises on an open setup with h > 0 and builds no tableau;
    # sector_tableau learns the same from the rank of the rows it builds.
    from toricgs.graphs import GraphError
    from toricgs.reduction import derive_chain

    def chain(emb):
        try:
            return list(derive_chain(emb).systems.values())
        except GraphError:  # a single cell: its contraction would make a loop
            return [emb]

    setups = chain(_ring())
    for lattice, n_max in (("square", 6), ("triangular", 7)):
        for n in range(1, n_max + 1):
            for emb in polyform_enumerate(n, lattice):
                setups += chain(emb)
    for side in range(2, 6):
        torus = square_torus(side)
        setups.append(torus)
        for k in range(torus.n_qubits):
            try:
                setups.append(contract_embedding(torus, k))
            except (GraphError, EmbeddingError):  # parallel edges of the 2x2 torus
                pass
    degenerate = 0
    for emb in setups:
        h = homology_rank(emb)
        tab, deg = surface_stabilizer(emb)
        assert tab.rank == emb.n_qubits - h and deg == 1 << h
        errors = []
        for check in (sector_tableau, locality_pair):
            try:
                check(emb)
            except DegeneracyError as exc:
                errors.append(str(exc))
        assert len(errors) in (0, 2) and len(set(errors)) <= 1
        assert bool(errors) == (not emb.closed and h > 0)
        degenerate += bool(errors)
    assert (len(setups), sum(e.closed for e in setups), degenerate) == (1107, 104, 9)


# -- vicinity -----------------------------------------------------------------


def test_interior_qubit_has_eight_neighbours():
    rel = adjacency_relation(square_torus(3))
    for q in range(rel.n):
        assert rel.degree(q) == 8


def test_single_plaquette_relation_is_complete():
    rel = adjacency_relation(single_plaquette(4))
    assert len(rel.edges()) == 6  # K4


def test_one_point_connection_relates_only_through_shared_star():
    emb = one_point_double_plaquette()
    rel = adjacency_relation(emb)
    # edges 0..3 belong to the first square, 4..7 to the second; only the
    # edges meeting the shared vertex see across
    cross = [(u, v) for u, v in rel.edges() if (u < 4) != (v < 4)]
    shared_vertex_edges = {0, 3, 4, 7}
    assert cross and all(
        u in shared_vertex_edges and v in shared_vertex_edges for u, v in cross
    )


def test_adjacency_relation_is_irreflexive_and_symmetric():
    for emb in polyform_enumerate(3, "square") + [square_torus(2)]:
        rel = adjacency_relation(emb)
        for i, row in enumerate(rel.rows):
            assert not (row >> i) & 1
        for u, v in rel.edges():
            assert rel.has_edge(v, u)


# -- loop operators -----------------------------------------------------------


def test_loop_operator_algebra():
    for side in (2, 3):
        pairs = loop_operators(side)
        assert len(pairs) == 2
        z1, x1 = pairs[0].z_loop, pairs[0].x_loop
        z2, x2 = pairs[1].z_loop, pairs[1].x_loop
        assert not z1.commutes_with(x1) and not z2.commutes_with(x2)
        assert z1.commutes_with(x2) and z2.commutes_with(x1)
        assert x1.commutes_with(x2) and z1.commutes_with(z2)
        stab, _ = surface_stabilizer(square_torus(side))
        for loop in (z1, x1, z2, x2):
            assert all(loop.commutes_with(gen) for gen in stab.generators)


def test_face_boundary_z_cycle_is_in_stabilizer_span():
    emb = square_torus(2)
    tab, _ = surface_stabilizer(emb)
    rows = gf2.BitMatrix([g.symplectic_row() for g in tab.generators], 2 * emb.n_qubits)
    face_mask = 0
    for k in emb.faces[0]:
        face_mask ^= 1 << k
    boundary_row = face_mask << emb.n_qubits  # z block
    assert gf2.rank(gf2.BitMatrix(rows.rows + [boundary_row], rows.ncols)) == gf2.rank(rows)


def test_loop_z_commutes_with_every_star():
    emb = square_torus(3)
    tab, _ = surface_stabilizer(emb)
    for pair in loop_operators(3):
        for gen in tab.generators:
            assert pair.z_loop.commutes_with(gen)


# -- the transform ------------------------------------------------------------


def test_plaquette_transform_star_and_oracle():
    emb = single_plaquette(4)
    res = transform_to_graph_state(emb)
    assert res.verified
    assert sorted(res.graph.degree(v) for v in res.graph.labels) == [1, 1, 1, 3]
    tab, _ = surface_stabilizer(emb)
    state = graph_state_vector(res.graph)
    for q in sorted(res.hadamard_qubits):
        state = apply_hadamard(state, q)
    assert is_stabilized(state, tab)


def test_one_point_double_plaquette_transform():
    res = transform_to_graph_state(one_point_double_plaquette())
    assert res.verified and not res.graph.is_connected()


def test_torus_transform_all_trees_verified():
    emb = square_torus(2)
    for tree in enumerate_spanning_trees(emb.graph)[:10]:
        assert transform_to_graph_state(emb, tree).verified


def test_torus_sector_state_oracle():
    # The rank-8 sector tableau pins one state; the rotated graph state
    # reproduces it on the dense oracle.
    emb = square_torus(2)
    tree = enumerate_spanning_trees(emb.graph)[0]
    res = transform_to_graph_state(emb, tree)
    assert res.verified
    state = graph_state_vector(res.graph)
    for q in sorted(res.hadamard_qubits):
        state = apply_hadamard(state, q)
    assert is_stabilized(state, sector_tableau(emb, tree))


def test_transform_exhaustive_small_polyforms():
    for lattice in ("square", "triangular"):
        for n in range(1, 5):
            for emb in polyform_enumerate(n, lattice):
                for tree in enumerate_spanning_trees(emb.graph):
                    assert transform_to_graph_state(emb, tree).verified


def test_transform_span_check_sees_every_sign():
    # Conjugating the rotated tableau by a Pauli flips the sign of each
    # generator it anticommutes with; the span check must then fail.
    import numpy as np

    from toricgs.pauli import PauliString, conjugate_by_pauli, is_graph_stabilizer

    rng = np.random.default_rng(45)
    verdicts = {True: 0, False: 0}
    for lattice in ("square", "triangular"):
        for n in range(1, 5):
            for emb in polyform_enumerate(n, lattice):
                trees = enumerate_spanning_trees(emb.graph)
                for t in rng.choice(len(trees), size=min(3, len(trees)), replace=False):
                    res = transform_to_graph_state(emb, trees[t])
                    for _ in range(4):
                        # a group element, which commutes with every generator,
                        # times a random Pauli half of the time
                        p = PauliString(emb.n_qubits, 0, 0)
                        for g in res.rotated_tableau.generators:
                            if rng.integers(0, 2):
                                p = p * g
                        if rng.integers(0, 2):
                            p = p * PauliString(emb.n_qubits, *(int(v) for v in rng.integers(0, 1 << emb.n_qubits, size=2)))
                        commutes = all(p.commutes_with(g) for g in res.rotated_tableau.generators)
                        assert is_graph_stabilizer(conjugate_by_pauli(res.rotated_tableau, p), res.graph) == commutes
                        verdicts[commutes] += 1
    assert min(verdicts.values()) > 20


def test_sector_and_rotated_tableaux_pass_the_public_check():
    # sector_tableau builds the one checked tableau of a transform; the
    # rotated tableau is derived without a check, so both are re-checked here.
    shapes = [square_torus(2), square_torus(3)]
    for lattice in ("square", "triangular"):
        for n in range(1, 5):
            shapes += polyform_enumerate(n, lattice)
    for emb in shapes:
        for tree in enumerate_spanning_trees(emb.graph)[:4]:
            for tab in (sector_tableau(emb, tree), transform_to_graph_state(emb, tree).rotated_tableau):
                assert Tableau(emb.n_qubits, tab.generators).rank == emb.n_qubits


def test_degenerate_open_instance_raises():
    # ring of 8 cells around a hole: the hole's cycle is not spanned by faces
    emb = _ring()
    validate_embedding(emb)
    _, deg = surface_stabilizer(emb)
    assert deg == 2
    tree = first_spanning_tree(emb.graph)
    for _ in range(2):  # the stored stabilizer must not turn a second call into a success
        with pytest.raises(DegeneracyError, match="residual degeneracy 2\\^1") as sector_error:
            sector_tableau(emb, tree)
        with pytest.raises(DegeneracyError) as pair_error:
            locality_pair(emb)
        assert str(sector_error.value) == str(pair_error.value)
        with pytest.raises(DegeneracyError):
            transform_to_graph_state(emb)


def _one_selection(emb, tree):
    """The sector generators as one greedy GF(2) selection over stars, faces and
    fundamental-cycle Z-loops, built by the public ``Tableau``, as ``(x, z, phase)``."""
    n = emb.n_qubits
    loops = []
    if emb.closed:
        loops = [tree.path_mask(*emb.graph.endpoints(k)) | 1 << k for k in tree.deleted_edges]
    rows = star_masks(emb) + [msk << n for msk in face_masks(emb) + loops]
    keep = gf2._echelon(rows)[1]
    tab = Tableau(n, [PauliString(n, rows[i] & ((1 << n) - 1), rows[i] >> n) for i in keep])
    return [(g.x, g.z, g.phase) for g in tab.generators]


def test_sector_tableau_is_one_selection_over_stars_faces_and_loops():
    # The stabilizer's pivot map is built once per embedding and only the
    # loops are reduced per tree; the kept rows and their order must be those
    # of one selection over everything.
    rng = random.Random(16)
    torus2, torus3 = (load_setup(fixture_path(f"{name}.json")) for name in ("torus_2x2", "torus_3x3"))
    cases = [(torus2, t) for t in enumerate_spanning_trees(torus2.graph)]
    cases += [(torus3, t) for t in rng.sample(enumerate_spanning_trees(torus3.graph), 200)]
    for lattice in ("square", "triangular"):
        for n in range(1, 5):
            for emb in polyform_enumerate(n, lattice):
                trees = enumerate_spanning_trees(emb.graph)
                cases += [(emb, t) for t in rng.sample(trees, min(4, len(trees)))]
    assert len(cases) > 250
    for emb, tree in cases:
        got = [(g.x, g.z, g.phase) for g in sector_tableau(emb, tree).generators]
        assert got == _one_selection(emb, tree)
        assert len(got) == emb.n_qubits
    for emb in (torus2, torus3):  # the loops left the stored pivot map as built
        assert emb._stabilizer[1:] == setup_from_dict(emb.to_dict())._stabilizer[1:]


def test_open_sector_tableau_is_the_stabilizer_for_every_tree():
    emb = polyform_enumerate(3, "triangular")[0]
    stab, deg = surface_stabilizer(emb)
    assert deg == 1 and surface_stabilizer(emb)[0] is stab
    for tree in enumerate_spanning_trees(emb.graph):
        assert sector_tableau(emb, tree) is stab
        assert transform_to_graph_state(emb, tree).verified


def test_built_stabilizer_leaves_equality_and_hash_alone():
    for emb in (square_torus(2), load_setup(fixture_path("tetriamond.json"))):
        surface_stabilizer(emb)
        sector_tableau(emb)
        assert "_stabilizer" in emb.__dict__
        again = setup_from_dict(emb.to_dict())
        assert "_stabilizer" not in again.__dict__
        assert again == emb and hash(again) == hash(emb)
        assert again.digest() == emb.digest()


def test_embedding_fields_are_immutable_and_valued_as_a_tuple():
    # The kept stabilizer cannot go stale because no field can be assigned or deleted.
    emb = load_setup(fixture_path("tetriamond.json"))
    surface_stabilizer(emb)
    for name in ("graph", "faces", "closed", "qubit_ids", "_stabilizer"):
        with pytest.raises(AttributeError):
            setattr(emb, name, getattr(emb, name))
        with pytest.raises(AttributeError):
            delattr(emb, name)
    again = load_setup(fixture_path("tetriamond.json"))
    assert again == emb and again is not emb
    assert hash(again) == hash(emb) == hash((emb.graph, emb.faces, emb.closed, emb.qubit_ids))
    assert emb != (emb.graph, emb.faces, emb.closed, emb.qubit_ids)


# -- qubit ids, contraction, files --------------------------------------------


def test_contract_embedding_keeps_qubit_ids():
    emb = load_setup(fixture_path("pentomino_plus.json"))
    reduced = contract_embedding(emb, 0)
    assert reduced.qubit_ids == tuple(range(1, 16))
    validate_embedding(reduced)
    assert phi_graph(reduced).labels == tuple(range(1, 16))


def test_setup_round_trip(tmp_path):
    emb = square_torus(2)
    path = tmp_path / "torus.json"
    dump_setup(emb, path)
    again = load_setup(path)
    assert again.to_dict() == emb.to_dict()
    assert again.digest() == emb.digest()


def test_malformed_setup_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]]}))
    with pytest.raises(EmbeddingError):
        load_setup(path)


def test_bundled_fixtures_all_validate():
    for path in FIXTURES.rglob("*.json"):
        if path.name.endswith(".graph.json") or path.name == "pentomino_chain.json":
            continue
        validate_embedding(load_setup(path))


def test_sphere_embedding_genus_zero():
    sphere = Embedding(
        Multigraph([0, 1], [(0, 1), (0, 1)]), ((0, 1), (0, 1)), closed=True
    )
    validate_embedding(sphere)
    _, deg = surface_stabilizer(sphere)
    assert deg == 1  # 4^0
    assert transform_to_graph_state(sphere).verified


def test_three_by_three_torus_transform():
    emb = square_torus(3)
    res = transform_to_graph_state(emb)
    assert res.verified
    assert len(res.hadamard_qubits) == 18 - 9 + 1  # non-tree edges
