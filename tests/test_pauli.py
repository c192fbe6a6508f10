"""Pauli strings, tableaux, the graph-state span check and the dense oracle."""

import numpy as np
import pytest

from toricgs import gf2
from toricgs.graphs import SimpleGraph
from toricgs.pauli import (
    PauliString,
    StateVector,
    Tableau,
    apply_hadamard,
    apply_pauli,
    conjugate_by_pauli,
    conjugate_hadamard,
    graph_stabilizer,
    graph_state_vector,
    is_graph_stabilizer,
    is_stabilized,
)
from tests.test_graphs import random_simple_graph


def labels(t: Tableau) -> list[str]:
    return [g.label() for g in t.generators]


# -- Pauli strings ------------------------------------------------------------


def test_label_round_trip_and_sign():
    p = PauliString.from_label("XZIY", sign=-1)
    assert p.label() == "-XZIY"
    assert p.sign == -1
    assert PauliString.from_label("Y").label() == "+Y"


def test_multiplication_signs():
    x = PauliString.from_label("X")
    z = PauliString.from_label("Z")
    y = PauliString.from_label("Y")
    assert (x * z).phase != (z * x).phase  # XZ = -ZX
    assert (x * x).label() == "+I"
    assert (y * y).label() == "+I"
    # X Z = -i Y in the i^phase X^x Z^z convention
    assert (x * z).x == 1 and (x * z).z == 1 and (x * z).phase == 0
    with pytest.raises(ValueError):
        (x * z).sign  # odd power of i: not Hermitian


def test_commutation():
    assert not PauliString.from_label("X").commutes_with(PauliString.from_label("Z"))
    assert PauliString.from_label("XX").commutes_with(PauliString.from_label("ZZ"))
    assert PauliString.from_label("XI").commutes_with(PauliString.from_label("IZ"))


def test_hadamard_swaps_x_and_z():
    assert PauliString.from_label("X").hadamard(0b1).label() == "+Z"
    assert PauliString.from_label("XZ").hadamard(0b11).label() == "+ZX"
    assert PauliString.from_label("Y").hadamard(0b1).label() == "-Y"
    p = PauliString.from_label("XZY", sign=-1)
    assert p.hadamard(0b111).hadamard(0b111) == p


# -- graph stabilizers --------------------------------------------------------


def test_graph_stabilizer_single_vertex():
    t = graph_stabilizer(SimpleGraph.empty([7]))
    assert labels(t) == ["+X"]


def test_graph_stabilizer_k2():
    t = graph_stabilizer(SimpleGraph.from_edges([1, 2], [(1, 2)]))
    assert labels(t) == ["+XZ", "+ZX"]


def test_graph_stabilizer_star():
    g = SimpleGraph.from_edges(["c", 1, 2], [("c", 1), ("c", 2)])
    t = graph_stabilizer(g)
    assert labels(t) == ["+XZZ", "+ZXI", "+ZIX"]


def test_conjugate_hadamard_examples():
    t = Tableau(1, [PauliString.from_label("X")])
    assert labels(conjugate_hadamard(t, [0])) == ["+Z"]
    assert labels(conjugate_hadamard(conjugate_hadamard(t, [0]), [0])) == ["+X"]
    t2 = Tableau(2, [PauliString.from_label("XZ")])
    assert labels(conjugate_hadamard(t2, [0, 1])) == ["+ZX"]
    with pytest.raises(ValueError):
        conjugate_hadamard(t2, [5])


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau(1, [PauliString.from_label("X"), PauliString.from_label("Z")])
    with pytest.raises(ValueError):
        Tableau(2, [PauliString.from_label("XX"), PauliString.from_label("XX")])
    with pytest.raises(ValueError, match="qubit count"):
        Tableau(2, [PauliString.from_label("X")])
    with pytest.raises(ValueError, match="Hermitian"):
        Tableau(1, [PauliString(1, 1, 1, 0)])  # X Z = -iY


def test_derived_tableaux_pass_the_public_check():
    # graph_stabilizer, both conjugations and the strings of sector_tableau
    # skip the constructors' checks; their tableaux and strings must pass
    # them anyway.
    from toricgs.polyforms import polyform_enumerate
    from toricgs.surface import sector_tableau, square_torus
    from tests.test_graphs import random_spanning_tree

    rng = np.random.default_rng(41)
    derived = []
    for _ in range(300):
        n = int(rng.integers(1, 9))
        t = graph_stabilizer(random_simple_graph(rng, n))
        rotated = conjugate_hadamard(t, [q for q in range(n) if rng.integers(0, 2)])
        flips = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        derived += [t, rotated, conjugate_by_pauli(rotated, flips)]
    setups = [square_torus(2), square_torus(3)]
    for lattice in ("square", "triangular"):
        for n in range(1, 5):
            setups += polyform_enumerate(n, lattice)
    for emb in setups:
        tree = random_spanning_tree(rng, emb.graph)
        t = sector_tableau(emb, tree)
        derived += [t, conjugate_hadamard(t, tree.deleted_edges)]
    for t in derived:
        assert Tableau(t.n_qubits, t.generators).rank == t.n_qubits
        for g in t.generators:
            assert g == PauliString(g.n, g.x, g.z, g.phase) and 0 <= g.phase < 4


def _random_graph_rows(rng, n):
    upper = np.triu(rng.integers(0, 2, size=(n, n)), 1)
    adjacency = upper | upper.T
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in adjacency]


def test_tableau_commutation_check_matches_pairwise_commutes_with():
    # Rows of up to 140 bits: the one-AND check must agree with commutes_with
    # on every pair and name the first anticommuting pair in (i, j) order.
    rng = np.random.default_rng(43)
    verdicts = {"accepted": 0, "anticommuting": 0, "dependent": 0}
    for _ in range(150):
        n = int(rng.integers(1, 71))
        t = graph_stabilizer(SimpleGraph(list(range(n)), _random_graph_rows(rng, n)))
        t = conjugate_hadamard(t, [q for q in range(n) if rng.integers(0, 2)])
        gens = [g for g in t.generators if rng.integers(0, 4)]
        for _ in range(int(rng.integers(0, 3))):  # random strings anticommute with some
            x, z = (int.from_bytes(rng.bytes(9), "little") & ((1 << n) - 1) for _ in range(2))
            gens.insert(int(rng.integers(0, len(gens) + 1)), PauliString.from_sign(n, x, z, int(rng.choice([1, -1]))))
        if gens and rng.integers(0, 4) == 0:  # a repeated generator
            gens.append(gens[int(rng.integers(0, len(gens)))])
        first = next(
            ((g, h) for i, g in enumerate(gens) for h in gens[i + 1 :] if not g.commutes_with(h)),
            None,
        )
        if first is not None:
            with pytest.raises(ValueError) as err:
                Tableau(n, gens)
            assert str(err.value) == f"generators do not commute: {first[0].label()} vs {first[1].label()}"
            verdicts["anticommuting"] += 1
        elif gf2.rank(gf2.BitMatrix([g.symplectic_row() for g in gens], 2 * n)) < len(gens):
            with pytest.raises(ValueError, match="not independent"):
                Tableau(n, gens)
            verdicts["dependent"] += 1
        else:
            assert Tableau(n, gens).generators == tuple(gens)
            verdicts["accepted"] += 1
    assert min(verdicts.values()) >= 10


def test_conjugate_by_pauli_checks_qubit_count():
    t = Tableau(1, [PauliString.from_label("X")])
    assert labels(conjugate_by_pauli(t, PauliString.from_label("Z"))) == ["-X"]
    with pytest.raises(ValueError, match="2-qubit Pauli cannot conjugate a 1-qubit tableau"):
        conjugate_by_pauli(t, PauliString.from_label("ZZ"))


# -- span comparison with a graph state's group --------------------------------
# ``is_graph_stabilizer(t, g)``: does ``t`` span the signed group of g's graph state?

EDGE = SimpleGraph.from_edges([0, 1], [(0, 1)])  # K_0 = +XZ, K_1 = +ZX


def test_span_equal_reordering():
    gens = [PauliString.from_label("XZ"), PauliString.from_label("ZX")]
    assert is_graph_stabilizer(Tableau(2, gens), EDGE)
    assert is_graph_stabilizer(Tableau(2, gens[::-1]), EDGE)


def test_span_equal_product_generator():
    # XZ * ZX = +YY, the group's only element with X part 11
    t = Tableau(2, [PauliString.from_label("YY"), PauliString.from_label("ZX")])
    assert is_graph_stabilizer(t, EDGE)
    edgeless = SimpleGraph.empty([0, 1])
    t = Tableau(2, [PauliString.from_label("XX"), PauliString.from_label("IX")])
    assert is_graph_stabilizer(t, edgeless)
    assert not is_graph_stabilizer(t, EDGE)


def test_span_equal_sign_mismatch():
    single = SimpleGraph.empty([0])
    assert is_graph_stabilizer(Tableau(1, [PauliString.from_label("X")]), single)
    assert not is_graph_stabilizer(Tableau(1, [PauliString.from_label("X", sign=-1)]), single)
    t = Tableau(2, [PauliString.from_label("XZ"), PauliString.from_label("ZX", sign=-1)])
    assert not is_graph_stabilizer(t, EDGE)


def test_span_equal_detects_sign_in_products():
    # Same bit rows as the graph group's generators, but their product has the wrong sign.
    t = Tableau(2, [PauliString.from_label("YY", sign=-1), PauliString.from_label("ZX")])
    assert not is_graph_stabilizer(t, EDGE)


def test_graph_stabilizer_check_needs_full_rank_and_equal_qubit_counts():
    assert not is_graph_stabilizer(Tableau(2, [PauliString.from_label("XZ")]), EDGE)
    assert not is_graph_stabilizer(Tableau(2, []), EDGE)
    with pytest.raises(ValueError, match="qubit counts differ"):
        is_graph_stabilizer(Tableau(1, [PauliString.from_label("X")]), EDGE)


def test_conjugate_hadamard_preserves_span_verdicts():
    rng = np.random.default_rng(31)
    verdicts = {True: 0, False: 0}
    for _ in range(60):
        g1 = random_simple_graph(rng, 4)
        g2 = random_simple_graph(rng, 4)
        t1, t2 = graph_stabilizer(g1), graph_stabilizer(g2)
        mask_qubits = [q for q in range(4) if rng.integers(0, 2)]
        before = _signed_group(t1) == _signed_group(t2)
        after = _signed_group(conjugate_hadamard(t1, mask_qubits)) == _signed_group(
            conjugate_hadamard(t2, mask_qubits)
        )
        assert before == after
        verdicts[before] += 1
    assert min(verdicts.values()) > 0


def _signed_group(t: Tableau) -> set:
    """Every product of a subset of the generators, as (x, z, phase)."""
    members = {PauliString(t.n_qubits, 0, 0)}
    for g in t.generators:
        members |= {m * g for m in members}
    return {(m.x, m.z, m.phase) for m in members}


def _random_signed_tableau(rng, n: int) -> Tableau:
    t = graph_stabilizer(random_simple_graph(rng, n))
    t = conjugate_hadamard(t, [q for q in range(n) if rng.integers(0, 2)])
    flips = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
    return conjugate_by_pauli(t, flips)


def test_span_equal_matches_brute_force_groups():
    rng = np.random.default_rng(35)
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        n = int(rng.integers(1, 6))
        g = random_simple_graph(rng, n)
        mode = int(rng.integers(0, 4))
        if mode == 2:  # another tableau, usually of another group of the same size
            gens = list(_random_signed_tableau(rng, n).generators)
        else:  # a random basis change of the graph state's group
            gens = list(graph_stabilizer(g).generators)
            for _ in range(3 * n):
                i, j = (int(v) for v in rng.integers(0, n, size=2))
                if i != j:
                    gens[i] = gens[i] * gens[j]
            rng.shuffle(gens)
        if mode == 1:  # one sign flip
            k = int(rng.integers(0, n))
            gens[k] = PauliString(n, gens[k].x, gens[k].z, gens[k].phase + 2)
        if mode == 3:  # a proper subgroup
            gens = gens[: int(rng.integers(0, n))]
        t = Tableau(n, gens)
        same = _signed_group(t) == _signed_group(graph_stabilizer(g))
        assert is_graph_stabilizer(t, g) == same
        verdicts[same] += 1
    assert min(verdicts.values()) > 100


def test_conjugate_by_pauli_flips_anticommuting_signs():
    t = Tableau(1, [PauliString.from_label("Z")])
    flipped = conjugate_by_pauli(t, PauliString.from_label("X"))
    assert labels(flipped) == ["-Z"]
    same = conjugate_by_pauli(t, PauliString.from_label("Z"))
    assert labels(same) == ["+Z"]


# -- dense oracle -------------------------------------------------------------


def test_plus_state_amplitudes():
    v = graph_state_vector(SimpleGraph.empty([0]))
    assert np.allclose(v.amplitudes, [1 / np.sqrt(2)] * 2)


def test_k2_graph_state_amplitudes():
    v = graph_state_vector(SimpleGraph.from_edges([0, 1], [(0, 1)]))
    assert np.allclose(v.amplitudes, np.array([1, 1, 1, -1]) / 2)


def test_random_graph_states_are_stabilized():
    rng = np.random.default_rng(32)
    for _ in range(40):
        g = random_simple_graph(rng, int(rng.integers(1, 9)))
        v = graph_state_vector(g)
        assert is_stabilized(v, graph_stabilizer(g))


def test_is_stabilized_examples():
    plus = graph_state_vector(SimpleGraph.empty([0]))
    x = Tableau(1, [PauliString.from_label("X")])
    assert is_stabilized(plus, x)
    zero = StateVector(1, np.array([1.0, 0.0]))
    assert not is_stabilized(zero, x)


def test_apply_pauli_matches_dense_matrices():
    single = {
        "I": np.eye(2),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    rng = np.random.default_rng(33)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        word = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        sign = int(rng.choice([1, -1]))
        p = PauliString.from_label(word, sign)
        # qubit 0 is the least significant bit, i.e. the rightmost kron factor
        mat = np.array([[sign]])
        for ch in reversed(word):
            mat = np.kron(mat, single[ch])
        amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amp /= np.linalg.norm(amp)
        v = StateVector(n, amp)
        assert np.allclose(apply_pauli(p, v).amplitudes, mat @ amp)


def test_apply_hadamard_matches_dense_matrix():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    rng = np.random.default_rng(34)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(0, n))
        mat = np.array([[1.0]])
        for j in reversed(range(n)):
            mat = np.kron(mat, h if j == q else np.eye(2))
        amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amp /= np.linalg.norm(amp)
        v = StateVector(n, amp)
        assert np.allclose(apply_hadamard(v, q).amplitudes, mat @ amp)


def test_state_vector_cap():
    with pytest.raises(ValueError):
        StateVector(15, np.zeros(1 << 15))
    with pytest.raises(ValueError):
        graph_state_vector(SimpleGraph.empty(list(range(15))))


def test_state_vector_norm_check():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))
