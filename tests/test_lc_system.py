"""The Van den Nest system: witnesses, the solution walk and the independent recheck."""

import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from toricgs.fixture_files import fixture_path
from toricgs.graphs import SimpleGraph, local_complement
from toricgs.lc_system import (
    DEFAULT_WITNESS_BUDGET,
    LcWitness,
    WitnessBudgetError,
    lc_equivalent,
    solutions,
    verify_witness,
)
from toricgs.surface import load_setup, phi_graph
from tests.test_graphs import random_simple_graph
from tests.test_lc import path, star


def test_identity_witness():
    g = path(4)
    w = lc_equivalent(g, g)
    assert w is not None
    assert w.diagonals()["a"] == [1, 1, 1, 1]
    assert w.diagonals()["b"] == [0, 0, 0, 0]
    assert w.diagonals()["c"] == [0, 0, 0, 0]
    assert w.diagonals()["d"] == [1, 1, 1, 1]
    assert verify_witness(g, g, w)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_star_equivalent_to_complete(n):
    w = lc_equivalent(star(n), SimpleGraph.complete(range(n)))
    assert w is not None
    assert verify_witness(star(n), SimpleGraph.complete(range(n)), w)


def test_witness_along_complementation_sequence():
    rng = np.random.default_rng(45)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        g = random_simple_graph(rng, n)
        h = g
        for _ in range(int(rng.integers(1, 5))):
            h = local_complement(h, int(rng.integers(0, n)))
        w = lc_equivalent(g, h)
        assert w is not None and verify_witness(g, h, w)


def matrix_identity_holds(g, h, w):
    """(Gamma B + D) Gamma' + Gamma A + C = 0 and a d + b c = 1 at every vertex, mod 2, in numpy."""
    n = g.n
    gamma, gamma_p = (np.array([[(r >> j) & 1 for j in range(n)] for r in x.rows]).reshape(n, n) for x in (g, h))
    a, b, c, d = (np.array([(word >> i) & 1 for i in range(n)]) for word in (w.a, w.b, w.c, w.d))
    residual = (gamma * b + np.diag(d)) @ gamma_p + gamma * a + np.diag(c)  # M * v scales column j by v_j
    return bool(not (residual % 2).any() and ((a * d + b * c) % 2).all())


def test_verify_witness_matches_a_numpy_evaluation():
    # the found witness and every single-bit flip of it, on pairs of 1 to 10 vertices
    rng = np.random.default_rng(62)
    verdicts = Counter()
    for _ in range(150):
        n = int(rng.integers(1, 11))
        g = random_simple_graph(rng, n)
        h = g
        for _ in range(int(rng.integers(0, 5))):
            h = local_complement(h, int(rng.integers(0, n)))
        w = lc_equivalent(g, h)
        assert verify_witness(g, h, w) and matrix_identity_holds(g, h, w)
        for name in "abcd":
            for i in range(n):
                flipped = w._replace(**{name: getattr(w, name) ^ 1 << i})
                expected = matrix_identity_holds(g, h, flipped)
                assert verify_witness(g, h, flipped) == expected
                verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]


def test_witnesses_are_pinned():
    # sha256 of the witness, or None, on 2,000 seeded pairs of 6 to 16
    # vertices, every second pair related by a walk of local complementations
    rng = np.random.default_rng(13)
    digest = hashlib.sha256()
    found = 0
    for k in range(2000):
        n = int(rng.integers(6, 17))
        iu, ju = np.triu_indices(n, 1)
        keep = rng.integers(0, 2, size=iu.size).astype(bool)
        g = SimpleGraph.from_edges(range(n), zip(iu[keep].tolist(), ju[keep].tolist()))
        if k % 2:
            h = g
            for v in rng.integers(0, n, size=int(rng.integers(1, 7))).tolist():
                h = local_complement(h, v)
        else:
            keep = rng.integers(0, 2, size=iu.size).astype(bool)
            h = SimpleGraph.from_edges(range(n), zip(iu[keep].tolist(), ju[keep].tolist()))
        w = lc_equivalent(g, h)
        found += w is not None
        digest.update(b"None;" if w is None else f"{w.n},{w.a},{w.b},{w.c},{w.d};".encode())
    assert found == 1000
    assert digest.hexdigest() == "061835f737f4f68202807ba5aef78ed65140d88e9a42782a16b6741dbb561188"


def test_mismatched_labels_rejected():
    g = SimpleGraph.empty([0, 1])
    h = SimpleGraph.empty([1, 0])
    with pytest.raises(Exception):
        lc_equivalent(g, h)


def test_witness_budget():
    g = SimpleGraph.empty(list(range(13)))
    h = SimpleGraph.empty(list(range(13)))
    h2 = SimpleGraph.from_edges(range(13), [(0, 1)])
    # identical graphs shortcut, no budget involved
    assert lc_equivalent(g, h) is not None
    with pytest.raises(WitnessBudgetError) as exc:
        lc_equivalent(g, h2)
    assert (exc.value.free_dim, exc.value.budget) == (37, DEFAULT_WITNESS_BUDGET)


# -- the solution walk --------------------------------------------------------

GL2 = [m for m in itertools.product((0, 1), repeat=4) if m[0] & m[3] ^ m[1] & m[2]]  # (a, b, c, d), ad + bc = 1


def brute_force_witnesses(g, h):
    """Every one of the 6^n per-vertex GL(2, F_2) choices that ``verify_witness`` accepts."""
    found = set()
    for choice in itertools.product(GL2, repeat=g.n):
        a, b, c, d = (sum(m[x] << i for i, m in enumerate(choice)) for x in range(4))
        w = LcWitness(g.n, a, b, c, d)
        if verify_witness(g, h, w):
            found.add(w)
    return found


def every_graph(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield SimpleGraph.from_edges(range(n), [e for k, e in enumerate(pairs) if mask >> k & 1])


def test_solutions_are_every_witness_once():
    # every ordered pair of labelled graphs on 1 to 3 vertices, and 30 seeded
    # pairs on 4 vertices, every second one related by local complementations
    pairs = [pair for n in (1, 2, 3) for pair in itertools.product(list(every_graph(n)), repeat=2)]
    rng = np.random.default_rng(27)
    for k in range(30):
        g = h = random_simple_graph(rng, 4)
        if k % 2:
            for v in rng.integers(0, 4, size=int(rng.integers(1, 5))).tolist():
                h = local_complement(h, v)
        else:
            h = random_simple_graph(rng, 4)
        pairs.append((g, h))
    assert len(pairs) == 69 + 30
    sizes = Counter()
    for g, h in pairs:
        walked = list(solutions(g, h))
        assert len(set(walked)) == len(walked)
        assert set(walked) == brute_force_witnesses(g, h)
        sizes[min(len(walked), 2)] += 1
    assert sizes[0] and sizes[2]  # some pairs have no witness, some more than one


@pytest.mark.parametrize(
    "name, count",
    [
        ("tetriamond.json", 8),
        ("reduced_8qubit.json", 16),
        ("torus_2x2.json", 16),
        ("pentomino_plus.json", 256),
        ("torus_3x3.json", 1),
    ],
)
def test_lc_automorphisms_of_the_fixtures_are_pinned(name, count):
    g = phi_graph(load_setup(fixture_path(name)))
    assert sum(1 for _ in solutions(g, g)) == count
