"""Free polyomino / polyiamond enumeration and instance conversion."""

import hashlib
import json

import pytest

from toricgs.polyforms import (
    canonical_form,
    enumerate_polyforms,
    plus_pentomino_cells,
    polyform_embedding,
    polyform_enumerate,
    triangle_tetriamond_cells,
)
from toricgs.surface import surface_stabilizer, validate_embedding


def test_free_polyomino_counts():
    assert [len(enumerate_polyforms(n, "square")) for n in range(1, 6)] == [1, 1, 2, 5, 12]


def test_free_polyiamond_counts():
    assert [len(enumerate_polyforms(n, "triangular")) for n in range(1, 7)] == [
        1,
        1,
        1,
        3,
        4,
        12,
    ]


def test_triangle_tetriamond_is_enumerated():
    shapes = enumerate_polyforms(4, "triangular")
    assert canonical_form(triangle_tetriamond_cells(), "triangular") in shapes


def test_plus_pentomino_is_enumerated():
    shapes = enumerate_polyforms(5, "square")
    assert canonical_form(plus_pentomino_cells(), "square") in shapes


def test_canonical_form_invariant_under_transforms():
    cells = [(0, 0), (1, 0), (1, 1)]
    rotated = [(0, 0), (0, 1), (-1, 1)]
    mirrored = [(0, 0), (-1, 0), (-1, 1)]
    forms = {canonical_form(c, "square") for c in (cells, rotated, mirrored)}
    assert len(forms) == 1
    tri = list(triangle_tetriamond_cells())
    shifted = [(x + 3, y - 2, o) for x, y, o in tri]
    assert canonical_form(tri, "triangular") == canonical_form(shifted, "triangular")


def test_embeddings_validate_and_count_qubits():
    pent = polyform_embedding(plus_pentomino_cells(), "square")
    validate_embedding(pent)
    assert pent.n_qubits == 16 and len(pent.faces) == 5
    tet = polyform_embedding(triangle_tetriamond_cells(), "triangular")
    validate_embedding(tet)
    assert tet.n_qubits == 9 and len(tet.faces) == 4


def test_enumerated_embeddings_are_nondegenerate():
    for lattice in ("square", "triangular"):
        for n in (1, 2, 3, 4):
            for emb in polyform_enumerate(n, lattice):
                validate_embedding(emb)
                _, deg = surface_stabilizer(emb)
                assert deg == 1


def test_monomino_embedding_is_single_plaquette():
    (emb,) = polyform_enumerate(1, "square")
    assert emb.n_qubits == 4 and len(emb.faces) == 1


def test_unknown_lattice_rejected():
    # Every public function rejects a name outside the table; none falls
    # through to another lattice's geometry.
    for name in ("hexagonal", "Square", "triangle", ""):
        for call in (
            lambda: enumerate_polyforms(2, name),
            lambda: canonical_form([(0, 0, 0)], name),
            lambda: polyform_embedding([(0, 0, 0)], name),
        ):
            with pytest.raises(ValueError, match=f"unknown lattice {name!r}"):
                call()
    with pytest.raises(ValueError):
        enumerate_polyforms(0, "square")


def test_enumerations_and_embeddings_are_pinned():
    # Every shape of 1-7 squares and 1-8 triangles, and its embedding; the
    # CLI reports pin only shapes of up to 5 cells.
    h = hashlib.sha256()
    for lattice, most in (("square", 7), ("triangular", 8)):
        for n in range(1, most + 1):
            shapes = enumerate_polyforms(n, lattice)
            h.update(json.dumps(shapes).encode())
            for cells in shapes:
                h.update(json.dumps(polyform_embedding(cells, lattice).to_dict(), sort_keys=True).encode())
    assert h.hexdigest() == "0be4fe9e127833ad54d1b4e9563a692a10a6c16f351074ee040e2c1b5d10f107"


def test_shared_edges_appear_once():
    emb = polyform_embedding([(0, 0), (1, 0)], "square")
    assert emb.n_qubits == 7  # 8 sides minus 1 shared
    counts = [0] * emb.n_qubits
    for walk in emb.faces:
        for k in walk:
            counts[k] += 1
    assert sorted(counts) == [1, 1, 1, 1, 1, 1, 2]
