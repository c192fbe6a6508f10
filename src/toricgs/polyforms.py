"""Free polyomino and polyiamond enumeration and conversion to instances.

Shapes are edge-connected sets of unit cells.  Square cells are (x, y) pairs.
Triangular cells are (x, y, o) triples in skewed lattice coordinates, where
o = 0 is the upward triangle with corners (x, y), (x+1, y), (x, y+1) and
o = 1 the downward one with corners (x+1, y), (x, y+1), (x+1, y+1).

"Free" means counted up to translation, rotation and reflection: the
canonical form of a shape is the lexicographic minimum over its symmetry
images after translating to the origin.  Vertex-connected-only arrangements
never occur because growth proceeds across shared edges.

All geometry comes from one table, :data:`LATTICES`, keyed by lattice name.
A symmetry, a linear map of points, moves a cell by its anchor points, which
are read back as a cell: a triangle's three corners, or a square's corner
(x, y) alone, whose image is off by one translation for all cells alike.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .graphs import Multigraph
from .surface import Embedding

Cell = tuple
Point = tuple[int, int]
Matrix = tuple[int, int, int, int]  # (a, b, c, d) maps (x, y) to (a x + b y, c x + d y)


class Lattice(NamedTuple):
    """One lattice's geometry.  A cell is (x, y) then its kind: nothing for a square, o for a triangle."""

    seed: Cell
    neighbors: dict[tuple, tuple[Cell, ...]]  # per kind: the cells across the sides, as (dx, dy) then their kind
    corners: dict[tuple, tuple[Point, ...]]  # per kind: the corner offsets, in cyclic order
    anchors: int  # a symmetry moves a cell's first this many corners
    cell_at: Callable[[list[Point]], Cell]  # the cell whose anchors these points are
    symmetries: tuple[Matrix, ...]

    def cell_neighbors(self, cell: Cell) -> list[Cell]:
        return [(cell[0] + nb[0], cell[1] + nb[1]) + nb[2:] for nb in self.neighbors[tuple(cell[2:])]]

    def cell_corners(self, cell: Cell) -> list[Point]:
        return [(cell[0] + dx, cell[1] + dy) for dx, dy in self.corners[tuple(cell[2:])]]


def _symmetries(rotation: Matrix, order: int) -> tuple[Matrix, ...]:
    """Every power of ``rotation``, alone and after the reflection (x, y) -> (y, x)."""
    a, b, c, d = rotation
    out = []
    for m in ((1, 0, 0, 1), (0, 1, 1, 0)):
        for _ in range(order):
            out.append(m)
            m = (a * m[0] + b * m[2], a * m[1] + b * m[3], c * m[0] + d * m[2], c * m[1] + d * m[3])
    return tuple(out)


def _triangle_at(corners: list[Point]) -> Cell:
    # Either way (x, y) is the least coordinate pair, and the six coordinates
    # sum to 3(x + y) + 2 upward and to 3(x + y) + 4 downward.
    x = min(p[0] for p in corners)
    y = min(p[1] for p in corners)
    return (x, y, (sum(map(sum, corners)) - 3 * (x + y)) // 2 - 1)


LATTICES: dict[str, Lattice] = {
    "square": Lattice(
        seed=(0, 0),
        neighbors={(): ((1, 0), (-1, 0), (0, 1), (0, -1))},
        corners={(): ((0, 0), (1, 0), (1, 1), (0, 1))},
        anchors=1,
        cell_at=lambda points: points[0],
        symmetries=_symmetries((0, -1, 1, 0), 4),  # quarter turn
    ),
    "triangular": Lattice(
        seed=(0, 0, 0),
        neighbors={(0,): ((0, 0, 1), (-1, 0, 1), (0, -1, 1)), (1,): ((0, 0, 0), (1, 0, 0), (0, 1, 0))},
        corners={(0,): ((0, 0), (1, 0), (0, 1)), (1,): ((1, 0), (1, 1), (0, 1))},
        anchors=3,
        cell_at=_triangle_at,
        # Sixth turn in skewed coordinates; the reflection mirrors in the e1 + e2 axis.
        symmetries=_symmetries((0, -1, 1, 1), 6),
    ),
}


def _lattice(name: str) -> Lattice:
    try:
        return LATTICES[name]
    except KeyError:
        raise ValueError(f"unknown lattice {name!r}; expected one of {list(LATTICES)}") from None


def _normalize(cells: list[Cell]) -> tuple[Cell, ...]:
    minx = min(c[0] for c in cells)
    miny = min(c[1] for c in cells)
    return tuple(sorted((c[0] - minx, c[1] - miny) + tuple(c[2:]) for c in cells))


def canonical_form(cells: Iterable[Cell], lattice: str) -> tuple[Cell, ...]:
    """Smallest normalized image of the shape under the lattice symmetries."""
    lat = _lattice(lattice)
    anchors = [lat.cell_corners(cell)[: lat.anchors] for cell in cells]
    return min(
        _normalize([lat.cell_at([(a * x + b * y, c * x + d * y) for x, y in pts]) for pts in anchors])
        for a, b, c, d in lat.symmetries
    )


def enumerate_polyforms(n: int, lattice: str) -> list[tuple[Cell, ...]]:
    """All free edge-connected shapes of ``n`` cells, canonical and sorted."""
    lat = _lattice(lattice)
    if n < 1:
        raise ValueError("need at least one cell")
    shapes = {canonical_form([lat.seed], lattice)}
    for _ in range(n - 1):
        grown = set()
        for shape in shapes:
            cells = set(shape)
            border = {nb for cell in shape for nb in lat.cell_neighbors(cell)} - cells
            grown.update(canonical_form(cells | {nb}, lattice) for nb in border)
        shapes = grown
    return sorted(shapes)


def polyform_embedding(cells: Sequence[Cell], lattice: str) -> Embedding:
    """Open planar instance of a shape: cells become faces, sides become qubits.

    Vertices are the lattice corners, edges are the unit boundary segments in
    sorted order (so edge indices are reproducible), and each face walk lists
    its cell's sides in cyclic orientation.
    """
    corners = _lattice(lattice).cell_corners
    walks = []
    for cell in sorted(cells):
        loop = corners(cell)
        walks.append([(p, q) if p <= q else (q, p) for p, q in zip(loop, loop[1:] + loop[:1])])
    edge_list = sorted({seg for walk in walks for seg in walk})
    edge_index = {seg: k for k, seg in enumerate(edge_list)}
    vertices = sorted({p for seg in edge_list for p in seg})
    graph = Multigraph(vertices, edge_list)
    faces = tuple(tuple(edge_index[seg] for seg in walk) for walk in walks)
    return Embedding(graph, faces, closed=False)


def polyform_enumerate(n: int, lattice: str) -> list[Embedding]:
    """All free ``n``-cell shapes on the lattice as open instances."""
    return [polyform_embedding(shape, lattice) for shape in enumerate_polyforms(n, lattice)]


def plus_pentomino_cells() -> tuple[Cell, ...]:
    """The five squares of the plus-shaped pentomino (16 boundary segments)."""
    return ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2))


def triangle_tetriamond_cells() -> tuple[Cell, ...]:
    """Four triangles forming one larger triangle (9 boundary segments)."""
    return ((0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0))
