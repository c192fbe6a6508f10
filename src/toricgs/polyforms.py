"""Free polyomino and polyiamond enumeration and conversion to instances.

Shapes are edge-connected sets of unit cells.  Square cells are (x, y) pairs.
Triangular cells are (x, y, o) triples in skewed lattice coordinates, where
o = 0 is the upward triangle with corners (x, y), (x+1, y), (x, y+1) and
o = 1 the downward one with corners (x+1, y), (x, y+1), (x+1, y+1).

"Free" means counted up to translation, rotation and reflection: the
canonical form of a shape is the lexicographic minimum over its symmetry
images after translating to the origin.  Vertex-connected-only arrangements
never occur because growth proceeds across shared edges.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .graphs import Multigraph
from .surface import Embedding

Cell = tuple
Point = tuple[int, int]

SQUARE = "square"
TRIANGULAR = "triangular"


def _square_neighbors(cell: Cell) -> list[Cell]:
    x, y = cell
    return [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]


def _triangle_neighbors(cell: Cell) -> list[Cell]:
    x, y, o = cell
    if o == 0:
        return [(x, y, 1), (x - 1, y, 1), (x, y - 1, 1)]
    return [(x, y, 0), (x + 1, y, 0), (x, y + 1, 0)]


def _square_corners(cell: Cell) -> list[Point]:
    x, y = cell
    return [(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)]


def _triangle_corners(cell: Cell) -> list[Point]:
    x, y, o = cell
    if o == 0:
        return [(x, y), (x + 1, y), (x, y + 1)]
    return [(x + 1, y), (x, y + 1), (x + 1, y + 1)]


def _rot90(p: Point) -> Point:
    return (-p[1], p[0])


def _reflect(p: Point) -> Point:
    # Swapping the coordinates mirrors both lattices: the square one in the
    # line x = y, the triangular one (skewed coordinates) in the e1 + e2 axis.
    return (p[1], p[0])


def _rot60(p: Point) -> Point:
    # 60-degree rotation in skewed coordinates: e1 -> e2, e2 -> e2 - e1.
    return (-p[1], p[0] + p[1])


def _cell_from_triangle_points(pts: frozenset[Point]) -> Cell:
    for x, y in pts:
        if (x + 1, y) in pts and (x, y + 1) in pts:
            return (x, y, 0)
    mx = max(p[0] for p in pts)
    my = max(p[1] for p in pts)
    expect = {(mx, my), (mx - 1, my), (mx, my - 1)}
    if pts == frozenset(expect):
        return (mx - 1, my - 1, 1)
    raise ValueError(f"not a lattice triangle: {sorted(pts)}")


def _square_transforms() -> list[Callable[[Cell], Cell]]:
    out = []
    for reflect in (False, True):
        for quarter_turns in range(4):
            def f(cell: Cell, reflect=reflect, quarter_turns=quarter_turns) -> Cell:
                p = cell
                if reflect:
                    p = _reflect(p)
                for _ in range(quarter_turns):
                    p = _rot90(p)
                return p
            out.append(f)
    return out


def _triangle_transforms() -> list[Callable[[Cell], Cell]]:
    out = []
    for reflect in (False, True):
        for sixth_turns in range(6):
            def f(cell: Cell, reflect=reflect, sixth_turns=sixth_turns) -> Cell:
                pts = []
                for p in _triangle_corners(cell):
                    if reflect:
                        p = _reflect(p)
                    for _ in range(sixth_turns):
                        p = _rot60(p)
                    pts.append(p)
                return _cell_from_triangle_points(frozenset(pts))
            out.append(f)
    return out


_SQUARE_TRANSFORMS = _square_transforms()
_TRIANGLE_TRANSFORMS = _triangle_transforms()


def _normalize(cells: Iterable[Cell]) -> tuple[Cell, ...]:
    cells = list(cells)
    minx = min(c[0] for c in cells)
    miny = min(c[1] for c in cells)
    return tuple(sorted((c[0] - minx, c[1] - miny) + tuple(c[2:]) for c in cells))


def canonical_form(cells: Iterable[Cell], lattice: str) -> tuple[Cell, ...]:
    """Smallest normalized image of the shape under the lattice symmetries."""
    transforms = _SQUARE_TRANSFORMS if lattice == SQUARE else _TRIANGLE_TRANSFORMS
    cells = list(cells)
    return min(_normalize([f(c) for c in cells]) for f in transforms)


def enumerate_polyforms(n: int, lattice: str) -> list[tuple[Cell, ...]]:
    """All free edge-connected shapes of ``n`` cells, canonical and sorted."""
    if lattice not in (SQUARE, TRIANGULAR):
        raise ValueError(f"unknown lattice {lattice!r}")
    if n < 1:
        raise ValueError("need at least one cell")
    neighbors = _square_neighbors if lattice == SQUARE else _triangle_neighbors
    seeds = [(0, 0)] if lattice == SQUARE else [(0, 0, 0)]
    shapes = {canonical_form([s], lattice) for s in seeds}
    for _ in range(n - 1):
        grown = set()
        for shape in shapes:
            cells = set(shape)
            for cell in shape:
                for nb in neighbors(cell):
                    if nb not in cells:
                        grown.add(canonical_form(cells | {nb}, lattice))
        shapes = grown
    return sorted(shapes)


def polyform_embedding(cells: Sequence[Cell], lattice: str) -> Embedding:
    """Open planar instance of a shape: cells become faces, sides become qubits.

    Vertices are the lattice corners, edges are the unit boundary segments in
    sorted order (so edge indices are reproducible), and each face walk lists
    its cell's sides in cyclic orientation.
    """
    corners_of = _square_corners if lattice == SQUARE else _triangle_corners
    cells = sorted(cells)
    segments: set[tuple[Point, Point]] = set()
    walks: list[list[tuple[Point, Point]]] = []
    for cell in cells:
        pts = corners_of(cell)
        if lattice == SQUARE:
            (a, b, c, d) = pts  # (x,y), (x+1,y), (x,y+1), (x+1,y+1)
            loop = [a, b, d, c]
        else:
            loop = pts if cell[2] == 0 else [pts[0], pts[2], pts[1]]
        walk = []
        for i, p in enumerate(loop):
            q = loop[(i + 1) % len(loop)]
            seg = (p, q) if p <= q else (q, p)
            segments.add(seg)
            walk.append(seg)
        walks.append(walk)
    edge_list = sorted(segments)
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
