"""Generators for the standard complex families, with topology metadata.

Vertex labels are deterministic (row-major over grid coordinates, bit order
for cubes), so generated complexes serialize to byte-identical documents.
Every generator goes through the validating builder except boundary
subcomplexes, which inherit validity from their parent complex, and the
grids, whose cells meet in common faces by construction: they skip only the
pair scan, and the closure still checks every cube structure.
"""

from __future__ import annotations

import random
from itertools import product
from math import prod

from ._record import _Record
from .complexes import (
    Complex,
    CubicalCell,
    CubicalComplex,
    ValidationFailed,
    _subset_sums,
    build_cubical,
    build_simplicial,
)
from .vectors import reduced_euler

__all__ = [
    "GeneratedComplex",
    "as_generated",
    "TOPOLOGY_TAGS",
    "check_topology_metadata",
    "cube_boundary",
    "solid_cube",
    "pile_of_cubes",
    "pile_boundary",
    "cubical_torus",
    "stacked_cubical",
    "simplex",
    "simplex_boundary",
    "cross_polytope_boundary",
    "stacked_simplicial_ball",
    "stacked_sphere",
    "prism",
]

# The topology tags, each mapped to the tag of its product with a segment.
_PRISM_TOPOLOGY = {
    "sphere": "manifold-with-boundary",
    "ball": "ball",
    "torus": "manifold-with-boundary",
    "closed-manifold": "manifold-with-boundary",
    "manifold-with-boundary": "none",
    "none": "none",
}

TOPOLOGY_TAGS = tuple(_PRISM_TOPOLOGY)


class GeneratedComplex(_Record):
    """A complex plus the topology its construction guarantees."""

    complex: Complex
    topology: str
    provenance: str
    polytopal: bool = False


def as_generated(x) -> GeneratedComplex:
    """``x`` itself, or a bare complex with no topology metadata."""
    return x if isinstance(x, GeneratedComplex) else GeneratedComplex(x, "none", "")


def check_topology_metadata(gc: GeneratedComplex) -> None:
    """Cheap consistency checks between a complex and its topology tag.

    Closed tags need a pseudomanifold without free ridges; balls need
    reduced Euler characteristic zero and, in positive dimension, a
    nonempty boundary; the manifold-with-boundary tag needs a pure complex
    whose ridges lie in at most two facets.
    """
    C = gc.complex
    tag = gc.topology
    if tag not in TOPOLOGY_TAGS:
        raise ValidationFailed(f"unknown topology tag {tag!r}")
    if tag in ("sphere", "torus", "closed-manifold"):
        if not (C.pure and C.pseudomanifold):
            raise ValidationFailed(
                f"topology {tag!r} needs a closed pseudomanifold, got {C!r}"
            )
    elif tag == "ball":
        if reduced_euler(C) != 0:
            raise ValidationFailed(
                f"topology 'ball' needs reduced Euler characteristic 0, got {reduced_euler(C)}"
            )
        if not C.pure:
            raise ValidationFailed("topology 'ball' needs a pure complex")
        if C.dim >= 1 and C.boundary.dim < 0:
            raise ValidationFailed("topology 'ball' needs a nonempty boundary")
    elif tag == "manifold-with-boundary":
        if not C.pure:
            raise ValidationFailed("topology 'manifold-with-boundary' needs a pure complex")
        degrees = set(C._ridges[0].values())
        if not degrees <= {1, 2}:
            raise ValidationFailed(
                f"topology 'manifold-with-boundary' allows ridge degrees 1 and 2, got {sorted(degrees)}"
            )
        if C.boundary.dim < 0:
            raise ValidationFailed("topology 'manifold-with-boundary' needs a nonempty boundary")


def _sphere(ball: GeneratedComplex, provenance: str) -> GeneratedComplex:
    """The boundary of ``ball``, tagged a sphere and polytopal exactly when
    ``ball`` is; it inherits its validity from the validated ball."""
    return GeneratedComplex(ball.complex.boundary, "sphere", provenance, ball.polytopal)


def cube_boundary(n: int) -> GeneratedComplex:
    """Boundary of the n-cube: the 2n facets obtained by fixing one coordinate."""
    if n < 1:
        raise ValueError("cube_boundary needs n >= 1")
    return _sphere(solid_cube(n), f"cube_boundary({n})")


def solid_cube(n: int) -> GeneratedComplex:
    """The full n-cube as a single cell."""
    if n < 0:
        raise ValueError("solid_cube needs n >= 0")
    K = build_cubical([CubicalCell(n, tuple(range(1 << n)))])
    return GeneratedComplex(K, "ball", f"solid_cube({n})", polytopal=True)


def _grid_cells(sides: tuple[int, ...], wrap: bool) -> list[CubicalCell]:
    """The unit cubes of a box with sides[t] cubes along axis t; with
    ``wrap`` set, coordinate t runs modulo sides[t], closing up a torus.

    Vertex ids are row-major over the grid points; a cube's corners are its
    first corner plus the subset sums of one step per axis, the stride of
    the axis, or the stride back to coordinate 0 where the torus wraps."""
    n = len(sides)
    shape = sides if wrap else tuple(a + 1 for a in sides)
    strides = [prod(shape[t + 1 :]) for t in range(n)]
    cells = []
    for base in product(*[range(a) for a in sides]):
        first = sum(b * s for b, s in zip(base, strides))
        steps = [
            s * (1 - a) if wrap and b == a - 1 else s for b, a, s in zip(base, sides, strides)
        ]
        cells.append(CubicalCell(n, tuple(first + m for m in _subset_sums(steps))))
    return cells


def pile_of_cubes(*sides: int) -> GeneratedComplex:
    """Box-shaped grid of unit cubes, sides[t] cubes along axis t."""
    if not sides or any(a < 1 for a in sides):
        raise ValueError("pile_of_cubes needs positive side lengths")
    K = CubicalComplex.from_cells(_grid_cells(sides, wrap=False), validate=False)
    label = ", ".join(str(a) for a in sides)
    return GeneratedComplex(K, "ball", f"pile_of_cubes({label})", polytopal=True)


def pile_boundary(*sides: int) -> GeneratedComplex:
    """Boundary sphere of a pile of cubes."""
    label = ", ".join(str(a) for a in sides)
    return _sphere(pile_of_cubes(*sides), f"pile_boundary({label})")


def cubical_torus(*sides: int) -> GeneratedComplex:
    """Grid on the d-torus: coordinates wrap modulo sides[t] (each >= 3)."""
    if not sides or any(a < 3 for a in sides):
        raise ValueError("cubical_torus needs every side length >= 3")
    K = CubicalComplex.from_cells(_grid_cells(sides, wrap=True), validate=False)
    label = ", ".join(str(a) for a in sides)
    return GeneratedComplex(K, "torus", f"cubical_torus({label})")


def stacked_cubical(n_cells: int, rank: int) -> tuple[GeneratedComplex, GeneratedComplex]:
    """A row of n_cells rank-dimensional cubes and its boundary sphere."""
    if n_cells < 1 or rank < 1:
        raise ValueError("stacked_cubical needs n_cells >= 1 and rank >= 1")
    ball = pile_of_cubes(n_cells, *(1,) * (rank - 1))
    label = f"stacked_cubical({n_cells}, {rank})"
    named = GeneratedComplex(ball.complex, ball.topology, label + " ball", ball.polytopal)
    return named, _sphere(ball, label + " boundary")


def simplex(d: int) -> GeneratedComplex:
    """The full d-simplex on vertices 0..d."""
    if d < 0:
        raise ValueError("simplex needs d >= 0")
    S = build_simplicial([range(d + 1)])
    return GeneratedComplex(S, "ball", f"simplex({d})", polytopal=True)


def simplex_boundary(d: int) -> GeneratedComplex:
    """Boundary of the d-simplex, a (d-1)-sphere."""
    if d < 1:
        raise ValueError("simplex_boundary needs d >= 1")
    return _sphere(simplex(d), f"simplex_boundary({d})")


def cross_polytope_boundary(d: int) -> GeneratedComplex:
    """Boundary of the d-dimensional cross polytope; vertices 2t and 2t+1
    are the antipodal pair on axis t."""
    if d < 1:
        raise ValueError("cross_polytope_boundary needs d >= 1")
    facets = [
        [2 * t + s for t, s in enumerate(signs)] for signs in product((0, 1), repeat=d)
    ]
    S = build_simplicial(facets)
    return GeneratedComplex(S, "sphere", f"cross_polytope_boundary({d})", polytopal=True)


def stacked_simplicial_ball(
    d: int, n_facets: int, gluing: str = "linear", seed: int | None = None
) -> GeneratedComplex:
    """Stacked d-ball: n_facets d-simplices glued facet-to-facet, each new
    simplex attached over a free ridge and bringing one new vertex.

    Linear gluing attaches to the previously added simplex; tree gluing
    picks a random free ridge of a random simplex (seeded): a ridge is free
    when no gluing has used it."""
    if d < 1 or n_facets < 1:
        raise ValueError("stacked_simplicial_ball needs d >= 1 and n_facets >= 1")
    if gluing not in ("linear", "tree"):
        raise ValueError("gluing must be 'linear' or 'tree'")
    facets = [frozenset(range(d + 1))]
    # The ridges gluings used.  A new facet's other ridges all hold its new
    # vertex, so a ridge lies in two facets exactly when it is in here.
    glued: set[frozenset] = set()
    rng = random.Random(seed)
    next_vertex = d + 1
    for _ in range(n_facets - 1):
        if gluing == "linear":
            parent = facets[-1]
            ridge = parent - {min(parent)}
        else:
            while True:
                parent = rng.choice(facets)
                drop = rng.choice(sorted(parent))
                ridge = parent - {drop}
                if ridge not in glued:
                    break
        glued.add(ridge)
        new_facet = ridge | {next_vertex}
        next_vertex += 1
        facets.append(new_facet)
    S = build_simplicial(facets)
    tail = f", gluing={gluing!r}" if gluing != "linear" else ""
    tail += f", seed={seed}" if seed is not None else ""
    return GeneratedComplex(S, "ball", f"stacked_simplicial_ball({d}, {n_facets}{tail})")


def stacked_sphere(d: int, n_vertices: int) -> GeneratedComplex:
    """Stacked d-sphere on n_vertices vertices: boundary of a linearly
    stacked (d+1)-ball with n_vertices - d - 1 facets."""
    if d < 1:
        raise ValueError("stacked_sphere needs d >= 1")
    if n_vertices < d + 2:
        raise ValueError("a stacked d-sphere needs at least d + 2 vertices")
    ball = stacked_simplicial_ball(d + 1, n_vertices - d - 1)
    return _sphere(ball, f"stacked_sphere({d}, {n_vertices})")


def prism(base: GeneratedComplex) -> GeneratedComplex:
    """Product with a segment: every cell gains one free coordinate.

    Layer 0 keeps the original vertex ids, layer 1 shifts them by one more
    than the largest used id."""
    K = base.complex
    if K.kind != "cubical":
        raise ValueError("prism is defined for cubical complexes")
    if K.dim < 0:
        raise ValueError("prism needs a nonempty complex")
    offset = max(K.vertices) + 1
    cells = [
        CubicalCell(cell.dim + 1, cell.corners + tuple(v + offset for v in cell.corners))
        for cell in K.cells
    ]
    P = build_cubical(cells)
    return GeneratedComplex(
        P,
        _PRISM_TOPOLOGY[base.topology],
        f"prism({base.provenance})",
        polytopal=base.polytopal and base.topology == "ball",
    )
