"""Seeded input generation for the benchmark; imports nothing from cubicomb.

Every generator returns plain data: cubical cells as corner tuples in bit
order, simplicial facets as vertex lists, M-vector candidates as integer
lists.  Cubical vertex ids are drawn at random from a range twice the vertex
count, every cell's corners are reordered by a random symmetry of the cube
(an axis permutation followed by a reflection), and cell order is shuffled,
so the program never sees the row-major labels its own generators use.
"""

from __future__ import annotations

from itertools import product

from oracles import pseudopower_oracle


def cube_symmetry(rng, k: int) -> list[int]:
    """Corner index map of a random hyperoctahedral symmetry of the k-cube.

    Reading a bit-order corner tuple through the map gives another bit-order
    witness of the same cube.
    """
    perm = list(range(k))
    rng.shuffle(perm)
    flip = rng.randrange(1 << k)
    out = []
    for m in range(1 << k):
        old = 0
        for q in range(k):
            if m >> q & 1:
                old |= 1 << perm[q]
        out.append(old ^ flip)
    return out


def _grid_id(coords, shape) -> int:
    vid = 0
    for c, s in zip(coords, shape):
        vid = vid * s + c
    return vid


def _relabel(rng, cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Random sparse vertex ids, a random cube symmetry per cell, shuffled order."""
    used = sorted({v for cell in cells for v in cell})
    new_ids = rng.sample(range(2 * len(used)), len(used))
    label = dict(zip(used, new_ids))
    out = []
    for cell in cells:
        k = len(cell).bit_length() - 1
        sym = cube_symmetry(rng, k)
        out.append(tuple(label[cell[i]] for i in sym))
    rng.shuffle(out)
    return out


def _box_cells(sides, wrap: bool) -> list[tuple[int, ...]]:
    n = len(sides)
    shape = tuple(sides) if wrap else tuple(s + 1 for s in sides)
    cells = []
    for base in product(*[range(s) for s in sides]):
        corners = []
        for m in range(1 << n):
            coords = [base[q] + (m >> q & 1) for q in range(n)]
            if wrap:
                coords = [c % s for c, s in zip(coords, sides)]
            corners.append(_grid_id(coords, shape))
        cells.append(tuple(corners))
    return cells


def torus_cells(rng, sides) -> list[tuple[int, ...]]:
    """Top cells of the cubical torus with the given side lengths (each >= 3)."""
    return _relabel(rng, _box_cells(sides, wrap=True))


def pile_cells(rng, sides) -> list[tuple[int, ...]]:
    """Top cells of a box-shaped pile of unit cubes."""
    return _relabel(rng, _box_cells(sides, wrap=False))


def pile_boundary_cells(rng, sides) -> list[tuple[int, ...]]:
    """The (n-1)-cubes on the surface of a box-shaped pile of n-cubes."""
    n = len(sides)
    shape = tuple(s + 1 for s in sides)
    cells = []
    for axis in range(n):
        free = [q for q in range(n) if q != axis]
        for level in (0, sides[axis]):
            for base in product(*[range(sides[q]) for q in free]):
                corners = []
                for m in range(1 << (n - 1)):
                    coords = [0] * n
                    coords[axis] = level
                    for t, q in enumerate(free):
                        coords[q] = base[t] + (m >> t & 1)
                    corners.append(_grid_id(coords, shape))
                cells.append(tuple(corners))
    return _relabel(rng, cells)


def descending_shapes(axes: int, cell_cap: int) -> list[tuple[int, ...]]:
    """Non-increasing side tuples of the given length with at most cell_cap cubes."""
    out = []

    def grow(prefix, ceiling, cells):
        if len(prefix) == axes:
            out.append(tuple(prefix))
            return
        for side in range(1, ceiling + 1):
            if cells * side > cell_cap:
                break
            grow(prefix + [side], side, cells * side)

    grow([], cell_cap, 1)
    return out


def stacked_ball_facets(rng, d: int, n: int) -> list[list[int]]:
    """Tree-glued stacked d-ball with n facets, relabelled and shuffled.

    Each new simplex is glued over a free ridge chosen uniformly at random
    and brings one new vertex.
    """
    facets = [tuple(range(d + 1))]
    free: list[frozenset] = [frozenset(facets[0]) - {v} for v in facets[0]]
    slot = {r: i for i, r in enumerate(free)}

    def take(ridge):
        i = slot.pop(ridge)
        last = free.pop()
        if i < len(free):
            free[i] = last
            slot[last] = i

    for new in range(d + 1, d + n):
        ridge = free[rng.randrange(len(free))]
        take(ridge)
        facets.append(tuple(ridge) + (new,))
        for v in ridge:
            r = (ridge - {v}) | {new}
            slot[r] = len(free)
            free.append(r)
    ids = rng.sample(range(2 * (d + n)), d + n)
    out = []
    for facet in facets:
        vs = [ids[v] for v in facet]
        rng.shuffle(vs)
        out.append(vs)
    rng.shuffle(out)
    return out


def linear_stacked_sphere_facets(d: int, n_vertices: int) -> list[list[int]]:
    """Facets of the stacked d-sphere as the program's generator builds it:
    the free ridges of the linearly stacked (d+1)-ball on vertices 0..n-1."""
    top = [tuple(range(d + 2))]
    for new in range(d + 2, n_vertices):
        parent = top[-1]
        top.append(tuple(sorted(set(parent) - {min(parent)})) + (new,))
    uses: dict[frozenset, int] = {}
    for facet in top:
        for v in facet:
            r = frozenset(facet) - {v}
            uses[r] = uses.get(r, 0) + 1
    return [sorted(r) for r, k in uses.items() if k == 1]


def m_vector_candidates(rng, g1: int, length: int, violate: bool) -> tuple[list[int], int | None]:
    """A g-prefix (1, g1, g2, ...) and the index where the M-vector test must
    fail (None when it must pass).

    Entry i+1 is drawn between a half and all of the pseudopower bound of
    entry i; with ``violate`` one entry past index 1 exceeds its bound by one.
    """
    seq = [1, g1]
    bad_at = rng.randrange(2, length) if violate else None
    for i in range(2, length):
        bound = pseudopower_oracle(seq[-1], i - 1)
        if i == bad_at:
            seq.append(bound + 1)
            break
        seq.append(rng.randint(bound // 2, bound))
    return seq, bad_at


def stacked_sphere_h(d: int, n_vertices: int) -> tuple[int, ...]:
    """h-vector (1, n-d-1, ..., n-d-1, 1) of a stacked d-sphere on n vertices."""
    return (1,) + (n_vertices - d - 1,) * d + (1,)

