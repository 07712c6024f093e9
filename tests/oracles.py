"""Independent reference computations used to pin expected test values.

Everything here deliberately takes a different route than the package:
h-vectors come from literal polynomial expansion, grid faces from direct
interval enumeration, and poset properties from brute-force scans.  The
arithmetic the package once used to tell a subcube and a cube symmetry is
kept here as references for the position-mask map that replaced it.
"""

import random
from functools import cache, reduce
from itertools import combinations, product
from math import comb
from operator import and_, or_


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_pow(a, k):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return out


def h_simplicial_poly(f_entries, rank):
    """Coefficients of sum_i f_{i-1} t^i (1-t)^(rank-i); f_entries[0] = f_{-1}."""
    total = [0]
    for i, fi in enumerate(f_entries):
        term = poly_mul([fi], poly_mul(poly_pow([0, 1], i), poly_pow([1, -1], rank - i)))
        total = poly_add(total, term)
    total += [0] * (rank + 1 - len(total))
    return tuple(total[: rank + 1])


def h_short_cubical_poly(f_entries, d):
    """Coefficients of sum_i f_i (2t)^i (1-t)^(d-i); f_entries[0] = f_0."""
    total = [0]
    for i, fi in enumerate(f_entries):
        term = poly_mul([fi], poly_mul(poly_pow([0, 2], i), poly_pow([1, -1], d - i)))
        total = poly_add(total, term)
    total += [0] * (d + 1 - len(total))
    return tuple(total[: d + 1])


def grid_vertex(coords, shape):
    vid = 0
    for c, s in zip(coords, shape):
        vid = vid * s + c
    return vid


def insert_bit(m, position, bit):
    """``m`` with ``bit`` inserted at ``position`` and the higher bits moved
    up one: the cube corner that fixes coordinate ``position`` to ``bit``
    and reads the other coordinates off ``m``."""
    low = m & ((1 << position) - 1)
    high = m >> position
    return low | (bit << position) | (high << (position + 1))


def pile_face_sets(sides):
    """Every face of the grid of unit cubes, as a frozenset of vertex ids.

    A face picks, per axis, either a single coordinate or a unit interval.
    """
    shape = tuple(a + 1 for a in sides)
    choices = []
    for a in sides:
        per_axis = [(c,) for c in range(a + 1)] + [(c, c + 1) for c in range(a)]
        choices.append(per_axis)
    faces = set()
    for combo in product(*choices):
        verts = frozenset(
            grid_vertex(coords, shape) for coords in product(*combo)
        )
        faces.add(verts)
    return faces


def torus_face_sets(sides):
    """Every face of the wrap-around grid, as a frozenset of vertex ids."""
    choices = []
    for a in sides:
        per_axis = [(c,) for c in range(a)] + [(c, (c + 1) % a) for c in range(a)]
        choices.append(per_axis)
    faces = set()
    for combo in product(*choices):
        verts = frozenset(grid_vertex(coords, sides) for coords in product(*combo))
        faces.add(verts)
    return faces


def pile_f_counts(sides):
    """Closed product formula: choose which axes are intervals."""
    n = len(sides)
    counts = [0] * (n + 1)
    for k in range(n + 1):
        total = 0
        for interval_axes in combinations(range(n), k):
            prod = 1
            for t, a in enumerate(sides):
                prod *= a if t in interval_axes else a + 1
            total += prod
        counts[k] = total
    return tuple(counts)


def brute_pairwise_closed(faces):
    """Every pairwise intersection of faces is empty or again a face."""
    keys = list(faces)
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            inter = a & b
            if inter and inter not in faces:
                return False
    return True


def brute_least_upper_bounds(faces, u, v):
    """All inclusion-minimal faces containing both u and v."""
    containing = [k for k in faces if u in k and v in k]
    return [k for k in containing if not any(o < k for o in containing)]


@cache
def cube_subfaces(k):
    """(dim, corner positions) of every subface of a k-cube in the order the
    builder walks them: dimension descending, then free coordinates in
    combination order, then the fixed bits counted up.  Cached; read only."""
    out = []
    for j in range(k, -1, -1):
        for free in combinations(range(k), j):
            fixed = [q for q in range(k) if q not in free]
            for bits in product((0, 1), repeat=len(fixed)):
                base = sum(1 << q for q, bit in zip(fixed, reversed(bits)) if bit)
                positions = [
                    base + sum(1 << q for t, q in enumerate(free) if m >> t & 1)
                    for m in range(1 << j)
                ]
                out.append((j, positions))
    return out


@cache
def simplex_subfaces(k):
    """(dim, corner positions) of every nonempty face of a k-simplex in the
    order the builder walks them: size descending, then combination order."""
    return [(r - 1, c) for r in range(k + 1, 0, -1) for c in combinations(range(k + 1), r)]


def reference_numbering(cells, kind):
    """A plain re-closure of ``(dim, corners)`` cells taken in order, with
    no checks: a cell whose vertex set is already a face adds nothing, and
    every other cell numbers each subface it meets first.

    Returns ``(faces, ids, cells)``: ``(key, dim, corners)`` per face number,
    the numbers of every kept cell's subface entries one after another, and
    the kept cells as ``(dim, corners)`` by dimension, then sorted vertices.
    """
    subfaces = cube_subfaces if kind == "cubical" else simplex_subfaces
    number, faces, ids, kept = {}, [], [], []
    for dim, corners in cells:
        if frozenset(corners) in number:
            continue
        kept.append((dim, tuple(corners)))
        for j, pos in subfaces(dim):
            sub = tuple(corners[i] for i in pos)
            key = frozenset(sub)
            if key not in number:
                number[key] = len(faces)
                faces.append((key, j, sub))
            ids.append(number[key])
    return faces, ids, sorted(kept, key=lambda c: (c[0], sorted(c[1])))


def rows_largest_first(C):
    """Whether the rows of a built table ``C``, read in build order, run by
    descending dimension and then by ascending number of the row's own face."""
    order = [(-C._dims[C._ids[r]], C._ids[r]) for r in C._maximal]
    return order == sorted(order)


def reference_free_ridges(cells, kind):
    """The vertex sets of the ridges lying in exactly one of the ``(dim,
    corners)`` cells of a pure complex, in the order a sweep over the cells
    and then their facets in subface order first meets them."""
    subfaces = cube_subfaces if kind == "cubical" else simplex_subfaces
    degree = {}
    for dim, corners in cells:
        for j, pos in subfaces(dim):
            if j == dim - 1:
                key = frozenset(corners[i] for i in pos)
                degree[key] = degree.get(key, 0) + 1
    return [key for key, n in degree.items() if n == 1]


def reference_facet_keys(corners, dim):
    """The vertex sets of a cube's facets; two corner orderings of one vertex
    set make the same cube exactly when these agree (dim >= 2)."""
    return {frozenset(corners[i] for i in pos) for j, pos in cube_subfaces(dim) if j == dim - 1}


def reference_fills_subcube(positions):
    """Whether distinct corner positions fill a subcube of a cube, by count:
    exactly when there are 2 to the number of bits in which they vary."""
    return len(positions) == 1 << (reduce(or_, positions) ^ reduce(and_, positions)).bit_count()


def reference_cube_symmetry(q):
    """Whether the corner positions ``q`` are a symmetry of the cube, by step
    arithmetic: the steps ``q[1 << t] ^ q[0]`` are distinct single bits and
    every ``q[b]`` is ``q[0]`` moved by the steps of the bits set in ``b``."""
    dim = len(q).bit_length() - 1
    steps = [q[1 << t] ^ q[0] for t in range(dim)]
    moved = [q[0]]
    for step in steps:
        moved += [x ^ step for x in moved]
    return moved == list(q) and sorted(steps) == [1 << t for t in range(dim)]


def reference_cubical_closure(cells):
    """The validated closure of CubicalCell values by scanning all cell pairs.

    Returns ``(faces, cells)`` with faces as ``{key: (dim, corners)}`` and the
    inclusion-maximal cells as ``(dim, corners)`` in the builder's order, or
    raises the error the builder must raise, with its message.
    """
    from cubicomb import InconsistentSharedFace, IntersectionNotAFace

    def fmt(key):
        return "{%s}" % ", ".join(str(v) for v in sorted(key))

    distinct, duplicates, seen = [], [], set()
    for cell in cells:
        (duplicates if cell.key in seen else distinct).append(cell)
        seen.add(cell.key)
    faces, keysets = {}, []

    def derive(cell):
        keys = set()
        for j, pos in cube_subfaces(cell.dim):
            sub = tuple(cell.corners[i] for i in pos)
            key = frozenset(sub)
            keys.add(key)
            if key not in faces:
                faces[key] = (j, sub)
            elif j >= 2 and reference_facet_keys(faces[key][1], j) != reference_facet_keys(sub, j):
                raise InconsistentSharedFace(
                    f"cells induce different cube structures on the shared vertex set {fmt(key)}"
                )
        return keys

    keysets = [derive(cell) for cell in distinct]
    for cell in duplicates:
        derive(cell)
    maximal = [True] * len(distinct)
    for a, ca in enumerate(distinct):
        for b in range(a + 1, len(distinct)):
            cb = distinct[b]
            inter = ca.key & cb.key
            if not inter:
                continue
            if inter not in faces:
                raise IntersectionNotAFace(
                    f"cells {fmt(ca.key)} and {fmt(cb.key)} intersect in {fmt(inter)}, which is not a face"
                )
            if inter not in keysets[a] or inter not in keysets[b]:
                raise InconsistentSharedFace(
                    f"intersection {fmt(inter)} of cells {fmt(ca.key)} and {fmt(cb.key)} is not a common subface"
                )
            if inter == ca.key:
                maximal[a] = False
            elif inter == cb.key:
                maximal[b] = False
    kept = [faces[c.key] for c, keep in zip(distinct, maximal) if keep]
    return faces, sorted(kept, key=lambda f: (f[0], sorted(f[1])))


def reference_cubical_link(faces, key):
    """The faces of the link of the face ``key``, by brute force over the
    face dict: the link's vertices are the cofacets of the face (the faces
    with twice its vertices that contain it) in sorted-vertex order, and
    every face G containing it maps to the cofacets G contains."""
    cofacets = sorted((G for G in faces if key < G and len(G) == 2 * len(key)), key=sorted)
    return {frozenset(i for i, H in enumerate(cofacets) if H <= G) for G in faces if key < G}


def reference_link_euler(faces):
    """The reduced Euler characteristic of the link of every face, by brute
    force over the face dict: each proper coface G of F is a link face of
    dimension dim G - dim F - 1, and the empty link face counts -1."""
    return {
        key: sum((-1) ** (G.dim - F.dim - 1) for G in faces.values() if key < G.key) - 1
        for key, F in faces.items()
    }


def reference_ridge_degrees(faces, cells):
    """How many maximal cells contain each face one dimension below the top,
    by brute force over the face dict and the cells."""
    d = max((c.dim for c in cells), default=-1)
    return {
        key: sum(1 for c in cells if key < c.key) for key, F in faces.items() if F.dim == d - 1
    }


def reference_boundary_faces(faces, cells):
    """The faces of the boundary as ``{key: (dim, corners)}``: every face
    lying in a ridge that exactly one maximal cell contains."""
    free = [key for key, n in reference_ridge_degrees(faces, cells).items() if n == 1]
    return {
        key: (F.dim, F.corners) for key, F in faces.items() if any(key <= r for r in free)
    }


def reference_stacked_ball_facets(d, n, gluing="linear", seed=None):
    """The facets of a stacked d-ball of n facets, by counting how many
    facets hold each ridge: linear gluing attaches each new simplex over
    the ridge of the last one that misses its smallest vertex, tree gluing
    draws a random facet and a random vertex of it until the opposite ridge
    lies in one facet only.  Each new simplex brings the next vertex id."""
    facets = [frozenset(range(d + 1))]
    ridge_use = {}

    def count(facet):
        for v in facet:
            r = facet - {v}
            ridge_use[r] = ridge_use.get(r, 0) + 1

    count(facets[0])
    rng = random.Random(seed)
    next_vertex = d + 1
    for _ in range(n - 1):
        if gluing == "linear":
            parent = facets[-1]
            ridge = parent - {min(parent)}
        else:
            while True:
                parent = rng.choice(facets)
                drop = rng.choice(sorted(parent))
                ridge = parent - {drop}
                if ridge_use[ridge] == 1:
                    break
        new_facet = ridge | {next_vertex}
        next_vertex += 1
        facets.append(new_facet)
        count(new_facet)
    return facets


def reference_macaulay_terms(value, position):
    """The greedy binomial decomposition by linear search: at each position t
    take the largest n with C(n, t) <= what is left."""
    terms, remaining, t = [], value, position
    while remaining > 0:
        n = t
        while comb(n + 1, t) <= remaining:
            n += 1
        terms.append((n, t))
        remaining -= comb(n, t)
        t -= 1
    return tuple(terms)
