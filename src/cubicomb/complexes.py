"""Cubical and simplicial complexes stored as families of vertex sets.

A face is identified with its vertex set.  Cubical faces additionally carry
one witness corner ordering: position ``b`` of a k-dimensional face holds the
vertex sitting at cube coordinate ``b``, bits read least significant first.
Every face of a built complex arises as a coordinate restriction of an input
cell, and validation cross-checks that cells agree on shared faces and that
the family is closed under pairwise intersection.

Objects are immutable after construction and safe to share; derived data
(incidence maps, link Euler characteristics, ridge degrees, the boundary,
topological flags, h-vectors and vertex-link h- and g-vectors) is computed
lazily and cached on the object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from typing import Iterable, Union

from .vectors import (
    FVector,
    GVector,
    HVector,
    _neg_pow,
    f_vector,
    g_vector,
    h_long_cubical,
    h_short_cubical_from_f,
    h_simplicial,
    reduced_euler,
)

FaceKey = frozenset

__all__ = [
    "ComplexError",
    "DuplicateVertexInCell",
    "IntersectionNotAFace",
    "InconsistentSharedFace",
    "UnknownVertex",
    "UnknownFace",
    "NotPure",
    "ZeroDimensionalFace",
    "ValidationFailed",
    "CubicalCell",
    "Face",
    "CubicalComplex",
    "SimplicialComplex",
    "build_cubical",
    "build_simplicial",
    "link_of_vertex",
    "link_face",
    "boundary_complex",
    "least_upper_bound",
    "antipodal_pairs",
]


class ComplexError(ValueError):
    """Base class for structural errors in complexes."""


class DuplicateVertexInCell(ComplexError):
    """A cell lists the same vertex at two corners."""


class IntersectionNotAFace(ComplexError):
    """Two cells intersect in a vertex set that is not a face."""


class InconsistentSharedFace(ComplexError):
    """Two cells induce different cube structures on a shared vertex set."""


class UnknownVertex(ComplexError):
    pass


class UnknownFace(ComplexError):
    pass


class NotPure(ComplexError):
    """An operation that needs equal-dimensional facets met a mixed complex."""


class ZeroDimensionalFace(ComplexError):
    """Antipodal pairs are only defined for faces of dimension at least 1."""


class ValidationFailed(ComplexError):
    """A complex or its attached metadata failed a consistency check."""


@lru_cache(maxsize=None)
def _subface_tables(k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Corner index tables for every subface of a k-cube, the cube included.

    Each entry is ``(dim, indices)``: reading a witness corner tuple through
    ``indices`` yields the subface's witness corners in bit order.  A subface
    is obtained by freeing a subset of coordinate positions and fixing the
    rest to constant bits, so there are 3**k entries in total.
    """
    tables = []
    for j in range(k, -1, -1):
        for free in combinations(range(k), j):
            fixed = [q for q in range(k) if q not in free]
            for bits in range(1 << len(fixed)):
                base = 0
                for t, q in enumerate(fixed):
                    if bits >> t & 1:
                        base |= 1 << q
                indices = []
                for m in range(1 << j):
                    idx = base
                    for t, q in enumerate(free):
                        if m >> t & 1:
                            idx |= 1 << q
                    indices.append(idx)
                tables.append((j, tuple(indices)))
    return tuple(tables)


@lru_cache(maxsize=None)
def _facet_tables(k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The 2k codimension-one entries of :func:`_subface_tables`."""
    return tuple(t for t in _subface_tables(k) if t[0] == k - 1)


def _fmt_key(key: Iterable[int]) -> str:
    return "{%s}" % ", ".join(str(v) for v in sorted(key))


@dataclass(frozen=True)
class CubicalCell:
    """A k-dimensional cube given by its 2**k corner vertices in bit order."""

    dim: int
    corners: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "corners", tuple(self.corners))
        if self.dim < 0:
            raise ValueError("cell dimension must be nonnegative")
        if len(self.corners) != 1 << self.dim:
            raise ValueError(
                f"a {self.dim}-cell needs {1 << self.dim} corners, got {len(self.corners)}"
            )
        for v in self.corners:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"vertex ids must be nonnegative integers, got {v!r}")
        if len(set(self.corners)) != len(self.corners):
            raise DuplicateVertexInCell(f"cell corners {self.corners} repeat a vertex")

    @property
    def key(self) -> FaceKey:
        return frozenset(self.corners)


@dataclass(frozen=True)
class Face:
    """A face of a built complex: vertex set plus one witness corner ordering."""

    key: FaceKey
    dim: int
    corners: tuple[int, ...]


def _face_order(face: Face) -> tuple[int, tuple[int, ...]]:
    return (face.dim, tuple(sorted(face.key)))


def _facet_key_set(corners: tuple[int, ...], dim: int) -> frozenset:
    return frozenset(
        frozenset(corners[i] for i in idxs) for _, idxs in _facet_tables(dim)
    )


class _Derived:
    """Views both kinds derive the same way; the cached ones are computed on
    first use.

    A subclass supplies ``faces``, ``faces_by_dim``, ``pure``,
    ``_ridge_degrees`` (the sweep over a pure complex), ``_face_dim`` of a
    face key and ``_close_ridges``.
    """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, f={self.f_counts()})"

    def __contains__(self, key: Iterable[int]) -> bool:
        return frozenset(key) in self.faces

    def f_counts(self) -> tuple[int, ...]:
        """Number of i-dimensional faces for i = 0..dim (empty face excluded)."""
        return tuple(len(row) for row in self.faces_by_dim)

    def ridge_degrees(self) -> dict[FaceKey, int]:
        """How many facets contain each ridge.  Needs a pure complex."""
        if not self.pure:
            raise NotPure("ridge degrees are only defined for pure complexes")
        return self._ridge_degrees

    @cached_property
    def pseudomanifold(self) -> bool:
        """Pure with every ridge in exactly two facets (two vertices when dim 0)."""
        if not self.pure:
            raise NotPure("pseudomanifold test needs a pure complex")
        if self.dim < 0:
            return False
        if self.dim == 0:
            return len(self.vertices) == 2
        return all(n == 2 for n in self._ridge_degrees.values())

    @cached_property
    def semi_eulerian(self) -> bool:
        """Every nonempty face link has the Euler characteristic of a sphere."""
        if not self.pure:
            raise NotPure("the Euler condition is checked on pure complexes")
        d = self.dim
        return all(
            value == _neg_pow(d - self._face_dim(key) - 1)
            for key, value in self.link_euler.items()
        )

    @cached_property
    def eulerian(self) -> bool:
        """Semi-Eulerian with the global Euler characteristic of the d-sphere."""
        return self.semi_eulerian and reduced_euler(self) == _neg_pow(self.dim)

    @cached_property
    def boundary(self):
        """Closure of the ridges lying in exactly one facet; empty when closed."""
        if self.dim <= 0:
            if not self.pure:
                raise NotPure("boundary needs a pure complex")
            return self.empty()
        free = [key for key, n in self.ridge_degrees().items() if n == 1]
        return self._close_ridges(free) if free else self.empty()


class CubicalComplex(_Derived):
    """Subface closure of a set of cubical cells, keyed by vertex set."""

    kind = "cubical"

    def __init__(self, faces: dict, cells: tuple, dim: int):
        self.faces: dict[FaceKey, Face] = faces
        self.cells: tuple[Face, ...] = cells
        self.dim: int = dim

    @classmethod
    def empty(cls) -> "CubicalComplex":
        """The complex whose only face is the empty face (dimension -1)."""
        return cls({}, (), -1)

    @classmethod
    def from_cells(
        cls, cells: Iterable[CubicalCell], validate: bool = True
    ) -> "CubicalComplex":
        """Build the subface closure of ``cells``.

        With ``validate`` set, the closure axioms are checked: any two cells
        must induce the same cube structure on a shared vertex set, and every
        pairwise cell intersection must be a common subface.  Together with
        the transitivity of coordinate restriction this guarantees closure of
        the whole face family under intersection and that every lower
        interval is a cube face lattice.

        Trusted callers (subcomplexes of already validated complexes) may
        skip the quadratic pairwise check; ``cells`` must then be
        inclusion-maximal and mutually consistent.
        """
        cell_list: list[CubicalCell] = []
        first_index: dict[FaceKey, int] = {}
        duplicates: list[CubicalCell] = []
        for cell in cells:
            if not isinstance(cell, CubicalCell):
                raise TypeError("from_cells expects CubicalCell values")
            if cell.key in first_index:
                duplicates.append(cell)
            else:
                first_index[cell.key] = len(cell_list)
                cell_list.append(cell)
        if not cell_list:
            raise ValueError(
                "at least one cell is required; use CubicalComplex.empty() for the empty complex"
            )

        faces: dict[FaceKey, Face] = {}
        keysets: list[set] = []

        def derive(cell: CubicalCell, record: bool) -> None:
            corners = cell.corners
            keys = set()
            for j, idxs in _subface_tables(cell.dim):
                sub = tuple([corners[i] for i in idxs])
                key = frozenset(sub)
                keys.add(key)
                prev = faces.get(key)
                if prev is None:
                    faces[key] = Face(key, j, sub)
                elif (
                    validate
                    and j >= 2
                    and prev.corners != sub
                    and _facet_key_set(prev.corners, j) != _facet_key_set(sub, j)
                ):
                    raise InconsistentSharedFace(
                        f"cells induce different cube structures on the shared vertex set {_fmt_key(key)}"
                    )
            if record:
                keysets.append(keys)

        for cell in cell_list:
            derive(cell, record=True)
        if validate:
            # A repeated vertex set is fine only if it describes the same cube.
            for cell in duplicates:
                derive(cell, record=False)

        maximal = [True] * len(cell_list)
        if validate:
            keys = [c.key for c in cell_list]
            for a in range(len(cell_list)):
                ka = keys[a]
                sa = keysets[a]
                for b in range(a + 1, len(cell_list)):
                    inter = ka & keys[b]
                    if not inter:
                        continue
                    if inter not in faces:
                        raise IntersectionNotAFace(
                            f"cells {_fmt_key(ka)} and {_fmt_key(keys[b])} intersect in "
                            f"{_fmt_key(inter)}, which is not a face"
                        )
                    if inter not in sa or inter not in keysets[b]:
                        raise InconsistentSharedFace(
                            f"intersection {_fmt_key(inter)} of cells {_fmt_key(ka)} and "
                            f"{_fmt_key(keys[b])} is not a common subface"
                        )
                    if inter == ka:
                        maximal[a] = False
                    elif inter == keys[b]:
                        maximal[b] = False

        cell_faces = sorted(
            (faces[c.key] for c, keep in zip(cell_list, maximal) if keep),
            key=_face_order,
        )
        dim = max(f.dim for f in cell_faces)
        return cls(faces, tuple(cell_faces), dim)

    def __eq__(self, other: object):
        if not isinstance(other, CubicalComplex):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.faces.keys() == other.faces.keys()
            and all(self.faces[k].dim == other.faces[k].dim for k in self.faces)
            and {c.key for c in self.cells} == {c.key for c in other.cells}
        )

    __hash__ = None  # type: ignore[assignment]

    def face(self, key: Iterable[int]) -> Face:
        try:
            return self.faces[frozenset(key)]
        except KeyError:
            raise UnknownFace(_fmt_key(key)) from None

    @cached_property
    def faces_by_dim(self) -> tuple[tuple[Face, ...], ...]:
        rows: list[list[Face]] = [[] for _ in range(self.dim + 1)]
        for face in self.faces.values():
            rows[face.dim].append(face)
        for row in rows:
            row.sort(key=_face_order)
        return tuple(tuple(row) for row in rows)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        if self.dim < 0:
            return ()
        return tuple(sorted(next(iter(f.key)) for f in self.faces_by_dim[0]))

    @cached_property
    def vertex_coface_counts(self) -> dict[int, tuple[int, ...]]:
        """For each vertex, how many i-faces contain it, i = 0..dim.

        Entry i of the value equals the number of (i-1)-faces of the vertex
        link, since faces through a vertex correspond to link faces.
        """
        counts = {v: [0] * (self.dim + 1) for v in self.vertices}
        for face in self.faces.values():
            for v in face.key:
                counts[v][face.dim] += 1
        return {v: tuple(c) for v, c in counts.items()}

    @cached_property
    def _vertex_face_keys(self) -> dict[int, frozenset]:
        acc: dict[int, list] = {v: [] for v in self.vertices}
        for key in self.faces:
            for v in key:
                acc[v].append(key)
        return {v: frozenset(keys) for v, keys in acc.items()}

    @cached_property
    def link_euler(self) -> dict[FaceKey, int]:
        """Reduced Euler characteristic of the link of every nonempty face.

        Computed in one sweep: a face G of dimension g contributes a
        (g - f - 1)-dimensional link face to each of its f-dimensional
        subfaces, the empty link simplex included when G equals the subface.
        """
        acc = dict.fromkeys(self.faces, 0)
        for face in self.faces.values():
            gdim = face.dim
            corners = face.corners
            for j, idxs in _subface_tables(gdim):
                key = frozenset([corners[i] for i in idxs])
                acc[key] += -1 if (gdim - j - 1) % 2 else 1
        return acc

    @cached_property
    def pure(self) -> bool:
        """All inclusion-maximal faces share the top dimension."""
        return all(cell.dim == self.dim for cell in self.cells)

    def _face_dim(self, key: FaceKey) -> int:
        return self.faces[key].dim

    @cached_property
    def _ridge_degrees(self) -> dict[FaceKey, int]:
        deg: dict[FaceKey, int] = {}
        if self.dim < 1:
            return deg
        faces = self.faces
        for cell in self.cells:
            corners = cell.corners
            for _, idxs in _facet_tables(cell.dim):
                # The face's own key object, so the kept table holds no copies.
                key = faces[frozenset([corners[i] for i in idxs])].key
                deg[key] = deg.get(key, 0) + 1
        return deg

    def _close_ridges(self, keys: list) -> "CubicalComplex":
        free = sorted((self.faces[k] for k in keys), key=_face_order)
        return CubicalComplex.from_cells(
            [CubicalCell(f.dim, f.corners) for f in free], validate=False
        )

    @cached_property
    def h_short(self) -> HVector:
        """Short cubical h-vector from the face counts."""
        return h_short_cubical_from_f(f_vector(self))

    @cached_property
    def h_long(self) -> HVector:
        """Long cubical h-vector from the short one."""
        return h_long_cubical(self.h_short)

    @cached_property
    def link_h_vectors(self) -> dict[int, HVector]:
        """Simplicial h-vector of every vertex link, taken at ambient rank d.

        Link face counts are read off the vertex coface counts; the common
        rank keeps the vectors comparable on non-pure complexes.
        """
        d = self.dim
        return {
            v: h_simplicial(FVector("simplicial", d - 1, (1,) + counts[1:]), rank=d)
            for v, counts in self.vertex_coface_counts.items()
        }

    @cached_property
    def link_g_vectors(self) -> dict[int, GVector]:
        """g-vector of every vertex link, entries g_0 .. g_d."""
        return {v: g_vector(h, upto=self.dim) for v, h in self.link_h_vectors.items()}


class SimplicialComplex(_Derived):
    """A downward closed family of vertex sets (the empty face is implicit)."""

    kind = "simplicial"

    def __init__(self, faces: frozenset, cells: tuple, dim: int):
        self.faces: frozenset = faces
        self.cells: tuple[FaceKey, ...] = cells
        self.dim: int = dim

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        return cls(frozenset(), (), -1)

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Downward closure of the given facets; contained facets are dropped."""
        keys = {frozenset(f) for f in facets}
        keys.discard(frozenset())
        if not keys:
            raise ValueError("at least one nonempty facet is required")
        for f in keys:
            for v in f:
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise ValueError(f"vertex ids must be nonnegative integers, got {v!r}")
        maximal = [f for f in keys if not any(f < g for g in keys)]
        faces = set()
        for f in maximal:
            vs = sorted(f)
            for r in range(1, len(vs) + 1):
                for c in combinations(vs, r):
                    faces.add(frozenset(c))
        cells = tuple(sorted(maximal, key=lambda k: (len(k), tuple(sorted(k)))))
        return cls(frozenset(faces), cells, max(len(f) for f in maximal) - 1)

    @classmethod
    def _from_faces(cls, faces: frozenset) -> "SimplicialComplex":
        """Wrap an already downward closed family of nonempty faces."""
        if not faces:
            return cls.empty()
        maximal: list[frozenset] = []
        for f in sorted(faces, key=lambda k: (-len(k), tuple(sorted(k)))):
            if not any(f < m for m in maximal):
                maximal.append(f)
        cells = tuple(sorted(maximal, key=lambda k: (len(k), tuple(sorted(k)))))
        return cls(frozenset(faces), cells, max(len(f) for f in faces) - 1)

    def __eq__(self, other: object):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.dim == other.dim and self.faces == other.faces

    __hash__ = None  # type: ignore[assignment]

    @cached_property
    def faces_by_dim(self) -> tuple[tuple[frozenset, ...], ...]:
        rows: list[list[frozenset]] = [[] for _ in range(self.dim + 1)]
        for face in self.faces:
            rows[len(face) - 1].append(face)
        for row in rows:
            row.sort(key=lambda k: tuple(sorted(k)))
        return tuple(tuple(row) for row in rows)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        if self.dim < 0:
            return ()
        return tuple(sorted(next(iter(f)) for f in self.faces_by_dim[0]))

    def link(self, v: int) -> "SimplicialComplex":
        if frozenset((v,)) not in self.faces:
            raise UnknownVertex(str(v))
        lk = {f - {v} for f in self.faces if v in f}
        lk.discard(frozenset())
        return SimplicialComplex._from_faces(frozenset(lk))

    @cached_property
    def link_euler(self) -> dict:
        """Reduced Euler characteristic of the link of every nonempty face."""
        acc = dict.fromkeys(self.faces, 0)
        for face in self.faces:
            gdim = len(face) - 1
            vs = sorted(face)
            for r in range(1, len(vs) + 1):
                for sub in combinations(vs, r):
                    acc[frozenset(sub)] += -1 if (gdim - r) % 2 else 1
        return acc

    @cached_property
    def pure(self) -> bool:
        return all(len(cell) - 1 == self.dim for cell in self.cells)

    def _face_dim(self, key: frozenset) -> int:
        return len(key) - 1

    @cached_property
    def _ridge_degrees(self) -> dict[frozenset, int]:
        deg: dict[frozenset, int] = {}
        if self.dim < 1:
            return deg
        # This complex's own ridge objects, so the kept table holds no copies.
        ridges = {f: f for f in self.faces if len(f) == self.dim}
        for c in self.cells:
            for v in c:
                r = ridges[c - {v}]
                deg[r] = deg.get(r, 0) + 1
        return deg

    def _close_ridges(self, keys: list) -> "SimplicialComplex":
        # Closed up from this complex's own face objects rather than copies.
        own = {f: f for f in self.faces}
        faces = frozenset(
            own[frozenset(sub)]
            for r in keys
            for n in range(1, len(r) + 1)
            for sub in combinations(r, n)
        )
        cells = tuple(sorted(keys, key=lambda k: tuple(sorted(k))))
        return SimplicialComplex(faces, cells, self.dim - 1)


Complex = Union[CubicalComplex, SimplicialComplex]


def build_cubical(cells: Iterable[CubicalCell]) -> CubicalComplex:
    """Validated subface closure of cubical cells."""
    return CubicalComplex.from_cells(cells, validate=True)


def build_simplicial(facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Downward closure of simplicial facets."""
    return SimplicialComplex.from_facets(facets)


def antipodal_pairs(face: Face) -> tuple[tuple[int, int], ...]:
    """Corner pairs at complementary cube coordinates of a face of dim >= 1."""
    if face.dim < 1:
        raise ZeroDimensionalFace("antipodal pairs need a face of dimension at least 1")
    full = (1 << face.dim) - 1
    corners = face.corners
    return tuple((corners[b], corners[full ^ b]) for b in range(1 << (face.dim - 1)))


def least_upper_bound(K: CubicalComplex, u: int, v: int):
    """Smallest face containing both vertices, or None.

    Uniqueness follows from intersection closure: the meet of all common
    cofaces is itself a face and contains both vertices.
    """
    if u == v:
        raise ValueError("least_upper_bound needs two distinct vertices")
    for w in (u, v):
        if frozenset((w,)) not in K.faces:
            raise UnknownVertex(str(w))
    common = K._vertex_face_keys[u] & K._vertex_face_keys[v]
    if not common:
        return None
    meet = reduce(frozenset.__and__, common)
    found = K.faces.get(meet)
    if found is None:
        raise IntersectionNotAFace(
            f"faces over {{{u}, {v}}} meet in {_fmt_key(meet)}, which is not a face"
        )
    return found


def _relabeled_simplicial(simplices: list) -> SimplicialComplex:
    """Relabel atom keys (frozensets) to dense integer vertex ids."""
    names = sorted({a for s in simplices for a in s}, key=lambda k: tuple(sorted(k)))
    index = {k: i for i, k in enumerate(names)}
    faces = frozenset(frozenset(index[a] for a in s) for s in simplices)
    return SimplicialComplex._from_faces(faces)


def link_of_vertex(K: CubicalComplex, v: int) -> SimplicialComplex:
    """Link of a vertex: one (i-1)-simplex per i-face through v.

    Vertices of the link are the edges at v; the simplex of a face F through
    v consists of the edges of F through v, one per free coordinate of F.
    """
    if frozenset((v,)) not in K.faces:
        raise UnknownVertex(str(v))
    simplices = []
    for key in K._vertex_face_keys[v]:
        face = K.faces[key]
        if face.dim == 0:
            continue
        p = face.corners.index(v)
        simplices.append(
            frozenset(
                frozenset((v, face.corners[p ^ (1 << q)])) for q in range(face.dim)
            )
        )
    return _relabeled_simplicial(simplices)


def link_face(K: CubicalComplex, face_or_key) -> SimplicialComplex:
    """Link of a nonempty face F: the Boolean upper interval above F.

    Vertices of the link are the (dim F + 1)-faces containing F; a coface G
    contributes the simplex of its atoms, one per coordinate of G fixed on F.
    """
    key = face_or_key.key if isinstance(face_or_key, Face) else frozenset(face_or_key)
    base = K.faces.get(key)
    if base is None:
        raise UnknownFace(_fmt_key(key))
    keyset = set(key)
    cofaces = reduce(frozenset.__and__, (K._vertex_face_keys[v] for v in key))
    simplices = []
    for gkey in cofaces:
        G = K.faces[gkey]
        if G.dim == base.dim:
            continue  # G is the base face itself: the empty link simplex
        positions = [b for b, c in enumerate(G.corners) if c in keyset]
        x = positions[0]
        varying = 0
        for b in positions[1:]:
            varying |= b ^ x
        atoms = []
        for s in range(G.dim):
            if varying >> s & 1:
                continue  # s is a free coordinate of the base face
            atoms.append(
                frozenset(
                    G.corners[i] for b in positions for i in (b, b ^ (1 << s))
                )
            )
        simplices.append(frozenset(atoms))
    return _relabeled_simplicial(simplices)


def boundary_complex(C: Complex) -> Complex:
    """Closure of the ridges lying in exactly one facet; empty when closed."""
    return C.boundary
