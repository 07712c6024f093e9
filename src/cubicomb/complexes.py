"""Cubical and simplicial complexes stored as one table of numbered faces.

A face is identified with its vertex set and carries one corner ordering: a
cubical witness, whose position ``b`` holds the vertex at cube coordinate
``b`` (bits read least significant first), or the sorted simplex vertices.
Both kinds share the closure, which numbers the faces, the derived views,
which sweep the numbers, and the builder that reads a subcomplex (the
boundary, or a simplicial vertex link: the faces opposite the vertex) off
the parent's rows.  A kind supplies the subface table of a cell, its closure
key (a cube's vertex set or a simplex's witness itself) and its key lists,
so simplicial builds, links and boundaries make no frozensets.  A set of
corner positions is a bit mask, and ``_entry_at`` is the one map from masks
to subface table entries.  The closure accepts a second reading of a cube
only when it permutes the first's corner positions by a symmetry, which
takes every edge mask to an edge mask; cubical validation checks that cells
meet in a common face, one whose position masks in both cells are subfaces.

Objects are immutable after construction and safe to share; derived data
(incidence maps, link Euler characteristics, ridge degrees, the boundary,
topological flags, h-vectors and vertex-link h- and g-vectors) is computed
lazily by one descriptor, ``_cached``, which pauses the cycle collector as
builds do and caches on the object.  A subcomplex, the boundary or a
simplicial vertex link, counts its faces without a table: the boundary by
one sweep of its free ridges, a link from the parent's coface counts.  It
builds its table on first use, and names its faces from the parent's
closure keys and witnesses on a later one.
"""

from __future__ import annotations

import gc
from array import array
from collections import Counter
from collections.abc import Callable, Hashable, Iterable, Sequence
from functools import lru_cache, reduce, wraps
from itertools import chain, combinations, compress, count, takewhile
from operator import attrgetter, itemgetter

from ._record import _Record
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


Reader = Callable[[tuple[int, ...]], tuple[int, ...]]


def _reader(indices: tuple[int, ...]) -> Reader:
    """The function taking a corner tuple to the tuple of its corners at
    ``indices``; one index is read as a slice so that it gives a 1-tuple."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices)


def _subset_sums(steps: Iterable[int]) -> list[int]:
    """The corners of a cube in bit order as offsets from its first corner:
    corner b is the sum of the steps whose digit t is set in b."""
    sums = [0]
    for step in steps:
        sums += [s + step for s in sums]
    return sums


@lru_cache(maxsize=None)
def _subface_tables(k: int) -> tuple[tuple[int, Reader], ...]:
    """Corner readers for every subface of a k-cube, the cube included.

    Each entry is ``(dim, read)``: ``read`` takes a witness corner tuple to
    the subface's witness corners in bit order.  A subface is obtained by
    freeing a subset of coordinate positions and fixing the rest to constant
    bits, so there are 3**k entries in total.
    """
    tables = []
    for j in range(k, -1, -1):
        for free in combinations(range(k), j):
            fixed = [q for q in range(k) if q not in free]
            offsets = _subset_sums(1 << q for q in free)
            bases = _subset_sums(1 << q for q in fixed)
            tables += [(j, _reader(tuple(base + m for m in offsets))) for base in bases]
    return tuple(tables)


@lru_cache(maxsize=None)
def _simplex_tables(k: int) -> tuple[tuple[int, Reader], ...]:
    """Corner readers for every nonempty face of a k-simplex, largest first,
    in the format of :func:`_subface_tables`: a face is a subset of the k+1
    sorted corners, so there are 2**(k+1) - 1 entries in total."""
    return tuple(
        (r - 1, _reader(idxs))
        for r in range(k + 1, 0, -1)
        for idxs in combinations(range(k + 1), r)
    )


@lru_cache(maxsize=None)
def _entry_at(table, k: int) -> tuple[dict[int, int], list[tuple[int, ...]]]:
    """The entry of a k-cell's subface ``table`` at each mask of corner
    positions, and the corner positions of every entry in its own corner
    order.  This is the one map from position sets to subfaces.  The mask
    of positions p is the sum of their bits ``1 << p``, so it has no order,
    and a reader given the bits of a cell's corner positions returns the
    bits of a subface's positions, which sum to its mask."""
    positions = tuple(range(1 << k))  # covers the corners of a k-cube and a k-simplex
    spans = [read(positions) for _, read in table(k)]
    return {sum([1 << p for p in span]): e for e, span in enumerate(spans)}, spans


@lru_cache(maxsize=None)
def _inside(table, k: int, e: int) -> tuple[int, ...]:
    """The entries of a k-cell's subface ``table`` inside entry ``e``, in the
    order of ``e``'s own table, ``e`` itself first: the masks the table of
    ``e``'s dimension reads from the bits of ``e``'s corner positions."""
    at, spans = _entry_at(table, k)
    bits = tuple([1 << p for p in spans[e]])
    return tuple([at[sum(read(bits))] for _, read in table(table(k)[e][0])])


@lru_cache(maxsize=None)
def _facet_tables(table, k: int) -> tuple[int, ...]:
    """The indices of the codimension-one entries of a k-cell's subface ``table``."""
    return tuple(e for e, (j, _) in enumerate(table(k)) if j == k - 1)


def _check_corners(corners: Sequence[int]) -> None:
    """The gate every cell passes: its vertex ids are nonnegative integers,
    bools excluded, and no vertex repeats."""
    for v in corners:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"vertex ids must be nonnegative integers, got {v!r}")
    if len(set(corners)) != len(corners):
        raise DuplicateVertexInCell("cell repeats a vertex")


def _fmt_key(key: Iterable[int]) -> str:
    try:
        return "{%s}" % ", ".join(str(v) for v in sorted(key))
    except TypeError:  # a caller's key of mixed types
        return str(set(key))


class CubicalCell(_Record):
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
        _check_corners(self.corners)

    @property
    def key(self) -> FaceKey:
        return frozenset(self.corners)


class Face(_Record):
    """A face of a built complex: vertex set plus one corner ordering, a
    witness in bit order for a cube and the sorted vertices for a simplex."""

    __slots__ = ("key", "dim", "corners")

    key: FaceKey
    dim: int
    corners: tuple[int, ...]


def _same_cube(first: tuple[int, ...], sub: tuple[int, ...]) -> None:
    """Refuse ``sub``, a second corner ordering of a cube with witness
    ``first``, unless read as positions in ``first`` it is a symmetry.  A
    square's symmetries keep its diagonals, so ``sub[0]`` and ``sub[3]``
    must be opposite in ``first``; a larger cube's verdict is cached."""
    if len(sub) == 4:
        same = first.index(sub[0]) ^ first.index(sub[3]) == 3
    else:
        same = _cube_symmetry(tuple(map(first.index, sub)))
    if not same:
        raise InconsistentSharedFace(
            f"cells induce different cube structures on the shared vertex set {_fmt_key(first)}"
        )


@lru_cache(maxsize=1 << 12)
def _cube_symmetry(q: tuple[int, ...]) -> bool:
    """Whether the corner positions ``q``, a permutation, are a symmetry of
    the cube: ``q`` takes every edge mask of the cube to an edge mask.  The
    automorphisms of the k-cube graph are exactly its 2**k * k! symmetries."""
    at, spans = _entry_at(_subface_tables, len(q).bit_length() - 1)
    return all((1 << q[s[0]] | 1 << q[s[1]]) in at for s in spans if len(s) == 2)


def _check_pairs(cells: list[int], index, witness) -> list[bool]:
    """Check every two cells that share a vertex, given by their face numbers
    in closure order, and flag the cells that lie inside a later one.

    A vertex -> (cell, corner position bit) index gives, for cell a and
    every later cell b sharing a vertex with it, the masks of the shared
    vertices' positions in a and in b.  The pair is valid when both masks
    are subfaces, keys of the mask map of the largest cell's cube: the
    intersection is then a subface of a, hence a face, and of b.  A smaller
    cube's subfaces are the largest cube's below its corner count, so one
    map serves every pair; a one-cell build has no pair and makes no map.
    Cell a lies inside b when its mask in a is full.  A cell inside an
    earlier one never comes here: its vertex set is a subface of the
    earlier cell, which the closure numbered first, so it got no row.  A
    failing pair is refused in the order of an all-pairs scan: first cell,
    then ascending second cell, its vertex sets built from the witnesses
    only to name it.
    """
    k = max(len(witness[c]) for c in cells).bit_length() - 1
    subface = _entry_at(_subface_tables, k)[0] if len(cells) > 1 else {}  # one cell, no pair
    bits = [1 << q for q in range(1 << k)]  # one int object per position, shared by all cells
    at: dict[int, list[tuple[int, int]]] = {}
    for b in range(len(cells) - 1, -1, -1):
        for q, v in zip(bits, witness[cells[b]]):
            at.setdefault(v, []).append((b, q))
    maximal = [True] * len(cells)
    for a, cell in enumerate(cells):
        # Each vertex list runs by descending cell, so a's own entry is last
        # and everything before it belongs to a later cell.
        corners = witness[cell]
        shared: dict[int, list[int]] = {}  # b -> the shared positions' masks in a and b
        for v in corners:
            later = at[v]
            bit = later.pop()[1]
            for b, q in later:
                masks = shared.get(b)
                if masks is None:
                    shared[b] = [bit, q]
                else:
                    masks[0] |= bit
                    masks[1] |= q
        bad = []
        full = (1 << len(corners)) - 1
        for b, (in_a, in_b) in shared.items():
            if in_a not in subface or in_b not in subface:
                bad.append(b)
            elif in_a == full:
                maximal[a] = False
        if bad:
            ka, kb = frozenset(corners), frozenset(witness[cells[min(bad)]])
            inter = ka & kb
            if inter not in index:
                raise IntersectionNotAFace(
                    f"cells {_fmt_key(ka)} and {_fmt_key(kb)} intersect in "
                    f"{_fmt_key(inter)}, which is not a face"
                )
            raise InconsistentSharedFace(
                f"intersection {_fmt_key(inter)} of cells {_fmt_key(ka)} and "
                f"{_fmt_key(kb)} is not a common subface"
            )
    return maximal


def _paused(run: Callable) -> Callable:
    """``run`` with the cycle collector paused if it is on: builds and views make
    a tuple or key per face and no cycle, so its collections would find nothing.
    Pauses nest: the outermost call turns the collector back on, also when an
    exception leaves ``run``, and a collector the caller turned off stays off.
    The caller's iterable is read while paused, its cycles collected after the
    build returns; the pause is process-wide, so other threads' garbage waits."""
    @wraps(run)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return run(*args, **kwargs)
        gc.disable()
        try:
            return run(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class _cached:
    """A non-data descriptor: the first read computes the value under
    :func:`_paused`, with no lock, into the instance ``__dict__``."""

    def __init__(self, func: Callable) -> None:
        self.func, self.__doc__ = _paused(func), func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)  # setdefault raised peak RSS on 3.11
        return value


class _FaceTable:
    """The face table both kinds share: every face numbered in the order the
    closure met it, with its dimension in ``_dims`` and its names, closure
    key and witness corners; the numbers of the subface table entries of
    every cell in ``_ids``, each inclusion-maximal cell's starting at its
    entry in ``_maximal`` in build order, which the sweeps read and only
    ``cells`` sorts (simplicial rows are largest first, then in number order:
    each row's own face is new when met); and the views derived from them,
    each cached one read through ``_cached``.

    A kind supplies ``_table``, the ``(dim, corner reader)`` subface table of
    a cell, the cell itself first and its vertices last, in corner order;
    ``_key``, its closure key, a cube's vertex set or a simplex's witness; and
    its key lists in number order: ``_ckeys``, the closure keys, and
    ``_keys``, the vertex sets, a cube's closure keys or a simplex's own
    frozensets made on first use.  ``in``, ``face`` and ``_vertex`` read the
    caller's key once into a closure key instead.  ``_first_use`` sets each
    lazy group's ``_cached`` parts: ``_dims``, ``_ids``, ``_maximal`` and
    ``_name`` from a ``_lazy`` table's build, and the names, ``_index`` (each
    closure key to its number) and ``_witness``, from ``_name``; a subcomplex's,
    a boundary's or a vertex link's alike, are its parent's ``_ckeys`` and
    ``_witness`` objects.  ``dim``, ``f_counts``, ``pure`` and ``repr`` read no
    names, and a ``_lazy`` table's ``dim``, ``f_counts`` and ``repr`` no table.
    """

    def __init__(self, dims: bytearray, ids: array, rows: Sequence[int], name):
        self._dims, self._ids, self._maximal, self._name = dims, ids, rows, name

    @classmethod
    def _lazy(cls, build: Callable[[], tuple], counts: Callable[[], tuple[int, ...]]):
        """A table whose ``__init__`` arguments come from ``build`` on first
        use; until then ``counts``, set in place of the ``f_counts`` method,
        gives its counts and its cached ``dim``."""
        table = cls.__new__(cls)
        vars(table).update(_build=build, f_counts=counts)
        return table

    def _first_use(source: str, settle: Callable, n: int) -> list[_cached]:
        """``n`` cached attributes set together on the first read of any, which
        calls the function at ``source``, drops it and a ``_lazy`` table's
        counts, and has ``settle`` set all ``n`` values the function returned."""
        def read(self) -> tuple:
            parts = getattr(self, source)()
            delattr(self, source)
            vars(self).pop("f_counts", None)  # a built table counts its own faces
            settle(self, *parts)
            return parts
        return [_cached(lambda self, i=i: read(self)[i]) for i in range(n)]

    def _named(self, index: dict, witness: list[tuple[int, ...]]) -> None:
        self._index, self._witness = index, witness

    _dims, _ids, _maximal, _name = _first_use("_build", __init__, 4)
    _index, _witness = _first_use("_name", _named, 2)
    del _first_use, _named
    dim = _cached(lambda self: len(self.f_counts()) - 1)

    @_cached
    def cells(self) -> tuple[Face, ...]:
        """The inclusion-maximal cells, by dimension and then sorted vertices."""
        dims, witness = self._dims, self._witness
        cells = sorted([self._ids[r] for r in self._maximal], key=lambda n: (dims[n], sorted(witness[n])))
        return tuple(map(self._face, cells))

    @classmethod
    def empty(cls):
        """The complex whose only face is the empty face (dimension -1)."""
        return cls(*cls._close(()))

    @classmethod
    def _close(cls, cells: Iterable[tuple[int, tuple[int, ...], Hashable]]):
        """Subface closure of ``(dim, corners, key)`` cells, taken in order.

        Returns ``_dims``, ``_ids``, the row in ``_ids`` of each cell whose
        vertex set was not yet a face, and a function giving the names.  A new
        face enters ``index`` with the number ``len(index)``, so the keys are
        in number order: a cell under ``key``, its corners' closure key made
        by the caller, and a subface under ``_key`` of its corners.  A cell
        whose vertex set was already a face lies in an earlier cell and adds
        nothing.  Every face of dimension 2 or more met again must read as its
        witness or a cube symmetry of it; sorted simplex corners always read
        the same.
        """
        table, key_of = cls._table, cls._key
        index: dict = {}
        vertex: dict[int, int] = {}  # the vertex entries, numbered without a key
        dims = bytearray()
        witness: list[tuple[int, ...]] = []
        ids = array("i")
        rows = array("i")
        add_dim, add_witness, add_id = dims.append, witness.append, ids.append
        for dim, corners, key in cells:
            n = index.get(key)
            if n is not None:
                if dim > 1 and witness[n] != corners:
                    _same_cube(witness[n], corners)
                continue
            rows.append(len(ids))
            if dim:  # a vertex cell is numbered with the vertices
                n = index[key] = len(index)
                add_dim(dim)
                add_witness(corners)
                add_id(n)
            entries = table(dim)
            # Every entry after the cell but the last len(corners), which are the vertices.
            for j, read in entries[1 : len(entries) - len(corners)]:
                sub = read(corners)
                key = key_of(sub)
                n = index.get(key)
                if n is None:
                    n = index[key] = len(index)
                    add_dim(j)
                    add_witness(sub)
                elif j > 1 and witness[n] != sub:
                    _same_cube(witness[n], sub)
                add_id(n)
            for v in corners:
                n = vertex.get(v)
                if n is None:
                    sub = (v,)
                    n = vertex[v] = index[key_of(sub)] = len(index)
                    add_dim(0)
                    add_witness(sub)
                add_id(n)
        return dims, ids, rows, lambda: (index, witness)

    def _subcomplex(self, cells: Iterable[tuple[int, Sequence[int]]]) -> Callable[[], tuple]:
        """The build of a subcomplex read off this table with no closure
        lookups: each cell is a row here and the offsets in it of the cell's
        own subface entries, in its table order.  The faces are numbered as
        those entries first meet them, and on first use they are named from
        this table's ``_ckeys`` and ``_witness``: the same objects, not copies.
        The build reads this table's lists, not the table: a boundary cached
        on its parent must not hold it."""
        ids, dims, keys, witness = self._ids, self._dims, self._ckeys, self._witness

        def build():
            seq, rows = array("i"), array("i")
            for row, offsets in cells:
                rows.append(len(seq))
                seq.extend([ids[row + s] for s in offsets])
            order = list(dict.fromkeys(seq))
            number = dict(zip(order, range(len(order))))

            def names():
                sub = [keys[m] for m in order]
                return dict(zip(sub, range(len(sub)))), [witness[m] for m in order]

            sub_dims = bytearray([dims[m] for m in order])
            return sub_dims, array("i", map(number.__getitem__, seq)), rows, names
        return build

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, f={self.f_counts()})"

    def __contains__(self, key: Iterable[int]) -> bool:
        return self._number(frozenset(key)) is not None

    def _number(self, key: frozenset) -> int | None:
        """The face number of the vertex set ``key``, read into a closure key."""
        try:
            return self._index.get(self._key(sorted(key)))
        except TypeError:  # vertices of more than one type are no face's
            return None

    def __eq__(self, other: object):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.dim == other.dim
            and self._index.keys() == other._index.keys()
            and {c.key for c in self.cells} == {c.key for c in other.cells}
        )

    @_cached
    def faces(self) -> dict[FaceKey, Face]:
        """Every face by vertex set in number order, built on first use."""
        faces = dict(zip(self._keys, map(Face, self._keys, self._dims, self._witness)))
        faces.update((c.key, c) for c in self.cells)
        return faces

    def _face(self, n: int) -> Face:
        return Face(self._keys[n], self._dims[n], self._witness[n])

    def face(self, key: Iterable[int]) -> Face:
        key = frozenset(key)  # read once: the message names what the lookup read
        n = self._number(key)
        if n is None:
            raise UnknownFace(_fmt_key(key))
        return self._face(n)

    def f_counts(self) -> tuple[int, ...]:
        """Number of i-dimensional faces for i = 0..dim (empty face excluded)."""
        return self._f_counts

    @_cached
    def _f_counts(self) -> tuple[int, ...]:
        return tuple(takewhile(bool, map(self._dims.count, count())))  # closures skip no dimension

    @_cached
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(w[0] for w in compress(self._witness, map((0).__eq__, self._dims))))

    def _vertex(self, v: int) -> int:
        gated = isinstance(v, int) and not isinstance(v, bool)  # as the cell gate's ids
        n = self._index.get(self._key((v,))) if gated else None
        if n is None:
            raise UnknownVertex(str(v))
        return n

    @_cached
    def _star(self) -> dict[int, array]:
        """The numbers of the faces through each vertex."""
        star = {v: array("i") for v in self.vertices}
        for n, corners in enumerate(self._witness):
            for v in corners:
                star[v].append(n)
        return star

    @_cached
    def vertex_coface_counts(self) -> dict[int, tuple[int, ...]]:
        """For each vertex, how many i-faces contain it, i = 0..dim.

        Entry i of the value equals the number of (i-1)-faces of the vertex
        link, since faces through a vertex correspond to link faces; a
        simplicial link reads its face counts and dimension off them.
        """
        by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(self.dim + 1)]
        for corners, j in zip(self._witness, self._dims):
            by_dim[j].append(corners)
        per_dim = [Counter(chain.from_iterable(faces)) for faces in by_dim]
        vertices = self.vertices
        return dict(zip(vertices, zip(*(map(c.__getitem__, vertices) for c in per_dim))))

    @_cached
    def link_euler(self) -> dict[FaceKey, int]:
        """Reduced Euler characteristic of the link of every nonempty face.

        A face G of dimension g contributes a (g - f - 1)-dimensional link
        face to each of its f-dimensional subfaces, the empty link face
        included when G equals the subface, so the link of F has reduced
        Euler characteristic -(-1)^f times the sum of (-1)^g over the faces G
        that contain F.  The sweep reads the cells' entry numbers in build
        order and sweeps every face once, from the first cell that holds it,
        adding (-1)^g to the entries inside it; the result is keyed like ``faces``, in order.
        """
        ids, dims, table = self._ids, self._dims, self._table
        acc = [0] * len(dims)
        swept = bytearray(len(dims))
        for row in self._maximal:
            k = dims[ids[row]]
            own = ids[row : row + len(table(k))].tolist()
            for e, f in enumerate(own):
                if swept[f]:
                    continue
                swept[f] = 1
                sign = -1 if dims[f] & 1 else 1
                for s in _inside(table, k, e):
                    acc[own[s]] += sign
        return dict(zip(self._keys, [x if j & 1 else -x for x, j in zip(acc, dims)]))

    @_cached
    def pure(self) -> bool:
        """All inclusion-maximal faces share the top dimension."""
        return all(self._dims[self._ids[r]] == self.dim for r in self._maximal)

    def ridge_degrees(self) -> dict[FaceKey, int]:
        """How many facets contain each ridge, by vertex set.  Needs a pure complex."""
        degrees = self._ridges[0]
        return dict(zip(map(frozenset, degrees), degrees.values()))

    @_cached
    def _ridges(self) -> tuple[dict, tuple[int, ...], array]:
        """One sweep over the facet entries of a pure complex's rows: how many
        facets hold each ridge by closure key, the facet entries, and the place i
        in the sweep of each ridge in one facet, at row i // len(facets), i % len(facets)."""
        if not self.pure:
            raise NotPure("ridge degrees are only defined for pure complexes")
        ids, keys = self._ids, self._ckeys
        facets = _facet_tables(self._table, self.dim)
        ridges = [keys[ids[row + e]] for row in self._maximal for e in facets]
        degrees = Counter(ridges)
        # Where each ridge was last met; a ridge in one facet is met once.
        met = dict(zip(ridges, range(len(ridges)))) if 1 in degrees.values() else {}
        return degrees, facets, array("i", [met[key] for key, n in degrees.items() if n == 1])

    @_cached
    def pseudomanifold(self) -> bool:
        """Pure with every ridge in exactly two facets (two vertices when dim 0)."""
        if not self.pure:
            raise NotPure("pseudomanifold test needs a pure complex")
        if self.dim < 0:
            return False
        if self.dim == 0:
            return len(self.vertices) == 2
        return all(n == 2 for n in self._ridges[0].values())

    @_cached
    def semi_eulerian(self) -> bool:
        """Every nonempty face link has the Euler characteristic of a sphere."""
        if not self.pure:
            raise NotPure("the Euler condition is checked on pure complexes")
        sphere = [_neg_pow(self.dim - j - 1) for j in range(self.dim + 1)]
        # link_euler is in face number order, like _dims.
        return all(x == sphere[j] for (_, x), j in zip(self.link_euler.items(), self._dims))

    _reduced_euler = _cached(lambda self: reduced_euler(self._f_vector))

    @_cached
    def eulerian(self) -> bool:
        """Semi-Eulerian with the global Euler characteristic of the d-sphere."""
        return self.semi_eulerian and reduced_euler(self) == _neg_pow(self.dim)

    @_cached
    def boundary(self):
        """Closure of the ridges lying in exactly one facet; empty when closed.
        A free ridge at entry e of its one facet takes the entries inside e as
        its own, or, when a contained cell met it first with another witness,
        the entries at the masks its own subface table reads from the bits
        of its corner positions in the facet.  A ``_lazy`` table: one sweep,
        run once, counts the faces here that lie inside the free ridges, and
        the first use of anything else builds the table."""
        table, d, (_, facets, free) = self._table, self.dim, self._ridges  # refuses an impure one
        ids, dims, witness = self._ids, self._dims, self._witness
        cells = []
        for row, e in ((self._maximal[i // len(facets)], facets[i % len(facets)]) for i in free):
            corners, sub = witness[ids[row]], witness[ids[row + e]]
            if table(d)[e][1](corners) == sub:
                cells.append((row, _inside(table, d, e)))
            else:
                at, bits = _entry_at(table, d)[0], tuple([1 << corners.index(v) for v in sub])
                cells.append((row, [at[sum(read(bits))] for _, read in table(d - 1)]))

        @lru_cache(maxsize=None)
        def counts() -> tuple[int, ...]:
            held = bytearray(len(dims))
            for row, offsets in cells:
                for s in offsets:
                    held[ids[row + s]] = 1
            by_dim = Counter(compress(dims, held))  # a closure skips no dimension
            return tuple(map(by_dim.__getitem__, range(len(by_dim))))
        return type(self)._lazy(self._subcomplex(cells), counts)


class CubicalComplex(_FaceTable):
    """Subface closure of a set of cubical cells, keyed by vertex set."""

    kind = "cubical"
    _table = staticmethod(_subface_tables)
    _key = frozenset
    _keys = _cached(lambda self: list(self._index))
    _ckeys = property(attrgetter("_keys"))
    _f_vector = _cached(lambda self: FVector("cubical", self.dim, self.f_counts()))

    @classmethod
    @_paused
    def from_cells(
        cls, cells: Iterable[CubicalCell], validate: bool = True
    ) -> "CubicalComplex":
        """Build the subface closure of ``cells``.

        The closure always refuses two cells that induce different cube
        structures on a shared vertex set.  With ``validate`` set, the pair
        scan also checks that every intersection of two cells is a common
        subface.  Together with the transitivity of coordinate restriction
        this guarantees closure of the whole face family under intersection
        and that every lower interval is a cube face lattice.

        Without ``validate`` only the pair scan is skipped: ``cells`` must
        meet in common faces and be inclusion-maximal, since a cell listed
        before one that contains it stays a cell.
        """
        distinct: dict[FaceKey, CubicalCell] = {}
        repeated: list[tuple[FaceKey, CubicalCell]] = []
        for cell in cells:
            if not isinstance(cell, CubicalCell):
                raise TypeError("from_cells expects CubicalCell values")
            key = cell.key
            if distinct.setdefault(key, cell) is not cell:
                repeated.append((key, cell))
        if not distinct:
            raise ValueError(
                "at least one cell is required; use CubicalComplex.empty() for the empty complex"
            )
        # The dedupe's keys are the closure keys.  A repeated vertex set is
        # already a face when its turn comes: the closure checks its cube.
        keyed = chain(distinct.items(), repeated)
        dims, ids, rows, names = cls._close([(c.dim, c.corners, key) for key, c in keyed])
        if validate:
            # A cell inside an earlier one has no row, and any pair it fails
            # its container fails first in scan order.
            rows = list(compress(rows, _check_pairs([ids[r] for r in rows], *names())))
        return cls(dims, ids, rows, names)

    @_cached
    def h_short(self) -> HVector:
        """Short cubical h-vector from the face counts."""
        return h_short_cubical_from_f(f_vector(self))

    @_cached
    def h_long(self) -> HVector:
        """Long cubical h-vector from the short one."""
        return h_long_cubical(self.h_short)

    @_cached
    def link_h_vectors(self) -> dict[int, HVector]:
        """Simplicial h-vector of every vertex link, taken at ambient rank d.

        Link face counts are read off the vertex coface counts, and vertices
        with equal counts share one vector; the common rank keeps the vectors
        comparable on non-pure complexes.
        """
        d, counts = self.dim, self.vertex_coface_counts
        by_counts = {
            c: h_simplicial(FVector("simplicial", d - 1, (1,) + c[1:]), rank=d)
            for c in set(counts.values())
        }
        return {v: by_counts[c] for v, c in counts.items()}

    @_cached
    def _h_short_links(self) -> HVector:
        """The vertex-link h-vectors summed entry by entry, all of length d + 1."""
        links = [h.entries for h in self.link_h_vectors.values()]
        return HVector("short_cubical", self.dim, tuple(map(sum, zip(*links))))

    @_cached
    def link_g_vectors(self) -> dict[int, GVector]:
        """g-vector of every vertex link, entries g_0 .. g_d, one per
        distinct link h-vector."""
        by_h = {h: g_vector(h) for h in set(self.link_h_vectors.values())}
        return {v: by_h[h] for v, h in self.link_h_vectors.items()}


def _link_counts(coface_counts: tuple[int, ...]) -> tuple[int, ...]:
    """A simplicial vertex link's face counts: link face i is an (i+1)-face
    through the vertex, and those are counted up to the star's dimension."""
    return tuple(takewhile(bool, coface_counts[1:]))


class SimplicialComplex(_FaceTable):
    """A downward closed family of vertex sets (the empty face is implicit)."""

    kind = "simplicial"
    _table = staticmethod(_simplex_tables)
    _key = tuple  # the witness itself: from_facets and link_face pass ascending tuples
    _keys = _cached(lambda self: list(map(frozenset, self._witness)))
    _ckeys = property(attrgetter("_witness"))
    _f_vector = _cached(lambda self: FVector("simplicial", self.dim, (1,) + self.f_counts()))

    @classmethod
    @_paused
    def from_facets(cls, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Downward closure of the given facets; contained facets are dropped.

        Each facet passes the cell gate, whose error carries its position as
        ``facet``, before it is sorted: with no vertex repeated, its sorted
        tuple stands for its vertex set and is the form the closure reads.
        The facets are closed largest first, so a contained facet is already
        a face when its turn comes and the closure leaves it out.
        """
        distinct = set()
        for i, f in enumerate(facets):
            try:
                f = tuple(f)
                _check_corners(f)
            except TypeError:
                raise ValueError(f"a facet must be an iterable of vertex ids, got {f!r}") from None
            except ValueError as e:
                e.facet = i
                raise
            distinct.add(tuple(sorted(f)))
        distinct.discard(())
        if not distinct:
            raise ValueError("at least one nonempty facet is required")
        order = sorted(distinct, key=lambda c: (-len(c), c))
        return cls(*cls._close((len(c) - 1, c, c) for c in order))

    @_cached
    def _link_cells(self) -> dict[int, list[tuple[int, tuple[int, ...]]]]:
        """The cells of each vertex link as ``_subcomplex`` takes them: every
        maximal cell of dimension at least 1 through v in row order, largest
        first and then in number order, and the entries inside its facet opposite v.
        That facet of a k-simplex with v at corner position p is table entry
        k + 1 - p: the simplex tables list the facets in that order, and this
        arithmetic is cheaper than looking the facet's mask up."""
        ids, dims, witness = self._ids, self._dims, self._witness
        at: dict[int, list[tuple[int, tuple[int, ...]]]] = {v: [] for v in self.vertices}
        for row in self._maximal:
            k = dims[ids[row]]
            for p, v in enumerate(witness[ids[row]] if k else ()):
                at[v].append((row, _inside(_simplex_tables, k, k + 1 - p)))
        return at

    def link(self, v: int) -> "SimplicialComplex":
        """The faces opposite ``v``, those F without ``v`` where F | {v} is a
        face, named as the boundary is.  Its counts come from the coface counts
        of ``v`` unless it is built first, and its table from ``_link_cells``."""
        self._vertex(v)
        return SimplicialComplex._lazy(
            lambda: self._subcomplex(self._link_cells[v])(),
            lambda: _link_counts(self.vertex_coface_counts[v]),
        )


Complex = CubicalComplex | SimplicialComplex


def build_cubical(cells: Iterable[CubicalCell]) -> CubicalComplex:
    """Validated subface closure of cubical cells."""
    return CubicalComplex.from_cells(cells)


def build_simplicial(facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Downward closure of simplicial facets."""
    return SimplicialComplex.from_facets(facets)


def antipodal_pairs(face: Face) -> tuple[tuple[int, int], ...]:
    """Corner pairs at complementary cube coordinates of a face of dim >= 1."""
    if face.dim < 1:
        raise ZeroDimensionalFace("antipodal pairs need a face of dimension at least 1")
    full = (1 << face.dim) - 1
    corners = face.corners
    if len(corners) != full + 1:
        raise ComplexError(f"antipodal pairs need a cube's {full + 1} corners, got {len(corners)}")
    return tuple((corners[b], corners[full ^ b]) for b in range(1 << (face.dim - 1)))


def least_upper_bound(K: CubicalComplex, u: int, v: int):
    """Smallest face containing both vertices, or None.

    Uniqueness follows from intersection closure: the meet of all common
    cofaces is itself a face and contains both vertices.
    """
    if u == v:
        raise ValueError("least_upper_bound needs two distinct vertices")
    for w in (u, v):
        K._vertex(w)
    keys = K._keys
    common = [keys[n] for n in K._star[u] if v in keys[n]]
    if not common:
        return None
    meet = reduce(frozenset.__and__, common)
    found = K._index.get(meet)
    if found is None:
        raise IntersectionNotAFace(
            f"faces over {{{u}, {v}}} meet in {_fmt_key(meet)}, which is not a face"
        )
    return K._face(found)


def link_of_vertex(K: CubicalComplex, v: int) -> SimplicialComplex:
    """Link of a vertex: one (i-1)-simplex per i-face through v, on the
    edges at v.  This is :func:`link_face` of the vertex."""
    K._vertex(v)
    return link_face(K, (v,))


@_paused
def link_face(K: CubicalComplex, face_or_key) -> SimplicialComplex:
    """Link of a nonempty face F: the Boolean upper interval above F.

    Vertices of the link are the cofacets of F, the (dim F + 1)-faces
    containing it, numbered in the order of their sorted vertices; a coface
    G contributes the simplex of the cofacets it contains.
    """
    base = K.face(face_or_key.key if isinstance(face_or_key, Face) else face_or_key)
    keys, dims, key = K._keys, K._dims, base.key
    cofaces = [G for G in K._star[base.corners[0]] if key < keys[G]]
    cofacets = sorted((keys[G] for G in cofaces if dims[G] == base.dim + 1), key=sorted)
    simplices = (  # closed largest first, so the closure keeps only the maximal ones
        tuple([i for i, H in enumerate(cofacets) if H <= keys[G]])
        for G in sorted(cofaces, key=dims.__getitem__, reverse=True)
    )
    return SimplicialComplex(*SimplicialComplex._close((len(s) - 1, s, s) for s in simplices))


def boundary_complex(C: Complex) -> Complex:
    """Closure of the ridges lying in exactly one facet; empty when closed."""
    return C.boundary
