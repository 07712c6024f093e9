"""Differential tests of the face-table builder against brute-force references.

Cubical inputs are random subsets of pile and torus cells with every cell's
corners moved by a random symmetry of the cube and the vertices relabelled,
plus near-misses and a harmless pendant edge, which makes some valid inputs
mixed-dimensional; the builder must agree with the all-pairs validator of
``oracles.reference_cubical_closure`` on the faces and cells it returns, or
on the type and message of the error it raises.  The valid ones must also
round-trip through a document, pass the unconditional h-vector identities,
have every face link equal to ``oracles.reference_cubical_link`` and every
vertex link's h- and g-vector equal to the transforms of that link's face
counts.  Simplicial inputs check links, vertex coface counts and maximal
facets against their definitions, and every simplicial table, a cubical face
link included, must keep its rows largest first and then in number order.
On both kinds the link Euler
characteristics, the ridge degrees and the boundary faces must equal
``oracles.reference_link_euler``, ``reference_ridge_degrees`` and
``reference_boundary_faces``, the table entries inside each entry must be
the ones a subset scan finds, and the same-cube test must accept exactly the
corner orderings with the same facets.  The position-mask map of a cube's
subfaces must hold exactly the position sets the count test of
``oracles.reference_fills_subcube`` accepts, and a smaller cube's masks
must be the larger cube's below its corner count.
Links and boundaries have their face counts, dimension and purity read
before anything names their faces, then their whole numbering compared, and
must equal a copy named first; a boundary's counts, read before it has a
table, must be its table's and the reference boundary faces' by dimension.  Relabelling the vertices of either kind
changes no face count and no report's name, status or checks.  Generated
grid, torus, cube-boundary and prism cells equal their coordinate
definitions, corner order included.
"""

import gc
import weakref
from collections import Counter
from itertools import combinations, permutations, product
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubicomb import (
    ComplexError,
    CubicalCell,
    CubicalComplex,
    InconsistentSharedFace,
    NotPure,
    SimplicialComplex,
    build_simplicial,
    cube_boundary,
    f_vector,
    g_vector,
    h_simplicial,
    link_face,
    link_of_vertex,
    parses,
    pile_of_cubes,
    prism,
    run_suite,
    serializes,
    solid_cube,
    stacked_simplicial_ball,
    verify_h_vector_identities,
)
from cubicomb.complexes import (
    _cube_symmetry,
    _entry_at,
    _inside,
    _same_cube,
    _simplex_tables,
    _subface_tables,
)
from cubicomb.generators import _grid_cells
from families import cubical_family, derived_simplicial_tables, simplicial_family
from oracles import (
    cube_subfaces,
    grid_vertex,
    insert_bit,
    reference_boundary_faces,
    reference_cube_symmetry,
    reference_cubical_closure,
    reference_cubical_link,
    reference_facet_keys,
    reference_fills_subcube,
    reference_free_ridges,
    reference_link_euler,
    reference_numbering,
    reference_ridge_degrees,
    rows_largest_first,
    simplex_subfaces,
)


def numbering(C):
    """A built complex's number order: ``(key, dim, corners)`` per face
    number, the numbers of its cells' subface entries, and its cells."""
    faces = list(zip(C._keys, C._dims, C._witness))
    return faces, list(C._ids), [(c.dim, c.corners) for c in C.cells]


def read_counts_first(build, unbuilt=False):
    """A table from ``build()`` whose face counts, dimension and repr, then
    purity, are read before anything names its faces, and those reads; with
    ``unbuilt`` set it holds no table of its own until its purity is read.
    A second table from ``build()``, named first, must give the same reads
    and equal it; the counts and dimension must be those of the first's own
    table, and neither keeps a build or names function."""
    counted = build()
    counts = counted.f_counts(), counted.dim
    repr(counted)
    if unbuilt:
        assert {"_dims", "_ids", "_maximal", "_name"}.isdisjoint(vars(counted))
    reads = (*counts, counted.pure)
    assert not {"_index", "_witness"} & vars(counted).keys()
    named = build()
    named.faces
    assert (named.f_counts(), named.dim, named.pure) == reads
    assert counted == named
    dims = counted._dims
    assert counts == (tuple(map(dims.count, range(counted.dim + 1))), max(dims, default=-1))
    assert not {"_build", "_name"} & (vars(counted).keys() | vars(named).keys())
    return counted, reads


def reference_reads(faces, ids, cells):
    """The face counts, dimension and purity of a reference numbering."""
    dim = max((f[1] for f in faces), default=-1)
    counts = tuple(sum(f[1] == i for f in faces) for i in range(dim + 1))
    return counts, dim, all(c[0] == dim for c in cells)


def largest_first(faces):
    """``(key, dim, corners)`` faces by descending dimension, ties in number order."""
    return sorted(faces, key=lambda f: -f[1])


def reclosed_boundary(C):
    """The boundary re-closed from the parent's witnesses of its free
    ridges, met by a sweep of the parent's cells in build order, every face
    keeping the parent's witness."""
    faces = numbering(C)[0]
    witness = {key: (dim, corners) for key, dim, corners in faces}
    cells = [(C._dims[C._ids[r]], C._witness[C._ids[r]]) for r in C._maximal]
    free = reference_free_ridges(cells, C.kind)
    faces, ids, cells = reference_numbering([witness[key] for key in free], C.kind)
    return [(key, *witness[key]) for key, _, _ in faces], ids, cells


def reclosed_vertex_link(S, v):
    """The link of ``v`` re-closed from the cofaces of ``v`` with ``v`` removed."""
    cofaces = [f for f in largest_first(numbering(S)[0]) if v in f[0] and f[1] > 0]
    return reference_numbering(
        [(dim - 1, tuple(c for c in corners if c != v)) for _, dim, corners in cofaces],
        "simplicial",
    )


def reclosed_face_link(K, key):
    """The link of the face ``key`` re-closed from its cofaces, each named
    by the indices of the cofacets it contains."""
    cofaces = [G for G, _, _ in largest_first(numbering(K)[0]) if key < G]
    cofacets = sorted((G for G in cofaces if len(G) == 2 * len(key)), key=sorted)
    names = [tuple(i for i, H in enumerate(cofacets) if H <= G) for G in cofaces]
    return reference_numbering([(len(s) - 1, s) for s in names], "simplicial")


def grid_cells(sides, wrap):
    """Corner tuples in bit order of the unit cubes of a grid or torus."""
    shape = tuple(sides) if wrap else tuple(a + 1 for a in sides)
    k = len(sides)
    cells = []
    for base in product(*(range(a) for a in sides)):
        corners = []
        for b in range(1 << k):
            coords = [(c + (b >> q & 1)) % shape[q] for q, c in enumerate(base)]
            corners.append(grid_vertex(coords, shape))
        cells.append(tuple(corners))
    return cells


GRID_SHAPES = (
    [(sides, False) for n in range(1, 5) for sides in product(range(1, 5), repeat=n)]
    + [(sides, True) for n in range(1, 4) for sides in product(range(3, 6), repeat=n)]
    + [((3, 5, 4, 3), True)]
)


def test_grid_cells_match_their_definition():
    for sides, wrap in GRID_SHAPES:
        got = [cell.corners for cell in _grid_cells(sides, wrap)]
        assert got == grid_cells(sides, wrap), (sides, wrap)


@pytest.mark.parametrize("n", range(1, 8))
def test_cube_boundary_facets_fix_one_coordinate(n):
    expect = sorted(
        tuple(insert_bit(m, axis, side) for m in range(1 << (n - 1)))
        for axis in range(n)
        for side in (0, 1)
    )
    assert sorted(cell.corners for cell in cube_boundary(n).complex.cells) == expect


def test_prism_cells_stack_two_layers_of_each_base_cell():
    bases = [cube_boundary(2), pile_of_cubes(2, 1), cube_boundary(3), solid_cube(2), solid_cube(0)]
    for base in bases:
        K = base.complex
        offset = max(K.vertices) + 1
        expect = sorted(
            tuple(
                c.corners[m & ((1 << c.dim) - 1)] + (m >> c.dim) * offset
                for m in range(2 << c.dim)
            )
            for c in K.cells
        )
        assert sorted(cell.corners for cell in prism(base).complex.cells) == expect, base.provenance


@st.composite
def cube_symmetry(draw, k):
    """A hyperoctahedral map of corner positions: permute the axes, then
    reflect some of them."""
    return symmetry(draw(st.permutations(range(k))), draw(st.integers(0, (1 << k) - 1)))


def symmetry(axes, flips):
    """The corner positions of a cube with its axes permuted by ``axes``,
    then the axes in ``flips`` reflected."""
    k = len(axes)
    return [sum(1 << axes[q] for q in range(k) if b >> q & 1) ^ flips for b in range(1 << k)]


def swap_two(draw, corners):
    i, j = draw(st.lists(st.integers(0, len(corners) - 1), min_size=2, max_size=2, unique=True))
    out = list(corners)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


@st.composite
def near_miss(draw, cells, fresh):
    """A cell list with one defect (or one harmless extra) inserted."""
    cells = list(cells)
    i = draw(st.integers(0, len(cells) - 1))
    c = cells[i]
    full = len(c) - 1
    kind = draw(st.sampled_from(["swap", "diagonal", "glued", "repeat", "contained", "pendant"]))
    if kind == "swap" and len(c) > 1:
        cells[i] = swap_two(draw, c)
    elif kind == "diagonal" and len(c) >= 4:
        cells.insert(draw(st.integers(0, len(cells))), (c[0], c[full]))
    elif kind == "glued" and len(c) >= 4:
        cells.insert(draw(st.integers(0, len(cells))), (c[0], fresh, fresh + 1, c[full]))
    elif kind == "repeat":
        twin = swap_two(draw, c) if len(c) > 1 else c
        cells.insert(draw(st.integers(0, len(cells))), twin)
    elif kind == "contained" and len(c) > 1:
        half = len(c) // 2
        sub = c[:half] if draw(st.booleans()) else c[half:]
        if draw(st.booleans()) and len(sub) > 1:
            sub = swap_two(draw, sub)
        cells.insert(draw(st.integers(0, len(cells))), sub)
    elif kind == "pendant":
        cells.insert(draw(st.integers(0, len(cells))), (c[0], fresh))
    return cells


@st.composite
def cubical_inputs(draw):
    k = draw(st.sampled_from([1, 2, 3, 3]))
    wrap = draw(st.booleans())
    low = 3 if wrap else 1
    sides = draw(st.lists(st.integers(low, low + 1 if k == 3 else low + 2), min_size=k, max_size=k))
    pool = grid_cells(sides, wrap)
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=min(len(pool), 12), unique=True))
    cells = []
    for corners in chosen:
        sym = draw(cube_symmetry(k))
        cells.append(tuple(corners[sym[b]] for b in range(len(corners))))
    n = max(v for c in pool for v in c) + 1
    if draw(st.integers(0, 3)):
        cells = draw(near_miss(cells, n))
    labels = draw(st.permutations(range(2 * n + 2)))
    return [CubicalCell(len(c).bit_length() - 1, tuple(labels[v] for v in c)) for c in cells]


def outcome(build):
    try:
        return build()
    except ComplexError as e:
        return type(e), str(e)


def built(cells):
    K = CubicalComplex.from_cells(cells)
    faces = {key: (f.dim, f.corners) for key, f in K.faces.items()}
    return faces, [(c.dim, c.corners) for c in K.cells]


@given(cubical_inputs())
def test_validation_matches_the_all_pairs_reference(cells):
    assert outcome(lambda: built(cells)) == outcome(lambda: reference_cubical_closure(cells))


def valid_complex(cells):
    try:
        return CubicalComplex.from_cells(cells)
    except ComplexError:
        return None


@given(cubical_inputs())
def test_documents_round_trip_valid_cubical_inputs(cells):
    K = valid_complex(cells)
    if K is not None:
        assert parses(serializes(K)).complex == K


@given(cubical_inputs())
def test_h_vector_identities_never_fail_on_valid_cubical_inputs(cells):
    K = valid_complex(cells)
    if K is not None:
        assert verify_h_vector_identities(K).status != "fail"


@given(cubical_inputs())
def test_cubical_links_match_their_definition(cells):
    K = valid_complex(cells)
    if K is not None:
        for key in K.faces:
            link, reads = read_counts_first(lambda: link_face(K, key))
            expect = reclosed_face_link(K, key)
            assert numbering(link) == expect and reads == reference_reads(*expect)
            assert set(link.faces) == reference_cubical_link(K.faces, key)
            assert rows_largest_first(link)


@given(cubical_inputs())
def test_cubical_link_euler_matches_its_definition(cells):
    K = valid_complex(cells)
    if K is not None:
        assert K.link_euler == reference_link_euler(K.faces)
        assert list(K.link_euler) == list(K.faces)


def check_boundary_counts(K):
    """The face counts of the boundary of ``K``, read while it holds no table:
    they must be those of its own table, built after, and those of the
    reference boundary faces by dimension."""
    B = K.boundary
    counts, dim = B.f_counts(), B.dim
    assert "_build" in vars(B) and {"_dims", "_ids", "_maximal", "_name"}.isdisjoint(vars(B))
    B.cells
    assert B.f_counts() == counts == tuple(map(B._dims.count, range(dim + 1)))
    by_dim = Counter(f[0] for f in reference_boundary_faces(K.faces, K.cells).values())
    assert counts == tuple(by_dim[j] for j in range(len(by_dim)))
    return counts


def check_ridges_and_boundary(K):
    if not K.pure:
        with pytest.raises(NotPure):
            K.ridge_degrees()
        return
    assert K.ridge_degrees() == reference_ridge_degrees(K.faces, K.cells)
    boundary, reads = read_counts_first(lambda: type(K).boundary.func(K))
    expect = reclosed_boundary(K)
    assert numbering(boundary) == expect and reads == reference_reads(*expect)
    faces = {key: (f.dim, f.corners) for key, f in boundary.faces.items()}
    assert faces == reference_boundary_faces(K.faces, K.cells)
    assert K.boundary == boundary


@given(cubical_inputs())
def test_cubical_ridges_and_boundary_match_their_definition(cells):
    K = valid_complex(cells)
    if K is not None:
        check_ridges_and_boundary(K)


def test_boundary_of_a_cube_met_first_through_a_contained_square():
    # The square comes first in a symmetric corner order, so its stored
    # witness is not the one the cube reads for it.
    cells = [CubicalCell(2, (2, 0, 3, 1)), CubicalCell(3, tuple(range(8)))]
    K = CubicalComplex.from_cells(cells)
    assert K.face({0, 1, 2, 3}).corners == (2, 0, 3, 1)
    assert numbering(K)[:2] == reference_numbering([(c.dim, c.corners) for c in cells], "cubical")[:2]
    check_ridges_and_boundary(K)
    assert K.boundary.face({0, 1, 2, 3}).corners == (2, 0, 3, 1)


@given(cubical_inputs())
def test_cubical_boundary_counts_match_its_table_and_definition(cells):
    K = valid_complex(cells)
    if K is not None and K.pure:
        check_boundary_counts(K)


def test_boundary_counts_of_a_cube_met_first_through_a_contained_square():
    cells = [CubicalCell(2, (2, 0, 3, 1)), CubicalCell(3, tuple(range(8)))]
    assert check_boundary_counts(CubicalComplex.from_cells(cells)) == (8, 12, 6)


def test_boundary_counts_match_the_built_table_on_the_families():
    for member in cubical_family() + simplicial_family():
        K = member.complex
        if K.pure:
            empty = member.topology in ("sphere", "torus") or K.dim == 0  # a point has no ridge
            assert (check_boundary_counts(K) == ()) == empty, member.provenance


@given(cubical_inputs())
def test_cubical_link_vectors_match_their_definition(cells):
    K = valid_complex(cells)
    if K is not None:
        for v in K.vertices:
            h = h_simplicial(f_vector(link_of_vertex(K, v)), rank=K.dim)
            assert K.link_h_vectors[v] == h
            assert K.link_g_vectors[v] == g_vector(h, upto=K.dim)


@pytest.mark.parametrize("table", [_subface_tables, _simplex_tables])
@pytest.mark.parametrize("k", range(6))
def test_entries_inside_an_entry_match_a_subset_scan(table, k):
    positions = tuple(range(1 << k))  # covers the corners of a k-cube and a k-simplex
    spans = [read(positions) for _, read in table(k)]
    subfaces = cube_subfaces if table is _subface_tables else simplex_subfaces
    for e, (j, _) in enumerate(table(k)):
        inside = _inside(table, k, e)
        assert sorted(inside) == [s for s, sub in enumerate(spans) if set(sub) <= set(spans[e])]
        # In the order of the entry's own table, read through its corners.
        own = [frozenset(spans[e][q] for q in pos) for _, pos in subfaces(j)]
        assert [frozenset(spans[s]) for s in inside] == own


def same_cube(corners, witness):
    try:
        _same_cube(corners, witness)
    except InconsistentSharedFace:
        return False
    return True


@pytest.mark.parametrize("k", [2, 3])
def test_same_cube_accepts_exactly_the_orderings_with_the_same_facets(k):
    corners = tuple(range(10, 10 + (1 << k)))
    facets = reference_facet_keys(corners, k)
    accepted = 0
    for witness in permutations(corners):
        expect = reference_facet_keys(witness, k) == facets
        assert same_cube(corners, witness) == expect, witness
        accepted += expect
    assert accepted == (1 << k) * factorial(k)  # the symmetries of the k-cube


@given(cube_symmetry(4), st.data())
def test_same_cube_on_four_cubes_matches_the_facet_sets(sym, data):
    corners = tuple(range(20, 36))
    witness = tuple(corners[b] for b in sym)
    if data.draw(st.booleans()):
        witness = swap_two(data.draw, witness)
    if data.draw(st.booleans()):
        witness = tuple(data.draw(st.permutations(corners)))
    expect = reference_facet_keys(witness, 4) == reference_facet_keys(corners, 4)
    assert same_cube(corners, witness) == expect


@pytest.mark.parametrize("k", range(5))
def test_subface_masks_are_the_position_sets_that_fill_a_subcube(k):
    at = _entry_at(_subface_tables, k)[0]
    for mask in range(1, 1 << (1 << k)):
        positions = [p for p in range(1 << k) if mask >> p & 1]
        assert (mask in at) == reference_fills_subcube(positions), positions


@pytest.mark.parametrize("k", range(1, 5))
def test_a_smaller_cubes_masks_are_the_larger_cubes_below_its_corner_count(k):
    masks = _entry_at(_subface_tables, k)[0].keys()
    for smaller in range(k):
        below = {m for m in masks if m < 1 << (1 << smaller)}
        assert _entry_at(_subface_tables, smaller)[0].keys() == below


def test_same_cube_accepts_the_four_cube_symmetries_and_no_transposition_of_them():
    corners = tuple(range(20, 36))
    facets = reference_facet_keys(corners, 4)
    symmetries = {
        tuple(symmetry(axes, flips)) for axes in permutations(range(4)) for flips in range(16)
    }
    assert len(symmetries) == (1 << 4) * factorial(4)
    for sym in symmetries:
        witness = tuple(corners[b] for b in sym)
        assert reference_facet_keys(witness, 4) == facets
        assert same_cube(corners, witness)
        for i, j in combinations(range(16), 2):
            swapped = list(witness)
            swapped[i], swapped[j] = witness[j], witness[i]
            assert reference_facet_keys(swapped, 4) != facets
            assert not same_cube(corners, tuple(swapped))


@pytest.mark.parametrize("k", range(4))
def test_cube_symmetry_agrees_with_the_step_arithmetic(k):
    for q in permutations(range(1 << k)):
        assert _cube_symmetry(q) == reference_cube_symmetry(q), q


def relabelling(data, vertices):
    """A drawn injection of the vertices into the integers 0..999."""
    n = len(vertices)
    images = data.draw(st.lists(st.integers(0, 999), min_size=n, max_size=n, unique=True))
    return dict(zip(vertices, images))


def label_free(C):
    """The face counts and, of every report, its name, status and checks:
    what relabelling must not change (contexts and details name vertices)."""
    reports = run_suite("all", C)
    return C.f_counts(), [
        (r.name, r.status, [(c.label, c.lhs, c.rhs) for c in r.checks]) for r in reports
    ]


@given(cubical_inputs(), st.data())
def test_relabelling_valid_cubical_inputs_changes_no_count_or_report(cells, data):
    K = valid_complex(cells)
    if K is not None:
        m = relabelling(data, K.vertices)
        image = CubicalComplex.from_cells(
            CubicalCell(c.dim, tuple(m[v] for v in c.corners)) for c in cells
        )
        assert label_free(image) == label_free(K)


def brute_faces(facets):
    return {frozenset(s) for f in facets for r in range(1, len(f) + 1) for s in combinations(f, r)}


def check_against_definitions(S, facets):
    keys = {frozenset(f) for f in facets} - {frozenset()}
    assert set(S.faces) == brute_faces(keys)
    assert {c.key for c in S.cells} == {f for f in keys if not any(f < g for g in keys)}
    assert all(c.corners == tuple(sorted(c.key)) for c in S.faces.values())
    order = sorted((tuple(sorted(f)) for f in keys), key=lambda c: (-len(c), c))
    assert numbering(S) == reference_numbering([(len(c) - 1, c) for c in order], "simplicial")
    for v in S.vertices:
        link, reads = read_counts_first(lambda: S.link(v), unbuilt=True)
        reclosed = reclosed_vertex_link(S, v)
        assert numbering(link) == reclosed and reads == reference_reads(*reclosed)
        assert set(link.faces) == {f - {v} for f in S.faces if v in f} - {frozenset()}
        # The link face counts are the vertex's coface counts up to the last nonzero one.
        counts = list(S.vertex_coface_counts[v][1:])
        assert tuple(counts[: len(counts) - counts.count(0)]) == link.f_counts()


facet_lists = st.lists(
    st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True), min_size=1, max_size=12
)


@given(facet_lists, st.data())
def test_simplicial_links_and_cells_match_definitions(facets, data):
    # Repeat some facets and add some of their faces as extra facets.
    extra = data.draw(st.lists(st.sampled_from(facets), max_size=4))
    extra += [f[: data.draw(st.integers(1, len(f)))] for f in extra]
    facets = facets + extra
    check_against_definitions(build_simplicial(facets), facets)


@pytest.mark.parametrize(
    "facets",
    [
        [c.corners for c in stacked_simplicial_ball(3, 12, gluing="tree", seed=4).complex.cells],
        [[0, 1, 2, 3], [2, 3, 4], [4, 5], [6]],
    ],
)
def test_an_unbuilt_link_outlives_its_parent(facets):
    S = build_simplicial(facets)
    links = {v: S.link(v) for v in S.vertices}
    reclosed = {v: reclosed_vertex_link(S, v) for v in S.vertices}
    parent = weakref.ref(S)
    del S
    gc.disable()
    try:
        assert {v: numbering(link) for v, link in links.items()} == reclosed
        # Built, the links hold only the parent's vertex sets and witnesses.
        assert parent() is None
    finally:
        gc.enable()


def test_simplicial_family_links_and_cells_match_definitions():
    for gc in simplicial_family():
        S = gc.complex
        check_against_definitions(S, [c.key for c in S.cells])
        assert S == SimplicialComplex.from_facets(sorted(S.faces, key=len))


@given(facet_lists)
def test_simplicial_link_euler_matches_its_definition(facets):
    S = build_simplicial(facets)
    assert S.link_euler == reference_link_euler(S.faces)
    assert list(S.link_euler) == list(S.faces)


@given(facet_lists)
def test_simplicial_rows_run_largest_first_then_in_number_order(facets):
    # What lets a vertex link read its parent's rows as they were built.
    for C in derived_simplicial_tables(build_simplicial(facets)):
        assert rows_largest_first(C)


@given(facet_lists)
def test_simplicial_ridges_and_boundary_match_their_definition(facets):
    check_ridges_and_boundary(build_simplicial(facets))


@given(facet_lists)
def test_simplicial_boundary_counts_match_its_table_and_definition(facets):
    S = build_simplicial(facets)
    if S.pure:
        check_boundary_counts(S)


@given(facet_lists, st.data())
def test_relabelling_simplicial_facets_changes_no_count_or_report(facets, data):
    S = build_simplicial(facets)
    m = relabelling(data, S.vertices)
    assert label_free(build_simplicial([[m[v] for v in f] for f in facets])) == label_free(S)
