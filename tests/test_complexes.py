"""Core complex construction, validation, links and boundaries."""

import gc
import weakref
from itertools import permutations

import pytest

from cubicomb import (
    ComplexError,
    CubicalCell,
    CubicalComplex,
    DuplicateVertexInCell,
    InconsistentSharedFace,
    IntersectionNotAFace,
    NotPure,
    SimplicialComplex,
    UnknownFace,
    UnknownVertex,
    ZeroDimensionalFace,
    antipodal_pairs,
    boundary_complex,
    build_cubical,
    build_simplicial,
    cross_polytope_boundary,
    cube_boundary,
    cubical_torus,
    least_upper_bound,
    link_face,
    link_of_vertex,
    pile_of_cubes,
    run_suite,
    serializes,
    simplex,
    solid_cube,
    stacked_simplicial_ball,
    verify_cubical_boundary_ds,
)
from cubicomb import complexes
from families import cubical_family, derived_simplicial_tables
from oracles import (
    brute_least_upper_bounds,
    brute_pairwise_closed,
    reference_cubical_closure,
    rows_largest_first,
)

SQUARE = CubicalCell(2, (0, 1, 2, 3))


def test_cell_corner_count_must_match_dimension():
    with pytest.raises(ValueError):
        CubicalCell(2, (0, 1, 2))
    with pytest.raises(ValueError):
        CubicalCell(0, (0, 1))


def test_cell_rejects_bad_vertex_ids():
    with pytest.raises(ValueError):
        CubicalCell(1, (0, -1))
    with pytest.raises(ValueError):
        CubicalCell(1, (0, True))
    with pytest.raises(DuplicateVertexInCell):
        CubicalCell(1, (5, 5))


def test_cell_dimension_nonnegative():
    with pytest.raises(ValueError):
        CubicalCell(-1, ())


def test_square_closure_has_nine_faces():
    K = build_cubical([SQUARE])
    assert K.dim == 2
    assert K.f_counts() == (4, 4, 1)
    assert {0, 2} in K and {1, 3} in K and {0, 1} in K
    assert {0, 3} not in K  # the diagonal is not a face


def test_two_squares_sharing_an_edge():
    K = build_cubical([SQUARE, CubicalCell(2, (1, 4, 3, 5))])
    assert K.f_counts() == (6, 7, 2)
    assert len(K.cells) == 2


def test_diagonal_overlap_is_rejected():
    # second square contains vertices 0 and 3 only across its diagonal
    other = CubicalCell(2, (0, 4, 5, 3))
    with pytest.raises(IntersectionNotAFace):
        build_cubical([SQUARE, other])


def closure_or_error(build):
    """What a build gives, faces and maximal cells as ``(dim, corners)``, or
    the type and message of the error it raises."""
    try:
        out = build()
    except (IntersectionNotAFace, InconsistentSharedFace) as e:
        return type(e), str(e)
    if isinstance(out, CubicalComplex):
        faces = {key: (f.dim, f.corners) for key, f in out.faces.items()}
        return faces, [(c.dim, c.corners) for c in out.cells]
    return out


@pytest.mark.parametrize(
    "cells, error, message",
    [
        # {0, 3} is a diagonal of both squares
        (
            [SQUARE, CubicalCell(2, (0, 4, 5, 3))],
            IntersectionNotAFace,
            "cells {0, 1, 2, 3} and {0, 3, 4, 5} intersect in {0, 3}, which is not a face",
        ),
        # {0, 1} is a diagonal of the first square and an edge of the second
        (
            [CubicalCell(2, (0, 4, 5, 1)), SQUARE],
            InconsistentSharedFace,
            "intersection {0, 1} of cells {0, 1, 4, 5} and {0, 1, 2, 3} is not a common subface",
        ),
        # {0, 1} is an edge of the first square and a diagonal of the second
        (
            [SQUARE, CubicalCell(2, (0, 4, 5, 1))],
            InconsistentSharedFace,
            "intersection {0, 1} of cells {0, 1, 2, 3} and {0, 1, 4, 5} is not a common subface",
        ),
        # both later squares fail with the first; the earlier one is named
        (
            [SQUARE, CubicalCell(2, (0, 4, 5, 3)), CubicalCell(2, (0, 6, 7, 1))],
            IntersectionNotAFace,
            "cells {0, 1, 2, 3} and {0, 3, 4, 5} intersect in {0, 3}, which is not a face",
        ),
        # the edge {0, 1} lies in the first square and is a diagonal of the
        # other; listed after the square it adds no cell, and the square fails
        (
            [SQUARE, CubicalCell(1, (0, 1)), CubicalCell(2, (0, 4, 5, 1))],
            InconsistentSharedFace,
            "intersection {0, 1} of cells {0, 1, 2, 3} and {0, 1, 4, 5} is not a common subface",
        ),
        (
            [SQUARE, CubicalCell(2, (0, 4, 5, 1)), CubicalCell(1, (0, 1))],
            InconsistentSharedFace,
            "intersection {0, 1} of cells {0, 1, 2, 3} and {0, 1, 4, 5} is not a common subface",
        ),
        # listed first, the edge is a cell of its own and its pair comes first
        (
            [CubicalCell(1, (0, 1)), SQUARE, CubicalCell(2, (0, 4, 5, 1))],
            InconsistentSharedFace,
            "intersection {0, 1} of cells {0, 1} and {0, 1, 4, 5} is not a common subface",
        ),
    ],
)
def test_cell_pair_errors_name_the_first_failing_pair(cells, error, message):
    assert closure_or_error(lambda: build_cubical(cells)) == (error, message)
    assert closure_or_error(lambda: reference_cubical_closure(cells)) == (error, message)


def test_contained_cells_are_dropped_before_and_after_their_container():
    # the point lies in both edges and the square, the edge {1, 3} in the square
    cells = [CubicalCell(0, (3,)), CubicalCell(1, (1, 3)), SQUARE, CubicalCell(1, (3, 4))]
    for order in permutations(cells):
        built = closure_or_error(lambda: build_cubical(order))
        assert built == closure_or_error(lambda: reference_cubical_closure(order))
        assert built[1] == [(1, (3, 4)), (2, (0, 1, 2, 3))]


def test_same_vertex_set_different_structure_is_rejected():
    # same four vertices, edges {0,1},{2,3} versus edges {0,1},{3,2}-twisted
    with pytest.raises(InconsistentSharedFace):
        build_cubical([SQUARE, CubicalCell(2, (0, 1, 3, 2))])


def test_shared_square_of_two_cubes_must_agree():
    cube = CubicalCell(3, tuple(range(8)))
    twisted = CubicalCell(3, (0, 1, 3, 2, 8, 9, 10, 11))
    with pytest.raises(InconsistentSharedFace):
        build_cubical([cube, twisted])


def test_contained_cell_must_agree_with_its_container():
    cube = CubicalCell(3, tuple(range(8)))
    with pytest.raises(InconsistentSharedFace):
        build_cubical([cube, CubicalCell(2, (0, 1, 3, 2))])
    assert len(build_cubical([cube, CubicalCell(2, (1, 0, 3, 2))]).cells) == 1


@pytest.mark.parametrize(
    "cells",
    [
        [CubicalCell(3, tuple(range(8))), CubicalCell(2, (0, 1, 3, 2))],
        [SQUARE, CubicalCell(2, (0, 1, 3, 2))],
        [CubicalCell(3, tuple(range(8))), CubicalCell(3, (0, 1, 3, 2, 4, 5, 6, 7))],
    ],
)
def test_an_unvalidated_build_refuses_a_second_cube_structure(cells):
    unvalidated = closure_or_error(lambda: CubicalComplex.from_cells(cells, validate=False))
    assert unvalidated[0] is InconsistentSharedFace
    assert unvalidated == closure_or_error(lambda: build_cubical(cells))


def test_agreeing_readings_never_reach_the_cube_test(monkeypatch):
    calls, same_cube = [], complexes._same_cube

    def counted(*args):
        calls.append(args)
        return same_cube(*args)

    monkeypatch.setattr(complexes, "_same_cube", counted)
    K = cubical_torus(4, 4, 4).complex
    assert calls == []
    cells = [CubicalCell(c.dim, c.corners) for c in K.cells]
    # the reflection in the first coordinate, a symmetry of the 3-cube
    cells[0] = CubicalCell(3, tuple(cells[0].corners[b ^ 1] for b in range(8)))
    moved = CubicalComplex.from_cells(cells)
    assert calls
    assert moved == K


def test_cell_dominated_by_another_is_dropped():
    edge = CubicalCell(1, (0, 1))
    K = build_cubical([SQUARE, edge])
    assert len(K.cells) == 1
    assert K.cells[0].dim == 2


def test_exact_duplicate_cells_collapse():
    K = build_cubical([SQUARE, CubicalCell(2, (0, 1, 2, 3))])
    assert K.f_counts() == (4, 4, 1)


def test_empty_complex():
    K = CubicalComplex.empty()
    assert K.dim == -1
    assert K.f_counts() == ()
    assert SimplicialComplex.empty().dim == -1
    with pytest.raises(ValueError):
        build_cubical([])


def unvalidated_squares_through_a_diagonal():
    return CubicalComplex.from_cells(
        [CubicalCell(2, (0, 1, 2, 3)), CubicalCell(2, (0, 4, 5, 3))], validate=False
    )


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: CubicalComplex.from_cells([(0, (1,))]),
            TypeError,
            "from_cells expects CubicalCell values",
        ),
        (
            lambda: build_simplicial([[0, 1, 2], [2, 3]]).semi_eulerian,
            NotPure,
            "the Euler condition is checked on pure complexes",
        ),
        (
            lambda: least_upper_bound(unvalidated_squares_through_a_diagonal(), 0, 3),
            IntersectionNotAFace,
            "faces over {0, 3} meet in {0, 3}, which is not a face",
        ),
    ],
)
def test_complex_refusals_name_their_type_and_reason(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, message)


def test_empty_is_no_pseudomanifold_and_kinds_never_compare_equal():
    assert CubicalComplex.empty().pseudomanifold is False
    edge = solid_cube(1).complex
    assert edge.faces.keys() == build_simplicial([[0, 1]]).faces.keys()
    assert (edge == build_simplicial([[0, 1]])) is False


def test_face_lookup_and_unknowns():
    K = build_cubical([SQUARE])
    assert K.face({0, 1}).dim == 1
    with pytest.raises(UnknownFace):
        K.face({0, 3})
    with pytest.raises(UnknownVertex):
        link_of_vertex(K, 9)
    with pytest.raises(UnknownVertex):
        least_upper_bound(K, 0, 9)


@pytest.mark.parametrize("v", [True, False, 1.0, "1", None, [1], 9])
def test_vertex_queries_refuse_what_the_cell_gate_refuses(v, monkeypatch):
    S, K = build_simplicial([[0, 1, 2]]), build_cubical([SQUARE])
    built = []
    monkeypatch.setattr(complexes._FaceTable, "_subcomplex", lambda self, cells: built.append(cells))
    monkeypatch.setattr(complexes._FaceTable, "_close", classmethod(lambda cls, cells: built.append(cells)))
    calls = [
        lambda: S.link(v),
        lambda: link_of_vertex(K, v),
        lambda: least_upper_bound(K, v, 3),
        lambda: least_upper_bound(K, 3, v),
    ]
    for call in calls:
        with pytest.raises(UnknownVertex):
            call()
    assert built == []  # refused when called, before any table is built


def test_antipodal_pairs_of_a_square():
    K = build_cubical([SQUARE])
    assert antipodal_pairs(K.face({0, 1, 2, 3})) == ((0, 3), (1, 2))
    with pytest.raises(ZeroDimensionalFace):
        antipodal_pairs(K.face({0}))


def test_antipodal_pairs_refuse_a_face_that_is_not_a_cube():
    S = simplex(2).complex
    with pytest.raises(ComplexError):
        antipodal_pairs(S.face({0, 1, 2}))
    with pytest.raises(ZeroDimensionalFace):
        antipodal_pairs(S.face({0}))
    assert antipodal_pairs(S.face({0, 2})) == ((0, 2),)


def test_antipodal_pairs_of_an_edge():
    K = build_cubical([SQUARE])
    assert antipodal_pairs(K.face({0, 2})) == ((0, 2),)


def test_least_upper_bound_cases():
    shell = cube_boundary(3).complex
    solid = solid_cube(3).complex
    assert least_upper_bound(shell, 0, 7) is None
    assert least_upper_bound(solid, 0, 7).dim == 3
    assert sorted(least_upper_bound(shell, 0, 3).key) == [0, 1, 2, 3]
    assert least_upper_bound(shell, 0, 1).dim == 1
    with pytest.raises(ValueError):
        least_upper_bound(shell, 4, 4)


def test_least_upper_bound_matches_brute_force():
    for gc in [cube_boundary(3), pile_of_cubes(2, 2), cubical_torus(3, 3)]:
        K = gc.complex
        vs = K.vertices
        for u in vs[:6]:
            for v in vs[:6]:
                if u >= v:
                    continue
                mins = brute_least_upper_bounds(K.faces.keys(), u, v)
                found = least_upper_bound(K, u, v)
                if found is None:
                    assert mins == []
                else:
                    assert mins == [found.key]


def test_closure_under_intersection_across_family():
    for gc in cubical_family():
        K = gc.complex
        if len(K.faces) > 400:
            continue
        assert brute_pairwise_closed(set(K.faces.keys())), gc.provenance


def test_every_face_has_cube_interval_below():
    # 3^k distinct subfaces, all present, one per fixed-coordinate pattern
    for gc in [cube_boundary(3), pile_of_cubes(2, 1), cubical_torus(3, 3)]:
        K = gc.complex
        for face in K.faces.values():
            count = sum(
                1 for other in K.faces.values() if other.key <= face.key
            )
            assert count == 3 ** face.dim


def test_link_of_vertex_in_torus_is_a_circle():
    K = cubical_torus(4, 4).complex
    lk = link_of_vertex(K, 0)
    assert lk.dim == 1
    assert lk.f_counts() == (4, 4)
    degrees = lk.ridge_degrees()
    assert all(n == 2 for n in degrees.values())


def test_link_of_corner_vertex_in_solid_cube():
    K = solid_cube(3).complex
    lk = link_of_vertex(K, 0)
    # a corner sees 3 edges, 3 squares, 1 cube: a full triangle
    assert lk.f_counts() == (3, 3, 1)


def test_link_face_of_an_edge():
    solid = solid_cube(3).complex
    assert link_face(solid, {0, 1}).f_counts() == (2, 1)
    shell = cube_boundary(3).complex
    assert link_face(shell, {0, 1}).f_counts() == (2,)
    assert link_face(shell, shell.face({0, 1, 2, 3})).dim == -1
    with pytest.raises(UnknownFace):
        link_face(shell, {0, 7})


def test_link_face_of_vertex_matches_link_of_vertex():
    K = cubical_torus(3, 3).complex
    for v in K.vertices:
        a = link_of_vertex(K, v)
        b = link_face(K, {v})
        assert a.f_counts() == b.f_counts()


def test_vertex_coface_counts_match_links():
    for gc in [cube_boundary(3), pile_of_cubes(2, 2), cubical_torus(4, 4)]:
        K = gc.complex
        for v in K.vertices:
            lk = link_of_vertex(K, v)
            expect = tuple(lk.f_counts())
            got = K.vertex_coface_counts[v][1:]
            assert got[: len(expect)] == expect
            assert all(n == 0 for n in got[len(expect) :])


def test_boundary_of_solid_square_is_a_cycle():
    B = boundary_complex(solid_cube(2).complex)
    assert B.dim == 1
    assert B.f_counts() == (4, 4)
    assert all(n == 2 for n in B.ridge_degrees().values())


def test_boundary_of_pile_2_1_is_a_six_cycle():
    B = boundary_complex(pile_of_cubes(2, 1).complex)
    assert B.f_counts() == (6, 6)


def test_boundary_of_closed_complex_is_empty():
    assert boundary_complex(cube_boundary(3).complex).dim == -1
    assert boundary_complex(cubical_torus(3, 3).complex).dim == -1


def test_boundary_of_a_point_is_empty():
    assert boundary_complex(solid_cube(0).complex).dim == -1


def test_boundary_needs_pure_complex():
    K = build_cubical([SQUARE, CubicalCell(1, (4, 5))])
    with pytest.raises(NotPure):
        boundary_complex(K)
    with pytest.raises(NotPure):
        K.ridge_degrees()


def test_complex_equality_ignores_witness_orientation():
    a = build_cubical([SQUARE])
    b = build_cubical([CubicalCell(2, (1, 0, 3, 2))])
    assert a == b
    c = build_cubical([CubicalCell(2, (0, 1, 2, 4))])
    assert a != c


def test_built_and_unbuilt_complexes_are_unhashable():
    S = build_simplicial([[0, 1, 2], [1, 2, 3]])
    link = S.link(1)
    for K in (build_cubical([SQUARE]), S, link):
        with pytest.raises(TypeError):
            hash(K)
    assert "_build" in vars(link)  # hashing built no table


def test_simplicial_from_facets_closure():
    S = build_simplicial([[1, 2, 3], [3, 4]])
    assert S.f_counts() == (4, 4, 1)
    assert {1, 2} in S and {3, 4} in S
    assert tuple(c.key for c in S.cells) == (frozenset({3, 4}), frozenset({1, 2, 3}))


def test_simplicial_dominated_facets_dropped():
    S = build_simplicial([[1, 2, 3], [1, 2]])
    assert tuple(c.key for c in S.cells) == (frozenset({1, 2, 3}),)
    # A reordered repeat, the empty facet and a contained facet all drop out.
    S = build_simplicial([[3, 1, 2], [1, 2, 3], [], [2, 1]])
    assert tuple(c.key for c in S.cells) == (frozenset({1, 2, 3}),)
    assert S.f_counts() == (3, 3, 1)
    for facets in ([[]], [(), []]):
        with pytest.raises(ValueError, match="^at least one nonempty facet is required$"):
            SimplicialComplex.from_facets(facets)


def test_simplicial_link():
    S = build_simplicial([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]])
    lk = S.link(0)
    assert lk.f_counts() == (4, 4)
    with pytest.raises(UnknownVertex):
        S.link(9)


def test_simplicial_boundary_of_two_tetrahedra():
    S = build_simplicial([[0, 1, 2, 3], [1, 2, 3, 4]])
    B = boundary_complex(S)
    assert B.f_counts() == (5, 9, 6)
    assert frozenset({1, 2, 3}) not in B.faces


def test_from_facets_checks_each_facet_before_merging_its_vertices():
    for facet in ([1, True, 2], [1, 1.0, 2], [[1], 2], [1, 1, 2]):
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets([facet])
    with pytest.raises(DuplicateVertexInCell, match="^cell repeats a vertex$"):
        SimplicialComplex.from_facets([[1, 1, 2]])


@pytest.mark.parametrize("facets, bad", [([5], "5"), ([None], "None"), ([[1, 2], 7], "7")])
def test_from_facets_refuses_a_facet_that_is_not_iterable(facets, bad):
    with pytest.raises(ValueError) as err:
        SimplicialComplex.from_facets(facets)
    assert str(err.value) == f"a facet must be an iterable of vertex ids, got {bad}"


def test_simplicial_rejects_bad_vertices():
    with pytest.raises(ValueError):
        build_simplicial([[0, -2]])
    with pytest.raises(ValueError):
        build_simplicial([])


def test_hot_paths_never_build_the_faces_dict():
    torus = cubical_torus(5, 5, 6, 6)
    run_suite("all", torus)
    assert "faces" not in vars(torus.complex)
    ball = stacked_simplicial_ball(3, 40, gluing="tree", seed=3).complex
    for v in ball.vertices:
        ball.link(v)
    assert "faces" not in vars(ball)


def test_counted_links_and_boundaries_never_name_their_faces():
    S = stacked_simplicial_ball(4, 60, gluing="tree", seed=3).complex
    links = [S.link(v) for v in S.vertices]
    counts = [link.f_counts() for link in links]
    ball = stacked_simplicial_ball(4, 60, seed=5)
    run_suite("ns-ds", ball)
    pile = pile_of_cubes(3, 2, 2)
    verify_cubical_boundary_ds(pile)
    assert "boundary" in vars(ball.complex) and "boundary" in vars(pile.complex)
    for sub in links + [ball.complex.boundary, pile.complex.boundary]:
        assert not {"_index", "_witness"} & vars(sub).keys()
    # A counted link holds no table of its own.
    assert all(repr(link) and link.dim == len(c) - 1 for link, c in zip(links, counts))
    assert not any({"_dims", "_ids", "_maximal", "_name"} & vars(link).keys() for link in links)
    # Named afterwards, a link gives the same counts and lets go of its
    # build function and its parent's lists.
    assert [len(link.faces) for link in links] == [sum(c) for c in counts]
    assert [link.f_counts() for link in links] == [
        tuple(map(link._dims.count, range(link.dim + 1))) for link in links
    ]
    assert not any({"_build", "_name"} & vars(link).keys() for link in links)


def test_simplicial_builds_links_and_boundaries_make_no_vertex_sets():
    ball = stacked_simplicial_ball(4, 60, seed=5)
    S = ball.complex
    run_suite("ns-ds", ball)
    counts = [S.link(v).f_counts() for v in S.vertices]
    assert boundary_complex(S).f_counts() and len(counts) == len(S.vertices)
    for C in (S, S.boundary):
        assert not {"_keys", "faces"} & vars(C).keys()


def check_simplicial_keys(S):
    """Every key of a simplicial index is its face's witness object, in number
    order, and a caller's key is read as a vertex set, as a cube reads it."""
    assert list(S._index.values()) == list(range(len(S._witness)))
    assert all(key is w for key, w in zip(S._index, S._witness))
    top = S.cells[-1].corners
    for key in (top[::-1], list(top[1:] + top[:1]), frozenset(top), top + top[:1]):
        assert key in S and S.face(key) == S.face(top)
    outside = (*top, max(S.vertices) + 1)
    assert "x" not in S and ["x", 1] not in S and outside not in S
    for key in (["x", 1], outside):
        with pytest.raises(UnknownFace):
            S.face(key)


@pytest.mark.parametrize(
    "S",
    [
        stacked_simplicial_ball(3, 20, seed=2).complex,
        build_simplicial([[3, 1, 2], [2, 5], [7]]),
        link_face(solid_cube(3).complex, {0}),
        link_face(cubical_torus(3, 3, 3).complex, {0, 1}),
    ],
)
def test_a_simplicial_index_is_keyed_by_its_witnesses(S):
    check_simplicial_keys(S)


def test_a_cubical_face_is_looked_up_by_its_vertex_set():
    K = build_cubical([SQUARE])
    for key in ((1, 0), [0, 1], frozenset({0, 1}), (1, 0, 1)):
        assert key in K and K.face(key) == K.face({0, 1})
    assert "x" not in K and ["x", 1] not in K
    with pytest.raises(UnknownFace):
        K.face(["x", 1])


@pytest.mark.parametrize("K", [solid_cube(2).complex, simplex(3).complex])
def test_face_reads_the_callers_key_once_and_names_it(K):
    for key in ([5, 0], (5, 0), {0, 5}, iter([0, 5]), (v for v in (5, 0))):
        with pytest.raises(UnknownFace) as err:
            K.face(key)
        assert str(err.value) == "{0, 5}"
    assert K.face(iter([0, 1])) == K.face(v for v in (1, 0)) == K.face({0, 1})
    with pytest.raises(UnknownFace) as err:
        K.face(iter([0, "x"]))
    assert str(err.value) == str({0, "x"})


def test_naming_a_vertex_link_makes_no_vertex_sets_on_its_parent():
    S = stacked_simplicial_ball(4, 60, gluing="tree", seed=3).complex
    v = S.vertices[0]
    assert S.link(v).cells
    assert not {"_keys", "faces"} & vars(S).keys()


def test_building_links_first_reads_no_coface_counts():
    S = stacked_simplicial_ball(3, 40, gluing="tree", seed=3).complex
    links = [S.link(v) for v in S.vertices]
    assert all(len(link._ids) for link in links)
    assert "vertex_coface_counts" not in vars(S)
    # Built first, a link counts its own table, and its counts are the parent's.
    assert [link.f_counts() for link in links] == [
        complexes._link_counts(S.vertex_coface_counts[v]) for v in S.vertices
    ]
    assert not any({"f_counts", "_build"} & vars(link).keys() for link in links)
    with pytest.raises(UnknownVertex):
        S.link(max(S.vertices) + 1)


@pytest.mark.parametrize(
    "generated", [stacked_simplicial_ball(4, 60, gluing="tree", seed=3), cross_polytope_boundary(3)]
)
def test_a_vertex_link_is_made_of_its_parents_faces(generated):
    S = generated.complex
    for v in S.vertices:
        link = S.link(v)
        assert set(link.faces) == {F for F in S.faces if v not in F and F | {v} in S}
        for F in link.faces.values():
            G = S.face(F.key)
            assert F.key == G.key and F.corners is G.corners


def test_a_cached_boundary_does_not_keep_its_parent_alive():
    # With a reference cycle, every complex a run builds would stay until the
    # cycle collector ran.
    cubes = [CubicalCell(c.dim, c.corners) for c in pile_of_cubes(3, 2, 2).complex.cells]
    facets = [c.corners for c in stacked_simplicial_ball(3, 7, seed=2).complex.cells]
    gc.disable()
    try:
        for build in (lambda: build_cubical(cubes), lambda: build_simplicial(facets)):
            K = build()
            assert K.boundary.f_counts()
            parent = weakref.ref(K)
            del K
            assert parent() is None
    finally:
        gc.enable()


def read_every_view(K):
    """Read every derived view of ``K``, a built vertex link and the vertex
    stars included, and return the link."""
    K.link_euler, K.ridge_degrees(), K.vertex_coface_counts, K.faces, K.cells
    K.pseudomanifold, K.eulerian
    assert K.boundary.f_counts() and K.boundary.faces
    u, v = K.cells[-1].corners[:2]
    if K.kind == "cubical":
        K.link_g_vectors, K.h_long
        assert least_upper_bound(K, u, v) is not None  # reads the vertex stars
        link = link_of_vertex(K, u)
    else:
        assert K._star[u]
        link = K.link(u)
    assert link.cells and link.faces
    return link


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_cubical([CubicalCell(c.dim, c.corners) for c in pile_of_cubes(3, 2, 2).complex.cells]),
        lambda: build_simplicial([c.corners for c in stacked_simplicial_ball(3, 12, seed=2).complex.cells]),
    ],
)
def test_builds_and_views_make_no_reference_cycles(build):
    # The premise of pausing the collector while a table or a view is built:
    # no collection it could have started would have found anything.
    gc.disable()
    try:
        gc.collect()
        K = build()
        link = read_every_view(K)
        parent = weakref.ref(K)
        del K, link
        assert parent() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_builds_and_views_leave_the_collector_as_the_caller_set_it():
    cells = [CubicalCell(c.dim, c.corners) for c in pile_of_cubes(2, 2).complex.cells]
    gc.disable()
    try:
        K = build_cubical(cells)
        assert not gc.isenabled()
        read_every_view(K)
        assert not gc.isenabled()
    finally:
        gc.enable()
    failing = [
        lambda: build_cubical([SQUARE, CubicalCell(2, (0, 5, 6, 3))]),
        lambda: build_cubical([SQUARE, CubicalCell(2, (0, 1, 3, 2))]),
        lambda: build_simplicial([[0, 1], [2, True]]),
        lambda: build_simplicial([[0, 1, 2], [2, 3]]).boundary,
    ]
    for fail, error in zip(failing, (IntersectionNotAFace, InconsistentSharedFace, ValueError, NotPure)):
        with pytest.raises(error):
            fail()
        assert gc.isenabled()


def collections_started(run) -> int:
    """How many collections start while ``run()`` runs, with a young
    generation emptied first and a threshold low enough that a few dozen
    allocations start one."""
    started, threshold = [], gc.get_threshold()

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect(0)
    gc.set_threshold(25, *threshold[1:])
    gc.callbacks.append(count)
    try:
        run()
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    return len(started)


def test_no_collection_starts_during_a_build_or_a_first_view_read():
    cells = [CubicalCell(c.dim, c.corners) for c in cubical_torus(5, 5, 6, 6).complex.cells]
    built = []
    assert collections_started(lambda: built.append(build_cubical(cells))) == 0
    K = built[0]
    assert collections_started(lambda: K.link_euler) == 0
    # The boundary reads the ridge view inside its own first read, so the
    # nested read leaves the collector paused for the rest of the outer one.
    assert collections_started(lambda: K.boundary) == 0
    assert "_ridges" in vars(K) and K.boundary.f_counts() == ()
    assert gc.isenabled()


def test_faces_view_matches_the_reference_closure_once_built():
    cells = [CubicalCell(c.dim, c.corners) for c in cubical_torus(3, 3, 4).complex.cells]
    K = CubicalComplex.from_cells(cells)
    faces, _ = reference_cubical_closure(cells)
    assert [(key, f.dim, f.corners) for key, f in K.faces.items()] == [
        (key, dim, corners) for key, (dim, corners) in faces.items()
    ]
    assert all(K.faces[c.key] is c for c in K.cells)


def test_unvalidated_cells_drop_a_cell_listed_after_one_that_contains_it():
    cells = [CubicalCell(2, (0, 1, 2, 3)), CubicalCell(1, (0, 1))]
    K = CubicalComplex.from_cells(cells, validate=False)
    assert [c.corners for c in K.cells] == [(0, 1, 2, 3)]
    assert K.f_counts() == (4, 4, 1)
    assert K == CubicalComplex.from_cells(cells)


@pytest.mark.parametrize(
    "facets",
    [
        [c.corners for c in stacked_simplicial_ball(4, 60, gluing="tree", seed=3).complex.cells],
        [c.corners for c in cross_polytope_boundary(3).complex.cells],
        [[0, 1, 2, 3], [2, 3, 4], [4, 5], [6], [5, 7, 8], [3, 4]],
        # Its boundary is not closed: vertex 0 lies in one free edge, {0, 4}.
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [0, 1, 4]],
    ],
)
def test_simplicial_rows_run_largest_first_then_in_number_order(facets):
    # Vertex links read their parent's rows in build order with no re-sort,
    # which keeps this order only because every simplicial table has it.
    tables = derived_simplicial_tables(build_simplicial(facets[::-1]))
    assert all(rows_largest_first(C) for C in tables)


@pytest.mark.parametrize(
    "K", [pile_of_cubes(3, 2).complex, cubical_torus(3, 3).complex, solid_cube(3).complex]
)
def test_cubical_face_links_run_largest_first_then_in_number_order(K):
    links = [link_face(K, key) for key in K.faces] + [link_of_vertex(K, v) for v in K.vertices]
    assert all(rows_largest_first(link) for link in links)


def test_cells_given_out_of_order_build_the_same_complex():
    cells = [CubicalCell(c.dim, c.corners) for c in pile_of_cubes(3, 2).complex.cells]
    forward, backward = build_cubical(cells), build_cubical(cells[::-1])
    built = [backward._witness[backward._ids[r]] for r in backward._maximal]
    assert built == [c.corners for c in cells[::-1]] != [c.corners for c in backward.cells]
    assert serializes(backward) == serializes(forward)
    # The boundary is numbered in the sweep's order, which follows the build.
    assert backward.boundary.f_counts() == forward.boundary.f_counts()
    assert backward.boundary == forward.boundary
