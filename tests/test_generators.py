"""Generated families: counts against oracles, metadata, determinism."""

from itertools import product
from math import comb

import pytest

from cubicomb import (
    CubicalComplex,
    GeneratedComplex,
    ValidationFailed,
    boundary_complex,
    build_simplicial,
    check_topology_metadata,
    cross_polytope_boundary,
    cube_boundary,
    cubical_torus,
    f_vector,
    pile_boundary,
    pile_of_cubes,
    prism,
    reduced_euler,
    simplex,
    simplex_boundary,
    solid_cube,
    stacked_cubical,
    stacked_simplicial_ball,
    stacked_sphere,
)
from cubicomb.files import serializes
from cubicomb.generators import _grid_cells
from families import PILE_SIDES, cubical_family, simplicial_family
from test_acceptance import _descending_tuples
from oracles import pile_f_counts, pile_face_sets, reference_stacked_ball_facets, torus_face_sets


def test_metadata_consistent_across_families():
    for gc in cubical_family() + simplicial_family():
        check_topology_metadata(gc)


# The criterion-2 pile shapes of at most 24 cells, and tori in dimensions 1-4.
GRID_BUILDS = [(pile_of_cubes, s, False) for n in range(1, 5) for s in _descending_tuples(n, 24)] + [
    (cubical_torus, s, True)
    for s in [(3,), (4,), (5,), *product((3, 4, 5), repeat=2), *product((3, 4), repeat=3)]
    + [(3, 3, 3, 3), (3, 4, 3, 5)]
]


def test_grids_built_without_the_pair_scan_equal_the_validated_build():
    """The grid generators skip the pair scan, since their cells meet in
    common faces by construction; this proves it on every shape here."""
    for family, sides, wrap in GRID_BUILDS:
        got = family(*sides).complex
        want = CubicalComplex.from_cells(_grid_cells(sides, wrap))
        for part in ("_dims", "_ids", "_maximal", "_keys", "_witness", "cells"):
            assert list(getattr(got, part)) == list(getattr(want, part)), (family, sides, part)


def test_cube_boundary_counts():
    for n in range(2, 7):
        K = cube_boundary(n).complex
        assert K.dim == n - 1
        for i in range(n):
            assert K.f_counts()[i] == comb(n, i) * (1 << (n - i))
    assert cube_boundary(2).complex.f_counts() == (4, 4)
    with pytest.raises(ValueError):
        cube_boundary(0)


def test_solid_cube_counts():
    assert solid_cube(0).complex.f_counts() == (1,)
    assert solid_cube(1).complex.f_counts() == (2, 1)
    assert solid_cube(2).complex.f_counts() == (4, 4, 1)
    assert solid_cube(3).complex.f_counts() == (8, 12, 6, 1)
    with pytest.raises(ValueError):
        solid_cube(-1)


def test_pile_counts_match_product_formula():
    for sides in PILE_SIDES:
        K = pile_of_cubes(*sides).complex
        assert K.f_counts() == pile_f_counts(sides), sides


def test_pile_faces_match_direct_enumeration():
    for sides in [(2,), (2, 1), (2, 2), (3, 2), (2, 2, 2)]:
        K = pile_of_cubes(*sides).complex
        assert set(K.faces.keys()) == pile_face_sets(sides), sides


def test_pile_rejects_bad_sides():
    with pytest.raises(ValueError):
        pile_of_cubes()
    with pytest.raises(ValueError):
        pile_of_cubes(2, 0)


def test_pile_boundary_is_closed_sphere_data():
    for sides in [(2, 1), (2, 2, 2), (2, 2, 1, 1)]:
        gc = pile_boundary(*sides)
        K = gc.complex
        assert gc.topology == "sphere"
        assert K.pseudomanifold
        assert boundary_complex(K).dim == -1
        assert reduced_euler(K) == (1 if K.dim % 2 == 0 else -1)


def test_pile_boundary_of_single_cube_is_cube_boundary():
    assert pile_boundary(1, 1, 1).complex == cube_boundary(3).complex


def test_torus_faces_match_direct_enumeration():
    for sides in [(3, 3), (4, 4), (5, 4)]:
        K = cubical_torus(*sides).complex
        assert set(K.faces.keys()) == torus_face_sets(sides), sides


def test_torus_is_closed_with_zero_euler():
    for sides in [(3, 3), (4, 4), (4, 4, 4)]:
        K = cubical_torus(*sides).complex
        assert K.pseudomanifold
        assert boundary_complex(K).dim == -1
        assert reduced_euler(K) == -1  # chi = 0


def test_torus_minimum_side_three_validates():
    # 3 is the smallest wrap length whose squares still meet in single faces
    K = cubical_torus(3, 3).complex
    assert K.f_counts() == (9, 18, 9)
    with pytest.raises(ValueError):
        cubical_torus(2, 4)


def test_stacked_cubical_counts():
    ball, sphere = stacked_cubical(3, 3)
    assert ball.topology == "ball" and sphere.topology == "sphere"
    assert sphere.complex.f_counts()[0] == 4 * 4  # 2^d (n+1)
    for n_cells, rank in [(1, 2), (2, 3), (3, 4), (5, 2)]:
        _, s = stacked_cubical(n_cells, rank)
        d = rank - 1
        assert s.complex.f_counts()[0] == (1 << d) * (n_cells + 1)
    assert stacked_cubical(1, 4)[1].complex == cube_boundary(4).complex
    with pytest.raises(ValueError):
        stacked_cubical(0, 2)


def test_simplex_and_boundary():
    assert simplex(0).complex.f_counts() == (1,)
    assert simplex(3).complex.f_counts() == (4, 6, 4, 1)
    assert simplex_boundary(3).complex.f_counts() == (4, 6, 4)
    assert f_vector(simplex_boundary(3).complex).entries == (1, 4, 6, 4)
    with pytest.raises(ValueError):
        simplex(-1)
    with pytest.raises(ValueError):
        simplex_boundary(0)


def test_cross_polytope_counts():
    for d in range(1, 5):
        K = cross_polytope_boundary(d).complex
        for i in range(1, d + 1):
            assert f_vector(K).f(i - 1) == comb(d, i) * (1 << i)
    assert cross_polytope_boundary(3).complex.f_counts() == (6, 12, 8)
    assert cross_polytope_boundary(2).complex.f_counts() == (4, 4)


def test_stacked_ball_counts_and_gluing():
    for d in range(1, 5):
        for n in (1, 2, 6):
            gc = stacked_simplicial_ball(d, n)
            K = gc.complex
            assert K.f_counts()[0] == d + n
            assert K.f_counts()[d] == n
    assert stacked_simplicial_ball(3, 2).complex.f_counts() == (5, 9, 7, 2)
    tree = stacked_simplicial_ball(3, 9, gluing="tree", seed=11)
    again = stacked_simplicial_ball(3, 9, gluing="tree", seed=11)
    assert tree.complex == again.complex
    assert tree.complex.f_counts() == stacked_simplicial_ball(3, 9).complex.f_counts()
    with pytest.raises(ValueError):
        stacked_simplicial_ball(3, 2, gluing="fan")
    with pytest.raises(ValueError):
        stacked_simplicial_ball(0, 2)


def test_stacked_ball_matches_the_ridge_count_reference():
    gluings = [("linear", None)] + [("tree", seed) for seed in range(20)]
    for d in range(1, 6):
        for n in (1, 2, 3, 7, 20, 40):
            for gluing, seed in gluings:
                gc = stacked_simplicial_ball(d, n, gluing=gluing, seed=seed)
                ref = build_simplicial(reference_stacked_ball_facets(d, n, gluing, seed))
                assert gc.complex.cells == ref.cells, (d, n, gluing, seed)
                assert serializes(gc.complex) == serializes(ref), (d, n, gluing, seed)


def test_stacked_ball_boundary_ridges():
    gc = stacked_simplicial_ball(3, 12, gluing="tree", seed=3)
    degrees = set(gc.complex.ridge_degrees().values())
    assert degrees <= {1, 2}


def test_stacked_sphere_counts():
    for d, n in [(1, 3), (2, 5), (2, 12), (3, 9)]:
        gc = stacked_sphere(d, n)
        K = gc.complex
        assert K.dim == d
        assert K.f_counts()[0] == n
        assert K.pseudomanifold
        assert reduced_euler(K) == (1 if d % 2 == 0 else -1)
    assert stacked_sphere(2, 4).complex == simplex_boundary(3).complex
    with pytest.raises(ValueError):
        stacked_sphere(2, 4 - 1)


def test_prism_counts_match_product_rule():
    for base in [cube_boundary(2), pile_of_cubes(2, 1), cube_boundary(3), solid_cube(2)]:
        P = prism(base).complex
        f = f_vector(base.complex)
        fp = f_vector(P)
        for k in range(P.dim + 1):
            lower = f.f(k - 1) if k >= 1 else 0
            assert fp.f(k) == 2 * f.f(k) + lower, base.provenance


def test_prism_special_cases():
    assert prism(solid_cube(0)).complex == solid_cube(1).complex
    assert prism(solid_cube(2)).complex == solid_cube(3).complex
    assert prism(cube_boundary(2)).topology == "manifold-with-boundary"
    assert prism(solid_cube(2)).topology == "ball"
    with pytest.raises(ValueError):
        prism(simplex(2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cross_polytope_boundary(0), "cross_polytope_boundary needs d >= 1"),
        (lambda: stacked_sphere(0, 5), "stacked_sphere needs d >= 1"),
        (
            lambda: prism(GeneratedComplex(CubicalComplex.empty(), "ball", "empty")),
            "prism needs a nonempty complex",
        ),
    ],
)
def test_generator_refusals_name_their_reason(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (ValueError, message)


def test_metadata_rejects_wrong_tags():
    ball = pile_of_cubes(2, 1)
    with pytest.raises(ValidationFailed):
        check_topology_metadata(GeneratedComplex(ball.complex, "sphere", "mislabeled"))
    torus = cubical_torus(3, 3)
    with pytest.raises(ValidationFailed):
        check_topology_metadata(GeneratedComplex(torus.complex, "ball", "mislabeled"))
    with pytest.raises(ValidationFailed):
        check_topology_metadata(GeneratedComplex(ball.complex, "cylinder", "unknown tag"))
    check_topology_metadata(GeneratedComplex(ball.complex, "none", "always fine"))


def test_every_sphere_family_is_the_boundary_of_its_ball():
    cubical_ball, cubical_sphere = stacked_cubical(3, 2)
    for sphere, ball in [
        (cube_boundary(3), solid_cube(3)),
        (simplex_boundary(4), simplex(4)),
        (pile_boundary(3, 2), pile_of_cubes(3, 2)),
        (cubical_sphere, cubical_ball),
        (stacked_sphere(3, 8), stacked_simplicial_ball(4, 4)),
    ]:
        boundary = ball.complex.boundary
        assert sphere.complex == boundary, sphere.provenance
        assert [c.corners for c in sphere.complex.cells] == [c.corners for c in boundary.cells]
        assert (sphere.topology, sphere.polytopal) == ("sphere", ball.polytopal)


def test_cube_boundary_facets_fix_one_coordinate():
    for n in range(1, 6):
        facets = {
            tuple(c for c in range(1 << n) if (c >> axis) & 1 == side)
            for axis in range(n)
            for side in (0, 1)
        }
        assert {c.corners for c in cube_boundary(n).complex.cells} == facets


def test_provenance_strings_are_informative():
    assert cube_boundary(4).provenance == "cube_boundary(4)"
    assert pile_of_cubes(2, 1).provenance == "pile_of_cubes(2, 1)"
    assert "tree" in stacked_simplicial_ball(2, 3, gluing="tree", seed=1).provenance


def test_generators_are_deterministic():
    assert cubical_torus(4, 4).complex == cubical_torus(4, 4).complex
    assert pile_boundary(2, 2).complex == pile_boundary(2, 2).complex
