"""The shared corpus of generated complexes the property tests sweep over."""

from cubicomb import (
    cross_polytope_boundary,
    cube_boundary,
    cubical_torus,
    pile_boundary,
    pile_of_cubes,
    prism,
    simplex,
    simplex_boundary,
    solid_cube,
    stacked_cubical,
    stacked_simplicial_ball,
    stacked_sphere,
)

PILE_SIDES = [
    (2,),
    (3,),
    (2, 1),
    (2, 2),
    (3, 2),
    (2, 2, 2),
    (3, 2, 1),
    (2, 1, 1, 1),
    (2, 2, 1, 1),
]

PILE_BOUNDARY_SIDES = [
    (2, 1),
    (2, 2),
    (3, 2),
    (2, 2, 2),
    (3, 2, 1),
    (2, 2, 1, 1),
    (2, 1, 1, 1, 1),
    (2, 2, 1, 1, 1),
]

TORUS_SIDES = [(4, 4), (3, 3), (5, 4), (4, 4, 4), (3, 3, 3)]


def cubical_family():
    members = []
    members += [cube_boundary(n) for n in range(2, 7)]
    members += [solid_cube(n) for n in range(1, 5)]
    members += [pile_of_cubes(*s) for s in PILE_SIDES]
    members += [pile_boundary(*s) for s in PILE_BOUNDARY_SIDES]
    members += [cubical_torus(*s) for s in TORUS_SIDES]
    members += list(stacked_cubical(3, 3))
    members += list(stacked_cubical(4, 4))
    members.append(prism(cube_boundary(2)))
    members.append(prism(pile_of_cubes(2, 1)))
    members.append(prism(cube_boundary(3)))
    return members


def simplicial_family():
    members = []
    members += [simplex(d) for d in range(0, 6)]
    members += [simplex_boundary(d) for d in range(1, 6)]
    members += [cross_polytope_boundary(d) for d in range(1, 5)]
    members += [
        stacked_simplicial_ball(2, 5),
        stacked_simplicial_ball(3, 2),
        stacked_simplicial_ball(3, 7, gluing="tree", seed=2),
        stacked_simplicial_ball(4, 10, gluing="tree", seed=5),
    ]
    members += [stacked_sphere(2, 8), stacked_sphere(3, 12)]
    return members


def derived_simplicial_tables(S):
    """``S``, its vertex links and their vertex links, each built, and the
    boundary of each pure one and of that boundary: every way a simplicial
    table is filled but ``link_face``."""
    tables = [S]
    for v in S.vertices:
        link = S.link(v)
        tables += [link, *map(link.link, link.vertices)]
    boundaries = [C.boundary for C in tables if C.pure]
    return tables + boundaries + [B.boundary for B in boundaries]
