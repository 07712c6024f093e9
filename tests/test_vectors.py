"""Exact f/h/g transforms, checked against polynomial-expansion oracles."""

import pytest

from cubicomb import (
    CubicalComplex,
    FVector,
    HVector,
    cross_polytope_boundary,
    cube_boundary,
    cubical_torus,
    f_from_h_simplicial,
    f_vector,
    g_vector,
    h_long_cubical,
    h_short_cubical_from_f,
    h_short_cubical_from_links,
    h_simplicial,
    pile_of_cubes,
    prism,
    reduced_euler,
    simplex_boundary,
    stacked_simplicial_ball,
)
from families import cubical_family, simplicial_family
from oracles import h_short_cubical_poly, h_simplicial_poly


def test_f_vector_conventions():
    f = f_vector(cross_polytope_boundary(3).complex)
    assert f.entries == (1, 6, 12, 8)
    assert (f.f(-1), f.f(0), f.f(2), f.f(3)) == (1, 6, 8, 0)
    fc = f_vector(cube_boundary(3).complex)
    assert fc.entries == (8, 12, 6)
    assert (fc.f(-1), fc.f(0), fc.f(5)) == (1, 8, 0)


def test_reduced_euler_values():
    assert reduced_euler(cross_polytope_boundary(3).complex) == 1
    assert reduced_euler(simplex_boundary(3).complex) == 1
    assert reduced_euler(cube_boundary(4).complex) == -1
    assert reduced_euler(cubical_torus(4, 4).complex) == -1
    assert reduced_euler(cubical_torus(4, 4, 4).complex) == -1
    assert reduced_euler(pile_of_cubes(2, 2).complex) == 0


def test_h_simplicial_frozen_values():
    assert h_simplicial(f_vector(cross_polytope_boundary(3).complex)).entries == (1, 3, 3, 1)
    assert h_simplicial(f_vector(simplex_boundary(4).complex)).entries == (1, 1, 1, 1, 1)
    assert h_simplicial(f_vector(stacked_simplicial_ball(3, 2).complex)).entries == (1, 1, 0, 0, 0)


def test_h_simplicial_matches_polynomial_oracle():
    for gc in simplicial_family():
        f = f_vector(gc.complex)
        expect = h_simplicial_poly(f.entries, f.dim + 1)
        assert h_simplicial(f).entries == expect, gc.provenance


def test_h_simplicial_ambient_rank_padding():
    f = f_vector(simplex_boundary(2).complex)  # triangle circle, rank 2
    padded = h_simplicial(f, rank=4)
    assert padded.entries == h_simplicial_poly(f.entries, 4)
    assert padded.dim == 3
    with pytest.raises(ValueError):
        h_simplicial(f, rank=1)


def test_h_simplicial_rejects_cubical_input():
    with pytest.raises(ValueError):
        h_simplicial(f_vector(cube_boundary(2).complex))


def test_f_h_round_trip():
    for gc in simplicial_family():
        f = f_vector(gc.complex)
        assert f_from_h_simplicial(h_simplicial(f)).entries == f.entries


def test_short_cubical_h_oracle_and_frozen_values():
    p21 = f_vector(pile_of_cubes(2, 1).complex)
    assert h_short_cubical_from_f(p21).entries == (6, 2, 0)
    four_cycle = f_vector(cube_boundary(2).complex)
    assert h_short_cubical_from_f(four_cycle).entries == (4, 4)
    for gc in cubical_family():
        f = f_vector(gc.complex)
        expect = h_short_cubical_poly(f.entries, f.dim)
        assert h_short_cubical_from_f(f).entries == expect, gc.provenance


def test_short_cubical_needs_cubical_nonempty():
    with pytest.raises(ValueError):
        h_short_cubical_from_f(f_vector(simplex_boundary(2).complex))
    with pytest.raises(ValueError):
        h_short_cubical_from_f(FVector("cubical", -1, ()))


def test_link_route_equals_f_route():
    for gc in cubical_family():
        K = gc.complex
        assert h_short_cubical_from_links(K) == h_short_cubical_from_f(f_vector(K)), gc.provenance


def test_long_cubical_frozen_values():
    assert cube_boundary(3).complex.h_long.entries == (4, 4, 4, 4)
    assert cube_boundary(4).complex.h_long.entries == (8, 8, 8, 8, 8)
    assert cubical_torus(4, 4).complex.h_long.entries == (4, 12, 20, -4)
    assert pile_of_cubes(2, 1).complex.h_long.entries == (4, 2, 0, 0)
    assert prism(cube_boundary(2)).complex.h_long.entries == (4, 4, 4, -4)


def test_long_cubical_recurrence_and_top_entry():
    for gc in cubical_family():
        K = gc.complex
        hsc = h_short_cubical_from_f(f_vector(K))
        hc = h_long_cubical(hsc)
        d = K.dim
        assert hc.h(0) == 1 << d
        for i in range(d + 1):
            assert hc.h(i + 1) == hsc.h(i) - hc.h(i)
        assert hc.h(d + 1) == (-2) ** d * reduced_euler(K), gc.provenance


def test_long_cubical_rejects_wrong_kind():
    with pytest.raises(ValueError):
        h_long_cubical(HVector("simplicial", 2, (1, 3, 3, 1)))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: f_from_h_simplicial(cube_boundary(3).complex.h_long),
            "f_from_h_simplicial needs a simplicial h-vector",
        ),
        (
            lambda: h_short_cubical_from_links(CubicalComplex.empty()),
            "short cubical h-vector needs dimension >= 0",
        ),
        (
            lambda: h_long_cubical(cube_boundary(3).complex),
            "h_long_cubical needs a short cubical h-vector",
        ),
    ],
)
def test_transform_refusals_name_their_reason(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (ValueError, message)


def test_the_cached_link_sum_refuses_an_empty_complex_on_every_call():
    empty = CubicalComplex.empty()
    for _ in range(2):
        with pytest.raises(ValueError, match="needs dimension >= 0"):
            h_short_cubical_from_links(empty)


def test_g_vector_conventions():
    h = h_simplicial(f_vector(cross_polytope_boundary(3).complex))
    g = g_vector(h, upto=1)
    assert g.entries == (1, 2)
    assert g.g(0) == 1 and g.g(5) == 0
    full = g_vector(h)
    assert full.entries == (1, 2, 0, -2)
    assert g_vector(cube_boundary(3).complex.h_long).kind == "cubical"


def test_vector_padding_out_of_range():
    h = HVector("short_cubical", 1, (4, 4))
    assert h.h(-1) == 0 and h.h(2) == 0
