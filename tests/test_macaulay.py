"""Binomial decompositions, pseudopowers and M-vector checks."""

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubicomb import (
    HVector,
    check_g_theorem_conditions,
    cross_polytope_boundary,
    f_vector,
    h_simplicial,
    is_m_vector,
    macaulay_rep,
    pseudopower,
    simplex_boundary,
)
from oracles import reference_macaulay_terms


def test_macaulay_rep_small_cases():
    assert macaulay_rep(10, 3).terms == ((5, 3),)
    assert macaulay_rep(11, 3).terms == ((5, 3), (2, 2))
    assert macaulay_rep(0, 4).terms == ()
    assert macaulay_rep(1, 1).terms == ((1, 1),)
    assert macaulay_rep(7, 1).terms == ((7, 1),)


def test_macaulay_rep_structure_sweep():
    for position in range(1, 7):
        for value in range(0, 2000, 7):
            rep = macaulay_rep(value, position)
            assert rep.total() == value
            positions = [t for _, t in rep.terms]
            assert positions == sorted(positions, reverse=True)
            if positions:
                assert positions[0] == position or value < comb(position, position)
                assert positions[-1] >= 1
            tops = [n for n, _ in rep.terms]
            assert all(a > b for a, b in zip(tops, tops[1:]))
            for n, t in rep.terms:
                assert n >= t
            # greediness: the leading term cannot be enlarged
            if rep.terms:
                n0, t0 = rep.terms[0]
                assert comb(n0 + 1, t0) > value


@st.composite
def scannable(draw):
    """A position 1..12 and a value up to 10^15 whose linear search takes at
    most 2,000 steps per term (every term's n is below the first one's),
    drawn as often near the cap as near 0."""
    position = draw(st.integers(1, 12))
    cap = min(10**15, comb(position + 2000, position))
    offset = draw(st.integers(0, cap))
    return (cap - offset if draw(st.booleans()) else offset), position


@given(scannable())
def test_macaulay_rep_matches_the_linear_search(case):
    value, position = case
    assert macaulay_rep(value, position).terms == reference_macaulay_terms(value, position)


def test_macaulay_rep_rejects_bad_input():
    with pytest.raises(ValueError):
        macaulay_rep(-1, 2)
    with pytest.raises(ValueError):
        macaulay_rep(4, 0)


def test_pseudopower_fixed_points():
    assert pseudopower(2, 2) == 2
    for i in range(1, 11):
        assert pseudopower(0, i) == 0
        assert pseudopower(1, i) == 1
        assert pseudopower(2, i) <= 2 or i == 1
    assert pseudopower(2, 1) == 3


def test_pseudopower_values():
    assert pseudopower(3, 2) == 4
    assert pseudopower(4, 2) == 5
    assert pseudopower(6, 2) == 10
    assert pseudopower(4, 3) == 5


def test_pseudopower_monotone_in_value():
    for position in range(1, 6):
        prev = 0
        for value in range(0, 300):
            cur = pseudopower(value, position)
            assert cur >= prev
            prev = cur


def test_is_m_vector():
    assert is_m_vector((1,)).ok
    assert is_m_vector((1, 4, 10, 20)).ok
    assert is_m_vector((1, 2, 3, 3)).ok
    bad = is_m_vector((1, 2, 4))
    assert not bad.ok and bad.violation_index == 2
    assert not is_m_vector((0, 1)).ok
    assert is_m_vector((0, 1)).violation_index == 0
    neg = is_m_vector((1, 3, -1))
    assert not neg.ok and neg.violation_index == 2
    assert not is_m_vector(()).ok


def test_g_theorem_conditions_pass():
    octa = h_simplicial(f_vector(cross_polytope_boundary(3).complex))
    report = check_g_theorem_conditions(octa)
    assert report.status == "pass"
    sphere = h_simplicial(f_vector(simplex_boundary(5).complex))
    assert check_g_theorem_conditions(sphere).status == "pass"


def test_g_theorem_conditions_fail_on_asymmetry():
    h = HVector("simplicial", 2, (1, 5, 2, 1))
    report = check_g_theorem_conditions(h)
    assert report.status == "fail"
    assert "symmetry" in report.witness


def test_g_theorem_conditions_fail_on_growth():
    # symmetric, h0 = 1, but g = (1, 0, 4) violates Macaulay growth
    h = HVector("simplicial", 4, (1, 1, 5, 1, 1))
    report = check_g_theorem_conditions(h)
    assert report.status == "fail"
    assert "M-vector" in report.witness


def test_g_theorem_conditions_need_simplicial():
    with pytest.raises(ValueError):
        check_g_theorem_conditions(HVector("short_cubical", 2, (4, 4, 4)))
