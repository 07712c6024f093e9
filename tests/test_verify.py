"""Verifier behavior: pass/fail/inapplicable statuses and report contents."""

import argparse
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from cubicomb import (
    Check,
    GeneratedComplex,
    NotPure,
    Precondition,
    build_cubical,
    build_simplicial,
    cross_polytope_boundary,
    cube_boundary,
    cubical_torus,
    format_report,
    make_report,
    pile_boundary,
    pile_of_cubes,
    prism,
    run_suite,
    simplex,
    solid_cube,
    stacked_cubical,
    stacked_simplicial_ball,
    stacked_sphere,
    verify_adin_ds,
    verify_alternating_g_sum,
    verify_cubical_ball_ds,
    verify_cubical_boundary_ds,
    verify_face_lower_bounds,
    verify_four_sphere_glbc,
    verify_h_vector_identities,
    verify_middle_glbc,
    verify_simplicial_boundary_ds,
    verify_small_g2_glbc,
    verify_small_link_glbc,
    verify_stacked_link_plateau,
    verify_vertex_lower_bound,
    verify_vertex_pair_bound,
)
from cubicomb import CubicalCell
from cubicomb import complexes
from cubicomb import verify as verify_module
from cubicomb.cli import _build_parser
from cubicomb.verify import (
    CUBICAL_VERIFIERS,
    REGISTRY,
    SIMPLICIAL_VERIFIERS,
    SUITES,
    _dim_at_least,
    _link_g2_at_most_2,
)
from families import cubical_family, simplicial_family
from oracles import reference_boundary_faces

BOWTIE = GeneratedComplex(
    build_simplicial([[1, 2, 3], [3, 4, 5]]), "manifold-with-boundary", "bowtie"
)

BOOK = build_cubical(
    [CubicalCell(2, (0, 1, 2, 3)), CubicalCell(2, (0, 1, 4, 5)), CubicalCell(2, (0, 1, 6, 7))]
)


def test_report_statuses_and_witness():
    ok = make_report("demo", [Precondition("fine", True)], [Check("one", 1, 1)])
    assert ok.status == "pass" and ok.passed and ok.witness is None
    bad = make_report("demo", [], [Check("one", 1, 2, context="why")])
    assert bad.status == "fail"
    assert bad.witness == "one: 1 == 2 fails [why]"
    gated = make_report("demo", [Precondition("nope", False, "detail")], [Check("one", 1, 2)])
    assert gated.status == "inapplicable"
    assert gated.witness == "nope (detail)"
    assert gated.checks  # checks are preserved for cross-examination


def test_report_formatting_is_stable():
    report = make_report(
        "demo",
        [Precondition("ready", True, "dim 2")],
        [Check("sum", 3, 3), Check("bound", 5, 4, ">=")],
    )
    assert format_report(report) == (
        "check demo: pass\n"
        "  require ready: ok (dim 2)\n"
        "  sum: 3 == 3 ok\n"
        "  bound: 5 >= 4 ok"
    )


def test_check_relations():
    assert Check("a", 1, 2, "<=").ok
    assert not Check("a", 3, 2, "<=").ok
    assert Check("a", 3, 2, ">=").ok
    with pytest.raises(ValueError):
        Check("a", 1, 2, "!=")


def test_report_to_dict_round_trip_fields():
    report = make_report("demo", [Precondition("p", True)], [Check("c", 1, 1)])
    d = report.to_dict()
    assert d["name"] == "demo" and d["status"] == "pass"
    assert d["checks"][0] == {
        "label": "c", "lhs": 1, "rhs": 1, "relation": "==", "ok": True, "context": "",
    }


def test_classifiers():
    shell = cube_boundary(3).complex
    assert shell.pure and shell.pseudomanifold
    assert shell.semi_eulerian and shell.eulerian
    torus = cubical_torus(4, 4).complex
    assert torus.pseudomanifold and torus.semi_eulerian
    assert not torus.eulerian
    ball = solid_cube(2).complex
    assert not ball.pseudomanifold
    assert not ball.semi_eulerian
    assert not BOOK.pseudomanifold
    assert not BOWTIE.complex.pseudomanifold  # vertices only pair off in facets
    mixed = build_cubical([CubicalCell(2, (0, 1, 2, 3)), CubicalCell(1, (4, 5))])
    assert not mixed.pure
    with pytest.raises(NotPure):
        mixed.pseudomanifold


def test_pseudomanifold_in_dimension_zero():
    two_points = build_simplicial([[0], [1]])
    assert two_points.pseudomanifold
    assert not build_simplicial([[0], [1], [2]]).pseudomanifold


def test_adin_ds_passes_on_closed_family_members():
    for gc in cubical_family():
        report = verify_adin_ds(gc)
        if gc.complex.pure and gc.complex.dim >= 0 and gc.complex.semi_eulerian:
            assert report.status == "pass", (gc.provenance, report.witness)
        else:
            assert report.status == "inapplicable"


def test_adin_ds_gates():
    assert verify_adin_ds(simplex(2)).status == "inapplicable"
    assert verify_adin_ds(solid_cube(2)).status == "inapplicable"


def test_vertex_pair_bound_on_everything():
    for gc in cubical_family():
        report = verify_vertex_pair_bound(gc)
        assert report.status == "pass", (gc.provenance, report.witness)
    assert verify_vertex_pair_bound(solid_cube(0)).status == "inapplicable"
    assert verify_vertex_pair_bound(simplex(1)).status == "inapplicable"


def test_vertex_lower_bound_equality_on_cube_boundary():
    report = verify_vertex_lower_bound(cube_boundary(3))
    assert report.status == "pass"
    by_label = {c.label: c for c in report.checks}
    assert by_label["f_0 >= 2^(d+1)"].lhs == by_label["f_0 >= 2^(d+1)"].rhs == 8
    assert "equality forces facet degree d+1" in by_label
    assert "facet degree d+1 forces equality" in by_label
    assert by_label["2^d divides (d+1) f_0"].ok


def test_vertex_lower_bound_strict_on_torus():
    report = verify_vertex_lower_bound(cubical_torus(4, 4))
    assert report.status == "pass"
    labels = [c.label for c in report.checks]
    assert "equality forces facet degree d+1" not in labels
    assert verify_vertex_lower_bound(pile_of_cubes(2, 2)).status == "inapplicable"
    assert verify_vertex_lower_bound(cube_boundary(2)).status == "inapplicable"  # dim 1


def test_face_lower_bounds_pass_on_closed_members():
    for gc in cubical_family():
        report = verify_face_lower_bounds(gc)
        K = gc.complex
        applicable = K.pure and K.dim >= 2 and K.pseudomanifold
        assert report.status == ("pass" if applicable else "inapplicable"), gc.provenance


def test_h_identities_pass_on_every_member():
    for gc in cubical_family():
        report = verify_h_vector_identities(gc)
        assert report.status == "pass", (gc.provenance, report.witness)
    assert verify_h_vector_identities(simplex(2)).status == "inapplicable"


def test_stacked_link_plateau():
    assert verify_stacked_link_plateau(cube_boundary(3)).status == "pass"
    assert verify_stacked_link_plateau(cube_boundary(5)).status == "pass"
    report = verify_stacked_link_plateau(stacked_cubical(3, 3)[1])
    assert report.status == "pass"
    assert [c.lhs for c in report.checks] == [12]
    assert verify_stacked_link_plateau(cube_boundary(4)).status == "inapplicable"  # odd d
    assert verify_stacked_link_plateau(cubical_torus(4, 4)).status == "inapplicable"


def test_four_sphere_glbc():
    report = verify_four_sphere_glbc(pile_boundary(2, 2, 1, 1, 1))
    assert report.status == "pass"
    by_label = {c.label: c for c in report.checks}
    assert by_label["g[c][2] >= 0"].lhs == 8
    assert by_label["g[c][2] == link sum"].ok
    assert verify_four_sphere_glbc(cube_boundary(3)).status == "inapplicable"  # dim 2
    assert verify_four_sphere_glbc(cubical_torus(4, 4)).status == "inapplicable"


def test_middle_glbc():
    assert verify_middle_glbc(cube_boundary(3)).status == "pass"
    assert verify_middle_glbc(pile_boundary(2, 2, 1, 1, 1)).status == "pass"
    unflagged = GeneratedComplex(pile_boundary(2, 2).complex, "sphere", "no flag", polytopal=False)
    assert verify_middle_glbc(unflagged).status == "inapplicable"
    assert verify_middle_glbc(cubical_torus(4, 4)).status == "inapplicable"


def test_alternating_g_sum():
    assert verify_alternating_g_sum(cube_boundary(5)).status == "pass"
    assert verify_alternating_g_sum(pile_boundary(3, 2, 1)).status == "pass"
    assert verify_alternating_g_sum(cube_boundary(4)).status == "inapplicable"  # odd d


def test_small_g2_glbc():
    assert verify_small_g2_glbc(pile_boundary(2, 2, 1, 1, 1)).status == "pass"
    assert verify_small_g2_glbc(pile_boundary(2, 2, 1)).status == "pass"
    assert verify_small_g2_glbc(cubical_torus(4, 4)).status == "inapplicable"


def test_link_g2_gate_names_the_worst_vertex_when_unmet():
    # Vertex 0 meets eight edges and one square for each pair of them, so its
    # link is the complete graph on 8 vertices; a disjoint 4-cube makes the
    # dimension 4, where the link has h = (1, 4, 10, ...) and g_2 = 6.
    hub = [(0, a, b, x) for x, (a, b) in enumerate(combinations(range(1, 9), 2), start=9)]
    cells = [CubicalCell(2, c) for c in hub] + [CubicalCell(4, tuple(range(40, 56)))]
    gc = GeneratedComplex(build_cubical(cells), "none", "hub of squares")
    assert _link_g2_at_most_2(gc) == Precondition(
        "every vertex link has g_2 <= 2", False, "max g_2(lk v) = 6 at vertex 0"
    )


def test_small_link_glbc():
    assert verify_small_link_glbc(cube_boundary(5)).status == "pass"
    assert verify_small_link_glbc(stacked_cubical(3, 5)[1]).status == "pass"
    report = verify_small_link_glbc(pile_boundary(2, 2, 1, 1, 1))
    assert report.status == "inapplicable"  # a vertex sees 7 link vertices
    assert "7 link vertices" in report.witness


def test_simplicial_boundary_ds_passes():
    for gc in simplicial_family():
        report = verify_simplicial_boundary_ds(gc)
        if gc.topology == "ball":
            assert report.status == "pass", (gc.provenance, report.witness)
        else:
            assert report.status == "inapplicable"
            # closed members still satisfy the identity with an empty boundary
            if gc.complex.pseudomanifold and gc.complex.semi_eulerian:
                assert all(c.ok for c in report.checks), gc.provenance


def test_simplicial_boundary_ds_fails_on_bowtie():
    report = verify_simplicial_boundary_ds(BOWTIE)
    assert report.status == "fail"
    assert report.witness == "i=1: -3 == -2 fails"
    by_label = {c.label: c for c in report.checks}
    assert by_label["i=0"].ok
    assert (by_label["i=1"].lhs, by_label["i=1"].rhs) == (-3, -2)


def test_simplicial_boundary_ds_gates():
    fan = build_simplicial([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    flagged = GeneratedComplex(fan, "manifold-with-boundary", "book of triangles")
    report = verify_simplicial_boundary_ds(flagged)
    assert report.status == "inapplicable"
    assert "one or two facets" in report.witness
    assert verify_simplicial_boundary_ds(cube_boundary(2)).status == "inapplicable"


def test_cubical_boundary_ds_passes():
    for gc in [solid_cube(2), solid_cube(3), pile_of_cubes(2, 1), pile_of_cubes(2, 2),
               pile_of_cubes(3, 2, 1), prism(cube_boundary(3))]:
        report = verify_cubical_boundary_ds(gc)
        assert report.status == "pass", (gc.provenance, report.witness)


def test_cubical_boundary_ds_torus_cross_check():
    # closed input: inapplicable, but the identity degenerates to the closed
    # form and every stored check holds with the empty boundary convention
    report = verify_cubical_boundary_ds(cubical_torus(4, 4))
    assert report.status == "inapplicable"
    assert all(c.ok for c in report.checks)
    j1 = [c for c in report.checks if c.label == "j=1"][0]
    assert (j1.lhs, j1.rhs) == (8, 8)


def test_cubical_boundary_ds_gates():
    flagged = GeneratedComplex(BOOK, "manifold-with-boundary", "book of squares")
    report = verify_cubical_boundary_ds(flagged)
    assert report.status == "inapplicable"
    assert "one or two facets" in report.witness
    assert verify_cubical_boundary_ds(solid_cube(0)).status == "inapplicable"


def test_cubical_ball_ds():
    report = verify_cubical_ball_ds(pile_of_cubes(2, 2))
    assert report.status == "pass"
    assert [(c.lhs, c.rhs) for c in report.checks] == [(-4, -4), (4, 4)]
    assert verify_cubical_ball_ds(cubical_torus(4, 4)).status == "inapplicable"
    assert verify_cubical_ball_ds(prism(cube_boundary(3))).status == "inapplicable"


def test_no_verifier_fails_anywhere_on_the_family():
    for gc in cubical_family():
        for fn in CUBICAL_VERIFIERS:
            report = fn(gc)
            assert report.status != "fail", (gc.provenance, report.name, report.witness)
    for gc in simplicial_family():
        for fn in SIMPLICIAL_VERIFIERS:
            report = fn(gc)
            assert report.status != "fail", (gc.provenance, report.name, report.witness)


def test_run_suite():
    torus = cubical_torus(4, 4)
    reports = run_suite("adin-ds", torus)
    assert [r.name for r in reports] == ["adin-dehn-sommerville"]
    everything = run_suite("all", torus)
    assert len(everything) == len(CUBICAL_VERIFIERS)
    simp = run_suite("all", simplex(2))
    assert len(simp) == len(SIMPLICIAL_VERIFIERS)
    with pytest.raises(ValueError):
        run_suite("nope", torus)
    with pytest.raises(ValueError):
        run_suite("ns-ds", torus)
    with pytest.raises(ValueError):
        run_suite("adin-ds", simplex(2))


def test_registry_names_are_unique():
    names = [v.name for v in REGISTRY]
    assert len(names) == len(set(names)) == 14


def test_every_verifier_is_in_exactly_one_suite():
    listed = Counter(fn.name for _, fns in SUITES.values() for fn in fns)
    assert listed == Counter(v.name for v in REGISTRY)
    assert set(listed.values()) == {1}


def test_suite_order_is_the_registry_order():
    for kind, verifiers, x in (
        ("cubical", CUBICAL_VERIFIERS, cubical_torus(4, 4)),
        ("simplicial", SIMPLICIAL_VERIFIERS, simplex(2)),
    ):
        assert verifiers == tuple(fn for k, fns in SUITES.values() if k == kind for fn in fns)
        assert [r.name for r in run_suite("all", x)] == [v.name for v in verifiers]


def test_cli_suite_choices_follow_the_registry():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert list(suite.choices) == sorted(SUITES) + ["all"]


class _CountedItems(dict):
    """A link Euler table that counts the sweeps over it."""

    sweeps = 0

    def items(self):
        self.sweeps += 1
        return super().items()


def _run_all(x):
    return run_suite("all", x)


def _run_one_by_one(x):
    return [fn(x) for fn in CUBICAL_VERIFIERS]


def unbuilt(C):
    """Whether the ``_lazy`` table ``C`` still holds its build and no table."""
    return "_build" in vars(C) and {"_dims", "_ids", "_maximal", "_name"}.isdisjoint(vars(C))


@pytest.mark.parametrize("runner", [_run_all, _run_one_by_one])
def test_verify_all_computes_shared_facts_once(runner, monkeypatch):
    reads, sweeps, facts = [], [], Counter()
    boundary = vars(complexes._FaceTable)["boundary"]
    facet_tables = complexes._facet_tables

    def counted_boundary(C, read=boundary.func):
        reads.append(C)
        return read(C)

    def counted_facet_tables(table, k):
        sweeps.append(k)
        return facet_tables(table, k)

    ball = pile_of_cubes(3, 2, 2)
    sphere = pile_boundary(3, 2, 2)
    monkeypatch.setattr(boundary, "func", counted_boundary)
    monkeypatch.setattr(complexes, "_facet_tables", counted_facet_tables)
    for name in ("_f_vector", "_reduced_euler", "_h_short_links"):
        fact = vars(complexes.CubicalComplex).get(name) or vars(complexes._FaceTable)[name]

        def counted_fact(C, name=name, build=fact.func):
            facts[name, id(C)] += 1
            return build(C)

        monkeypatch.setattr(fact, "func", counted_fact)
    runner(ball)
    assert reads == [ball.complex]  # the boundary view, read once
    assert sweeps == [ball.complex.dim]  # one ridge sweep, which also finds the free ridges
    B = ball.complex.boundary
    assert unbuilt(B)  # the boundary verifiers and gates only count it
    assert facts == {
        ("_f_vector", id(ball.complex)): 1,
        ("_f_vector", id(B)): 1,  # the boundary's, for the interior faces
        ("_reduced_euler", id(ball.complex)): 1,
        ("_h_short_links", id(ball.complex)): 1,
    }
    facts.clear()
    table = _CountedItems(sphere.complex.link_euler)
    vars(sphere.complex)["link_euler"] = table
    runner(sphere)
    assert table.sweeps == 1  # the Euler condition, tested once
    assert set(facts.values()) == {1}
    assert {name for name, _ in facts} == {"_f_vector", "_reduced_euler", "_h_short_links"}


def test_boundary_verifiers_count_the_boundary_and_spheres_build_theirs():
    for suite, gc in (("ns-ds", stacked_simplicial_ball(3, 20)), ("all", pile_of_cubes(3, 2, 2))):
        status = {r.name: r.status for r in run_suite(suite, gc)}
        assert {status[name] for name in status if "-ds" in name} == {"pass"}
        assert gc.complex.boundary.dim == gc.complex.dim - 1 and unbuilt(gc.complex.boundary)
    for sphere, ball in (
        (stacked_sphere(3, 20), stacked_simplicial_ball(4, 16)),
        (pile_boundary(3, 2, 2), pile_of_cubes(3, 2, 2)),
    ):
        run_suite("all", sphere)
        assert not unbuilt(sphere.complex)
        K = ball.complex
        free = reference_boundary_faces(K.faces, K.cells).values()
        cells = sorted((f for f in free if f[0] == K.dim - 1), key=lambda f: sorted(f[1]))
        assert [(c.dim, c.corners) for c in sphere.complex.cells] == cells


@pytest.mark.parametrize("family", [pile_of_cubes, pile_boundary])
def test_verify_all_evaluates_each_distinct_gate_once(family, monkeypatch):
    met = Counter()

    def counted(description, ok, detail=""):
        met[description] += 1
        return Precondition(description, ok, detail)

    gc = family(3, 2, 2)
    monkeypatch.setattr(verify_module, "Precondition", counted)
    reports = run_suite("all", gc)
    assert set(met.values()) == {1}
    assert set(met) == {p.description for r in reports for p in r.preconditions}
    met.clear()
    [fn(gc) for fn in CUBICAL_VERIFIERS]  # a verifier on its own evaluates its own gates
    assert met["cubical complex"] == len(CUBICAL_VERIFIERS)


def test_equal_gates_are_one_object():
    assert _dim_at_least(1) is _dim_at_least(1)
    kind_gates = {v.kind: v.stages[0][0] for v in REGISTRY}
    assert all(v.stages[0] == (kind_gates[v.kind],) for v in REGISTRY)


def test_verify_all_matches_the_verifiers_one_by_one():
    for gc, fresh in zip(
        cubical_family() + simplicial_family(), cubical_family() + simplicial_family()
    ):
        one_by_one = [fn(fresh) for fn in REGISTRY if fn.kind == fresh.complex.kind]
        assert run_suite("all", gc) == one_by_one, gc.provenance


@pytest.mark.parametrize(
    "family, sides", [(cubical_torus, (5, 5, 6, 6)), (pile_of_cubes, (3, 2, 2))]
)
def test_verify_all_transforms_each_distinct_vertex_link_once(family, sides, monkeypatch):
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    gc = family(*sides)
    monkeypatch.setattr(complexes, "h_simplicial", counted(complexes.h_simplicial))
    monkeypatch.setattr(complexes, "g_vector", counted(complexes.g_vector))
    run_suite("all", gc)
    gc.complex.link_g_vectors
    distinct = len(set(gc.complex.vertex_coface_counts.values()))
    assert distinct < len(gc.complex.vertices)
    assert calls == {"h_simplicial": distinct, "g_vector": distinct}


def test_readme_suite_table_matches_the_registry():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    rows = [line.split(" | ") for line in readme.splitlines() if line.startswith("| `")]
    table = {
        suite.strip("| `"): (kind, [name.strip("` |") for name in names.split(", ")])
        for suite, kind, names in rows
    }
    assert table == {
        suite: (kind, [fn.name for fn in fns]) for suite, (kind, fns) in SUITES.items()
    }
