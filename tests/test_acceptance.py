"""End-to-end acceptance sweep.

Each test checks one shipping criterion over generated inputs, collects every
violation instead of stopping at the first, and prints a single verdict line
(echoed again in the terminal summary).  Numbering is stable: other modules
exercise the machinery piecewise, these nine tests are the release gate.
"""

import time
from itertools import combinations_with_replacement, permutations
from math import comb

from conftest import begin, finish

from cubicomb import (
    FVector,
    boundary_complex,
    build_simplicial,
    cube_boundary,
    cubical_torus,
    f_vector,
    g_vector,
    h_short_cubical_from_f,
    h_short_cubical_from_links,
    h_simplicial,
    link_of_vertex,
    macaulay_rep,
    parses,
    pile_boundary,
    pile_of_cubes,
    pseudopower,
    reduced_euler,
    serialize,
    serializes,
    simplex,
    solid_cube,
    stacked_simplicial_ball,
    verify_adin_ds,
    verify_cubical_boundary_ds,
    verify_four_sphere_glbc,
    verify_simplicial_boundary_ds,
    verify_vertex_lower_bound,
    verify_vertex_pair_bound,
)
from cubicomb.cli import entry
from cubicomb.generators import GeneratedComplex
from families import cubical_family, simplicial_family


def _check_map(report):
    return {c.label: c for c in report.checks}


def test_criterion_1_closed_symmetry_with_euler_defect():
    """Long/short h-vector symmetry on closed complexes, exact at every index,
    with the nonzero defect right side on even-dimensional tori, under 5 s."""
    begin(1)
    failures = []
    started = time.perf_counter()
    inputs = [cube_boundary(n) for n in range(2, 7)]
    tori = {sides: cubical_torus(*sides) for sides in [(4, 4), (4, 4, 4), (5, 4)]}
    inputs += list(tori.values())
    for gc in inputs:
        report = verify_adin_ds(gc)
        if report.status != "pass":
            failures.append(f"{gc.provenance}: {report.status} ({report.witness})")
    for sides in [(4, 4), (5, 4)]:
        report = verify_adin_ds(tori[sides])
        rhs = [c.rhs for c in report.checks if c.label.startswith("long")]
        if rhs != [-8, 8, -8, 8]:
            failures.append(f"torus{sides} long right sides {rhs}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    finish(1, failures)


def _descending_tuples(axes, cell_cap):
    """All non-increasing side tuples of the given length whose product of
    sides (the number of top cells in the pile) is at most cell_cap."""
    out = []

    def grow(prefix, ceiling, cells):
        if len(prefix) == axes:
            out.append(tuple(prefix))
            return
        for side in range(1, ceiling + 1):
            if cells * side > cell_cap:
                break
            grow(prefix + [side], side, cells * side)

    grow([], cell_cap, 1)
    return out


def test_criterion_2_boundary_corrected_symmetry_on_balls():
    """Boundary-corrected symmetry of the long cubical h-vector at every index
    1..d on solid cubes and on every pile shape with at most 200 cells."""
    begin(2)
    failures = []
    for n in range(2, 5):
        report = verify_cubical_boundary_ds(solid_cube(n))
        if report.status != "pass":
            failures.append(f"solid_cube({n}): {report.status} ({report.witness})")
    swept = 0
    for axes in range(2, 5):
        for sides in _descending_tuples(axes, 200):
            report = verify_cubical_boundary_ds(pile_of_cubes(*sides))
            swept += 1
            if report.status != "pass":
                failures.append(f"pile{sides}: {report.status} ({report.witness})")
    if swept < 3:
        failures.append(f"only {swept} pile shapes swept")
    hand = _check_map(verify_cubical_boundary_ds(pile_of_cubes(2, 1)))
    if (hand["j=1"].lhs, hand["j=1"].rhs) != (-2, -2):
        failures.append(f"pile(2, 1) j=1 gave {hand['j=1'].lhs} vs {hand['j=1'].rhs}")
    if (hand["j=2"].lhs, hand["j=2"].rhs) != (2, 2):
        failures.append(f"pile(2, 1) j=2 gave {hand['j=2'].lhs} vs {hand['j=2'].rhs}")
    # Side order never changes any face count, so sweeping sorted shapes
    # covers every parameter tuple; spot-check the invariance itself.
    for shape in [(1, 2), (1, 2, 3)]:
        base = [
            (c.label, c.lhs, c.rhs)
            for c in verify_cubical_boundary_ds(pile_of_cubes(*sorted(shape, reverse=True))).checks
        ]
        for perm in permutations(shape):
            got = [
                (c.label, c.lhs, c.rhs)
                for c in verify_cubical_boundary_ds(pile_of_cubes(*perm)).checks
            ]
            if got != base:
                failures.append(f"pile{perm} disagrees with sorted shape")
    finish(2, failures)


def test_criterion_3_simplicial_boundary_corrected_symmetry():
    """Simplicial boundary-corrected symmetry on full simplices and on stacked
    balls of every size up to 50 facets, under both gluing orders."""
    begin(3)
    failures = []
    for d in range(0, 6):
        report = verify_simplicial_boundary_ds(simplex(d))
        if report.status != "pass":
            failures.append(f"simplex({d}): {report.status} ({report.witness})")
    for d in range(1, 5):
        for n in range(1, 51):
            for gluing in ("linear", "tree"):
                gc = stacked_simplicial_ball(d, n, gluing=gluing, seed=1000 * d + n)
                report = verify_simplicial_boundary_ds(gc)
                if report.status != "pass":
                    failures.append(
                        f"stacked ball d={d} n={n} {gluing}: {report.status}"
                        f" ({report.witness})"
                    )
    finish(3, failures)


def test_criterion_4_vertex_and_face_lower_bounds():
    """Closed pseudomanifolds need at least as many faces as the cube boundary
    of the same dimension, with equality only there; the weighted pair bound
    holds on every generated cubical complex."""
    begin(4)
    failures = []
    closed = [gc for gc in cubical_family() if gc.topology in ("sphere", "torus")]
    if len(closed) < 10:
        failures.append(f"only {len(closed)} closed members generated")
    for gc in closed:
        C = gc.complex
        d = C.dim
        f = f_vector(C)
        bounds = [comb(d + 1, i) * 2 ** (d + 1 - i) for i in range(d + 1)]
        for i in range(d + 1):
            if f.f(i) < bounds[i]:
                failures.append(f"{gc.provenance}: f_{i} = {f.f(i)} < {bounds[i]}")
        tight = all(f.f(i) == bounds[i] for i in range(d + 1))
        is_cube_boundary = gc.provenance.startswith("cube_boundary")
        if tight != is_cube_boundary:
            failures.append(
                f"{gc.provenance}: equality pattern {tight} but cube-boundary"
                f" flag {is_cube_boundary}"
            )
        if d >= 2:
            report = verify_vertex_lower_bound(gc)
            if report.status != "pass":
                failures.append(
                    f"{gc.provenance}: vertex bound {report.status} ({report.witness})"
                )
    for gc in cubical_family():
        report = verify_vertex_pair_bound(gc)
        if report.status != "pass":
            failures.append(f"{gc.provenance}: pair bound {report.status}")
    finish(4, failures)


def test_criterion_5_link_route_matches_face_route():
    """The short cubical h-vector computed from vertex links agrees with the
    one computed from face counts on every member of a corpus that spans at
    least thirty distinct complexes across dimensions one to five."""
    begin(5)
    failures = []
    members = cubical_family()
    signatures = {
        (gc.complex.dim, frozenset(gc.complex.faces.keys())) for gc in members
    }
    if len(signatures) != len(members):
        failures.append(f"{len(members) - len(signatures)} duplicate complexes in corpus")
    if len(members) < 30:
        failures.append(f"corpus has only {len(members)} members")
    dims = {gc.complex.dim for gc in members}
    if not {1, 2, 3, 4, 5} <= dims:
        failures.append(f"corpus dimensions {sorted(dims)} miss part of 1..5")
    for gc in members:
        via_links = h_short_cubical_from_links(gc.complex)
        via_f = h_short_cubical_from_f(f_vector(gc.complex))
        if via_links != via_f:
            failures.append(
                f"{gc.provenance}: links {via_links.entries} vs f {via_f.entries}"
            )
    finish(5, failures)


def test_criterion_6_top_entry_and_link_double_count():
    """The last long cubical h-entry is (-2)^d times the reduced Euler
    characteristic, and each weighted face count matches the vertex-link
    double count, on every generated cubical complex."""
    begin(6)
    failures = []
    for gc in cubical_family():
        C = gc.complex
        d = C.dim
        hc = C.h_long
        if hc.h(d + 1) != (-2) ** d * reduced_euler(C):
            failures.append(
                f"{gc.provenance}: top entry {hc.h(d + 1)} vs"
                f" {(-2) ** d * reduced_euler(C)}"
            )
        f = f_vector(C)
        for i in range(1, d + 1):
            link_sum = sum(
                counts[i] for counts in C.vertex_coface_counts.values()
            )
            if (1 << i) * f.f(i) != link_sum:
                failures.append(
                    f"{gc.provenance}: 2^{i} f_{i} = {(1 << i) * f.f(i)}"
                    f" vs link sum {link_sum}"
                )
        if len(C.faces) <= 600:
            for v in C.vertices:
                materialized = link_of_vertex(C, v).f_counts()
                counted = C.vertex_coface_counts[v][1:]
                if tuple(materialized) != tuple(counted):
                    failures.append(f"{gc.provenance}: link of {v} miscounted")
    finish(6, failures)


def test_criterion_7_four_dimensional_sphere_lower_bound():
    """The quadratic long cubical g-entry is nonnegative on at least twenty
    distinct four-dimensional cubical spheres, with zero failures."""
    begin(7)
    failures = []
    shapes = list(combinations_with_replacement((1, 2, 3), 5))
    if len(shapes) < 20:
        failures.append(f"only {len(shapes)} sphere shapes")
    for sides in shapes:
        gc = pile_boundary(*sides)
        if gc.complex.dim != 4:
            failures.append(f"pile_boundary{sides} has dimension {gc.complex.dim}")
            continue
        report = verify_four_sphere_glbc(gc)
        if report.status != "pass":
            failures.append(
                f"pile_boundary{sides}: {report.status} ({report.witness})"
            )
        g2 = _check_map(report).get("g[c][2] >= 0")
        if g2 is not None and g2.lhs < 0:
            failures.append(f"pile_boundary{sides}: g2 = {g2.lhs}")
    finish(7, failures)


def test_criterion_8_macaulay_round_trip_and_cascade():
    """Greedy binomial decompositions reconstruct every value up to 10^4 at
    positions up to 8; the pseudopower fixes 0, 1, and 2 at position 2 and
    never lets a value of at most 2 escape past 2 from position 2 on."""
    begin(8)
    failures = []
    started = time.perf_counter()
    for position in range(1, 9):
        for value in range(0, 10001):
            rep = macaulay_rep(value, position)
            if rep.total() != value:
                failures.append(f"rep({value}, {position}) sums to {rep.total()}")
    if pseudopower(2, 2) != 2:
        failures.append(f"pseudopower(2, 2) = {pseudopower(2, 2)}")
    for i in range(1, 11):
        if pseudopower(1, i) != 1:
            failures.append(f"pseudopower(1, {i}) = {pseudopower(1, i)}")
        if pseudopower(0, i) != 0:
            failures.append(f"pseudopower(0, {i}) = {pseudopower(0, i)}")
    for g in (0, 1, 2):
        for i in range(2, 11):
            if pseudopower(g, i) > 2:
                failures.append(f"pseudopower({g}, {i}) = {pseudopower(g, i)} > 2")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    finish(8, failures)


def test_criterion_9_file_round_trip_and_exit_codes(tmp_path, capsys):
    """Parsing a serialized document reproduces every generator output
    exactly, and the command line exercises all four documented exit codes."""
    begin(9)
    failures = []
    for gc in cubical_family() + simplicial_family():
        back = parses(serializes(gc))
        if back != gc:
            failures.append(f"{gc.provenance}: round trip changed the document")
    torus_path = tmp_path / "torus.json"
    serialize(cubical_torus(4, 4), torus_path)
    bowtie = GeneratedComplex(
        build_simplicial([[1, 2, 3], [3, 4, 5]]), "manifold-with-boundary", "bowtie"
    )
    bowtie_path = tmp_path / "bowtie.json"
    serialize(bowtie, bowtie_path)
    tetra_path = tmp_path / "tetra.json"
    serialize(simplex(3), tetra_path)
    expected = [
        (0, ["verify", "adin-ds", str(torus_path)]),
        (1, ["verify", "ns-ds", str(bowtie_path)]),
        (2, ["compute", "hsc", str(tetra_path)]),
        (3, ["verify", "boundary-ds", str(torus_path)]),
    ]
    for want, argv in expected:
        got = entry(argv)
        capsys.readouterr()
        if got != want:
            failures.append(f"exit {want} expected for {argv}, got {got}")
    finish(9, failures)
